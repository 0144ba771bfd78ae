"""Acceptance suite: ten end-to-end criteria covering ground-truth
recovery, baseline degradation, approximation-guarantee sweeps, and
structural LP properties.

Each test records a one-line summary in ``DETAILS``; the terminal hook in
conftest.py prints one PASS/FAIL line per criterion at the end of the run.
"""

from __future__ import annotations

import math
import time
from itertools import combinations

import numpy as np
import pytest

from motifcc.baselines import (
    edge_signs_from_graph,
    pivot_edge_baseline,
    pivot_vertex_baseline,
)
from motifcc.exact import exact_min_disagree
from motifcc.generators import (
    ANOMALY_BLOCK,
    LAYERED_FLOW_CYCLES,
    LAYERED_FLOW_LAYERS,
    anomaly_weights,
    fig2_weights,
    karate_factions,
    make_anomaly,
    make_fig2a,
    make_fig2b,
)
from motifcc.graph import DirectedGraph, Partition, misassigned_vertices
from motifcc.lpmodel import (
    build_lp1,
    build_lp2,
    build_lp3,
    count_upsilon,
    evaluate_objective,
    induced_point,
)
from motifcc.motifs import MixedWeights, MotifClass, MotifWeights, WeightRule
from motifcc.pipeline import RunConfig, run
from motifcc.rounding import certify, recommended_params, round_alg1, round_alg2
from motifcc.simplex import solve, verify_solution

from conftest import all_partitions
from test_lpmodel import brute_force_upsilon

#: per-criterion summary strings printed by the conftest terminal hook
DETAILS: dict[int, str] = {}

#: reference LP optima for the karate Table-1 runs, confirmed against an
#: independent LP solver; all three relaxations are tight (integral optimum)
KARATE_LP = {"CC": 249.25, "MCC": 2917.04, "MMCC": 838.05}

UNIFORM_K3 = WeightRule(
    {
        MotifClass.TRIANGLE: (0.0, 1.0),
        MotifClass.PATH: (0.0, 1.0),
        MotifClass.OTHER_TRIPLE: (0.0, 1.0),
    }
)
UNIFORM_K2 = WeightRule(
    {MotifClass.EDGE: (0.5, 1.0), MotifClass.NON_EDGE: (0.0, 0.5)}
)


def solve_optimal(problem):
    """Solve on HiGHS, as the pipeline does; asserts optimality."""
    result = solve(problem)
    assert result.status == "optimal"
    return result


def undirected_er(rng, n, p=0.4):
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    arcs = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    return DirectedGraph.from_arcs(n, arcs)


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    """Trigger first-call kernel compilation outside any timed section."""
    arcs = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]
    g = DirectedGraph.from_arcs(4, arcs)
    rule = WeightRule(
        {MotifClass.TRIANGLE: 1.0, MotifClass.PATH: 0.5, MotifClass.OTHER_TRIPLE: 0.5}
    )
    w = MotifWeights(3, g, rule)
    r1 = solve_optimal(build_lp1(w, 4))
    rec1 = recommended_params(3, "mcc-lp1")
    round_alg1(r1.solution, 4, 3, rec1.params)
    r2 = solve_optimal(build_lp2(w, 4))
    rec2 = recommended_params(3, "mcc-lp2")
    round_alg2(r2.solution, 4, 3, rec2.params, beta_bound=rec2.beta_bound)


@pytest.fixture(scope="module")
def karate_runs():
    """The three Table-1 pipeline runs, shared by criteria 1 and 9."""
    return {
        method: run(RunConfig(generator="karate", weights="table1", method=method))
        for method in ("CC", "MCC", "MMCC")
    }


def test_criterion_01_karate_ground_truth(karate_runs):
    factions = karate_factions()
    parts = {
        m: Partition.from_cluster_list(rep.clusters, rep.n)
        for m, rep in karate_runs.items()
    }
    assert misassigned_vertices(parts["MMCC"], factions) == []
    assert misassigned_vertices(parts["MCC"], factions) == []
    assert misassigned_vertices(parts["CC"], factions) == [10]
    assert karate_runs["MMCC"].relaxation == "LP3"
    assert karate_runs["MCC"].relaxation == "LP2"
    for method, rep in karate_runs.items():
        assert rep.lp_value == pytest.approx(KARATE_LP[method], abs=1e-4)
        assert rep.cost == pytest.approx(KARATE_LP[method], abs=1e-4)
    mmcc_solve = karate_runs["MMCC"].timings["solve"]
    cc_solve = karate_runs["CC"].timings["solve"]
    assert mmcc_solve <= 600.0
    assert cc_solve <= 60.0
    DETAILS[1] = (
        "MMCC+MCC recover the factions exactly, CC misassigns only vertex 10; "
        f"LP optima {KARATE_LP['CC']}/{KARATE_LP['MCC']}/{KARATE_LP['MMCC']} all tight "
        f"(LP3 solve {mmcc_solve:.1f}s, k=2 solve {cc_solve:.1f}s)"
    )


def test_criterion_02_fig2a_optimum_and_pivot_failure():
    t0 = time.perf_counter()
    fix = make_fig2a()
    mixed = fig2_weights(fix.graph)
    layer = next(iter(mixed))

    ex = exact_min_disagree(mixed)
    assert ex.cost == 0.0
    assert set(ex.partition.clusters) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}

    r1 = solve_optimal(build_lp1(layer.weights, 6))
    rec1 = recommended_params(3, "mcc-lp1")
    p1, _ = round_alg1(r1.solution, 6, 3, rec1.params)
    assert evaluate_objective(p1, mixed) == 0.0

    r2 = solve_optimal(build_lp2(layer.weights, 6))
    rec2 = recommended_params(3, "mcc-lp2")
    p2, _ = round_alg2(r2.solution, 6, 3, rec2.params, beta_bound=rec2.beta_bound)
    assert evaluate_objective(p2, mixed) == 0.0

    signs = edge_signs_from_graph(fix.graph)
    base = pivot_edge_baseline(signs, 6, mixed=mixed, first_edge=(1, 4))
    assert len(base.partition.clusters) == 1
    assert base.cost > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    DETAILS[2] = (
        "exact and both LP pipelines reach cost 0 with clusters {1,2,3},{4,5,6}; "
        f"pivot on bridge edge (1,4) merges everything at cost {base.cost:g} "
        f"({elapsed:.2f}s)"
    )


def test_criterion_03_fig2b_vertex_pivot_degradation():
    t0 = time.perf_counter()
    means = {}
    for n in (10, 15, 20):
        fix = make_fig2b(n)
        mixed = fig2_weights(fix.graph)
        layer = next(iter(mixed))
        signs = edge_signs_from_graph(fix.graph)
        costs = [
            pivot_vertex_baseline(signs, n, seed=s, mixed=mixed).cost
            for s in range(1000)
        ]
        means[n] = float(np.mean(costs))

        # the optimum is 0 at every n: costs are nonnegative and the
        # triangle/clique split below contains only positive triples
        zero = Partition.from_cluster_list([[1, 2, 3], list(range(4, n + 1))], n)
        assert evaluate_objective(zero, mixed) == 0.0
        if n == 10:
            ex = exact_min_disagree(mixed)
            assert ex.cost == 0.0

        res = solve_optimal(build_lp2(layer.weights, n))
        rec = recommended_params(3, "mcc-lp2")
        part, _ = round_alg2(
            res.solution, n, 3, rec.params, beta_bound=rec.beta_bound
        )
        cost = evaluate_objective(part, mixed)
        assert cost <= 9.0 * res.solution.objective_value + 1e-6

    assert means[10] < means[15] < means[20]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    DETAILS[3] = (
        "mean vertex-pivot cost over 1000 seeds grows "
        f"{means[10]:.2f} -> {means[15]:.2f} -> {means[20]:.2f} for n=10/15/20 "
        f"while the optimum stays 0 and LP2+Alg2 stays within 9x ({elapsed:.1f}s)"
    )


def test_criterion_04_anomaly_recovery():
    t0 = time.perf_counter()
    block = frozenset(ANOMALY_BLOCK)
    hits = 0
    for seed in range(10):
        fix = make_anomaly(seed=seed)
        n = fix.graph.n
        mixed = anomaly_weights(fix.graph)
        layer = next(iter(mixed))
        res = solve_optimal(build_lp2(layer.weights, n))
        rec = recommended_params(3, "mcc-lp2")
        part, _ = round_alg2(
            res.solution, n, 3, rec.params, beta_bound=rec.beta_bound, seed=seed
        )
        if block in set(part.clusters):
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 9
    assert elapsed <= 300.0
    DETAILS[4] = (
        f"anomaly block {{1..6}} recovered as exactly one cluster in {hits}/10 "
        f"seeds ({elapsed:.1f}s)"
    )


def test_criterion_05_approximation_guarantee_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    instances = 0
    violations = 0
    worst_emp1 = worst_emp2 = 0.0
    while instances < 200:
        n = int(rng.integers(4, 8))
        graph = undirected_er(rng, n, p=float(rng.uniform(0.2, 0.8)))
        weights = MotifWeights(3, graph, UNIFORM_K3, seed=int(rng.integers(1 << 30)))
        mixed = MixedWeights.single(weights)
        ex = exact_min_disagree(mixed)

        r1 = solve_optimal(build_lp1(weights, n))
        rec1 = recommended_params(3, "mcc-lp1")
        p1, _ = round_alg1(r1.solution, n, 3, rec1.params, seed=instances)
        c1 = evaluate_objective(p1, mixed)

        r2 = solve_optimal(build_lp2(weights, n))
        rec2 = recommended_params(3, "mcc-lp2")
        p2, _ = round_alg2(
            r2.solution, n, 3, rec2.params, beta_bound=rec2.beta_bound, seed=instances
        )
        c2 = evaluate_objective(p2, mixed)

        v1 = r1.solution.objective_value
        v2 = r2.solution.objective_value
        ok = (
            v1 <= ex.cost + 1e-6
            and v2 <= ex.cost + 1e-6
            and ex.cost <= c1 + 1e-6
            and ex.cost <= c2 + 1e-6
            and c1 <= 6.0 * v1 + 1e-6
            and c2 <= 9.0 * v2 + 1e-6
        )
        violations += not ok
        if v1 > 1e-9:
            worst_emp1 = max(worst_emp1, c1 / v1)
        if v2 > 1e-9:
            worst_emp2 = max(worst_emp2, c2 / v2)
        instances += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed <= 600.0
    DETAILS[5] = (
        f"{instances} random instances: LP <= exact <= rounded with Alg1 <= 6*LP1 "
        f"and Alg2 <= 9*LP2 throughout (worst empirical ratios "
        f"{worst_emp1:.2f}/{worst_emp2:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_06_induced_point_consistency(two_triangle_graph):
    mcc_rule = WeightRule(
        {
            MotifClass.TRIANGLE: 1.0,
            MotifClass.PATH: 2.0 / 3.0,
            MotifClass.OTHER_TRIPLE: 0.49,
        }
    )
    edge_rule = WeightRule({MotifClass.EDGE: 1.0, MotifClass.NON_EDGE: 0.45})
    w3 = MotifWeights(3, two_triangle_graph, mcc_rule)
    w2 = MotifWeights(2, two_triangle_graph, edge_rule)
    mcc = MixedWeights.single(w3)
    mmcc = MixedWeights([(2, w2, 1.0), (3, w3, 0.2)])
    cases = [
        (build_lp1(w3, 6), mcc),
        (build_lp2(w3, 6), mcc),
        (build_lp3(mmcc, 6), mmcc),
    ]
    checked = 0
    for labels in all_partitions(6):
        part = Partition.from_assignment(labels, 6)
        for problem, mixed in cases:
            point = induced_point(part, problem)
            assert verify_solution(problem, point, tol=1e-9).ok
            assert point.objective_value == pytest.approx(
                evaluate_objective(part, mixed), abs=1e-9
            )
        checked += 1
    assert checked == 203  # Bell(6)
    DETAILS[6] = (
        "all 203 partitions of n=6 induce LP1/LP2/LP3-feasible points whose "
        "objectives match the combinatorial cost to 1e-9"
    )


def test_criterion_07_upsilon_count_validation():
    for n in range(4, 9):
        assert count_upsilon(n, 3) == brute_force_upsilon(n, 3)
    DETAILS[7] = "closed-form |Upsilon| matches brute force for n=4..8, k=3"


def test_criterion_08_lp2_constraint_census():
    for n in (5, 8, 12):
        graph = DirectedGraph.from_arcs(n, [])
        weights = MotifWeights(
            3, graph, WeightRule({MotifClass.OTHER_TRIPLE: 0.5}), directed=True
        )
        expected = math.comb(n, 3) * (math.comb(3, 2) + 2) + 3 * math.comb(n, 3)
        assert build_lp2(weights, n).structural_constraint_count == expected
    DETAILS[8] = (
        "LP2 row census equals C(n,k)(C(k,2)+2) + 3C(n,3) for n=5/8/12, k=3"
    )


def test_criterion_09_edge_motif_parameter_path(karate_runs):
    # closed-form reproduction of the mixing constant and certificate
    for k in (3, 4, 5):
        for lam in (0.2, 1.0, 2.5):
            for n in (10, 34):
                rec = recommended_params(k, "mmcc-edge-motif", lam=lam, n=n)
                r0 = (k - 2.0) / (1.0 + lam * float(n) ** (k - 1))
                assert rec.r0 == pytest.approx(r0, abs=1e-12)
                assert rec.ratio == pytest.approx(k * (k - r0), abs=1e-12)
                assert rec.params.beta == pytest.approx(1.0 / (k - r0), abs=1e-12)

    # the karate MMCC run uses exactly this path and never violates it
    rep = karate_runs["MMCC"]
    r0_karate = 1.0 / (1.0 + 0.2 * 34.0**2)
    assert rep.params["r0"] == pytest.approx(r0_karate, abs=1e-9)
    assert rep.certified_ratio == pytest.approx(3.0 * (3.0 - r0_karate), abs=1e-9)
    assert rep.certified_ratio == pytest.approx(8.98708, abs=1e-4)
    assert rep.cost <= rep.certified_ratio * rep.lp_value + 1e-6

    # 50 random two-layer instances: certify() raises on any violation
    rng = np.random.default_rng(4937)
    for i in range(50):
        n = int(rng.integers(4, 8))
        graph = undirected_er(rng, n, p=float(rng.uniform(0.2, 0.8)))
        w2 = MotifWeights(2, graph, UNIFORM_K2, seed=int(rng.integers(1 << 30)))
        w3 = MotifWeights(3, graph, UNIFORM_K3, seed=int(rng.integers(1 << 30)))
        lam = float(rng.uniform(0.05, 2.0))
        mixed = MixedWeights([(2, w2, 1.0), (3, w3, lam)])
        res = solve_optimal(build_lp3(mixed, n))
        rec = recommended_params(3, "mmcc-edge-motif", lam=lam, n=n)
        part, _ = round_alg2(
            res.solution, n, 3, rec.params, beta_bound=rec.beta_bound, seed=i
        )
        cert = certify(part, res.solution.objective_value, mixed, rec.ratio)
        assert cert.cost <= rec.ratio * cert.lp_value + 1e-6
    DETAILS[9] = (
        "r0=(k-2)/(1+lam*n^(k-1)) and ratio k(k-r0) reproduced on a 3x3x2 grid; "
        "certificate holds on the karate MMCC run (ratio 8.98708) and 50 random "
        "two-layer instances"
    )


def test_criterion_10_layered_flow_cycle_cohesion():
    rep = run(RunConfig(generator="layered-flow", weights="layered-flow"))
    part = Partition.from_cluster_list(rep.clusters, rep.n)
    for cycle in LAYERED_FLOW_CYCLES:
        assert len({part.cluster_of(v) for v in cycle}) == 1
    layers_whole = all(
        len({part.cluster_of(v) for v in layer}) == 1 for layer in LAYERED_FLOW_LAYERS
    )
    DETAILS[10] = (
        "every feedback 3-cycle sits inside one cluster"
        + (" (the run recovers the layer partition exactly)" if layers_whole else "")
    )
