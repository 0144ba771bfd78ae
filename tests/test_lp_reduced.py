"""The reduced LP2/LP3 built directly: ``build_lp3_core(..., drop_zero_cost=True)``
equals ``drop_zero_cost_tuples`` of the full core, the check stage verifies
the left-out tuple rows on arrays as the full core would, the tuple tables
are built in the weights stage, and triangle separation gathers by flat
index as the 2-D gather did."""

import io
import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifcc import pipeline
from motifcc.cli import EXIT_CONFIG, main
from motifcc.graph import DirectedGraph, write_edge_list
from motifcc.lpmodel import (
    FractionalSolution,
    LpProblem,
    add_triangle_rows,
    all_triangles,
    build_lp3_core,
    drop_zero_cost_tuples,
    separate_triangles,
)
from motifcc.motifs import Layer, MixedWeights, MotifWeights, WeightRule
from motifcc.pipeline import RunConfig, run
from motifcc.simplex import verify_solution

W_PLUS = st.sampled_from([0.0, 0.3, 0.5, 0.5, 0.8, 1.0, (0.4, 0.6)])
LAMBDAS = st.sampled_from([0.0, 0.2, 1.0])


def random_graph(draw, n: int) -> DirectedGraph:
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    return DirectedGraph.from_arcs(n, edges + [(v, u) for u, v in edges])


@st.composite
def edge_triple_stacks(draw) -> tuple[MixedWeights, int]:
    """An edge layer and a triple layer on a random undirected graph, w+
    of each class from a grid holding 0.5 and a range, λ possibly 0."""
    n = draw(st.integers(3, 8), label="n")
    graph = random_graph(draw, n)
    seed = draw(st.integers(0, 2**16), label="seed")
    edge = WeightRule({"Edge": draw(W_PLUS), "NonEdge": draw(W_PLUS)})
    triple = WeightRule({"TriangleK3": draw(W_PLUS), "PathP3": draw(W_PLUS), "OtherTriple": draw(W_PLUS)})
    return MixedWeights([
        Layer(2, MotifWeights(2, graph, edge, seed=seed), draw(LAMBDAS, label="lambda2")),
        Layer(3, MotifWeights(3, graph, triple, seed=seed + 1), draw(LAMBDAS, label="lambda3")),
    ]), n


def edge_count(graph: DirectedGraph, tup) -> str:
    return f"e{sum(graph.has_arc(u, v) for u, v in combinations(tup, 2))}"


@st.composite
def triple_quad_stacks(draw) -> tuple[MixedWeights, int]:
    """A triple layer with overrides and a 4-tuple layer whose classifier
    counts the edges inside a tuple."""
    n = draw(st.integers(4, 7), label="n")
    graph = random_graph(draw, n)
    triple = WeightRule({"TriangleK3": draw(W_PLUS), "PathP3": draw(W_PLUS), "OtherTriple": draw(W_PLUS)})
    triples = list(combinations(range(1, n + 1), 3))
    chosen = draw(st.lists(st.sampled_from(triples), max_size=4, unique=True), label="overrides")
    overrides = {t: draw(st.sampled_from([0.0, 0.5, 1.0])) for t in chosen}
    quad = WeightRule({f"e{i}": draw(W_PLUS) for i in range(7)})
    return MixedWeights([
        Layer(3, MotifWeights(3, graph, triple, overrides, seed=3), draw(LAMBDAS, label="lambda3")),
        Layer(4, MotifWeights(4, graph, quad, seed=4, classifier=edge_count), draw(LAMBDAS, label="lambda4")),
    ]), n


def dump(problem: LpProblem) -> str:
    buf = io.StringIO()
    problem.to_text(buf)
    return buf.getvalue()


def assert_direct_build_is_the_dropped_core(mixed: MixedWeights, n: int) -> None:
    core = build_lp3_core(mixed, n)
    reduced, lift = drop_zero_cost_tuples(core)
    direct = build_lp3_core(mixed, n, drop_zero_cost=True)
    assert core.lift is None and direct.lift is not None
    assert direct.var_ids == reduced.var_ids
    assert [(kind, keys.tolist()) for kind, keys in direct.columns.blocks] == [
        (kind, keys.tolist()) for kind, keys in reduced.columns.blocks
    ]
    for name in ("obj", "lb", "ub", "data", "indices", "indptr", "senses", "rhs"):
        got, want = getattr(direct, name), getattr(reduced, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (direct.name, direct.offset, direct.census) == (reduced.name, reduced.offset, reduced.census)
    assert not np.signbit(core.obj[core.obj == 0.0]).any()  # a cost of λ = 0 reads +0.0, as a sum into zeros gave
    assert np.array_equal(direct.pair_columns, reduced.pair_columns)
    assert direct.row_names == reduced.row_names
    assert dump(direct) == dump(reduced)
    got = direct.lift
    assert got.columns == lift.columns == core.columns
    assert np.array_equal(got.kept, lift.kept) and np.array_equal(got.dropped, lift.dropped)
    assert len(got._groups) == len(lift._groups)
    for (cols, pair_cols), (ref_cols, ref_pair_cols) in zip(got._groups, lift._groups):
        assert np.array_equal(cols, ref_cols) and np.array_equal(pair_cols, ref_pair_cols)
    values = np.random.default_rng(n).random(direct.num_vars)
    point = FractionalSolution(direct.columns, values, 0.5, "optimal")
    assert np.array_equal(got(point).values, lift(point).values)


def assert_the_lifted_check_is_the_full_check(mixed: MixedWeights, n: int, seed: int) -> None:
    """On points of the full columns, off the LP and on it, ``verify_solution``
    of the reduced LP with its lift lists the violations the full core lists."""
    rng = np.random.default_rng(seed)
    triangles = all_triangles(n)[rng.random(3 * (n * (n - 1) * (n - 2) // 6)) < 0.3]
    core = add_triangle_rows(build_lp3_core(mixed, n), triangles)
    direct = add_triangle_rows(build_lp3_core(mixed, n, drop_zero_cost=True), triangles)
    lifted = direct.lift(FractionalSolution(direct.columns, rng.random(direct.num_vars), 0.0, "optimal")).values
    for x in (rng.uniform(-0.1, 1.1, core.num_vars), rng.integers(0, 3, core.num_vars) / 2, lifted):
        for tol in (0.0, 1e-6):
            point = FractionalSolution(core.columns, x, 0.0, "candidate")
            got = verify_solution(direct, point, tol, lift=direct.lift).violations
            want = verify_solution(core, point, tol).violations
            assert sorted((v.kind, v.name, v.amount) for v in got) == sorted((v.kind, v.name, v.amount) for v in want)


class TestDirectReducedBuild:
    @settings(max_examples=60, deadline=None)
    @given(case=edge_triple_stacks())
    def test_edge_triple_stacks(self, case):
        assert_direct_build_is_the_dropped_core(*case)

    @settings(max_examples=30, deadline=None)
    @given(case=triple_quad_stacks())
    def test_triple_quad_stacks_with_a_classifier(self, case):
        assert_direct_build_is_the_dropped_core(*case)

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(edge_triple_stacks(), triple_quad_stacks()), seed=st.integers(0, 2**16))
    def test_the_check_on_the_reduced_lp_is_the_check_on_the_core(self, case, seed):
        assert_the_lifted_check_is_the_full_check(*case, seed)

    def test_a_left_out_column_out_of_bounds_is_reported(self):
        graph = DirectedGraph.from_arcs(4, [])
        half = WeightRule({"OtherTriple": 0.5})
        mixed = MixedWeights([Layer(3, MotifWeights(3, graph, half), 1.0)])
        direct = build_lp3_core(mixed, 4, drop_zero_cost=True)
        assert direct.num_vars == 6 and len(direct.lift.dropped) == 4
        x = direct.lift(FractionalSolution(direct.columns, np.full(6, 0.5), 0.0, "optimal")).values
        assert verify_solution(direct, FractionalSolution(direct.lift.columns, x, 0.0, "x"), lift=direct.lift).ok
        x[direct.lift.dropped[1]] = 1.25  # x_1_2_4: above its bound, and (k-1)·x_K > Σ z_uv
        report = verify_solution(direct, FractionalSolution(direct.lift.columns, x, 0.0, "x"), lift=direct.lift)
        assert [(v.kind, v.name) for v in report.violations] == [("row", "ps_1_2_4"), ("bound", "x_1_2_4")]
        assert report.violations[1].amount == pytest.approx(0.25)


class TestWeightsStage:
    @pytest.mark.parametrize("cfg,sizes", [
        ({"generator": "fig2a", "weights": "fig2", "relaxation": "LP1"}, [3]),
        ({"generator": "fig2a", "weights": "fig2", "relaxation": "LP2"}, [3]),
        ({"generator": "karate", "method": "MMCC"}, [2, 3]),
    ], ids=["LP1", "LP2", "LP3"])
    def test_the_build_stage_builds_no_tuple_table(self, cfg, sizes, monkeypatch):
        classified, during_build = [], []
        real_classify, real_build = MotifWeights.classify_tuples, pipeline.build_relaxation

        def classify(self, tuples):
            classified.append(self.k)
            return real_classify(self, tuples)

        def build(relaxation, mixed, n):
            before = len(classified)
            problem = real_build(relaxation, mixed, n)
            during_build.append(len(classified) - before)
            return problem

        monkeypatch.setattr(MotifWeights, "classify_tuples", classify)
        monkeypatch.setattr(pipeline, "build_relaxation", build)
        report = run(RunConfig.from_dict(cfg))
        assert during_build == [0]
        assert classified == sizes  # each layer's table, once, in the weights stage
        assert report.timings["weights"] > 0.0

    def test_a_directed_graph_with_undirected_rules_fails_in_the_weights_stage(self, tmp_path, capsys):
        edges, weights = tmp_path / "arcs.txt", tmp_path / "w.json"
        write_edge_list(DirectedGraph.from_arcs(4, [(1, 2), (2, 3), (3, 1), (3, 4)]), edges)
        weights.write_text(json.dumps({"k": 3, "rules": {"TriangleK3": 1.0, "PathP3": 0.5, "OtherTriple": 0.2}}))
        assert main(["solve", "--input", str(edges), "--weights", str(weights)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: [weights] weight rule has no entry for class ")


def separate_triangles_2d(problem: LpProblem, values: np.ndarray, tol: float) -> np.ndarray:
    """``separate_triangles`` with the 2-D gathers Z[a, b], Z[a, c], Z[b, c]."""
    zc = problem.pair_columns
    Z = np.where(zc >= 0, np.asarray(values, dtype=float)[zc], 0.0)
    abc = problem.triples
    a, b, c = abc.T
    ab, ac, bc = Z[a, b], Z[a, c], Z[b, c]
    viol = np.column_stack([(bc - ab) - ac, (ac - ab) - bc, (ab - ac) - bc]) > tol
    t, apex = np.nonzero(viol)
    return np.column_stack([abc[t], abc[t, apex]])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 9),
    reduced=st.booleans(),
    tol=st.sampled_from([0.0, 1e-7, 1e-6]),
    seed=st.integers(0, 2**16),
    near=st.lists(st.floats(-1e-9, 1e-9), min_size=1, max_size=12),
)
def test_flat_separation_is_the_2d_separation(n, reduced, tol, seed, near):
    """Points with triangle rows violated by tol + δ, |δ| <= 1e-9, beside
    rows held exactly and by a wide margin."""
    graph = DirectedGraph.from_arcs(n, [(1, 2), (2, 1)])
    mixed = MixedWeights([
        Layer(2, MotifWeights(2, graph, WeightRule({"Edge": 1.0, "NonEdge": 0.3})), 1.0),
        Layer(3, MotifWeights(3, graph, WeightRule({"PathP3": 0.5, "OtherTriple": 0.5, "TriangleK3": 1.0})), 0.2),
    ])
    problem = build_lp3_core(mixed, n, drop_zero_cost=reduced)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 5, problem.num_vars) / 8
    zc = problem.pair_columns
    for delta in near:
        p, q, r = rng.choice(np.arange(1, n + 1), 3, replace=False)
        values[zc[q, r]] = (values[zc[p, q]] + values[zc[p, r]]) + tol + delta
    got = separate_triangles(problem, values, tol)
    want = separate_triangles_2d(problem, values, tol)
    assert got.dtype == want.dtype and np.array_equal(got, want)
