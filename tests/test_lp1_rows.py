"""LP1 by row generation: Upsilon separation against the fully built LP1,
the row-generated LP1 value against an interior-point solve of the full
LP, and the check stage on a point that violates an omitted Upsilon row."""

from itertools import combinations

import numpy as np
import pytest

from motifcc import pipeline
from motifcc.cli import EXIT_SOLVER, main
from motifcc.errors import SolverFailureError
from motifcc.generators import fig2_weights, make_fixture
from motifcc.graph import DirectedGraph
from motifcc.lpmodel import VarId, add_upsilon_rows, build_lp1, build_lp1_core, separate_upsilon
from motifcc.motifs import MotifWeights, WeightRule
from motifcc.pipeline import RunConfig, load_instance, resolve_weights, run
from motifcc.simplex import SolverConfig

from test_pipeline import linprog_value

SIZES = {2: 7, 3: 8, 4: 7}  # tuple size k -> n


def random_weights(k: int, n: int, seed: int) -> MotifWeights:
    """Every k-tuple of 1..n with its own w+, drawn from [0, 1)."""
    tuples = list(combinations(range(1, n + 1), k))
    wplus = np.random.default_rng([k, n, seed]).random(len(tuples))
    graph = DirectedGraph.from_arcs(n, [])
    return MotifWeights(k, graph, WeightRule({"any": 0.5}), dict(zip(tuples, wplus.tolist())),
                        classifier=lambda g, t: "any")


def violated_rows(full, values, tol):
    """Indices of the rows of the fully built LP1 with A @ x - rhs > tol."""
    return np.nonzero(full.A @ values - full.rhs > tol)[0]


def assert_separation_matches(core, full, values, tol):
    got = separate_upsilon(core, values, tol)
    want = violated_rows(full, values, tol)
    assert got.dtype == np.int64 and got.shape == (len(want), 4)
    assert np.array_equal(got[:, 0], want)
    assert np.array_equal(got[:, 1:], full.A.indices.reshape(-1, 3)[want])
    return got


@pytest.mark.parametrize("k", sorted(SIZES))
def test_separation_equals_the_full_rows_at_random_points(k):
    n = SIZES[k]
    weights = random_weights(k, n, seed=0)
    core, full = build_lp1_core(weights, n), build_lp1(weights, n)
    rng = np.random.default_rng(k)
    points = [rng.random(core.num_vars), rng.integers(0, 2, core.num_vars).astype(float),
              np.round(4 * rng.random(core.num_vars)) / 4]
    for values in points:
        for tol in (0.0, 1e-7, 0.25):
            got = assert_separation_matches(core, full, values, tol)
            # appended in that order, they are the full LP's rows under its names
            grown = add_upsilon_rows(core, got)
            assert (grown.A != full.A[got[:, 0]]).nnz == 0
            assert grown.row_names == [full.row_names[i] for i in got[:, 0].tolist()]
            assert grown.census == {"upsilon": full.num_rows, "upsilon_active": len(got)}
    # every row, in build_lp1's order and under its names
    everything = add_upsilon_rows(core, separate_upsilon(core, np.zeros(core.num_vars), -1.0))
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(everything.A, attr), getattr(full.A, attr)), attr
    assert everything.row_names == full.row_names


@pytest.mark.parametrize("k", sorted(SIZES))
def test_separation_equals_the_full_rows_at_every_round(k, monkeypatch):
    n = SIZES[k]
    weights = random_weights(k, n, seed=1)
    full = build_lp1(weights, n)
    seen = []

    def recording(problem, values, tol):
        seen.append((problem, np.array(values), tol))
        return separate_upsilon(problem, values, tol)

    monkeypatch.setattr(pipeline, "separate_upsilon", recording)
    relaxed = pipeline.solve_relaxation(build_lp1_core(weights, n), SolverConfig())
    assert len(seen) == len(relaxed.rounds) >= 2  # the rounds added rows
    assert 0 < relaxed.solved.num_rows < full.num_rows
    for problem, values, tol in seen:
        assert_separation_matches(problem, full, values, tol)
        assert_separation_matches(problem, full, values, 0.0)
    # the last point is feasible for the full LP1, and each row held is
    # the full LP1's row of the same name
    assert len(violated_rows(full, relaxed.solution.values, 1e-7)) == 0
    held = [int(name[3:]) for name in relaxed.solved.row_names]
    assert (relaxed.solved.A != full.A[held]).nnz == 0


def small_instance(tmp_path, seed: int, undirected: bool) -> RunConfig:
    """A seeded n=10 instance shaped like the benchmark's small batch: an
    undirected planted graph with range-drawn triple weights, or a directed
    random graph with jittered directed-3-cycle weights."""
    rng = np.random.default_rng([7, seed])
    n = 10
    draws = rng.random((n, n))
    if undirected:
        block = rng.permutation(np.arange(n) % 4)
        edges = [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n)
                 if draws[u, v] < (0.7 if block[u] == block[v] else 0.1)]
        rules = {"TriangleK3": [0.8, 1.0], "PathP3": [0.45, 0.75], "OtherTriple": [0.2, 0.5]}
        layer = {"k": 3, "rules": rules, "seed": seed}
    else:
        edges = [(u + 1, v + 1) for u in range(n) for v in range(n) if u != v and draws[u, v] < 0.25]
        rules = {"DirectedThreeCycle": 1.0, "DirectedThreeCycleWithBidirectional": [0.35, 0.55],
                 "FeedForward": [0.35, 0.55], "OtherTriple": [0.35, 0.55]}
        layer = {"k": 3, "rules": rules, "directed": True, "seed": seed}
    path = tmp_path / f"small{seed}.txt"
    path.write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    return RunConfig(input=str(path), undirected=undirected, num_vertices=n,
                     weights={"layers": [layer]}, relaxation="LP1")


CASES = ["fig2a", "fig2b", *(f"small{seed}-{'undirected' if seed % 2 else 'directed'}" for seed in range(6))]


@pytest.mark.parametrize("case", CASES)
def test_value_matches_the_full_lp1(case, tmp_path):
    if case.startswith("fig2"):
        args = {"n": 10} if case == "fig2b" else {}
        cfg = RunConfig(generator=case, generator_args=args, weights="fig2", relaxation="LP1")
    else:
        seed = int(case[5])
        cfg = small_instance(tmp_path, seed, undirected=bool(seed % 2))
    report = run(cfg)
    graph, _ = load_instance(cfg)
    full = build_lp1(resolve_weights(cfg, graph).layers[0].weights, graph.n)
    assert report.relaxation == "LP1" and report.solver["rows_in_lp"] < full.num_rows
    assert report.lp_value == pytest.approx(linprog_value(full), rel=1e-9, abs=1e-9)


def perturbed_fig2a_solve(monkeypatch):
    """Make every fig2a LP1 round return x_124 = 1 - 5e-4: within the
    solver tolerance of 1e-3 the rounds add no row, but the omitted row
    x_134 <= x_124 + x_123 (x_134 = 1, x_123 = 0) is violated by 5e-4."""
    real_solve = pipeline.solve

    def perturbed(problem, config, **kwargs):
        result = real_solve(problem, config, **kwargs)
        result.solution.values[problem.index_of(VarId.tuple_var((1, 2, 4)))] -= 5e-4
        return result

    monkeypatch.setattr(pipeline, "solve", perturbed)


def test_omitted_upsilon_row_violation_fails_the_check(monkeypatch):
    perturbed_fig2a_solve(monkeypatch)
    cfg = RunConfig(generator="fig2a", weights="fig2", relaxation="LP1", tol=1e-3)
    with pytest.raises(SolverFailureError, match=r"violates \d+ omitted Upsilon rows \(first ups\d+\) at tol 1e-06"):
        run(cfg)


def test_omitted_upsilon_row_violation_exits_3(monkeypatch, capsys):
    perturbed_fig2a_solve(monkeypatch)
    argv = ["solve", "--generator", "fig2a", "--weights", "fig2", "--relaxation", "LP1", "--tol", "1e-3"]
    assert main(argv) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "omitted Upsilon rows (first ups" in err
    # the named row is one the perturbed point violates in the full LP1
    full = build_lp1(fig2_weights(make_fixture("fig2a", {}).graph).layers[0].weights, 6)
    name = err.split("(first ")[1].split(")")[0]
    assert name in full.row_names
