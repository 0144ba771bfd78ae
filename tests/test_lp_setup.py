"""LP2/LP3 set-up on arrays: triangle separation against the per-apex
reference, one pair-column map per column list, row names formatted only
when read, and the checks on fresh column lists and row-name counts."""

import io

import numpy as np
import pytest
import scipy.sparse as sp

from motifcc import lpmodel, pipeline, verify_solution
from motifcc.errors import InvalidParameterError
from motifcc.graph import write_edge_list
from motifcc.lpmodel import (
    FractionalSolution,
    LpProblem,
    VarId,
    add_triangle_rows,
    build_lp1,
    build_lp3_core,
    drop_zero_cost_tuples,
    separate_triangles,
)
from motifcc.pipeline import RunConfig

from test_lp_rows import lp1_cases, lp3_cases, planted_graph


def reference_separate_triangles(problem: LpProblem, values: np.ndarray, tol: float) -> np.ndarray:
    """Separation one apex at a time over an n x n matrix of z values, with
    the pair columns read from the column list itself."""
    n = max((vid.key[1] for vid in problem.var_ids if vid.kind == "pair"), default=0)
    if not n:
        return np.empty((0, 4), dtype=np.int64)
    values = np.asarray(values, dtype=float)
    Z = np.zeros((n + 1, n + 1))
    for j, vid in enumerate(problem.var_ids):
        if vid.kind == "pair":
            u, v = vid.key
            Z[u, v] = Z[v, u] = values[j]
    Z = Z[1:, 1:]  # vertex v at index v - 1
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    found = []
    for p in range(n):
        viol = (Z - Z[p, :, None]) - Z[p, None, :] > tol
        viol &= upper
        viol[p, :] = False
        viol[:, p] = False
        q, r = np.nonzero(viol)
        if len(q):
            found.append(np.column_stack([np.full(len(q), p), q, r]))
    if not found:
        return np.empty((0, 4), dtype=np.int64)
    pqr = np.concatenate(found) + 1
    tri = np.column_stack([np.sort(pqr, axis=1), pqr[:, 0]])
    return tri[np.lexsort(tri.T[::-1])]


def planted_config(n: int, tmp_path) -> RunConfig:
    path = tmp_path / f"planted{n}.txt"
    write_edge_list(planted_graph(n), path)
    return RunConfig(input=str(path), num_vertices=n, weights="table1", method="MMCC")


def run_configs(tmp_path) -> dict:
    cases = {f"karate-{m}": RunConfig(generator="karate", weights="table1", method=m) for m in ("CC", "MMCC")}
    cases.update({f"planted{n}-MMCC": planted_config(n, tmp_path) for n in (16, 20, 22)})
    return cases


def test_separation_sums_in_the_order_of_the_row_product():
    """On tenths, many rows hold with equality in exact arithmetic, and the
    order of the two subtractions decides which of them show a violation."""
    mixed, n = lp3_cases()["planted16-MMCC"]
    core = build_lp3_core(mixed, n)
    rng = np.random.default_rng(3)
    for _ in range(20):
        values = rng.integers(0, 11, core.num_vars) / 10
        got = separate_triangles(core, values, 0.0)
        assert np.array_equal(got, reference_separate_triangles(core, values, 0.0))
        full = add_triangle_rows(core, lpmodel.all_triangles(n))
        gap = (full.A @ values - full.rhs)[core.num_rows:]
        assert np.array_equal(got, lpmodel.all_triangles(n)[gap > 0.0])


@pytest.mark.parametrize("case", ["karate-CC", "karate-MMCC", "planted16-MMCC", "planted20-MMCC", "planted22-MMCC"])
def test_separation_equals_the_per_apex_reference_at_every_round(case, tmp_path, monkeypatch):
    points = []

    def recording(problem, values, tol):
        points.append((problem, np.array(values)))
        return separate_triangles(problem, values, tol)

    monkeypatch.setattr(pipeline, "separate_triangles", recording)
    report = pipeline.run(run_configs(tmp_path)[case])
    assert len(points) == report.solver["row_rounds"] + 1  # every round, then the check stage
    for problem, values in points:
        for tol in (0.0, 1e-7):
            got = separate_triangles(problem, values, tol)
            want = reference_separate_triangles(problem, values, tol)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape
            assert np.array_equal(got, want)
    # a point off the metric violates many rows; both agree there too
    problem = points[0][0]
    noisy = np.random.default_rng(1).random(problem.num_vars)
    assert len(reference_separate_triangles(problem, noisy, 0.0)) > 0
    assert np.array_equal(separate_triangles(problem, noisy, 0.0), reference_separate_triangles(problem, noisy, 0.0))


def test_one_run_formats_no_row_name_and_maps_pair_columns_once(tmp_path, monkeypatch):
    fresh, maps = [], []
    init, build_map = LpProblem.__init__, lpmodel._pair_column_matrix

    def counting_init(self, *args, **kwargs):
        fresh.append(self)
        init(self, *args, **kwargs)

    def counting_map(var_ids):
        maps.append(var_ids)
        return build_map(var_ids)

    def no_names(*args, **kwargs):
        raise AssertionError("a row name was formatted or read")

    monkeypatch.setattr(LpProblem, "__init__", counting_init)
    monkeypatch.setattr(lpmodel, "_pair_column_matrix", counting_map)
    # every row name is formatted by one of these two, and read through the property
    monkeypatch.setattr(lpmodel, "_pair_row_names", no_names)
    monkeypatch.setattr(lpmodel, "_names", no_names)
    monkeypatch.setattr(LpProblem, "row_names", property(no_names))
    report = pipeline.run(planted_config(16, tmp_path))
    assert report.solver["row_rounds"] >= 1
    assert len(fresh) == 1  # the core; the reduced LP and every round derive from it
    assert len(maps) == 1 and maps[0] == fresh[0].var_ids


@pytest.mark.parametrize("case", ["karate-MMCC", "planted16-MMCC", "planted22-MMCC"])
def test_derived_lps_reuse_a_correct_pair_column_map(case):
    mixed, n = lp3_cases()[case]
    core = build_lp3_core(mixed, n)
    reduced, _ = drop_zero_cost_tuples(core)
    grown = add_triangle_rows(reduced, np.array([[1, 2, 3, 1], [2, 3, 5, 5]]))
    assert reduced.num_vars < core.num_vars
    assert grown.pair_columns is reduced.pair_columns
    for lp in (core, reduced, grown):
        assert np.array_equal(lp.pair_columns, lpmodel._pair_column_matrix(lp.var_ids))
        assert lp.col_index == {vid: j for j, vid in enumerate(lp.var_ids)}


@pytest.mark.parametrize("case", sorted(lp1_cases()))
def test_lp1_names_its_rows_when_read(case):
    weights, n = lp1_cases()[case]
    lp = build_lp1(weights, n)
    assert callable(lp._row_names)
    assert lp.row_names == [f"ups{i}" for i in range(lp.num_rows)]


def test_row_names_of_derived_lps_follow_their_rows():
    mixed, n = lp3_cases()["planted16-MMCC"]
    core = build_lp3_core(mixed, n)
    reduced, _ = drop_zero_cost_tuples(core)
    kept_rows = [core.row_names.index(name) for name in reduced.row_names]
    assert kept_rows == sorted(kept_rows)
    assert reduced.row_names[0].startswith(("pf_", "ps_"))
    grown = add_triangle_rows(reduced, np.array([[1, 2, 3, 2]]))
    assert grown.row_names == reduced.row_names + ["tri_1_2_3_a2"]


# ------------------------------------------------------- fresh column lists


def tiny(var_ids, names=("r0",), rows=None):
    rows = sp.csr_matrix(np.ones((len(names), len(var_ids)))) if rows is None else rows
    return LpProblem("tiny", var_ids, np.zeros(len(var_ids)), 0.0, rows, [-1] * rows.shape[0],
                     np.zeros(rows.shape[0]), names)


class TestFreshColumnLists:
    def test_direct_construction_rejects_duplicate_ids(self):
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):
            tiny([VarId.pair_var(1, 2), VarId.tuple_var((1, 2, 3)), VarId.pair_var(2, 1)])

    def test_a_dump_naming_one_variable_twice_is_rejected(self):
        dump = "minimize\nobj: +1*x_1_2_3 offset 0\nsubject to\nbounds\n0 <= x_1_2_3 <= 1\n0 <= x_3_2_1 <= 1\nend\n"
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):
            LpProblem.from_text(io.StringIO(dump))

    def test_builders_check_their_columns(self, monkeypatch):
        checked = []
        init = LpProblem.__init__

        def spying(self, name, var_ids, *args, **kwargs):
            checked.append(list(var_ids))
            init(self, name, var_ids, *args, **kwargs)

        monkeypatch.setattr(LpProblem, "__init__", spying)
        weights, n = lp1_cases()["fig2a"]
        lp1 = build_lp1(weights, n)
        mixed, n = lp3_cases()["karate-MMCC"]
        core = build_lp3_core(mixed, n)
        assert checked == [lp1.var_ids, core.var_ids]
        # a builder's columns with one repeated fail the same check
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):
            init(object.__new__(LpProblem), "dup", core.var_ids + core.var_ids[:1], np.zeros(core.num_vars + 1),
                 0.0, sp.csr_matrix((0, core.num_vars + 1)), [], [], [])


class TestRowNameCount:
    def test_a_short_list_is_rejected(self):
        cols = [VarId.pair_var(1, 2), VarId.pair_var(1, 3)]
        with pytest.raises(InvalidParameterError, match="1 row names for 2 rows"):
            tiny(cols, names=["r0"], rows=sp.csr_matrix(np.eye(2)))
        with pytest.raises(InvalidParameterError, match="3 row names for 2 rows"):
            tiny(cols, names=["r0", "r1", "r2"], rows=sp.csr_matrix(np.eye(2)))

    def test_a_function_giving_the_wrong_count_is_rejected_when_read(self):
        cols = [VarId.pair_var(1, 2), VarId.pair_var(1, 3)]
        lp = tiny(cols, names=lambda: ["r0"], rows=sp.csr_matrix(np.eye(2)))
        with pytest.raises(InvalidParameterError, match="1 row names for 2 rows"):
            lp.row_names
        solution = FractionalSolution(cols, np.array([2.0, 0.0]), 0.0, "feasible")
        with pytest.raises(InvalidParameterError, match="1 row names for 2 rows"):
            verify_solution(lp, solution)

    def test_names_are_read_for_a_violation_list(self):
        cols = [VarId.pair_var(1, 2), VarId.pair_var(1, 3)]
        lp = tiny(cols, names=lambda: ["first", "second"], rows=sp.csr_matrix(np.eye(2)))
        report = verify_solution(lp, FractionalSolution(cols, np.array([0.0, 0.5]), 0.0, "feasible"))
        assert [v.name for v in report.violations] == ["second"]
