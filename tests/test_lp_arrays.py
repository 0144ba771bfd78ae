"""The LP rows as CSR arrays, checked against scipy.sparse as the reference.

``LpProblem`` holds its rows as (data, indices, indptr) and computes with
numpy what scipy computed before: the row activity ``A @ x``, bit for bit.
The same arrays are what HiGHS is given, by ``addRows`` from the first
round on; after each load HiGHS holds the problem's costs, bounds and row
bounds, and, column-wise, the matrix ``A.tocsc()``.  The scipy view ``A``
is built from the arrays on first read, and assigning a scipy matrix to it
replaces them.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from motifcc import build_table1_weights, simplex
from motifcc.errors import InvalidParameterError
from motifcc.generators import karate, make_fig2b
from motifcc.lpmodel import LpProblem, VarId, build_lp3
from motifcc.pipeline import RunConfig, build_relaxation, resolve_weights, solve_relaxation
from motifcc.simplex import solve, verify_solution

from test_lp_rows import lp3_cases


def random_rows(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR triple of m rows over n columns: about a tenth empty, the rest
    of 1-12 entries at distinct columns in random order, with coefficients
    spread over 16 orders of magnitude (so the order of a row's sum shows
    in its rounding) and about a tenth explicit zeros."""
    lengths = np.where(rng.random(m) < 0.1, 0, rng.integers(1, 13, size=m))
    indices = np.concatenate([rng.permutation(n)[:length] for length in lengths]).astype(np.int64)
    data = rng.standard_normal(len(indices)) * 10.0 ** rng.integers(-8, 9, size=len(indices))
    data[rng.random(len(indices)) < 0.1] = 0.0
    return data, indices, np.concatenate([[0], np.cumsum(lengths)])


def random_problem(rng, m: int = 200, n: int = 40) -> LpProblem:
    return LpProblem(
        "random", [VarId("named", (f"v{j}",)) for j in range(n)], rng.standard_normal(n), 0.0,
        random_rows(rng, m, n), np.full(m, -1), rng.random(m), [f"r{i}" for i in range(m)],
    )


def random_point(rng, n: int, bad: bool) -> np.ndarray:
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5, size=n)
    if bad:  # a few NaN and +-inf entries
        at = rng.choice(n, size=3, replace=False)
        x[at] = [np.nan, np.inf, -np.inf]
    return x


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("bad", [False, True], ids=["finite", "nonfinite"])
def test_row_activity_equals_the_scipy_product(seed, bad):
    rng = np.random.default_rng([seed, bad])
    problem = random_problem(rng)
    x = random_point(rng, problem.num_vars, bad)
    want = sp.csr_matrix((problem.data, problem.indices, problem.indptr), shape=(problem.num_rows, problem.num_vars)) @ x
    got = problem.row_activity(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # a row without a non-finite column stays finite: nothing else reads x
    rows = np.repeat(np.arange(problem.num_rows), np.diff(problem.indptr))
    poisoned = np.zeros(problem.num_rows, dtype=bool)
    poisoned[rows[~np.isfinite(x[problem.indices])]] = True
    assert np.isfinite(got[~poisoned]).all()
    assert bad == (~np.isfinite(got)).any()


def test_row_activity_of_empty_rows_is_positive_zero():
    problem = LpProblem("empty", [VarId("named", ("a",))], [0.0], 0.0,
                        (np.empty(0), np.empty(0, dtype=np.int64), np.zeros(4, dtype=np.int64)),
                        [-1] * 3, [0.0] * 3, ["r0", "r1", "r2"])
    got = problem.row_activity([np.nan])
    assert got.tobytes() == np.zeros(3).tobytes()


def test_row_activity_rejects_a_point_of_the_wrong_length():
    problem = random_problem(np.random.default_rng(0))
    with pytest.raises(InvalidParameterError, match="40 vars"):
        problem.row_activity(np.zeros(problem.num_vars + 1))


def test_verify_solution_reports_the_rows_of_a_nonfinite_value():
    problem = random_problem(np.random.default_rng(1))
    x = np.zeros(problem.num_vars)
    x[problem.indices[0]] = np.inf
    report = verify_solution(problem, dict(zip((v.name for v in problem.var_ids), x)))
    want = np.nonzero(~np.isfinite(problem.A @ x))[0].tolist()
    assert [v.index for v in report.violations if v.kind == "row"] == want
    assert all(v.amount == np.inf for v in report.violations)


def assert_highs_holds(model: simplex.HighsModel, problem: LpProblem) -> None:
    """HiGHS holds ``problem`` after ``model.load(problem)``: its costs,
    bounds and row bounds, and, column-wise as HiGHS solves it, the matrix
    ``A.tocsc()`` less the entries of magnitude at most HiGHS's
    small_matrix_value, which HiGHS drops (explicit zeros too)."""
    model.highs.ensureColwise()  # what run() does first
    lp = model.highs.getLp()
    lower = np.where(problem.senses == -1, -np.inf, problem.rhs)
    upper = np.where(problem.senses == 1, np.inf, problem.rhs)
    for got, want in [(lp.col_cost_, problem.obj), (lp.col_lower_, problem.lb), (lp.col_upper_, problem.ub),
                      (lp.row_lower_, lower), (lp.row_upper_, upper)]:
        assert np.asarray(got, dtype=float).tobytes() == want.tobytes()
    csc = problem.A.tocsc()
    csc.data[np.abs(csc.data) <= model.highs.getOptionValue("small_matrix_value")[1]] = 0.0
    csc.eliminate_zeros()
    matrix = lp.a_matrix_
    assert (lp.num_row_, lp.num_col_) == csc.shape
    assert np.asarray(matrix.start_).astype(np.int64).tobytes() == csc.indptr.astype(np.int64).tobytes()
    assert np.asarray(matrix.index_).astype(np.int64).tobytes() == csc.indices.astype(np.int64).tobytes()
    assert np.asarray(matrix.value_, dtype=float).tobytes() == csc.data.tobytes()


def watched_rounds(core: LpProblem, monkeypatch) -> list[int]:
    """Each round's iterations of ``solve_relaxation(core)``, asserting
    what HiGHS holds after each of its loads."""
    real_load = simplex.HighsModel.load
    loads = []

    def load(model, problem):
        real_load(model, problem)
        assert_highs_holds(model, problem)
        loads.append(problem.num_rows)

    monkeypatch.setattr(simplex.HighsModel, "load", load)
    rounds = solve_relaxation(core, simplex.SolverConfig()).rounds
    assert len(loads) == len(rounds) and loads == sorted(set(loads))
    return [r.iterations for r in rounds]


RANGE_TRIPLES = {"TriangleK3": [0.8, 1.0], "PathP3": [0.45, 0.75], "OtherTriple": [0.2, 0.5]}


@pytest.mark.parametrize("case", ["karate-CC", "planted22-MMCC", "fig2b8-LP1"])
def test_highs_holds_each_round_of_a_relaxation(case, monkeypatch):
    if case == "fig2b8-LP1":
        weights = {"layers": [{"k": 3, "rules": RANGE_TRIPLES, "seed": 1}]}
        core = build_relaxation("LP1", resolve_weights(RunConfig(weights=weights), make_fig2b(8).graph), 8)
        assert core.num_rows == 0
    else:
        mixed, n = lp3_cases()[case]
        core = build_relaxation("LP3", mixed, n)
    plain = [r.iterations for r in solve_relaxation(core, simplex.SolverConfig()).rounds]
    # reading HiGHS back changes none of its rounds
    assert watched_rounds(core, monkeypatch) == plain
    assert len(plain) >= 2


@pytest.mark.parametrize("seed", range(5))
def test_highs_holds_a_random_lp_loaded_in_two_parts(seed):
    rng = np.random.default_rng([seed, 7])
    problem = random_problem(rng)
    problem.senses = rng.integers(-1, 2, size=problem.num_rows).astype(np.int8)  # <=, = and >= rows
    m = problem.num_rows // 2
    first = LpProblem("first", problem.var_ids, problem.obj, 0.0,
                      (problem.data[:problem.indptr[m]], problem.indices[:problem.indptr[m]], problem.indptr[:m + 1]),
                      problem.senses[:m], problem.rhs[:m], problem.row_names[:m])
    model = simplex.HighsModel()
    for part in (first, problem):
        model.load(part)
        assert_highs_holds(model, part)


def test_colwise_equals_tocsc_on_karate_mmcc():
    problem = build_lp3(build_table1_weights("MMCC", karate().graph), 34)
    assert problem.num_rows == 41_888
    model = simplex.HighsModel()
    model.load(problem)
    assert_highs_holds(model, problem)


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_built_from_scipy_equals_built_from_the_triple(fmt):
    rng = np.random.default_rng(3)
    problem = random_problem(rng)
    triple = (problem.data, problem.indices, problem.indptr)
    matrix = sp.csr_matrix(triple, shape=(problem.num_rows, problem.num_vars)).asformat(fmt)
    other = LpProblem("random", problem.var_ids, problem.obj, 0.0, matrix, problem.senses, problem.rhs,
                      problem.row_names)
    got, want = other.A, problem.A
    assert got.shape == want.shape
    if fmt != "csr":  # a conversion sorts each row's columns
        want = want.tocsc().tocsr()
    for attr in ("data", "indices", "indptr"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype, attr
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr


def tiny_lp() -> LpProblem:
    """min -a - b with a + b <= 1 over [0,1]^2: optimum -1."""
    return LpProblem("tiny", [VarId("named", ("a",)), VarId("named", ("b",))], [-1.0, -1.0], 0.0,
                     (np.ones(2), np.arange(2), np.array([0, 2])), [-1], [1.0], ["r"])


def test_assigning_A_changes_what_solve_sees():
    problem = tiny_lp()
    assert solve(problem).solution.objective_value == pytest.approx(-1.0)
    before = problem.A
    problem.A = sp.csr_matrix([[4.0, 4.0]])
    assert problem.A is not before and problem.A.toarray().tolist() == [[4.0, 4.0]]
    assert problem.data.tolist() == [4.0, 4.0]
    assert solve(problem).solution.objective_value == pytest.approx(-0.25)
    assert not verify_solution(problem, {"a": 1.0, "b": 0.0}).ok


def test_rows_of_the_wrong_shape_are_rejected():
    problem = tiny_lp()
    with pytest.raises(InvalidParameterError, match="shape"):
        problem.A = sp.csr_matrix([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidParameterError, match="out of range"):
        problem.A = (np.ones(1), np.array([2]), np.array([0, 1]))
    with pytest.raises(InvalidParameterError, match="shape"):
        problem.A = (np.ones(1), np.array([1]), np.array([0, 1, 1]))
