"""The LP rows as CSR arrays, checked against scipy.sparse as the reference.

``LpProblem`` holds its rows as (data, indices, indptr) and computes with
numpy what scipy computed before: the row activity ``A @ x``, bit for bit,
and the column-wise arrays HiGHS is given, equal to ``A.tocsc()``'s.  The
scipy view ``A`` is built from the arrays on first read, and assigning a
scipy matrix to it replaces them.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from motifcc import build_table1_weights
from motifcc.errors import InvalidParameterError
from motifcc.generators import karate
from motifcc.lpmodel import LpProblem, VarId, build_lp3
from motifcc.simplex import solve, verify_solution


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


def assert_colwise_is_tocsc(problem: LpProblem) -> None:
    start, rows, values = problem.colwise()
    csc = problem.A.tocsc()
    assert np.array_equal(start, csc.indptr)
    assert np.array_equal(rows, csc.indices)
    assert values.dtype == csc.data.dtype and values.tobytes() == csc.data.tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_colwise_equals_tocsc(seed):
    assert_colwise_is_tocsc(random_problem(np.random.default_rng(seed)))


def test_colwise_equals_tocsc_on_karate_mmcc():
    problem = build_lp3(build_table1_weights("MMCC", karate().graph), 34)
    assert problem.num_rows == 41_888
    assert_colwise_is_tocsc(problem)


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
