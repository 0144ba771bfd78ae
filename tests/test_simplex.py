"""Solver correctness: random cross-validation of the HiGHS solve against
``linprog``'s interior-point HiGHS, statuses, determinism, and the
feasibility checker."""

import numpy as np
import pytest
import scipy.sparse as sp

from motifcc import (
    FractionalSolution,
    InvalidParameterError,
    SolverConfig,
    build_lp2,
    build_table1_weights,
    solve,
    verify_solution,
)
from motifcc.generators import fig2_weights, make_fig2a
from motifcc.lpmodel import LinearConstraint, LpProblem, VarId


def make_problem(name, constraints, obj, lb=None, ub=None, offset=0.0):
    """Assemble a small LpProblem from LinearConstraint rows."""
    var_ids = []
    index = {}
    for row in constraints:
        for vid, _ in row.terms:
            if vid not in index:
                index[vid] = len(var_ids)
                var_ids.append(vid)
    for vid in obj:
        if vid not in index:
            index[vid] = len(var_ids)
            var_ids.append(vid)
    nv = len(var_ids)
    rows, cols, data = [], [], []
    senses = np.zeros(len(constraints), dtype=np.int8)
    rhs = np.zeros(len(constraints))
    names = []
    sense_code = {"<=": -1, "=": 0, ">=": 1}
    for i, row in enumerate(constraints):
        for vid, c in row.terms:
            rows.append(i)
            cols.append(index[vid])
            data.append(c)
        senses[i] = sense_code[row.sense]
        rhs[i] = row.rhs
        names.append(row.name)
    A = sp.csr_matrix((data, (rows, cols)), shape=(len(constraints), nv))
    cvec = np.zeros(nv)
    for vid, c in obj.items():
        cvec[index[vid]] = c
    lbv = np.zeros(nv) if lb is None else np.asarray(lb, dtype=float)
    ubv = np.ones(nv) if ub is None else np.asarray(ub, dtype=float)
    return LpProblem(name, var_ids, cvec, offset, A, senses, rhs, names, lb=lbv, ub=ubv)


def v(name):
    return VarId("named", (name,))


def random_problem(rng, n_vars=6, n_rows=8):
    """Random LP that is feasible at the origin: ``<=`` rows with rhs >= 0
    (about a third of them 0, like the builders' rows, which makes
    degenerate pivots), over columns in [0, ub] with ub in {1, 2, 5, inf}.
    An unbounded column can make the LP unbounded, so both statuses appear
    in a sweep.
    """
    ub = rng.choice([1.0, 2.0, 5.0, np.inf], size=n_vars)
    var_ids = [v(f"t{j}") for j in range(n_vars)]
    constraints = []
    for i in range(n_rows):
        nnz = rng.integers(1, n_vars + 1)
        cols = rng.choice(n_vars, size=nnz, replace=False)
        terms = [(var_ids[j], float(np.round(rng.normal(), 3))) for j in sorted(cols)]
        terms = [(vid, c) for vid, c in terms if c != 0.0] or [(var_ids[0], 1.0)]
        rhs = 0.0 if rng.random() < 0.35 else float(np.round(abs(rng.normal()), 3))
        constraints.append(LinearConstraint(f"r{i}", terms, "<=", rhs))
    obj = {vid: float(np.round(rng.normal(), 3)) for vid in var_ids}
    return make_problem("rand", constraints, obj, ub=ub)


def linprog_result(problem):
    """``linprog``'s interior-point HiGHS on ``problem``: another algorithm
    behind another interface, as the independent reference."""
    from scipy.optimize import linprog

    flip = np.where(problem.senses == 1, -1.0, 1.0)  # every row here is <= or >=
    return linprog(
        problem.obj,
        A_ub=sp.diags(flip) @ problem.A,
        b_ub=flip * problem.rhs,
        bounds=np.column_stack([problem.lb, problem.ub]),
        method="highs-ipm",
    )


LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


class TestAgainstScipy:
    def test_random_sweep(self):
        """Same status and optimal value as ``linprog`` on 60 random LPs."""
        statuses = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng)
            ours = solve(problem)
            ref = linprog_result(problem)
            assert ours.status == LINPROG_STATUS[ref.status], f"seed {seed}"
            statuses.append(ours.status)
            if ours.status == "optimal":
                assert ours.solution.objective_value == pytest.approx(ref.fun + problem.offset, abs=1e-6), f"seed {seed}"
                assert verify_solution(problem, ours.solution, tol=1e-6).ok
        # the sweep must actually exercise optima, and some unbounded LPs
        assert statuses.count("optimal") >= 20 and "unbounded" in statuses

    def test_ge_rows_feasible_at_the_start(self):
        """The same LPs with some rows written as -a x >= -b: HiGHS gets
        them as rows with no upper bound."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng)
            flip = np.where(rng.random(problem.num_rows) < 0.5, -1.0, 1.0)
            problem.A = sp.diags(flip) @ problem.A
            problem.rhs = flip * problem.rhs
            problem.senses = np.where(flip < 0, 1, -1).astype(np.int8)
            ours, ref = solve(problem), linprog_result(problem)
            assert ours.status == LINPROG_STATUS[ref.status], f"seed {seed}"
            if ours.status == "optimal":
                assert ours.solution.objective_value == pytest.approx(ref.fun + problem.offset, abs=1e-6)


def infeasible_problem():
    """Infeasible, and its start (the origin) violates the row."""
    return make_problem("inf", [LinearConstraint("lo", [(v("a"), 1.0)], ">=", 2.0)], {v("a"): 1.0}, ub=[1.0])


def infeasible_equality_pair():
    return make_problem(
        "inf2",
        [
            LinearConstraint("e1", [(v("a"), 1.0), (v("b"), 1.0)], "=", 1.5),
            LinearConstraint("e2", [(v("a"), 1.0), (v("b"), 1.0)], "=", 0.5),
        ],
        {v("a"): 1.0},
    )


def equality_row_problem():
    return make_problem(
        "eq",
        [LinearConstraint("e", [(v("a"), 1.0), (v("b"), 2.0)], "=", 2.0)],
        {v("a"): 1.0, v("b"): 1.0},
        ub=[2.0, 2.0],
    )


class TestStatuses:

    def test_infeasible(self):
        assert solve(infeasible_problem()).status == "infeasible"

    def test_infeasible_equality_pair(self):
        assert solve(infeasible_equality_pair()).status == "infeasible"

    def test_unbounded(self):
        problem = make_problem(
            "unb",
            [LinearConstraint("r", [(v("a"), 1.0), (v("b"), -1.0)], "<=", 1.0)],
            {v("b"): -1.0},
            ub=[1.0, np.inf],
        )
        assert solve(problem).status == "unbounded"

    def test_iteration_limit(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        res = solve(lp, SolverConfig(max_iterations=3))
        assert res.status == "iteration-limit"
        assert res.solution is None

    def test_scipy_iteration_limit(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        assert solve(lp).iterations > 1
        res = solve(lp, SolverConfig(max_iterations=1))
        assert res.status == "iteration-limit"
        assert res.solution is None

    def test_equality_rows(self):
        res = solve(equality_row_problem())
        assert res.status == "optimal"
        # cheapest point on a + 2b = 2 with c = (1,1) is (0, 1)
        assert res.solution.objective_value == pytest.approx(1.0)


class TestDeterminism:
    def test_identical_runs_pivot_for_pivot(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        r1 = solve(lp)
        r2 = solve(lp)
        assert r1.iterations == r2.iterations > 0
        assert r1.solution.values.tobytes() == r2.solution.values.tobytes()


class TestVerifySolution:
    def test_flags_row_violation(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        # z_uv = 1 while x_K = 0 breaks the pair-floor rows
        values = np.zeros(lp.num_vars)
        values[lp.num_vars - 1] = 1.0
        from motifcc import FractionalSolution

        sol = FractionalSolution(lp.var_ids, values, 0.0, "candidate")
        report = verify_solution(lp, sol, tol=1e-6)
        assert not report.ok
        assert any(viol.kind == "row" for viol in report.violations)

    def test_flags_bound_violation(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        from motifcc import FractionalSolution

        values = np.zeros(lp.num_vars)
        values[0] = 1.5
        sol = FractionalSolution(lp.var_ids, values, 0.0, "candidate")
        report = verify_solution(lp, sol, tol=1e-6)
        assert any(viol.kind == "bound" for viol in report.violations)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_flags_non_finite_values(self, bad):
        lp = build_lp2(fig2_weights(make_fig2a().graph).layers[0].weights, 6)
        values = np.full(lp.num_vars, bad)
        report = verify_solution(lp, FractionalSolution(lp.var_ids, values, 0.0, "candidate"))
        assert not report.ok
        bounds = [v for v in report.violations if v.kind == "bound"]
        assert len(bounds) == lp.num_vars and all(v.amount == np.inf for v in bounds)
        assert {v.index for v in report.violations if v.kind == "row"} == set(range(lp.num_rows))
        # one NaN among feasible values, given as a name map
        point = {vid.name: 0.0 for vid in lp.var_ids}
        point["z_1_2"] = bad
        names = {v.name for v in verify_solution(lp, point).violations}
        assert "z_1_2" in names and "tri_1_2_3_a3" in names

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
    def test_rejects_a_tolerance_not_finite_and_non_negative(self, tol):
        lp = build_lp2(fig2_weights(make_fig2a().graph).layers[0].weights, 6)
        point = FractionalSolution(lp.var_ids, np.full(lp.num_vars, 6.0), 0.0, "candidate")
        with pytest.raises(InvalidParameterError, match=f"got {tol}"):
            verify_solution(lp, point, tol=tol)
        assert verify_solution(lp, point, tol=0.0).violations

    def test_accepts_name_map(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        report = verify_solution(lp, {"x_1_2_3": 0.5}, tol=1e-6)
        assert not report.ok  # pair-sum rows need z mass once x > 0
        with pytest.raises(InvalidParameterError):
            verify_solution(lp, {"nope": 1.0})


class TestConfigValidation:
    def test_bad_engine(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(engine="glpk")

    def test_bad_tolerance(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(tol=0.0)


def reference_violations(problem, x, tol):
    """Per-row / per-variable loop with the documented violation semantics."""
    out = []
    r = problem.A @ x
    for i in range(problem.num_rows):
        gap = r[i] - problem.rhs[i]
        sense = problem.senses[i]
        if (sense == -1 and gap > tol) or (sense == 1 and -gap > tol) or (sense == 0 and abs(gap) > tol):
            out.append(("row", i, problem.row_names[i], abs(gap)))
    for j in range(problem.num_vars):
        if x[j] < problem.lb[j] - tol:
            out.append(("bound", j, problem.var_ids[j].name, problem.lb[j] - x[j]))
        elif x[j] > problem.ub[j] + tol:
            out.append(("bound", j, problem.var_ids[j].name, x[j] - problem.ub[j]))
    return out


class TestVerifyAgainstLoop:
    def test_random_points_and_bounds(self):
        senses_seen = set()
        for seed in range(40):
            rng = np.random.default_rng(900 + seed)
            problem = random_problem(rng, n_vars=7, n_rows=12)
            problem.senses = rng.integers(-1, 2, size=problem.num_rows).astype(np.int8)
            problem.rhs = np.round(rng.normal(size=problem.num_rows), 3)
            n = problem.num_vars
            problem.lb = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-1.0, 0.0, size=n))
            problem.ub = np.where(rng.random(n) < 0.3, np.inf, problem.ub)
            senses_seen.update(problem.senses.tolist())
            x = rng.uniform(-2.0, 3.0, size=n)
            tol = float(rng.choice([1e-9, 1e-6, 0.1]))
            report = verify_solution(problem, FractionalSolution(problem.var_ids, x, 0.0, "candidate"), tol=tol)
            got = [(v.kind, v.index, v.name, v.amount) for v in report.violations]
            assert got == reference_violations(problem, x, tol), f"seed {seed}"
        assert senses_seen == {-1, 0, 1}
