"""Solver correctness: random cross-validation against HiGHS, phases,
warm starts, determinism, and the feasibility checker."""

import numpy as np
import pytest
import scipy.sparse as sp

from motifcc import (
    DirectedGraph,
    FractionalSolution,
    InvalidParameterError,
    Partition,
    SolverConfig,
    build_lp1,
    build_lp2,
    build_table1_weights,
    induced_point,
    solve,
    verify_solution,
)
from motifcc import simplex
from motifcc.generators import fig2_weights, make_fig2a, make_fig2b
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
    """Random bounded LP with mixed senses.

    Most instances anchor each right-hand side at a random interior point so
    they are feasible by construction; the rest use raw random right-hand
    sides, which with equality rows over a box are almost always infeasible.
    Both statuses therefore appear in a sweep.
    """
    ub = rng.choice([1.0, 2.0, 5.0], size=n_vars)
    anchor = rng.uniform(0.0, ub) if rng.random() < 0.7 else None
    var_ids = [v(f"t{j}") for j in range(n_vars)]
    constraints = []
    for i in range(n_rows):
        nnz = rng.integers(1, n_vars + 1)
        cols = rng.choice(n_vars, size=nnz, replace=False)
        terms = [(var_ids[j], float(np.round(rng.normal(), 3))) for j in sorted(cols)]
        terms = [(vid, c) for vid, c in terms if c != 0.0] or [(var_ids[0], 1.0)]
        sense = ["<=", ">=", "="][rng.integers(0, 3)]
        if anchor is None:
            rhs = float(np.round(rng.normal(), 3))
        else:
            at_anchor = sum(c * anchor[int(vid.key[0][1:])] for vid, c in terms)
            slack = float(np.round(abs(rng.normal()), 3))
            rhs = at_anchor + {"<=": slack, ">=": -slack, "=": 0.0}[sense]
        constraints.append(LinearConstraint(f"r{i}", terms, sense, rhs))
    obj = {vid: float(np.round(rng.normal(), 3)) for vid in var_ids}
    return make_problem("rand", constraints, obj, ub=ub)


class TestAgainstScipy:
    def test_random_sweep(self):
        """Same status and optimal value as HiGHS on 60 random LPs."""
        agree_optimal = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng)
            ours = solve(problem)
            ref = solve(problem, SolverConfig(engine="scipy"))
            assert ours.status == ref.status, f"seed {seed}"
            if ours.status == "optimal":
                agree_optimal += 1
                assert ours.solution.objective_value == pytest.approx(
                    ref.solution.objective_value, abs=1e-6
                ), f"seed {seed}"
                assert verify_solution(problem, ours.solution, tol=1e-6).ok
        assert agree_optimal >= 20  # the sweep must actually exercise optima

    @pytest.mark.parametrize("rule", ["devex", "bland"])
    def test_pivot_rules_agree(self, rule, monkeypatch):
        if rule == "bland":  # switch to Bland's rule from the first pivot
            monkeypatch.setattr(simplex, "BLAND_TRIGGER", 0)
        for seed in (3, 14, 41):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng)
            ref = solve(problem, SolverConfig(engine="scipy"))
            ours = solve(problem)
            assert ours.status == ref.status
            if ref.status == "optimal":
                assert ours.solution.objective_value == pytest.approx(
                    ref.solution.objective_value, abs=1e-6
                )


class TestStatuses:
    def test_infeasible(self):
        problem = make_problem(
            "inf",
            [
                LinearConstraint("lo", [(v("a"), 1.0)], ">=", 2.0),
            ],
            {v("a"): 1.0},
            ub=[1.0],
        )
        assert solve(problem).status == "infeasible"

    def test_infeasible_equality_pair(self):
        problem = make_problem(
            "inf2",
            [
                LinearConstraint("e1", [(v("a"), 1.0), (v("b"), 1.0)], "=", 1.5),
                LinearConstraint("e2", [(v("a"), 1.0), (v("b"), 1.0)], "=", 0.5),
            ],
            {v("a"): 1.0},
        )
        assert solve(problem).status == "infeasible"

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
        assert solve(lp, SolverConfig(engine="scipy")).iterations > 1
        res = solve(lp, SolverConfig(max_iterations=1, engine="scipy"))
        assert res.status == "iteration-limit"
        assert res.solution is None

    def test_equality_rows(self):
        problem = make_problem(
            "eq",
            [
                LinearConstraint("e", [(v("a"), 1.0), (v("b"), 2.0)], "=", 2.0),
            ],
            {v("a"): 1.0, v("b"): 1.0},
            ub=[2.0, 2.0],
        )
        res = solve(problem)
        assert res.status == "optimal"
        # cheapest point on a + 2b = 2 with c = (1,1) is (0, 1)
        assert res.solution.objective_value == pytest.approx(1.0)


class TestDeterminism:
    def test_identical_runs_pivot_for_pivot(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        r1 = solve(lp)
        r2 = solve(lp)
        assert r1.iterations == r2.iterations
        assert (r1.pivots, r1.bound_flips) == (r2.pivots, r2.bound_flips)
        assert r1.solution.values.tobytes() == r2.solution.values.tobytes()


class TestWarmStart:
    def test_same_optimum_from_induced_start(self, two_triangle_graph):
        # iteration counts are not compared: on tiny problems a warm start can
        # wander more than a cold one, it only pays off at scale
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        cold = solve(lp)
        part = Partition.from_cluster_list([[1, 2, 3], [4, 5, 6]])
        start = induced_point(part, lp).values
        warm = solve(lp, start_values=start)
        assert warm.status == "optimal"
        assert warm.solution.objective_value == pytest.approx(
            cold.solution.objective_value, abs=1e-9
        )

    def test_bad_warm_start_still_correct(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        cold = solve(lp)
        start = np.ones(lp.num_vars)  # everything split: feasible corner
        warm = solve(lp, start_values=start)
        assert warm.solution.objective_value == pytest.approx(
            cold.solution.objective_value, abs=1e-9
        )


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


# Iterations, pivots and bound flips of the devex/Bland simplex (and, on the
# fig2 LPs, its sparse LU factorizations).  A change to the simplex
# arithmetic (pricing, ratio test, refactorization schedule, tolerances)
# usually moves some of these; a change to overhead alone moves none.
PINNED_FIG2 = {
    ("fig2a", "lp2"): (83, 81, 2, 0),
    ("fig2a", "lp1"): (49, 48, 1, 0),
    ("fig2b", "lp2"): (314, 312, 2, 2),
    ("fig2b", "lp1"): (246, 245, 1, 8),
}
# per seed of random_problem: (status, iterations, pivots, bound flips, phase-1 iterations)
PINNED_RANDOM = [
    ("inf", 9, 9, 0, 9), ("inf", 3, 3, 0, 3), ("inf", 6, 6, 0, 6), ("opt", 9, 9, 0, 7),
    ("opt", 8, 8, 0, 6), ("opt", 5, 5, 0, 4), ("inf", 7, 7, 0, 7), ("opt", 11, 11, 0, 4),
    ("inf", 2, 1, 1, 2), ("inf", 3, 3, 0, 3), ("opt", 9, 8, 1, 8), ("opt", 9, 9, 0, 9),
    ("opt", 10, 10, 0, 6), ("opt", 8, 8, 0, 6), ("inf", 2, 2, 0, 2), ("inf", 6, 5, 1, 6),
    ("inf", 6, 6, 0, 6), ("opt", 10, 9, 1, 8), ("inf", 10, 10, 0, 10), ("opt", 7, 7, 0, 5),
    ("inf", 4, 3, 1, 4), ("opt", 11, 10, 1, 9), ("opt", 7, 6, 1, 6), ("opt", 6, 5, 1, 3),
    ("inf", 4, 2, 2, 4), ("inf", 4, 3, 1, 4), ("inf", 5, 5, 0, 5), ("inf", 6, 6, 0, 6),
    ("inf", 6, 5, 1, 6), ("opt", 6, 6, 0, 6), ("opt", 6, 5, 1, 5), ("opt", 9, 8, 1, 6),
    ("inf", 5, 3, 2, 5), ("opt", 9, 8, 1, 7), ("opt", 5, 5, 0, 4), ("inf", 5, 5, 0, 5),
    ("opt", 6, 6, 0, 4), ("inf", 1, 1, 0, 1), ("inf", 9, 9, 0, 9), ("inf", 4, 1, 3, 4),
    ("inf", 11, 9, 2, 11), ("inf", 6, 6, 0, 6), ("inf", 6, 6, 0, 6), ("inf", 5, 5, 0, 5),
    ("inf", 4, 4, 0, 4), ("opt", 8, 8, 0, 7), ("opt", 7, 7, 0, 4), ("inf", 4, 3, 1, 4),
    ("opt", 12, 11, 1, 8), ("inf", 7, 5, 2, 7), ("inf", 5, 5, 0, 5), ("inf", 7, 7, 0, 7),
    ("opt", 8, 6, 2, 6), ("inf", 4, 4, 0, 4), ("opt", 8, 8, 0, 8), ("inf", 4, 3, 1, 4),
    ("inf", 4, 3, 1, 4), ("opt", 8, 8, 0, 7), ("inf", 10, 10, 0, 10), ("inf", 6, 5, 1, 6),
]
PINNED_BLAND = {3: ("opt", 10, 10, 0, 9), 14: ("inf", 2, 2, 0, 2), 41: ("inf", 6, 6, 0, 6)}


def counters(result):
    return (result.status[:3], result.iterations, result.pivots, result.bound_flips,
            result.phase1_iterations)


class TestPivotForPivot:
    @pytest.mark.parametrize("fixture,relaxation", sorted(PINNED_FIG2))
    def test_fig2_counts(self, fixture, relaxation, monkeypatch):
        fix = make_fig2a() if fixture == "fig2a" else make_fig2b(10)
        weights = next(iter(fig2_weights(fix.graph))).weights
        build = build_lp1 if relaxation == "lp1" else build_lp2
        factorizations = []
        splu = simplex.splu

        def counted_splu(sub):
            factorizations.append(sub.shape)
            return splu(sub)

        monkeypatch.setattr(simplex, "splu", counted_splu)
        res = solve(build(weights, fix.graph.n))
        assert res.status == "optimal"
        got = (res.iterations, res.pivots, res.bound_flips, len(factorizations))
        assert got == PINNED_FIG2[(fixture, relaxation)]

    @pytest.mark.parametrize("fixture,relaxation", sorted(PINNED_FIG2))
    def test_fig2_optimum_matches_scipy(self, fixture, relaxation):
        fix = make_fig2a() if fixture == "fig2a" else make_fig2b(10)
        weights = next(iter(fig2_weights(fix.graph))).weights
        lp = (build_lp1 if relaxation == "lp1" else build_lp2)(weights, fix.graph.n)
        ours = solve(lp).solution.objective_value
        ref = solve(lp, SolverConfig(engine="scipy")).solution.objective_value
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_refactors_count_the_lu_factorizations(self, monkeypatch):
        fix = make_fig2b(10)
        lp = build_lp1(next(iter(fig2_weights(fix.graph))).weights, 10)
        calls = []
        splu = simplex.splu

        def counted_splu(sub):
            calls.append(sub.shape)
            return splu(sub)

        monkeypatch.setattr(simplex, "splu", counted_splu)
        res = solve(lp)
        assert res.refactors == len(calls) == PINNED_FIG2[("fig2b", "lp1")][3]
        assert solve(lp, SolverConfig(engine="scipy")).refactors == 0

    def test_random_lp_counts(self):
        got = [counters(solve(random_problem(np.random.default_rng(seed)))) for seed in range(60)]
        assert got == PINNED_RANDOM

    def test_bland_counts(self, monkeypatch):
        monkeypatch.setattr(simplex, "BLAND_TRIGGER", 0)
        for seed, pinned in PINNED_BLAND.items():
            assert counters(solve(random_problem(np.random.default_rng(seed)))) == pinned


class TestInternals:
    def test_row_of_matches_full_product(self):
        rng = np.random.default_rng(5)
        problem = random_problem(np.random.default_rng(0))  # needs phase 1
        cfg = SolverConfig()
        ws = simplex._Workspace(problem, cfg, None)
        y = rng.normal(size=ws.m)
        assert ws.row_of(y).tobytes() == (y @ ws.A).tobytes()
        ws.refactor()
        lb_b, ub_b = ws.lb[ws.basic], ws.ub[ws.basic]
        violated = (ws.xB < lb_b - cfg.tol) | (ws.xB > ub_b + cfg.tol)
        assert violated.any()
        simplex._phase1(ws, violated)
        assert ws.N > ws.n + ws.m  # artificial columns appended
        assert (ws.unit_sign[ws.n + ws.m :] < 0).any()
        y = rng.normal(size=ws.m)
        assert ws.row_of(y).tobytes() == (y @ ws.A).tobytes()

    def test_repeated_slack_row_is_singular(self):
        # columns: one structural, slacks of rows 0 and 1, an artificial on row 0
        A_ext = sp.csc_matrix(np.array([[1.0, 1.0, 0.0, -1.0], [1.0, 0.0, 1.0, 0.0]]))
        unit_row = np.array([-1, 0, 1, 0])
        unit_sign = np.array([0.0, 1.0, 1.0, -1.0])
        simplex._Basis(A_ext, np.array([1, 2]), 2, unit_row, unit_sign)  # a valid basis
        with pytest.raises(simplex.SolverFailureError, match="singular basis"):
            simplex._Basis(A_ext, np.array([1, 3]), 2, unit_row, unit_sign)

    def test_eta_file_never_reallocated(self, monkeypatch):
        fix = make_fig2b(10)
        lp = build_lp1(next(iter(fig2_weights(fix.graph))).weights, 10)
        seen = []
        refactors = []
        append, refactor = simplex._EtaFile.append, simplex._Workspace.refactor

        def spy_append(self, *args):
            append(self, *args)
            seen.append((self, self.idx, self.val, self.starts, self.pivots, self.T))

        def spy_refactor(self):
            refactor(self)
            refactors.append(self.etas.count)

        monkeypatch.setattr(simplex._EtaFile, "append", spy_append)
        monkeypatch.setattr(simplex._Workspace, "refactor", spy_refactor)
        assert solve(lp).status == "optimal"
        assert len(refactors) > 2 and set(refactors) == {0}
        first = seen[0]
        assert all(all(a is b for a, b in zip(arrays, first)) for arrays in seen)

