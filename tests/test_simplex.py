"""Solver correctness: random cross-validation of the in-repo simplex
against HiGHS, statuses, the start contract, warm starts, determinism, and
the feasibility checker."""

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
    """Random LP that starts feasible at the origin, as the in-repo simplex
    requires: ``<=`` rows with rhs >= 0 (about a third of them 0, like the
    builders' rows, which makes degenerate pivots), over columns in [0, ub]
    with ub in {1, 2, 5, inf}.  An unbounded column can make the LP
    unbounded, so both statuses appear in a sweep.
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


SIMPLEX = SolverConfig(engine="simplex")


class TestAgainstScipy:
    def test_random_sweep(self):
        """Same status and optimal value as HiGHS on 60 random LPs."""
        statuses = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng)
            ours = solve(problem, SIMPLEX)
            ref = solve(problem)
            assert ours.status == ref.status, f"seed {seed}"
            statuses.append(ours.status)
            if ours.status == "optimal":
                assert ours.solution.objective_value == pytest.approx(
                    ref.solution.objective_value, abs=1e-6
                ), f"seed {seed}"
                assert verify_solution(problem, ours.solution, tol=1e-6).ok
        # the sweep must actually exercise optima, and some unbounded LPs
        assert statuses.count("optimal") >= 20 and "unbounded" in statuses

    def test_ge_rows_feasible_at_the_start(self):
        """The same LPs with some rows written as -a x >= -b: the simplex
        takes any sense whose row holds at the start, and its ``>=`` slacks
        have no lower bound."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng)
            flip = np.where(rng.random(problem.num_rows) < 0.5, -1.0, 1.0)
            problem.A = sp.diags(flip) @ problem.A
            problem.rhs = flip * problem.rhs
            problem.senses = np.where(flip < 0, 1, -1).astype(np.int8)
            ours, ref = solve(problem, SIMPLEX), solve(problem)
            assert ours.status == ref.status, f"seed {seed}"
            if ours.status == "optimal":
                assert ours.solution.objective_value == pytest.approx(ref.solution.objective_value, abs=1e-6)

    @pytest.mark.parametrize("rule", ["devex", "bland"])
    def test_pivot_rules_agree(self, rule, monkeypatch):
        if rule == "bland":  # switch to Bland's rule from the first pivot
            monkeypatch.setattr(simplex, "BLAND_TRIGGER", 0)
        for seed in sorted(PINNED_BLAND):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng)
            ref = solve(problem)
            ours = solve(problem, SIMPLEX)
            assert ours.status == ref.status
            if ref.status == "optimal":
                assert ours.solution.objective_value == pytest.approx(
                    ref.solution.objective_value, abs=1e-6
                )


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
    """Infeasible and equality-row LPs start infeasible, so they are
    HiGHS's (the default engine); ``TestStartContract`` has the simplex
    refuse them."""

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
        assert solve(problem, SIMPLEX).status == "unbounded"
        assert solve(problem).status == "unbounded"

    def test_iteration_limit(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        res = solve(lp, SolverConfig(max_iterations=3, engine="simplex"))
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


class TestStartContract:
    """The in-repo simplex has no phase 1: it refuses a start that violates
    a row, and each engine refuses the other's argument."""

    @pytest.mark.parametrize("make", [infeasible_problem, infeasible_equality_pair, equality_row_problem])
    def test_simplex_refuses_an_infeasible_origin(self, make):
        with pytest.raises(InvalidParameterError, match="no phase 1, solve this LP with engine 'scipy'"):
            solve(make(), SIMPLEX)

    def test_simplex_refuses_an_infeasible_start(self):
        lp = build_lp1(next(iter(fig2_weights(make_fig2a().graph))).weights, 6)
        assert solve(lp, SIMPLEX, start_values=np.zeros(lp.num_vars)).status == "optimal"
        # x_K3 = 1 with x_K1 = x_K2 = 0 breaks the Upsilon row of (K3, K1, K2)
        start = np.zeros(lp.num_vars)
        start[lp.A[0].indices[lp.A[0].data > 0]] = 1.0
        with pytest.raises(InvalidParameterError, match=r"violates \d+ rows of lp1_n6_k3 \(first ups0\)"):
            solve(lp, SIMPLEX, start_values=start)
        # each value snaps to its nearer bound: 0.4 starts at the origin
        start[:] = 0.4
        assert solve(lp, SIMPLEX, start_values=start).status == "optimal"

    def test_start_values_must_fit_the_lp(self):
        lp = build_lp1(next(iter(fig2_weights(make_fig2a().graph))).weights, 6)
        with pytest.raises(InvalidParameterError, match=f"the LP has {lp.num_vars} columns"):
            solve(lp, SIMPLEX, start_values=np.zeros(lp.num_vars - 1))

    def test_highs_refuses_start_values(self):
        lp = build_lp1(next(iter(fig2_weights(make_fig2a().graph))).weights, 6)
        with pytest.raises(InvalidParameterError, match="start_values seed the in-repo simplex"):
            solve(lp, start_values=np.zeros(lp.num_vars))

    def test_simplex_refuses_a_highs_model(self):
        lp = build_lp1(next(iter(fig2_weights(make_fig2a().graph))).weights, 6)
        with pytest.raises(InvalidParameterError, match="model is a HiGHS instance"):
            solve(lp, SIMPLEX, model=simplex.HighsModel())

    def test_highs_is_the_default_engine(self):
        assert SolverConfig().engine == "scipy"
        assert solve(infeasible_problem()).refactors == 0


class TestDeterminism:
    def test_identical_runs_pivot_for_pivot(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        r1 = solve(lp, SIMPLEX)
        r2 = solve(lp, SIMPLEX)
        assert r1.iterations == r2.iterations
        assert (r1.pivots, r1.bound_flips) == (r2.pivots, r2.bound_flips)
        assert r1.solution.values.tobytes() == r2.solution.values.tobytes()


class TestWarmStart:
    def test_same_optimum_from_induced_start(self, two_triangle_graph):
        # iteration counts are not compared: on tiny problems a warm start can
        # wander more than a cold one, it only pays off at scale
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        cold = solve(lp, SIMPLEX)
        part = Partition.from_cluster_list([[1, 2, 3], [4, 5, 6]])
        start = induced_point(part, lp).values
        warm = solve(lp, SIMPLEX, start_values=start)
        assert warm.status == "optimal"
        assert warm.solution.objective_value == pytest.approx(
            cold.solution.objective_value, abs=1e-9
        )

    def test_bad_warm_start_still_correct(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        lp = build_lp2(w, 6)
        cold = solve(lp, SIMPLEX)
        start = np.ones(lp.num_vars)  # everything split: feasible corner
        warm = solve(lp, SIMPLEX, start_values=start)
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
# per seed of random_problem: (status, iterations, pivots, bound flips)
PINNED_RANDOM = [
    ("opt", 4, 4, 0), ("opt", 4, 4, 0), ("opt", 5, 5, 0), ("opt", 5, 4, 1), ("unb", 0, 0, 0),
    ("opt", 2, 2, 0), ("opt", 3, 3, 0), ("opt", 5, 5, 0), ("opt", 3, 3, 0), ("opt", 5, 4, 1),
    ("opt", 4, 2, 2), ("opt", 5, 5, 0), ("opt", 4, 3, 1), ("opt", 2, 2, 0), ("opt", 4, 3, 1),
    ("opt", 3, 3, 0), ("opt", 3, 2, 1), ("opt", 2, 1, 1), ("unb", 8, 6, 2), ("opt", 1, 1, 0),
    ("unb", 6, 5, 1), ("opt", 2, 2, 0), ("opt", 4, 3, 1), ("opt", 3, 2, 1), ("opt", 5, 4, 1),
    ("opt", 3, 3, 0), ("opt", 2, 2, 0), ("opt", 5, 5, 0), ("opt", 2, 2, 0), ("opt", 6, 6, 0),
    ("opt", 2, 2, 0), ("opt", 1, 1, 0), ("opt", 3, 3, 0), ("opt", 3, 2, 1), ("opt", 4, 4, 0),
    ("unb", 3, 3, 0), ("opt", 6, 5, 1), ("opt", 2, 2, 0), ("opt", 2, 2, 0), ("opt", 2, 2, 0),
    ("opt", 3, 3, 0), ("opt", 1, 1, 0), ("opt", 7, 7, 0), ("opt", 3, 2, 1), ("opt", 3, 3, 0),
    ("opt", 5, 5, 0), ("opt", 4, 4, 0), ("opt", 1, 1, 0), ("opt", 1, 1, 0), ("opt", 2, 2, 0),
    ("opt", 3, 3, 0), ("opt", 2, 2, 0), ("opt", 9, 9, 0), ("opt", 2, 1, 1), ("opt", 1, 1, 0),
    ("opt", 1, 1, 0), ("opt", 4, 4, 0), ("unb", 4, 3, 1), ("unb", 11, 9, 2), ("opt", 3, 3, 0),
]
# Bland from the first pivot, on seeds where it moves the counts
PINNED_BLAND = {2: ("opt", 9, 9, 0), 10: ("opt", 7, 7, 0), 18: ("unb", 10, 6, 4)}


def counters(result):
    return (result.status[:3], result.iterations, result.pivots, result.bound_flips)


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
        res = solve(build(weights, fix.graph.n), SIMPLEX)
        assert res.status == "optimal"
        got = (res.iterations, res.pivots, res.bound_flips, len(factorizations))
        assert got == PINNED_FIG2[(fixture, relaxation)]

    @pytest.mark.parametrize("fixture,relaxation", sorted(PINNED_FIG2))
    def test_fig2_optimum_matches_scipy(self, fixture, relaxation):
        fix = make_fig2a() if fixture == "fig2a" else make_fig2b(10)
        weights = next(iter(fig2_weights(fix.graph))).weights
        lp = (build_lp1 if relaxation == "lp1" else build_lp2)(weights, fix.graph.n)
        ours = solve(lp, SIMPLEX).solution.objective_value
        ref = solve(lp).solution.objective_value
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
        res = solve(lp, SIMPLEX)
        assert res.refactors == len(calls) == PINNED_FIG2[("fig2b", "lp1")][3]
        assert solve(lp).refactors == 0

    def test_random_lp_counts(self):
        results = [solve(random_problem(np.random.default_rng(seed)), SIMPLEX) for seed in range(60)]
        assert [counters(r) for r in results] == PINNED_RANDOM
        assert {r.phase1_iterations for r in results} == {0}

    def test_bland_counts(self, monkeypatch):
        monkeypatch.setattr(simplex, "BLAND_TRIGGER", 0)
        for seed, pinned in PINNED_BLAND.items():
            assert counters(solve(random_problem(np.random.default_rng(seed)), SIMPLEX)) == pinned


class TestInternals:
    def test_row_of_matches_full_product(self):
        rng = np.random.default_rng(5)
        ws = simplex._Workspace(random_problem(np.random.default_rng(0)), SIMPLEX, None)
        for _ in range(3):
            y = rng.normal(size=ws.m)
            assert ws.row_of(y).tobytes() == (y @ ws.A).tobytes()

    def test_repeated_slack_row_is_singular(self):
        # columns: one structural, then the slacks of rows 0 and 1
        A_ext = sp.csc_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
        simplex._Basis(A_ext, np.array([1, 2]), 1)  # a valid basis
        with pytest.raises(simplex.SolverFailureError, match="singular basis"):
            simplex._Basis(A_ext, np.array([1, 1]), 1)  # row 0's slack twice

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
        assert solve(lp, SIMPLEX).status == "optimal"
        assert len(refactors) > 2 and set(refactors) == {0}
        first = seen[0]
        assert all(all(a is b for a, b in zip(arrays, first)) for arrays in seen)

