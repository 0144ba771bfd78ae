"""The LP solver: the dual simplex of scipy's bundled HiGHS.

``highs_core`` loads the HiGHS extension module that scipy ships without
importing ``scipy.optimize``.  A ``HighsModel`` keeps one HiGHS instance
across the separation rounds of an LP that grows by rows: each round
passes it only the added rows (``addRows``), and HiGHS re-optimizes from
its last basis.  HiGHS runs on one thread, silent, which makes every
solve deterministic, and without presolve.  On the first round of the
LP2/LP3 cores (the planted MMCC ladder n = 16-50, karate CC, MMCC and
MCC) presolve removed no row, only the pair columns no row holds yet;
with it off, round 1 took the same iterations to the same LP value in
25-42% less time on the MMCC cores (planted n = 22: 3.5 -> 2.2 ms;
n = 50: 47 -> 28 ms) and 6% less on karate MCC (2-core x86-64, HiGHS
1.12.0 bundled with scipy 1.17.1).

``verify_solution`` is the independent check of a point against every
row and bound of an ``LpProblem``, or of a lifted point against the
reduced LP it came from and the tuple rows left out of it.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

import numpy as np

from .errors import InvalidParameterError, SolverFailureError
from .lpmodel import FractionalSolution, LpProblem


@dataclass
class SolverConfig:
    """How ``solve`` runs, checked when made, before any LP is built or
    loaded.  ``tol`` must be finite and at least 1e-10, the smallest
    feasibility tolerance HiGHS accepts.  ``engine`` names the solver, and
    "scipy" (scipy's bundled HiGHS) is the only one; the field stays while
    the benchmark's traced gate (perfbench/run.py) passes it (ROADMAP item 1)."""

    tol: float = 1e-7  # primal feasibility and dual optimality tolerance
    max_iterations: int = 200_000
    engine: str = "scipy"

    def __post_init__(self):
        try:
            ok = math.isfinite(self.tol) and self.tol >= 1e-10
        except TypeError:
            ok = False
        if not ok:
            raise InvalidParameterError(
                f"tol must be finite and at least 1e-10, the smallest HiGHS accepts, "
                f"got {self.tol!r} (primal_feasibility_tolerance={self.tol!r})"
            )
        if not (isinstance(self.max_iterations, (int, np.integer)) and self.max_iterations >= 1):
            raise InvalidParameterError(f"max_iterations must be an integer of at least 1, got {self.max_iterations!r}")
        if self.engine != "scipy":
            raise InvalidParameterError(f"unknown engine {self.engine!r}; the solver is HiGHS, engine 'scipy'")


@dataclass
class SolverResult:
    status: str  # optimal | infeasible | unbounded | iteration-limit | other HiGHS model status
    solution: FractionalSolution | None
    iterations: int  # HiGHS's simplex_iteration_count for this run
    wall_time: float
    # Counters of the retired in-repo simplex, always 0: the benchmark's
    # tracer (perfbench/tracer.py) still sums them (ROADMAP item 1).
    pivots = bound_flips = phase1_iterations = 0


def splu(*args, **kwargs):
    """The retired in-repo simplex's LU factorization, kept only as a name
    that the benchmark's tracer (perfbench/tracer.py) wraps (ROADMAP item
    1); nothing calls it."""
    raise NotImplementedError("the in-repo simplex and its LU factorization were removed")


@dataclass
class Violation:
    kind: str  # "row" | "bound"
    index: int
    name: str
    amount: float

    def __str__(self):
        return f"{self.kind} {self.name} violated by {self.amount:.3e}"


@dataclass
class ViolationReport:
    violations: list[Violation]
    tol: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"feasible within {self.tol:g}"
        worst = max(v.amount for v in self.violations)
        return f"{len(self.violations)} violations (worst {worst:.3e}) at tol {self.tol:g}"


def check_tolerance(name: str, tol) -> None:
    """Reject a check tolerance that is not a finite number >= 0: every
    comparison with NaN is false, so a NaN tolerance would pass any point."""
    try:
        ok = math.isfinite(tol) and tol >= 0
    except TypeError:
        ok = False
    if not ok:
        raise InvalidParameterError(f"{name} must be finite and non-negative, got {tol!r}")


def verify_solution(problem, solution, tol: float = 1e-6, *, lift=None) -> ViolationReport:
    """Independent feasibility check: every row and bound violated beyond
    ``tol`` is listed, and so is every NaN or infinite value or row
    activity; an empty report means feasible.

    ``solution`` may be a FractionalSolution or a variable-name -> value
    mapping (unknown names rejected, missing names default to 0).  ``tol``
    must be finite and >= 0 (``check_tolerance``).  With ``lift``, the
    ``TupleLift`` of an LP built without its zero-cost tuple columns that
    ``problem`` extends by rows, ``solution`` is a point of the lift's full
    columns: ``problem`` is checked at the kept columns, and the left-out
    columns' rows and [0, 1] bounds on arrays (``TupleLift.left_out_rows``).
    """
    check_tolerance("tolerance", tol)
    if isinstance(solution, FractionalSolution):
        x = solution.values
    else:
        known = {vid.name: i for i, vid in enumerate(problem.var_ids)}
        unknown = [name for name in solution if name not in known]
        if unknown:
            raise InvalidParameterError(f"solution names not in problem: {unknown[:5]}")
        x = np.zeros(problem.num_vars)
        for name, value in solution.items():
            x[known[name]] = float(value)
    full = x
    if lift is not None:
        x = x[lift.kept]
    out = _row_violations(problem.row_activity(x) - problem.rhs, problem.senses, lambda: problem.row_names, tol)
    out += _bound_violations(x, problem.lb, problem.ub, lambda: [vid.name for vid in problem.var_ids], tol)
    if lift is not None:
        gap, names = lift.left_out_rows(full)
        out += _row_violations(gap, -1, names, tol)
        names = lambda: [lift.columns[j].name for j in lift.dropped.tolist()]
        out += _bound_violations(full[lift.dropped], 0.0, 1.0, names, tol)
    return ViolationReport(out, tol)


def _row_violations(gap, senses, names, tol: float) -> list[Violation]:
    """The rows whose activity minus rhs ``gap`` breaks their sense code
    by more than ``tol``, and every row whose gap is not finite (every
    comparison with NaN is false) as an infinite violation; ``names()``
    lists the rows' names."""
    bad_gap = ~np.isfinite(gap)
    bad = bad_gap | ((senses == -1) & (gap > tol)) | ((senses == 1) & (-gap > tol)) | ((senses == 0) & (np.abs(gap) > tol))
    return _listed("row", np.nonzero(bad)[0], np.where(bad_gap, np.inf, np.abs(gap)), names)


def _bound_violations(x, lb, ub, names, tol: float) -> list[Violation]:
    """The values outside [lb - tol, ub + tol] or not finite, as ``_row_violations``."""
    bad_x = ~np.isfinite(x)
    below = x < lb - tol
    above = ~below & (x > ub + tol)
    excess = np.where(bad_x, np.inf, np.where(below, lb - x, x - ub))
    return _listed("bound", np.nonzero(bad_x | below | above)[0], excess, names)


def _listed(kind: str, bad: np.ndarray, amount: np.ndarray, names) -> list[Violation]:
    names = names() if len(bad) else []
    return [Violation(kind, int(i), names[i], float(amount[i])) for i in bad.tolist()]


_HIGHS_MODULE = "scipy.optimize._highspy._core"


def highs_core():
    """The HiGHS extension module that scipy bundles, without importing
    ``scipy.optimize``.

    This is private scipy API: ``scipy/optimize/_highspy/_core`` is the
    pybind11 module behind ``linprog(method="highs")``, shipped with
    ``_Highs.addRows`` since scipy 1.15.  If ``scipy.optimize`` has loaded
    it already, that module is returned.  Otherwise the file is loaded from
    scipy's package directory and registered under the same name, so a
    later ``linprog`` reuses it.  This costs about 3 MB of peak RSS, against
    about 17 MB for ``import scipy.optimize``.  A missing file or a module
    without the names used here raises SolverFailureError naming it.
    """
    core = sys.modules.get(_HIGHS_MODULE)
    if core is None:
        import scipy

        stem = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy", "_core")
        path = next((stem + suffix for suffix in EXTENSION_SUFFIXES if os.path.isfile(stem + suffix)), None)
        if path is None:
            raise SolverFailureError(f"HiGHS extension not found: no {stem}{{{','.join(EXTENSION_SUFFIXES)}}}")
        loader = ExtensionFileLoader(_HIGHS_MODULE, path)
        core = module_from_spec(spec_from_loader(_HIGHS_MODULE, loader))
        loader.exec_module(core)
        sys.modules[_HIGHS_MODULE] = core
    missing = [name for name in ("_Highs", "HighsLp", "HighsStatus", "HighsModelStatus", "MatrixFormat")
               if not hasattr(core, name)]
    if missing or not hasattr(core._Highs, "addRows"):
        raise SolverFailureError(f"{core.__file__} lacks {missing or ['_Highs.addRows']}")
    return core


def _row_bounds(problem: LpProblem, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """HiGHS row bounds lower <= a x <= upper of rows ``first:``."""
    senses, rhs = problem.senses[first:], problem.rhs[first:]
    return np.where(senses == -1, -np.inf, rhs), np.where(senses == 1, np.inf, rhs)


class HighsModel:
    """One HiGHS instance across the solves of an LP that grows by rows.

    Each solve passes HiGHS only the rows past those it holds
    (``addRows``), and HiGHS re-optimizes from its last basis.  So the
    rows it holds must stay the first rows of every problem solved in it,
    with the same columns.
    """

    def __init__(self):
        self.core = highs_core()
        self.highs = self.core._Highs()

    def load(self, problem: LpProblem) -> None:
        h = self.highs
        held = h.getNumRow()
        if h.getNumCol() == 0:
            lp = self.core.HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = problem.num_vars
            lp.num_row_ = lp.a_matrix_.num_row_ = problem.num_rows
            lp.col_cost_, lp.col_lower_, lp.col_upper_ = problem.obj, problem.lb, problem.ub
            lp.row_lower_, lp.row_upper_ = _row_bounds(problem)
            lp.a_matrix_.format_ = self.core.MatrixFormat.kColwise
            lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = problem.colwise()
            status = h.passModel(lp)
        elif problem.num_vars != h.getNumCol() or problem.num_rows < held:
            raise InvalidParameterError("the problem does not extend the LP HiGHS holds")
        elif problem.num_rows > held:
            lo, nnz = problem.indptr[held], problem.indptr[-1] - problem.indptr[held]
            lower, upper = _row_bounds(problem, held)
            status = h.addRows(
                len(lower), lower, upper, nnz, problem.indptr[held:] - lo, problem.indices[lo:], problem.data[lo:]
            )
        else:
            return
        if status == self.core.HighsStatus.kError:
            raise SolverFailureError(f"HiGHS rejected the LP {problem.name}")


def _solve_highs(problem: LpProblem, config: SolverConfig, model: HighsModel, t0: float) -> SolverResult:
    """Dual simplex of scipy's bundled HiGHS on one thread, silent."""
    core, h = model.core, model.highs
    for name, value in (
        ("output_flag", False),
        ("solver", "simplex"),  # the only HiGHS solver that restarts from a basis
        ("presolve", "off"),  # no gain on these LPs (module docstring)
        ("threads", 1),
        ("primal_feasibility_tolerance", config.tol),
        ("dual_feasibility_tolerance", config.tol),
        ("simplex_iteration_limit", min(config.max_iterations, 2**31 - 1)),
    ):
        if h.setOptionValue(name, value) == core.HighsStatus.kError:  # a SolverConfig changed after its check
            raise InvalidParameterError(f"HiGHS rejected option {name}={value!r}")
    model.load(problem)
    if h.run() == core.HighsStatus.kError:
        # a scheduler another caller (say linprog) started with more threads
        # makes HiGHS refuse threads=1 until that scheduler is reset
        core._Highs.resetGlobalScheduler(True)
        if h.run() == core.HighsStatus.kError:
            raise SolverFailureError(f"HiGHS failed: {h.modelStatusToString(h.getModelStatus())}")
    code = h.getModelStatus()
    known = {
        core.HighsModelStatus.kOptimal: "optimal",
        core.HighsModelStatus.kInfeasible: "infeasible",
        core.HighsModelStatus.kUnbounded: "unbounded",
        core.HighsModelStatus.kIterationLimit: "iteration-limit",
    }
    status = known.get(code) or h.modelStatusToString(code)
    sol = None
    if status == "optimal":
        x = np.asarray(h.getSolution().col_value)
        sol = FractionalSolution(problem.columns, x, float(problem.obj @ x) + problem.offset, "optimal")
    return SolverResult(status, sol, int(h.getInfo().simplex_iteration_count), time.perf_counter() - t0)


def solve(
    problem: LpProblem,
    config: SolverConfig | None = None,
    *,
    model: HighsModel | None = None,
) -> SolverResult:
    """Minimize the problem on HiGHS (see ``_solve_highs``).

    ``model`` is the instance to solve in: given the one an earlier solve
    used, HiGHS adds the rows ``problem`` has past it and re-optimizes
    from its last basis.  Without it, a new instance.
    """
    return _solve_highs(problem, config or SolverConfig(), model or HighsModel(), time.perf_counter())
