"""Bounded-variable revised simplex for the clustering LPs.

Design notes:

* Every row gets a slack column (+1 coefficient); slack bounds encode the
  sense (<= : [0, inf), >= : (-inf, 0], = : [0, 0]), so rows keep the
  orientation they were built with.
* The starting basis is all slacks.  Any basis reachable from it is
  [some structural columns | unit slack columns]; factoring it reduces to a
  p x p sparse LU (scipy splu) on the rows not covered by basic slacks,
  where p = number of basic structural columns.  Between refactorizations
  pivots are absorbed by a product-form eta file (kernels.ftran_etas /
  btran_etas).  The kernels apply all k etas at once in compact form,
  I - W~^T T^-1 S: one k x k triangular solve and one pass over the stored
  entries per ftran or btran, instead of one step per eta (the idea of the
  compact WY form of Householder products, Schreiber & Van Loan 1989).
  Each append adds T's new row from one scan of the stored entries for the
  new pivot row.
* The basis is refactored after REFACTOR_EVERY pivots or once the eta file
  holds ``eta_budget`` entries, whichever comes first.  On the triangle-row
  LPs the etas are dense (most of the m rows), so the budget fires about
  every ten pivots and sets the schedule.  The eta file is allocated once
  per solve with room for the budget plus one full column and is emptied,
  never reallocated, at each refactorization.
* Slack and artificial columns are never multiplied out: the pricing row
  and the reduced costs take the structural part from a transposed copy of
  the constraint matrix and each unit column from its row and sign.
* Pricing is devex (Forrest-Goldfarb reference weights, lowest index on
  ties), with an automatic switch to Bland's rule after a run of
  degenerate pivots, which restores the anti-cycling guarantee; the ratio
  test is a Harris-style two-pass with bound flips, evaluated only at the
  basis positions the entering column moves.
* Infeasible starts go through a phase-1 with artificial columns.  The
  only LP the pipeline gives this simplex is LP1, which has b = 0 and
  starts feasible at the origin, so phase 1 runs only for a warm start
  gone wrong or an LP handed in from Python (dumps go to HiGHS).
* The pipeline runs this simplex on LP1 only, from the greedy warm start.
  LP2/LP3 and ``--lp-dump`` go to HiGHS (engine ``"scipy"``): the copy
  scipy bundles, loaded by ``highs_core`` without importing
  ``scipy.optimize``.  A ``HighsModel`` keeps one HiGHS instance across
  the triangle-separation rounds; each round passes it only the added rows
  (``addRows``), so HiGHS re-optimizes from its last basis.

Everything is deterministic: ties break on the lowest index, and the
refactorization schedule is fixed by the pivot count and the eta-file size.
HiGHS runs on one thread, which makes it deterministic too.
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
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import kernels
from .errors import InvalidParameterError, SolverFailureError
from .lpmodel import FractionalSolution, LpProblem

AT_LOWER, AT_UPPER, BASIC = 0, 1, 2

REFACTOR_EVERY = 120  # pivots between refactorizations
BLAND_TRIGGER = 20_000  # degenerate pivots in a row before switching to Bland's rule


@dataclass
class SolverConfig:
    tol: float = 1e-7  # primal feasibility and dual optimality tolerance
    max_iterations: int = 200_000
    engine: str = "simplex"  # "simplex" (in-repo) | "scipy" (scipy's bundled HiGHS)

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidParameterError(f"tolerance must be positive and finite, got {self.tol}")
        if self.max_iterations < 1:
            raise InvalidParameterError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.engine not in ("simplex", "scipy"):
            raise InvalidParameterError(f"unknown engine {self.engine!r}")


@dataclass
class SolverResult:
    status: str  # optimal | infeasible | unbounded | iteration-limit | other HiGHS model status
    solution: FractionalSolution | None
    iterations: int  # all phases; HiGHS: its simplex_iteration_count for this run
    wall_time: float
    # in-repo simplex only (0 from HiGHS)
    pivots: int = 0
    bound_flips: int = 0
    phase1_iterations: int = 0
    refactors: int = 0  # sparse LU factorizations (splu calls)


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


def verify_solution(problem, solution, tol: float = 1e-6) -> ViolationReport:
    """Independent feasibility check: every row and bound violated beyond
    ``tol`` is listed, and so is every NaN or infinite value or row
    activity; an empty report means feasible.

    ``solution`` may be a FractionalSolution or a variable-name -> value
    mapping (unknown names rejected, missing names default to 0).  ``tol``
    must be finite and >= 0 (``check_tolerance``).
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
    gap = problem.A @ x - problem.rhs
    senses = problem.senses
    # every comparison with NaN is false, so non-finite values are caught
    # on their own and reported as an infinite violation
    bad_gap = ~np.isfinite(gap)
    bad_rows = np.nonzero(
        bad_gap
        | ((senses == -1) & (gap > tol))
        | ((senses == 1) & (-gap > tol))
        | ((senses == 0) & (np.abs(gap) > tol))
    )[0]
    bad_x = ~np.isfinite(x)
    below = x < problem.lb - tol
    above = ~below & (x > problem.ub + tol)
    excess = np.where(bad_x, np.inf, np.where(below, problem.lb - x, x - problem.ub))
    gap = np.where(bad_gap, np.inf, np.abs(gap))
    out = [Violation("row", int(i), problem.row_names[i], float(gap[i])) for i in bad_rows]
    out += [
        Violation("bound", int(j), problem.var_ids[j].name, float(excess[j]))
        for j in np.nonzero(bad_x | below | above)[0]
    ]
    return ViolationReport(out, tol)


class _Basis:
    """Factorized basis exploiting unit columns (slacks and artificials).

    ``unit_row[j] >= 0`` marks column j as ``unit_sign[j] * e_{unit_row[j]}``;
    every basic unit column covers its row, and only the remaining p rows
    need the sparse LU of the structural block.
    """

    def __init__(self, A_ext: sp.csc_matrix, basic: np.ndarray,
                 n_rows: int, unit_row: np.ndarray, unit_sign: np.ndarray):
        m = n_rows
        self.m = m
        struct_mask = unit_row[basic] < 0
        self.spos = np.nonzero(struct_mask)[0]
        self.lpos = np.nonzero(~struct_mask)[0]
        self.slack_rows = unit_row[basic[self.lpos]]
        self.signs = unit_sign[basic[self.lpos]].astype(float)
        covered = np.zeros(m, dtype=bool)
        covered[self.slack_rows] = True
        self.F = np.nonzero(~covered)[0]
        # m basis positions: a repeated slack row leaves more than p rows uncovered
        if len(self.F) + len(self.slack_rows) != m:
            raise SolverFailureError("singular basis: row/column count mismatch")
        self.p = len(self.spos)
        if self.p:
            cols = A_ext[:, basic[self.spos]]
            sub = cols[self.F, :]
            # rows covered by basic unit columns, sliced once (hot path below);
            # sorted indices keep the matvec summation order canonical
            self.slack_block = cols[self.slack_rows, :]
            self.slack_block.sort_indices()
            self.slack_block_T = self.slack_block.T
            try:
                self.lu = splu(sub)
            except RuntimeError as exc:
                raise SolverFailureError(f"singular basis: {exc}") from exc
        else:
            self.lu = None

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """Solve B w = v; v in row space, w in basis-position space."""
        w = np.empty(self.m)
        if self.p:
            w_s = self.lu.solve(v[self.F])
            w[self.spos] = w_s
            w[self.lpos] = (v[self.slack_rows] - self.slack_block @ w_s) / self.signs
        else:
            w[self.lpos] = v[self.slack_rows] / self.signs
        return w

    def btran(self, v: np.ndarray) -> np.ndarray:
        """Solve B^T y = v; v in basis-position space, y in row space."""
        y = np.empty(self.m)
        y_c = v[self.lpos] / self.signs
        y[self.slack_rows] = y_c
        if self.p:
            rhs = v[self.spos] - self.slack_block_T @ y_c
            y[self.F] = self.lu.solve(rhs, trans="T")
        return y


class _EtaFile:
    """Product-form update columns, stored flat for the kernels, plus the
    lower-triangular factor T of their compact form (see kernels.py).

    Allocated once per solve: ``max_entries`` and ``max_etas`` bound what the
    file holds between two refactorizations, and ``clear`` empties it; row e
    of T is rewritten when eta e is appended again.
    """

    def __init__(self, max_entries: int, max_etas: int):
        self.idx = np.empty(max_entries, dtype=np.int64)
        self.val = np.empty(max_entries)
        self.starts = np.zeros(max_etas + 1, dtype=np.int64)
        self.pivots = np.empty(max_etas, dtype=np.int64)
        self.T = np.zeros((max_etas, max_etas))
        self.count = 0
        self.top = 0

    def clear(self):
        self.count = 0
        self.top = 0

    def append(self, nz_idx: np.ndarray, nz_val: np.ndarray, pivot_pos: int, pivot_val: float):
        e, top = self.count, self.top
        # row e of T: each earlier eta's entry at the new pivot row, less 1
        # where that eta pivoted on the same row
        row = self.T[e, :e]
        row[:] = 0.0
        hits = np.flatnonzero(self.idx[:top] == pivot_pos)
        row[np.searchsorted(self.starts[1 : e + 1], hits, side="right")] = self.val[hits]
        row[self.pivots[:e] == pivot_pos] -= 1.0
        self.T[e, e] = pivot_val
        need = top + len(nz_idx)
        self.idx[top:need] = nz_idx
        self.val[top:need] = nz_val
        self.top = need
        self.pivots[e] = pivot_pos
        self.count += 1
        self.starts[self.count] = need

    def _args(self, y: np.ndarray) -> tuple:
        c = self.count
        return (self.starts[: c + 1], self.idx[: self.top], self.val[: self.top],
                self.pivots[:c], self.T[:c, :c], y)

    def ftran(self, y: np.ndarray) -> np.ndarray:
        if self.count:
            kernels.ftran_etas(*self._args(y))
        return y

    def btran(self, y: np.ndarray) -> np.ndarray:
        if self.count:
            kernels.btran_etas(*self._args(y))
        return y


class _Workspace:
    """Mutable state of one solve."""

    def __init__(self, problem: LpProblem, config: SolverConfig, start_values: np.ndarray | None):
        self.cfg = config
        m, n = problem.num_rows, problem.num_vars
        self.m, self.n = m, n
        slack_lb = np.where(problem.senses == 1, -np.inf, 0.0)
        slack_ub = np.where(problem.senses == -1, np.inf, 0.0)
        slack_ub[problem.senses == 1] = 0.0
        slack_lb[problem.senses == -1] = 0.0
        self.lb = np.concatenate([problem.lb, slack_lb])
        self.ub = np.concatenate([problem.ub, slack_ub])
        self.A = sp.hstack([problem.A, sp.eye(m, format="csc")], format="csc")
        # structural rows of A^T; unit columns are priced from unit_row/unit_sign
        self.AT_struct = self.A[:, :n].T
        self.b = problem.rhs.copy()
        self.c = np.concatenate([problem.obj, np.zeros(m)])
        self.N = n + m
        # unit-column map: slacks (and later artificials) are +-e_row columns
        self.unit_row = np.concatenate([np.full(n, -1, dtype=np.int64), np.arange(m, dtype=np.int64)])
        self.unit_sign = np.concatenate([np.zeros(n), np.ones(m)])
        self.vstat = np.full(self.N, AT_LOWER, dtype=np.int8)
        self.bounds_changed()
        finite_ub = np.isfinite(self.ub[:n])
        if start_values is not None:
            mid = (problem.lb + np.where(finite_ub, self.ub[:n], problem.lb + 2.0)) / 2.0
            self.vstat[:n] = np.where(start_values > mid, AT_UPPER, AT_LOWER)
        self.basic = np.arange(n, self.N, dtype=np.int64)
        self.vstat[self.basic] = BASIC
        self.basis: _Basis | None = None
        self.xB = np.zeros(m)
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.total_pivots = 0
        self.total_flips = 0
        self.refactors = 0
        self.degenerate_run = 0
        self.devex = np.ones(self.N)
        # eta-file entries before a forced refactorization; the file gets
        # room for one more eta, which holds at most m entries
        self.eta_budget = max(1 << 16, 8 * m)
        self.etas = _EtaFile(self.eta_budget + m, REFACTOR_EVERY)
        self.d: np.ndarray | None = None  # cached reduced costs (exact at refactor)

    # -------------------------------------------------------------- helpers

    def nonbasic_values(self) -> np.ndarray:
        x = np.where(self.vstat == AT_UPPER, self.ub, self.lb)
        x[self.basic] = 0.0
        return x

    def bounds_changed(self):
        """Recompute what is cached from ``lb``/``ub`` (phase 1 edits them)."""
        self.free = self.ub - self.lb > 0

    def refactor(self):
        self.basis = _Basis(self.A, self.basic, self.m, self.unit_row, self.unit_sign)
        if self.basis.lu is not None:
            self.refactors += 1
        self.etas.clear()
        rhs = self.b - self.A @ self.nonbasic_values()
        self.xB = self.basis.ftran(rhs)
        self.pivots_since_refactor = 0
        self.d = None  # force an exact reduced-cost recompute

    def ftran(self, v: np.ndarray) -> np.ndarray:
        return self.etas.ftran(self.basis.ftran(v))

    def btran(self, v: np.ndarray) -> np.ndarray:
        return self.basis.btran(self.etas.btran(v.copy()))

    def column(self, j: int) -> np.ndarray:
        v = np.zeros(self.m)
        lo, hi = self.A.indptr[j], self.A.indptr[j + 1]
        v[self.A.indices[lo:hi]] = self.A.data[lo:hi]
        return v

    def row_of(self, y: np.ndarray) -> np.ndarray:
        """``y @ A`` without multiplying through the unit columns."""
        out = np.empty(self.N)
        out[: self.n] = self.AT_struct @ y
        np.multiply(self.unit_sign[self.n :], y[self.unit_row[self.n :]], out=out[self.n :])
        return out

    def full_values(self) -> np.ndarray:
        x = self.nonbasic_values()
        x[self.basic] = self.xB
        return x

    def absorb_pivot(self, r: int, j: int, w: np.ndarray, abs_w: np.ndarray, t: float) -> None:
        """Record column j entering at basis position r (w = B^-1 a_j) in
        the eta file, and refactor on schedule."""
        self.basic[r] = j
        self.vstat[j] = BASIC
        # |w[r]| >= 1e-11, so the pivot position is among the stored entries
        nz = np.nonzero(abs_w > 1e-12)[0]
        self.etas.append(nz, w[nz], r, w[r])
        self.total_pivots += 1
        self.pivots_since_refactor += 1
        self.degenerate_run = self.degenerate_run + 1 if t <= 1e-12 else 0
        if self.pivots_since_refactor >= REFACTOR_EVERY or self.etas.top >= self.eta_budget:
            self.refactor()

    # ---------------------------------------------------------- iterations

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        y = self.btran(cost[self.basic].astype(float))
        return cost - self.row_of(y)

    def choose_entering(self, d: np.ndarray, use_bland: bool) -> int:
        free = self.free
        viol = np.where(
            (self.vstat == AT_LOWER) & free, -d, np.where((self.vstat == AT_UPPER) & free, d, -np.inf)
        )
        cand = np.nonzero(viol > self.cfg.tol)[0]
        if not len(cand):
            return -1
        if use_bland:
            return int(cand[0])
        score = viol[cand] ** 2 / self.devex[cand]
        return int(cand[np.argmax(score)])

    def pivot_row(self, r: int) -> np.ndarray:
        """Row r of B^-1 A (pre-pivot basis), for pricing updates."""
        e_r = np.zeros(self.m)
        e_r[r] = 1.0
        return self.row_of(self.btran(e_r))

    def update_devex(self, j: int, leaving: int, aq: float, alpha: np.ndarray) -> None:
        """Forrest-Goldfarb weight update using the pivot row of B^-1 A."""
        gq = self.devex[j]
        cand = (alpha / aq) ** 2 * gq
        nonbasic = self.vstat != BASIC
        np.maximum(self.devex, cand, out=self.devex, where=nonbasic)
        self.devex[leaving] = max(gq / (aq * aq), 1.0)
        self.devex[j] = 1.0
        if self.devex[nonbasic].max() > 1e8:  # reference framework went stale
            self.devex[:] = 1.0

    def step(self, cost: np.ndarray, use_bland: bool) -> str:
        """One simplex iteration; returns 'optimal', 'unbounded' or 'step'."""
        if self.d is None:
            self.d = self.reduced_costs(cost)
        j = self.choose_entering(self.d, use_bland)
        if j < 0:
            # cached costs may have drifted since the last refactor;
            # declare optimality only against freshly computed ones
            self.d = self.reduced_costs(cost)
            j = self.choose_entering(self.d, use_bland)
            if j < 0:
                return "optimal"
        sigma = 1.0 if self.vstat[j] == AT_LOWER else -1.0
        w = self.ftran(self.column(j))
        delta = 0.1 * self.cfg.tol
        sw = sigma * w
        t_bound = self.ub[j] - self.lb[j]
        # only positions the entering column moves can block it
        abs_w = np.abs(w)
        moving = np.nonzero(abs_w > 1e-10)[0]
        sw_m = sw[moving]
        x_m = self.xB[moving]
        falls = sw_m > 0
        basic_m = self.basic[moving]
        gap = x_m - np.where(falls, self.lb[basic_m], self.ub[basic_m])
        t_max = ((gap + np.where(falls, delta, -delta)) / sw_m).min() if len(moving) else np.inf
        if not np.isfinite(min(t_max, t_bound)):
            return "unbounded"
        if t_bound <= t_max:
            # bound flip: entering moves across to its other bound
            self.xB -= sw * t_bound
            self.vstat[j] = AT_UPPER if self.vstat[j] == AT_LOWER else AT_LOWER
            self.total_flips += 1
            return "step"
        # Harris pass 2: among positions blocking within the relaxed step,
        # take the largest pivot element (lowest position on ties)
        strict = gap / sw_m
        cand = np.nonzero(strict <= t_max)[0]
        if not len(cand):
            cand = np.array([int(np.argmin(strict))])
        k = int(cand[np.argmax(abs_w[moving[cand]])])
        r = int(moving[k])
        if abs(w[r]) < 1e-11:
            if self.pivots_since_refactor:
                self.refactor()
                return self.step(cost, use_bland)
            raise SolverFailureError("numerically singular pivot column")
        t = max(strict[k], 0.0)
        leaving = int(self.basic[r])
        alpha = self.pivot_row(r)
        self.update_devex(j, leaving, w[r], alpha)
        self.d -= (self.d[j] / w[r]) * alpha
        self.d[j] = 0.0
        self.xB -= sw * t
        enter_val = (self.lb[j] if sigma > 0 else self.ub[j]) + sigma * t
        self.xB[r] = enter_val
        self.vstat[leaving] = AT_LOWER if sw[r] > 0 else AT_UPPER
        # one-sided slacks must leave toward their finite bound
        if not np.isfinite(self.lb[leaving]):
            self.vstat[leaving] = AT_UPPER
        elif not np.isfinite(self.ub[leaving]):
            self.vstat[leaving] = AT_LOWER
        self.absorb_pivot(r, j, w, abs_w, t)
        return "step"

    def run_phase(self, cost: np.ndarray) -> str:
        self.d = None  # cost vector may differ from the previous phase
        while True:
            if self.iterations >= self.cfg.max_iterations:
                return "iteration-limit"
            outcome = self.step(cost, self.degenerate_run >= BLAND_TRIGGER)
            if outcome != "step":
                return outcome
            self.iterations += 1


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
            A = problem.A.tocsc()
            lp.a_matrix_.format_ = self.core.MatrixFormat.kColwise
            lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
            status = h.passModel(lp)
        elif problem.num_vars != h.getNumCol() or problem.num_rows < held:
            raise InvalidParameterError("the problem does not extend the LP HiGHS holds")
        elif problem.num_rows > held:
            new = problem.A[held:].tocsr()
            lower, upper = _row_bounds(problem, held)
            status = h.addRows(len(lower), lower, upper, new.nnz, new.indptr, new.indices, new.data)
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
        ("threads", 1),
        ("primal_feasibility_tolerance", config.tol),
        ("dual_feasibility_tolerance", config.tol),
        ("simplex_iteration_limit", min(config.max_iterations, 2**31 - 1)),
    ):
        if h.setOptionValue(name, value) == core.HighsStatus.kError:  # say, a tolerance below 1e-10
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
        sol = FractionalSolution(problem.var_ids, x, float(problem.obj @ x) + problem.offset, "optimal")
    return SolverResult(status, sol, int(h.getInfo().simplex_iteration_count), time.perf_counter() - t0)


def solve(
    problem: LpProblem,
    config: SolverConfig | None = None,
    *,
    start_values: np.ndarray | None = None,
    model: HighsModel | None = None,
) -> SolverResult:
    """Minimize the problem to optimality with ``config.engine``.

    ``start_values`` (length num_vars; in-repo simplex only) seeds the
    initial nonbasic bound statuses — useful when a near-optimal vertex is
    known (each value snaps to its nearer bound; the slack basis stays
    feasible for any snap when b = 0 problems start at a partition's
    induced point).

    ``model`` (HiGHS only) is the instance to solve in: given the one an
    earlier solve used, HiGHS adds the rows ``problem`` has past it and
    re-optimizes from its last basis.  Without it, a new instance.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    if config.engine == "scipy":
        return _solve_highs(problem, config, model or HighsModel(), t0)
    ws = _Workspace(problem, config, start_values)
    ws.refactor()
    phase1_iters = 0

    def result(status: str, sol: FractionalSolution | None = None) -> SolverResult:
        return SolverResult(status, sol, ws.iterations, time.perf_counter() - t0, ws.total_pivots,
                            ws.total_flips, phase1_iters, ws.refactors)

    feas = config.tol
    violated = (ws.xB < ws.lb[ws.basic] - feas) | (ws.xB > ws.ub[ws.basic] + feas)
    if violated.any():
        status = _phase1(ws, violated)
        phase1_iters = ws.iterations
        if status != "optimal":
            if status == "unbounded":
                raise SolverFailureError("phase 1 unbounded: inconsistent standard form")
            return result(status)
        art_cost = np.zeros(ws.N)
        art_cost[ws.n + ws.m :] = 1.0
        if float(art_cost[ws.basic] @ ws.xB) > 1e-6:
            return result("infeasible")
        # freeze artificials at zero for phase 2
        ws.lb[ws.n + ws.m :] = 0.0
        ws.ub[ws.n + ws.m :] = 0.0
        ws.bounds_changed()
        ws.c = np.concatenate([ws.c, np.zeros(ws.N - len(ws.c))])
        ws.devex[:] = 1.0  # fresh reference framework for phase 2

    status = ws.run_phase(ws.c)
    if status != "optimal":
        return result(status)
    x = ws.full_values()[: problem.num_vars]
    obj = float(problem.obj @ x) + problem.offset
    return result("optimal", FractionalSolution(problem.var_ids, x, obj, "optimal"))


def _phase1(ws: _Workspace, violated: np.ndarray) -> str:
    """Install artificial columns on the violated rows and minimize their sum."""
    rows = np.nonzero(violated)[0]
    sl = ws.lb[ws.basic[rows]]
    su = ws.ub[ws.basic[rows]]
    snapped = np.clip(ws.xB[rows], np.where(np.isfinite(sl), sl, 0.0), np.where(np.isfinite(su), su, 0.0))
    resid = ws.xB[rows] - snapped
    signs = np.sign(resid)
    # slack leaves the basis at its snapped bound, artificial takes its place
    n_art = len(rows)
    art = sp.csc_matrix((signs, (rows, np.arange(n_art))), shape=(ws.m, n_art))
    ws.A = sp.hstack([ws.A, art], format="csc")
    ws.lb = np.concatenate([ws.lb, np.zeros(n_art)])
    ws.ub = np.concatenate([ws.ub, np.full(n_art, np.inf)])
    ws.bounds_changed()
    art_ids = np.arange(ws.N, ws.N + n_art, dtype=np.int64)
    ws.N += n_art
    ws.vstat = np.concatenate([ws.vstat, np.full(n_art, BASIC, dtype=np.int8)])
    ws.unit_row = np.concatenate([ws.unit_row, rows.astype(np.int64)])
    ws.unit_sign = np.concatenate([ws.unit_sign, signs.astype(float)])
    ws.devex = np.ones(ws.N)
    # phase 1 only ever runs off the initial all-slack basis, where position
    # i holds the slack of row i
    for i, posn in enumerate(rows):
        slack_var = int(ws.basic[posn])
        lo = ws.lb[slack_var]
        at_lower = np.isfinite(lo) and abs(snapped[i] - lo) <= 1e-12
        ws.vstat[slack_var] = AT_LOWER if at_lower else AT_UPPER
        ws.basic[posn] = art_ids[i]
    ws.refactor()
    cost = np.zeros(ws.N)
    cost[art_ids] = 1.0
    return ws.run_phase(cost)
