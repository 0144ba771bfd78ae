"""Region-growing rounding of fractional LP solutions into partitions.

Two procedures share one skeleton: pick a pivot v, collect the neighborhood
of vertices whose score against v is at most alpha, then either cut v loose
as a singleton (when the neighborhood's total score is large, i.e. its
members sit far away on average) or emit the neighborhood plus the pivot as
a cluster.  The tuple-variable procedure scores pairs by
y_vu = min x_K over surviving k-tuples containing both; the pair-variable
procedure reads z_vu directly.

``recommended_params`` returns the parameter choices whose approximation
ratios are certified (2/alpha for the tuple procedure; 1/(alpha·beta) for
the pair procedure, with the widened beta bound 1/(k - r0) on
edge-plus-motif layer stacks), and ``certify`` asserts the guarantee on a
rounded partition against the LP lower bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    CertificateViolationError,
    InvalidParameterError,
    InvalidVertexError,
)
from .graph import Partition
from .lpmodel import FractionalSolution, evaluate_objective
from .motifs import MixedWeights

MEMBERSHIP_SLACK = 1e-9  # absorbs LP tolerance noise on the <= alpha side


@dataclass(frozen=True)
class RoundingParams:
    alpha: float
    beta: float | None = None  # unused by the tuple-variable procedure


@dataclass
class RoundingStep:
    pivot: int
    neighborhood: tuple[int, ...]
    score_sum: float
    threshold: float
    branch: str  # "singleton" | "cluster"
    cluster: tuple[int, ...]
    remaining: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "pivot": self.pivot,
                "neighborhood": list(self.neighborhood),
                "score_sum": self.score_sum,
                "threshold": self.threshold,
                "branch": self.branch,
                "cluster": list(self.cluster),
                "remaining": self.remaining,
            },
            sort_keys=True,
        )


@dataclass
class RoundingTrace:
    steps: list[RoundingStep] = field(default_factory=list)
    leftover: tuple[int, ...] = ()
    leftover_policy: str = "together"

    def to_json_lines(self) -> list[str]:
        lines = [s.to_json() for s in self.steps]
        if self.leftover:
            lines.append(
                json.dumps(
                    {"leftover": list(self.leftover), "policy": self.leftover_policy},
                    sort_keys=True,
                )
            )
        return lines

    def write_jsonl(self, fh) -> None:
        close = isinstance(fh, (str, bytes))
        if close:
            fh = open(fh, "w", encoding="utf-8")
        try:
            for line in self.to_json_lines():
                fh.write(line + "\n")
        finally:
            if close:
                fh.close()


def _tuple_arrays(x, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Extract (tuples, values, n) from a solution or {tuple: value} map."""
    if isinstance(x, FractionalSolution):
        x = x.tuple_values(k)
    if not x:
        raise InvalidParameterError(f"no tuple variables of size {k} in the solution")
    keys = sorted(x)
    tuples = np.array(keys, dtype=np.int64)
    vals = np.array([x[t] for t in keys])
    return tuples, vals, int(tuples.max())


def edge_scores_alg1(x, S, v: int, *, k: int | None = None) -> dict[int, float]:
    """y_vu = min over k-tuples K within S containing v and u of x_K.

    ``x`` is a FractionalSolution or {ktuple: value}; ``k`` defaults to the
    tuple size found in x.  Requires |S| >= k and v in S.
    """
    if isinstance(x, FractionalSolution):
        sizes = {len(vid.key) for vid in x.var_ids if vid.kind == "tuple"}
        if k is None:
            if len(sizes) != 1:
                raise InvalidParameterError(f"ambiguous tuple size {sizes}; pass k")
            k = sizes.pop()
    elif k is None:
        k = len(next(iter(x)))
    S = set(S)
    if len(S) < k:
        raise InvalidParameterError(f"|S|={len(S)} below tuple size k={k}")
    if v not in S:
        raise InvalidParameterError(f"pivot {v} not in S")
    tuples, vals, nmax = _tuple_arrays(x, k)
    active = np.zeros(max(nmax, max(S)) + 1, dtype=bool)
    active[list(S)] = True
    y = kernels.pair_min_scores(tuples, vals, active, v)
    return {u: float(y[u]) for u in sorted(S) if u != v}


def _check_vertices(labels: np.ndarray, n: int) -> None:
    """Every vertex label the solution names must lie in [1..n]."""
    if labels.size:
        lo, hi = int(labels.min()), int(labels.max())
        if lo < 1 or hi > n:
            raise InvalidVertexError(f"solution vertex {lo if lo < 1 else hi} outside [1..n] for n={n}")


def _validate_alpha(alpha: float, k: int) -> None:
    if not (0.0 < alpha <= 1.0 / k + 1e-12):
        raise InvalidParameterError(
            f"alpha must satisfy 0 < alpha <= 1/k = {1.0 / k:.6g}, got {alpha}"
        )


def _pick_pivot(S: set[int], rule: str, rng) -> int:
    if rule == "lowest":
        return min(S)
    if rule == "random":
        return int(rng.choice(sorted(S)))
    raise InvalidParameterError(f"unknown pivot rule {rule!r}")


def _grow_regions(
    score_row, n: int, k: int, alpha: float, cut: float, pivot_rule: str, seed, leftover: str
) -> tuple[Partition, RoundingTrace]:
    """The loop both procedures share.  While at least k vertices remain:
    pick a pivot v, take the neighborhood N of remaining vertices u with
    score_row(v, active)[u] <= alpha, and cut v loose as a singleton when
    the scores over N sum to more than cut·|N|, else emit N + v as a
    cluster.  ``active`` marks the vertices not yet clustered."""
    rng = np.random.default_rng(seed)
    active = np.zeros(n + 1, dtype=bool)
    active[1:] = True
    S = set(range(1, n + 1))
    clusters: list[set[int]] = []
    trace = RoundingTrace()
    while len(S) >= k:
        v = _pick_pivot(S, pivot_rule, rng)
        y = score_row(v, active)
        members = [u for u in sorted(S) if u != v and y[u] <= alpha + MEMBERSHIP_SLACK]
        ssum = float(sum(y[u] for u in members))
        threshold = cut * len(members)
        if ssum > threshold:
            branch, cluster = "singleton", {v}
        else:
            branch, cluster = "cluster", {v, *members}
        S -= cluster
        active[list(cluster)] = False
        clusters.append(cluster)
        trace.steps.append(
            RoundingStep(v, tuple(members), ssum, threshold, branch, tuple(sorted(cluster)), len(S))
        )
    if S:
        trace.leftover = tuple(sorted(S))
        trace.leftover_policy = leftover
        if leftover == "together":
            clusters.append(set(S))
        elif leftover == "singletons":
            clusters.extend({u} for u in sorted(S))
        else:
            raise InvalidParameterError(f"unknown leftover policy {leftover!r}")
    return Partition.from_cluster_list(clusters, n=n), trace


def round_alg1(
    x,
    n: int,
    k: int,
    params: RoundingParams,
    *,
    pivot_rule: str = "lowest",
    seed: int | None = None,
    leftover: str = "together",
) -> tuple[Partition, RoundingTrace]:
    """Tuple-variable rounding: pivot neighborhoods under the y_vu scores,
    singleton cut when sum(y) > (alpha/2)·|N|."""
    _validate_alpha(params.alpha, k)
    tuples, vals, _ = _tuple_arrays(x, k)
    _check_vertices(tuples, n)

    def score_row(v, active):
        return kernels.pair_min_scores(tuples, vals, active, v)

    cut = 0.5 * params.alpha
    return _grow_regions(score_row, n, k, params.alpha, cut, pivot_rule, seed, leftover)


def _pair_matrix(z, n: int) -> np.ndarray:
    if isinstance(z, FractionalSolution):
        z = z.pair_values()
    _check_vertices(np.array(list(z), dtype=np.int64), n)
    mat = np.zeros((n + 1, n + 1))
    for (u, v), val in z.items():
        mat[u, v] = mat[v, u] = val
    return mat


def round_alg2(
    z,
    n: int,
    k_star: int,
    params: RoundingParams,
    *,
    beta_bound: float | None = None,
    pivot_rule: str = "lowest",
    seed: int | None = None,
    leftover: str = "together",
) -> tuple[Partition, RoundingTrace]:
    """Pair-variable rounding on the z metric; singleton cut when
    sum(z) > beta·alpha·|N|.  ``beta_bound`` widens the admissible beta
    (1/(k - r0) on edge-plus-motif stacks); defaults to 1/k_star."""
    _validate_alpha(params.alpha, k_star)
    if params.beta is None:
        raise InvalidParameterError("pair-variable rounding requires beta")
    bound = 1.0 / k_star if beta_bound is None else beta_bound
    if not (0.0 < params.beta <= bound + 1e-12):
        raise InvalidParameterError(
            f"beta must satisfy 0 < beta <= {bound:.6g} (violated bound), got {params.beta}"
        )
    mat = _pair_matrix(z, n)

    def score_row(v, active):
        return mat[v]

    cut = params.beta * params.alpha
    return _grow_regions(score_row, n, k_star, params.alpha, cut, pivot_rule, seed, leftover)


@dataclass(frozen=True)
class Recommendation:
    params: RoundingParams
    ratio: float
    algorithm: str  # "alg1" | "alg2"
    beta_bound: float | None = None
    r0: float | None = None
    mode: str = ""


def recommended_params(
    k: int, mode: str, *, lam: float | None = None, n: int | None = None
) -> Recommendation:
    """Certified parameter choices.

    Modes: "mcc-lp1" (alpha=1/k, ratio 2k, tuple rounding); "mcc-lp2"
    (alpha=beta=1/k, ratio k^2); "mmcc" (same with k = largest layer size);
    "mmcc-edge-motif" (layers {2, k}: r0 = (k-2)/(1 + lam·n^(k-1)),
    alpha = 1/k, beta = 1/(k - r0), ratio k·(k - r0); lam = motif-layer
    relevance over the edge layer's)."""
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    m = mode.lower().replace("_", "-")
    if m == "mcc-lp1":
        return Recommendation(RoundingParams(1.0 / k), 2.0 * k, "alg1", mode=m)
    if m == "mcc-lp2":
        return Recommendation(
            RoundingParams(1.0 / k, 1.0 / k), float(k * k), "alg2", beta_bound=1.0 / k, mode=m
        )
    if m == "mmcc":
        return Recommendation(
            RoundingParams(1.0 / k, 1.0 / k), float(k * k), "alg2", beta_bound=1.0 / k, mode=m
        )
    if m == "mmcc-edge-motif":
        if lam is None or n is None:
            raise InvalidParameterError("edge-motif mode needs lam and n")
        if lam < 0:
            raise InvalidParameterError(f"lam must be >= 0, got {lam}")
        r0 = (k - 2.0) / (1.0 + lam * float(n) ** (k - 1))
        beta = 1.0 / (k - r0)
        return Recommendation(
            RoundingParams(1.0 / k, beta), k * (k - r0), "alg2", beta_bound=beta, r0=r0, mode=m
        )
    raise InvalidParameterError(
        f"unknown mode {mode!r}; expected mcc-lp1, mcc-lp2, mmcc, or mmcc-edge-motif"
    )


@dataclass(frozen=True)
class ApproximationCertificate:
    cost: float
    lp_value: float
    ratio: float
    empirical_ratio: float | None
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "cost": self.cost,
            "lp_value": self.lp_value,
            "certified_ratio": self.ratio,
            "empirical_ratio": self.empirical_ratio,
            "tol": self.tol,
        }


def certify(
    partition: Partition,
    lp_value: float,
    mixed: MixedWeights,
    ratio: float,
    *,
    tol: float = 1e-6,
) -> ApproximationCertificate:
    """Assert cost(partition) <= ratio·lp_value + tol.

    A violation raises: the guarantees are unconditional theorems, so
    breaching one means an implementation bug, not a bad instance.
    """
    cost = evaluate_objective(partition, mixed)
    if cost > ratio * lp_value + tol:
        raise CertificateViolationError(
            f"rounded cost {cost:.9g} exceeds {ratio:.6g} x LP value {lp_value:.9g} + {tol:g}"
        )
    empirical = cost / lp_value if lp_value > tol else None
    return ApproximationCertificate(cost, lp_value, ratio, empirical, tol)
