"""Numerical hot loops with numba acceleration and a pure-numpy fallback.

Backend selection happens once at import from the environment variable
``MOTIFCC_BACKEND``:

* ``auto`` (default) — use numba when it imports, else numpy
* ``numba``          — require numba, raise if missing
* ``numpy``          — force the pure-numpy reference implementations

``active_backend()`` reports which one is live.  The numba and numpy
implementations are kept in matched pairs; tests/test_kernels.py compares
them on identical inputs when numba is installed.

Conventions: vertex labels are 1-based, so per-vertex arrays have length
n+1 with slot 0 unused.  Tuple tables are int64 arrays of shape (T, k).
"""

from __future__ import annotations

import os

import numpy as np

_MODE = os.environ.get("MOTIFCC_BACKEND", "auto").lower()
if _MODE not in ("auto", "numba", "numpy"):
    raise RuntimeError(f"MOTIFCC_BACKEND must be auto|numba|numpy, got {_MODE!r}")

_HAVE_NUMBA = False
if _MODE in ("auto", "numba"):
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _MODE == "numba":
            raise
if not _HAVE_NUMBA:

    def njit(*args, **kwargs):  # no-op decorator so both paths share one source
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


def active_backend() -> str:
    return "numba" if _HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------- objective


def _split_mask_np(tuples: np.ndarray, labels: np.ndarray) -> np.ndarray:
    lab = labels[tuples]
    return (lab != lab[:, :1]).any(axis=1)


@njit(cache=True)
def _split_mask_nb(tuples, labels):
    T, k = tuples.shape
    out = np.zeros(T, dtype=np.bool_)
    for t in range(T):
        first = labels[tuples[t, 0]]
        for j in range(1, k):
            if labels[tuples[t, j]] != first:
                out[t] = True
                break
    return out


def _partition_cost_np(tuples, wplus, labels):
    split = _split_mask_np(tuples, labels)
    return float(np.where(split, wplus, 1.0 - wplus).sum())


@njit(cache=True)
def _partition_cost_nb(tuples, wplus, labels):
    T, k = tuples.shape
    total = 0.0
    for t in range(T):
        first = labels[tuples[t, 0]]
        split = False
        for j in range(1, k):
            if labels[tuples[t, j]] != first:
                split = True
                break
        total += wplus[t] if split else 1.0 - wplus[t]
    return total


def _partition_costs_batch_np(tuples, wplus, labels_batch):
    B = labels_batch.shape[0]
    out = np.empty(B)
    wminus = 1.0 - wplus
    # chunk to bound the (chunk, T, k) intermediate
    step = max(1, 8_000_000 // max(1, tuples.size))
    for lo in range(0, B, step):
        lab = labels_batch[lo : lo + step][:, tuples]
        split = (lab != lab[:, :, :1]).any(axis=2)
        out[lo : lo + step] = np.where(split, wplus, wminus).sum(axis=1)
    return out


@njit(cache=True)
def _partition_costs_batch_nb(tuples, wplus, labels_batch):
    B = labels_batch.shape[0]
    T, k = tuples.shape
    out = np.empty(B)
    for b in range(B):
        total = 0.0
        for t in range(T):
            first = labels_batch[b, tuples[t, 0]]
            split = False
            for j in range(1, k):
                if labels_batch[b, tuples[t, j]] != first:
                    split = True
                    break
            total += wplus[t] if split else 1.0 - wplus[t]
        out[b] = total
    return out


# ---------------------------------------------------------------- rounding


def _pair_min_scores_np(tuples, x, active, v):
    n1 = active.shape[0]
    y = np.full(n1, np.inf)
    has_v = (tuples == v).any(axis=1)
    alive = active[tuples].all(axis=1)
    sel = np.nonzero(has_v & alive)[0]
    xt = x[sel]
    for j in range(tuples.shape[1]):
        np.minimum.at(y, tuples[sel, j], xt)
    y[v] = np.inf  # the pivot itself never gets a score
    return y


@njit(cache=True)
def _pair_min_scores_nb(tuples, x, active, v):
    n1 = active.shape[0]
    T, k = tuples.shape
    y = np.full(n1, np.inf)
    for t in range(T):
        ok = False
        alive = True
        for j in range(k):
            w = tuples[t, j]
            if not active[w]:
                alive = False
                break
            if w == v:
                ok = True
        if not (ok and alive):
            continue
        xt = x[t]
        for j in range(k):
            u = tuples[t, j]
            if u != v and xt < y[u]:
                y[u] = xt
    return y


# ---------------------------------------------------------------- simplex etas


def _ftran_etas_np(starts, idx, val, pivots, y):
    for e in range(pivots.shape[0]):
        lo, hi = starts[e], starts[e + 1]
        r = pivots[e]
        ii = idx[lo:hi]
        vv = val[lo:hi]
        pr = y[r] / vv[ii == r][0]
        y[ii] -= vv * pr
        y[r] = pr
    return y


@njit(cache=True)
def _ftran_etas_nb(starts, idx, val, pivots, y):
    for e in range(pivots.shape[0]):
        lo, hi = starts[e], starts[e + 1]
        r = pivots[e]
        wr = 1.0
        for p in range(lo, hi):
            if idx[p] == r:
                wr = val[p]
                break
        pr = y[r] / wr
        if pr != 0.0:
            for p in range(lo, hi):
                y[idx[p]] -= val[p] * pr
        y[r] = pr
    return y


def _btran_etas_np(starts, idx, val, pivots, y):
    for e in range(pivots.shape[0] - 1, -1, -1):
        lo, hi = starts[e], starts[e + 1]
        r = pivots[e]
        ii = idx[lo:hi]
        vv = val[lo:hi]
        wr = vv[ii == r][0]
        dot = float(vv @ y[ii]) - wr * y[r]
        y[r] = (y[r] - dot) / wr
    return y


@njit(cache=True)
def _btran_etas_nb(starts, idx, val, pivots, y):
    for e in range(pivots.shape[0] - 1, -1, -1):
        lo, hi = starts[e], starts[e + 1]
        r = pivots[e]
        wr = 1.0
        dot = 0.0
        for p in range(lo, hi):
            i = idx[p]
            if i == r:
                wr = val[p]
            else:
                dot += val[p] * y[i]
        y[r] = (y[r] - dot) / wr
    return y


if _HAVE_NUMBA:
    split_mask = _split_mask_nb
    partition_cost = _partition_cost_nb
    partition_costs_batch = _partition_costs_batch_nb
    pair_min_scores = _pair_min_scores_nb
    ftran_etas = _ftran_etas_nb
    btran_etas = _btran_etas_nb
else:
    split_mask = _split_mask_np
    partition_cost = _partition_cost_np
    partition_costs_batch = _partition_costs_batch_np
    pair_min_scores = _pair_min_scores_np
    ftran_etas = _ftran_etas_np
    btran_etas = _btran_etas_np

REFERENCE_IMPLS = {
    "split_mask": _split_mask_np,
    "partition_cost": _partition_cost_np,
    "partition_costs_batch": _partition_costs_batch_np,
    "pair_min_scores": _pair_min_scores_np,
    "ftran_etas": _ftran_etas_np,
    "btran_etas": _btran_etas_np,
}

NUMBA_IMPLS = {
    "split_mask": _split_mask_nb,
    "partition_cost": _partition_cost_nb,
    "partition_costs_batch": _partition_costs_batch_nb,
    "pair_min_scores": _pair_min_scores_nb,
    "ftran_etas": _ftran_etas_nb,
    "btran_etas": _btran_etas_nb,
}
