"""Numerical hot loops, in numpy.

Callers reach these through the module (``kernels.<name>``), never by
importing the functions, so an outside tracer that rebinds a name sees
every call.  ``active_backend()`` names the implementation for benchmark
records; it is always ``"numpy"``.

Conventions: vertex labels are 1-based, so per-vertex arrays have length
n+1 with slot 0 unused.  Tuple tables are int64 arrays of shape (T, k).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsv


def active_backend() -> str:
    return "numpy"


# ---------------------------------------------------------------- objective


def split_mask(tuples: np.ndarray, labels: np.ndarray) -> np.ndarray:
    lab = labels[tuples]
    return (lab != lab[:, :1]).any(axis=1)


def partition_cost(tuples, wplus, labels):
    split = split_mask(tuples, labels)
    return float(np.where(split, wplus, 1.0 - wplus).sum())


def partition_costs_batch(tuples, wplus, labels_batch):
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


# ---------------------------------------------------------------- rounding


def pair_min_scores(tuples, x, active, v):
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


# ---------------------------------------------------------------- simplex etas
#
# An eta file holds k = ``len(pivots)`` product-form columns: eta e has row
# indices ``idx[starts[e]:starts[e+1]]`` with values ``val[...]`` (the
# column w_e) and replaces basis position ``pivots[e]`` = r_e.  Both kernels
# apply the k etas at once in compact form.  With w~_e = w_e - e_{r_e} and
# T the k x k lower-triangular matrix T[e,e] = w_e[r_e] (the pivot value),
# T[e,f] = w~_f[r_e] for f < e,
#
#     E_k^-1 ... E_1^-1 = I - W~^T T^-1 S,
#
# where the rows of W~ are the w~_e and S picks rows r_1..r_k; a row
# pivoted on more than once is covered too.  ftran solves T p = y[R] and
# subtracts W~^T p; btran forms u = W~ y, solves T^T v = u and subtracts v
# at R.  ``T`` is that k x k matrix (its upper triangle is never read).
# Both kernels update ``y`` in place and return it.


def ftran_etas(starts, idx, val, pivots, T, y):
    p = dtrsv(T, y[pivots], lower=1)
    y -= np.bincount(idx, weights=val * np.repeat(p, np.diff(starts)), minlength=y.shape[0])
    np.add.at(y, pivots, p)
    return y


def btran_etas(starts, idx, val, pivots, T, y):
    u = np.add.reduceat(val * y[idx], starts[:-1]) - y[pivots]
    np.subtract.at(y, pivots, dtrsv(T, u, lower=1, trans=1))
    return y
