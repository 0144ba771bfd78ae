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


# ---------------------------------------------------------------- retired


def ftran_etas(*args):
    """The eta kernels went with the in-repo simplex.  The benchmark's
    tracer (perfbench/tracer.py) still wraps these two names (ROADMAP item
    1); nothing calls them."""
    raise NotImplementedError("the eta kernels of the in-repo simplex were removed")


btran_etas = ftran_etas
