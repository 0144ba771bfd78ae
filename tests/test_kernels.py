"""The numpy kernels against dense and hand-worked oracles."""

import math

import numpy as np
import pytest

from motifcc import kernels
from motifcc.kernels import active_backend


def random_tuples(rng, n, k, T):
    """Up to T distinct sorted k-tuples over 1..n as an int64 array."""
    T = min(T, math.comb(n, k))
    seen = set()
    while len(seen) < T:
        seen.add(tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False))))
    return np.array(sorted(seen), dtype=np.int64)


def random_eta_file(rng, m, count):
    """A well-conditioned product-form eta sequence (with each eta's pivot
    value) plus its dense matrices."""
    starts = [0]
    idx, val, pivots, pivvals = [], [], [], []
    mats = []
    for _ in range(count):
        r = int(rng.integers(m))
        extra = rng.choice([i for i in range(m) if i != r], size=int(rng.integers(0, m)), replace=False)
        rows = np.concatenate([[r], extra]).astype(np.int64)
        vals = rng.uniform(-1.0, 1.0, size=len(rows))
        vals[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)  # safe pivot
        E = np.eye(m)
        E[:, r] = 0.0
        E[rows, r] = vals
        mats.append(E)
        idx.extend(rows.tolist())
        val.extend(vals.tolist())
        pivots.append(r)
        pivvals.append(vals[0])
        starts.append(len(idx))
    return (
        np.array(starts, dtype=np.int64),
        np.array(idx, dtype=np.int64),
        np.array(val),
        np.array(pivots, dtype=np.int64),
        np.array(pivvals),
        mats,
    )


class TestKernelSemantics:
    """The kernels against independent dense / hand oracles."""

    def test_active_backend_is_numpy(self):
        assert active_backend() == "numpy"

    def test_batch_consistent_with_single(self):
        rng = np.random.default_rng(7)
        tuples = random_tuples(rng, 6, 3, 10)
        wplus = rng.uniform(0, 1, size=10)
        batch = rng.integers(0, 3, size=(5, 7)).astype(np.int64)
        costs = kernels.partition_costs_batch(tuples, wplus, batch)
        for b in range(5):
            assert costs[b] == pytest.approx(
                kernels.partition_cost(tuples, wplus, batch[b]), abs=1e-12
            )

    def test_pair_min_scores_hand_case(self):
        tuples = np.array([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], dtype=np.int64)
        x = np.array([0.2, 0.6, 1.0, 0.9])
        active = np.array([False, True, True, True, True])
        y = kernels.pair_min_scores(tuples, x, active, 1)
        assert y[2] == pytest.approx(0.2)  # min(0.2, 0.6)
        assert y[3] == pytest.approx(0.2)  # min(0.2, 1.0)
        assert y[4] == pytest.approx(0.6)  # min(0.6, 1.0)
        assert np.isinf(y[1])  # the pivot itself

    def test_pair_min_scores_skips_dead_tuples(self):
        tuples = np.array([[1, 2, 3], [1, 2, 4]], dtype=np.int64)
        x = np.array([0.1, 0.8])
        active = np.array([False, True, True, False, True])  # 3 removed
        y = kernels.pair_min_scores(tuples, x, active, 1)
        assert y[2] == pytest.approx(0.8)  # only the live tuple (1,2,4) counts
        assert np.isinf(y[3])

    def test_ftran_matches_dense_solve(self):
        for seed in range(6):
            rng = np.random.default_rng(500 + seed)
            m = int(rng.integers(2, 7))
            starts, idx, val, pivots, pivvals, mats = random_eta_file(rng, m, int(rng.integers(1, 5)))
            M = np.eye(m)
            for E in mats:
                M = M @ E
            v = rng.normal(size=m)
            got = kernels.ftran_etas(starts, idx, val, pivots, pivvals, v.copy())
            np.testing.assert_allclose(got, np.linalg.solve(M, v), atol=1e-9)

    def test_btran_matches_dense_transpose_solve(self):
        for seed in range(6):
            rng = np.random.default_rng(600 + seed)
            m = int(rng.integers(2, 7))
            starts, idx, val, pivots, pivvals, mats = random_eta_file(rng, m, int(rng.integers(1, 5)))
            M = np.eye(m)
            for E in mats:
                M = M @ E
            u = rng.normal(size=m)
            got = kernels.btran_etas(starts, idx, val, pivots, pivvals, u.copy())
            np.testing.assert_allclose(got, np.linalg.solve(M.T, u), atol=1e-9)

    def test_ftran_btran_adjoint_identity(self):
        rng = np.random.default_rng(99)
        m = 6
        starts, idx, val, pivots, pivvals, _ = random_eta_file(rng, m, 4)
        u, v = rng.normal(size=m), rng.normal(size=m)
        lhs = kernels.btran_etas(starts, idx, val, pivots, pivvals, u.copy()) @ v
        rhs = u @ kernels.ftran_etas(starts, idx, val, pivots, pivvals, v.copy())
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_split_mask_definition(self):
        tuples = np.array([[1, 2, 3], [2, 3, 4], [1, 2, 4]], dtype=np.int64)
        labels = np.array([0, 5, 5, 5, 7], dtype=np.int64)
        mask = kernels.split_mask(tuples, labels)
        assert mask.tolist() == [False, True, True]
