"""The numpy kernels against dense and hand-worked oracles."""

import math

import numpy as np
import pytest

from motifcc import kernels, simplex
from motifcc.kernels import active_backend


def random_tuples(rng, n, k, T):
    """Up to T distinct sorted k-tuples over 1..n as an int64 array."""
    T = min(T, math.comb(n, k))
    seen = set()
    while len(seen) < T:
        seen.add(tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False))))
    return np.array(sorted(seen), dtype=np.int64)


def random_eta_file(rng, m, count):
    """A well-conditioned product-form eta sequence, stored through
    ``_EtaFile.append``, as the kernels' arguments (without y) plus the
    dense eta matrices."""
    etas = simplex._EtaFile(m * count, count)
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
        etas.append(rows, vals, r, vals[0])
    return (*etas._args(None)[:5], mats)


def reference_ftran_etas(starts, idx, val, pivots, pivvals, y):
    """One step per eta, in order: the sequential form of ftran_etas."""
    for e in range(pivots.shape[0]):
        lo, hi = starts[e], starts[e + 1]
        r = pivots[e]
        pr = y[r] / pivvals[e]
        y[idx[lo:hi]] -= val[lo:hi] * pr
        y[r] = pr
    return y


def reference_btran_etas(starts, idx, val, pivots, pivvals, y):
    """One step per eta, last first: the sequential form of btran_etas."""
    for e in range(pivots.shape[0] - 1, -1, -1):
        lo, hi = starts[e], starts[e + 1]
        r = pivots[e]
        wr = pivvals[e]
        dot = float(val[lo:hi] @ y[idx[lo:hi]]) - wr * y[r]
        y[r] = (y[r] - dot) / wr
    return y


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
            starts, idx, val, pivots, T, mats = random_eta_file(rng, m, int(rng.integers(1, 5)))
            M = np.eye(m)
            for E in mats:
                M = M @ E
            v = rng.normal(size=m)
            got = kernels.ftran_etas(starts, idx, val, pivots, T, v.copy())
            np.testing.assert_allclose(got, np.linalg.solve(M, v), atol=1e-9)

    def test_btran_matches_dense_transpose_solve(self):
        for seed in range(6):
            rng = np.random.default_rng(600 + seed)
            m = int(rng.integers(2, 7))
            starts, idx, val, pivots, T, mats = random_eta_file(rng, m, int(rng.integers(1, 5)))
            M = np.eye(m)
            for E in mats:
                M = M @ E
            u = rng.normal(size=m)
            got = kernels.btran_etas(starts, idx, val, pivots, T, u.copy())
            np.testing.assert_allclose(got, np.linalg.solve(M.T, u), atol=1e-9)

    def test_ftran_btran_adjoint_identity(self):
        rng = np.random.default_rng(99)
        m = 6
        starts, idx, val, pivots, T, _ = random_eta_file(rng, m, 4)
        u, v = rng.normal(size=m), rng.normal(size=m)
        lhs = kernels.btran_etas(starts, idx, val, pivots, T, u.copy()) @ v
        rhs = u @ kernels.ftran_etas(starts, idx, val, pivots, T, v.copy())
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_split_mask_definition(self):
        tuples = np.array([[1, 2, 3], [2, 3, 4], [1, 2, 4]], dtype=np.int64)
        labels = np.array([0, 5, 5, 5, 7], dtype=np.int64)
        mask = kernels.split_mask(tuples, labels)
        assert mask.tolist() == [False, True, True]


class TestCompactEtas:
    """The compact-form eta kernels against the sequential loops."""

    @staticmethod
    def eta_file(rng, m, k, dense):
        """k etas over m rows, pivoting on a few rows many times; dense etas
        fill a random share of the column, short ones hold up to 3 more
        entries.  Entries are appended in row order, as the simplex does."""
        etas = simplex._EtaFile(m * k, k)
        pool = rng.integers(0, m, size=max(1, m // 8))
        for _ in range(k):
            r = int(rng.choice(pool))
            size = int(rng.integers(0, m)) if dense else int(rng.integers(0, 4))
            extra = rng.choice(np.setdiff1d(np.arange(m), [r]), size=min(size, m - 1), replace=False)
            rows = np.concatenate([[r], extra]).astype(np.int64)
            vals = rng.uniform(-1.0, 1.0, size=len(rows)) / (np.sqrt(len(rows)) if dense else 1.0)
            vals[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            order = np.argsort(rows)
            etas.append(rows[order], vals[order], r, vals[0])
        return etas

    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_sequential_reference(self, dense):
        repeated = 0
        for seed in range(12):
            rng = np.random.default_rng(1000 + seed)
            m = int(rng.integers(5, 300))
            k = 120 if seed == 0 else int(rng.integers(1, 121))
            etas = self.eta_file(rng, m, k, dense)
            starts, idx, val, pivots, T, _ = etas._args(None)
            repeated += len(pivots) - len(np.unique(pivots))
            pivvals = np.diag(T).copy()
            for kernel, reference in ((kernels.ftran_etas, reference_ftran_etas),
                                      (kernels.btran_etas, reference_btran_etas)):
                y = rng.normal(size=m)
                want = reference(starts, idx, val, pivots, pivvals, y.copy())
                got = kernel(starts, idx, val, pivots, T, y.copy())
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (seed, kernel.__name__)
        assert repeated > 0

    def test_triangular_factor_by_definition(self):
        """T[e,e] is eta e's pivot value; T[e,f] for f < e is eta f's entry
        at row r_e, less 1 when eta f pivoted on r_e too."""
        rng = np.random.default_rng(3)
        m, k = 9, 14
        etas = self.eta_file(rng, m, k, dense=True)
        starts, idx, val, pivots, T, _ = etas._args(None)
        W = np.zeros((k, m))
        for e in range(k):
            W[e, idx[starts[e] : starts[e + 1]]] = val[starts[e] : starts[e + 1]]
        Wt = W - np.eye(m)[pivots]
        want = np.tril(Wt[:, pivots].T, -1) + np.diag(W[np.arange(k), pivots])
        np.testing.assert_array_equal(np.tril(T), want)

    def test_factor_rows_rewritten_after_clear(self):
        rng = np.random.default_rng(4)
        etas = self.eta_file(rng, 30, 20, dense=True)
        etas.clear()
        fresh = simplex._EtaFile(30 * 20, 20)
        for e in range(5):
            r = int(rng.integers(30))
            rows = np.unique(np.concatenate([[r], rng.integers(0, 30, size=6)]))
            vals = rng.uniform(-1.0, 1.0, size=len(rows))
            vals[rows == r] = 1.5
            etas.append(rows, vals, r, 1.5)
            fresh.append(rows, vals, r, 1.5)
        np.testing.assert_array_equal(np.tril(etas._args(None)[4]), np.tril(fresh._args(None)[4]))
