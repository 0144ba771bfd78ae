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

    def test_split_mask_definition(self):
        tuples = np.array([[1, 2, 3], [2, 3, 4], [1, 2, 4]], dtype=np.int64)
        labels = np.array([0, 5, 5, 5, 7], dtype=np.int64)
        mask = kernels.split_mask(tuples, labels)
        assert mask.tolist() == [False, True, True]
