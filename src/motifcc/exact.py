"""Exhaustive and closed-form reference solvers.

``exact_min_disagree`` enumerates every set partition (restricted-growth
strings, batched through the cost kernels) — the ground truth all other
solvers are measured against at small n.  The tests cross-check its
enumerator, ``partitions_rgs``, against an independent one and the Bell
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import kernels
from .errors import InvalidParameterError, SizeLimitError
from .graph import Partition
from .lpmodel import evaluate_objective
from .motifs import MixedWeights

EXACT_DEFAULT_CAP = 10  # Bell(10) = 115_975 partitions


@dataclass
class ClusteringReport:
    """Uniform result record shared by exact, baseline, and LP pipelines."""

    partition: Partition
    cost: float
    solver: str
    lp_value: float | None = None
    certified_ratio: float | None = None
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "solver": self.solver,
            "clusters": [sorted(c) for c in self.partition.clusters],
            "cost": self.cost,
            "lp_value": self.lp_value,
            "certified_ratio": self.certified_ratio,
            "seed": self.seed,
            "extra": self.extra,
        }


def bell_number(n: int) -> int:
    """Number of set partitions of [n], via the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def partitions_rgs(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted-growth strings of length n in lexicographic order.

    a[0] = 0 and a[i] <= 1 + max(a[:i]); each string is one set partition
    with a[i] the 0-based cluster index of vertex i+1.
    """
    if n <= 0:
        yield ()
        return
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]) for i >= 1
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] >= b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        grown = b[j] + 1 if a[j] >= b[j] else b[j]
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = grown


def _graph_n(mixed: MixedWeights, n: int | None) -> int:
    """The weights' vertex count; an explicit ``n`` must agree with it."""
    if n is not None and n != mixed.graph.n:
        raise InvalidParameterError(f"n={n} disagrees with weights' graph n={mixed.graph.n}")
    return mixed.graph.n


def exact_min_disagree(
    mixed: MixedWeights,
    n: int | None = None,
    *,
    cap: int = EXACT_DEFAULT_CAP,
    batch_size: int = 8192,
) -> ClusteringReport:
    """Globally minimal disagreement cost by full partition enumeration.

    Deterministic tie-break: the first optimum in restricted-growth-string
    order wins.  Refuses n above ``cap`` (Bell growth).
    """
    n = _graph_n(mixed, n)
    if n > cap:
        raise SizeLimitError(
            f"exact search over Bell({n}) partitions exceeds cap {cap}; raise cap to override"
        )
    tables = [(layer.lam, layer.weights.tuple_table()) for layer in mixed]
    best_cost = np.inf
    best_rgs: tuple[int, ...] | None = None
    buf = np.zeros((batch_size, n + 1), dtype=np.int64)
    held: list[tuple[int, ...]] = []

    def flush():
        nonlocal best_cost, best_rgs
        if not held:
            return
        B = len(held)
        buf[:B, 1:] = held
        costs = np.zeros(B)
        for lam, table in tables:
            costs += lam * kernels.partition_costs_batch(table.tuples, table.wplus, buf[:B])
        i = int(np.argmin(costs))
        if costs[i] < best_cost - 1e-12:
            best_cost = float(costs[i])
            best_rgs = held[i]
        held.clear()

    for rgs in partitions_rgs(n):
        held.append(rgs)
        if len(held) == batch_size:
            flush()
    flush()
    partition = Partition.from_assignment(list(best_rgs), n=n)
    cost = evaluate_objective(partition, mixed)
    return ClusteringReport(partition, cost, "exact-enumeration")
