"""Classical randomized pivoting heuristics over ±-labeled edges.

These are the baselines whose per-instance cost can degrade on motif
objectives: they only see pairwise signs.  Signs come either from the
graph's edges (edge present = positive) or from a k=2 weight layer via a
threshold on w+.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .graph import DirectedGraph, KTuple, Partition, canonical_tuple
from .lpmodel import evaluate_objective
from .motifs import MixedWeights, MotifWeights
from .exact import ClusteringReport


def edge_signs_from_graph(graph: DirectedGraph) -> set[KTuple]:
    """Positive pairs = adjacent pairs (either arc direction)."""
    return set(graph.undirected_edges())


def edge_signs_from_weights(weights: MotifWeights, threshold: float = 0.5) -> set[KTuple]:
    """Positive pairs = pairs whose w+ exceeds ``threshold``."""
    if weights.k != 2:
        raise InvalidParameterError(f"edge signs need a k=2 layer, got k={weights.k}")
    table = weights.tuple_table()
    return set(map(tuple, table.tuples[table.wplus > threshold].tolist()))


def _as_signs(signs) -> set[KTuple]:
    if isinstance(signs, DirectedGraph):
        return edge_signs_from_graph(signs)
    if isinstance(signs, MotifWeights):
        return edge_signs_from_weights(signs)
    return {canonical_tuple(p) for p in signs}


def _finish_report(
    clusters: list[set[int]], n: int, solver: str, seed, mixed: MixedWeights | None
) -> ClusteringReport:
    partition = Partition.from_cluster_list(clusters, n=n)
    cost = evaluate_objective(partition, mixed) if mixed is not None else float("nan")
    return ClusteringReport(partition, cost, solver, seed=seed)


def pivot_vertex_baseline(
    signs, n: int, seed: int = 0, *, mixed: MixedWeights | None = None
) -> ClusteringReport:
    """Uniform random pivot vertex; its cluster is the pivot plus all
    remaining positive neighbors.  Cost evaluated on ``mixed`` if given."""
    pos = _as_signs(signs)
    rng = np.random.default_rng(seed)
    remaining = set(range(1, n + 1))
    clusters: list[set[int]] = []
    while remaining:
        pivot = int(rng.choice(sorted(remaining)))
        cluster = {pivot} | {
            u for u in remaining if u != pivot and canonical_tuple((pivot, u)) in pos
        }
        remaining -= cluster
        clusters.append(cluster)
    return _finish_report(clusters, n, "pivot-vertex", seed, mixed)


def pivot_edge_baseline(
    signs,
    n: int,
    seed: int = 0,
    *,
    mixed: MixedWeights | None = None,
    first_edge: tuple[int, int] | None = None,
) -> ClusteringReport:
    """Uniform random positive pivot edge; the cluster absorbs every
    positive edge connected to it, i.e. the positive connected component.
    ``first_edge`` forces the first pivot (for reproducing the worked
    failure example); no positive edges left -> singletons."""
    pos = _as_signs(signs)
    rng = np.random.default_rng(seed)
    remaining = set(range(1, n + 1))
    clusters: list[set[int]] = []
    forced = canonical_tuple(first_edge) if first_edge is not None else None
    while remaining:
        live = sorted(p for p in pos if p[0] in remaining and p[1] in remaining)
        if not live:
            clusters.extend({u} for u in sorted(remaining))
            remaining = set()
            break
        if forced is not None:
            if forced not in live:
                raise InvalidParameterError(f"forced edge {forced} is not a live positive edge")
            edge = forced
            forced = None
        else:
            edge = live[int(rng.integers(len(live)))]
        # grow the positive connected component containing the pivot edge
        cluster = set(edge)
        frontier = set(edge)
        while frontier:
            nxt = set()
            for u, v in live:
                if (u in cluster) != (v in cluster):
                    nxt.add(v if u in cluster else u)
            if not nxt:
                break
            cluster |= nxt
            frontier = nxt
        remaining -= cluster
        clusters.append(cluster)
    return _finish_report(clusters, n, "pivot-edge", seed, mixed)
