"""Directed graphs, canonical k-tuples, and vertex partitions.

Vertex labels are 1-based integers in [1..n].  A k-tuple is represented as a
plain ``tuple[int, ...]`` in strictly ascending order (the canonical form);
``canonical_tuple`` produces it and every map in the toolkit is keyed on it.
``open_text`` opens what the toolkit reads or writes as text: a path or a
handle the caller already opened.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .errors import (
    InvalidParameterError,
    InvalidVertexError,
    MalformedPartitionError,
)

KTuple = tuple[int, ...]


def canonical_tuple(vertices: Iterable[int]) -> KTuple:
    """Sort ``vertices`` into the canonical ascending tuple.

    Raises InvalidParameterError on duplicates or size < 2.
    """
    t = tuple(sorted(vertices))
    if len(t) < 2:
        raise InvalidParameterError(f"tuple needs at least 2 vertices, got {t!r}")
    if len(set(t)) != len(t):
        raise InvalidParameterError(f"tuple has repeated vertices: {t!r}")
    return t


def enumerate_ktuples(vertices: Iterable[int], k: int) -> Iterator[KTuple]:
    """Stream all C(|S|, k) canonical k-tuples of S in lexicographic order.

    k > |S| yields nothing; k < 2 is an error.
    """
    if k < 2:
        raise InvalidParameterError(f"tuple size must be >= 2, got {k}")
    return combinations(sorted(vertices), k)


@dataclass(frozen=True)
class DirectedGraph:
    """A simple directed graph on vertices 1..n with no self-loops.

    ``arcs`` holds ordered pairs (u, v).  An unordered pair {u, v} is a
    bidirectional edge iff both (u, v) and (v, u) are present.
    """

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"vertex count must be positive, got {self.n}")
        for u, v in self.arcs:
            if u == v:
                raise InvalidParameterError(f"self-loop on vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InvalidVertexError(f"arc ({u},{v}) outside [1..{self.n}]")

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "DirectedGraph":
        return cls(n=n, arcs=frozenset((int(u), int(v)) for u, v in arcs))

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def adjacent(self, u: int, v: int) -> bool:
        """True if at least one of (u,v), (v,u) is an arc."""
        return (u, v) in self.arcs or (v, u) in self.arcs

    def bidirectional(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs and (v, u) in self.arcs

    @property
    def is_symmetric(self) -> bool:
        """True when every arc's reverse is present (an undirected graph)."""
        return all((v, u) in self.arcs for u, v in self.arcs)

    def undirected_edges(self) -> frozenset[KTuple]:
        """Unordered pairs {u,v} with at least one arc between them."""
        return frozenset(canonical_tuple((u, v)) for u, v in self.arcs)

    def vertices(self) -> range:
        return range(1, self.n + 1)


def load_edge_list(
    path,
    *,
    n: int | None = None,
    undirected: bool = False,
    zero_based: bool = False,
) -> DirectedGraph:
    """Read a UTF-8 edge list: one arc per line "u<TAB>v", '#' comments.

    ``undirected=True`` symmetrizes every line into both arcs.
    ``zero_based=True`` shifts labels up by one so output is 1-based.
    ``n`` defaults to the maximum label seen; pass it when the top vertex
    may be isolated.  A label outside 1..n raises InvalidVertexError.
    """
    arcs: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InvalidParameterError(f"{path}:{lineno}: expected 'u<TAB>v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InvalidParameterError(
                    f"{path}:{lineno}: vertex labels must be integers, got {raw!r}"
                ) from None
            if zero_based:
                u, v = u + 1, v + 1
            arcs.add((u, v))
            if undirected:
                arcs.add((v, u))
    if n is None:
        n = max((max(u, v) for u, v in arcs), default=0)
    return DirectedGraph.from_arcs(n, arcs)


def open_text(file, mode: str = "r"):
    """``file`` as a context manager over a UTF-8 text handle: an open
    handle (anything with ``read`` or ``write``) itself, left open on exit,
    or the file at a str, bytes or os.PathLike path, opened in ``mode`` and
    closed on exit.  Anything else raises InvalidParameterError."""
    if hasattr(file, "read") or hasattr(file, "write"):
        return nullcontext(file)
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        return open(file, mode, encoding="utf-8")
    raise InvalidParameterError(f"expected a path or an open file, got {file!r}")


def write_edge_list(graph: DirectedGraph, path, header: str | None = None) -> None:
    """Write arcs one per line, sorted, with an optional '#' header line."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for u, v in sorted(graph.arcs):
            fh.write(f"{u}\t{v}\n")


@dataclass(frozen=True)
class Partition:
    """A partition of [1..n] into nonempty clusters.

    ``assignment[v]`` is the cluster index of vertex v (0-based, dense);
    ``clusters`` is the derived list of vertex sets, ordered by smallest
    member so equal partitions compare equal.
    """

    n: int
    assignment: dict[int, int]
    clusters: tuple[frozenset[int], ...] = field(compare=False)

    @classmethod
    def from_cluster_list(cls, clusters: Iterable[Iterable[int]], n: int | None = None) -> "Partition":
        """Validate disjointness and coverage; error names the offending vertex."""
        seen: dict[int, int] = {}
        sets = []
        for idx, c in enumerate(clusters):
            cset = frozenset(int(v) for v in c)
            if not cset:
                raise MalformedPartitionError("empty cluster")
            for v in cset:
                if v in seen:
                    raise MalformedPartitionError(f"vertex {v} appears in more than one cluster")
                seen[v] = idx
            sets.append(cset)
        if n is None:
            n = max(seen, default=0)
        for v in range(1, n + 1):
            if v not in seen:
                raise MalformedPartitionError(f"vertex {v} not covered by any cluster")
        for v in seen:
            if not (1 <= v <= n):
                raise InvalidVertexError(f"vertex {v} outside [1..{n}]")
        ordered = sorted(sets, key=min)
        assignment = {v: i for i, cset in enumerate(ordered) for v in cset}
        return cls(n=n, assignment=assignment, clusters=tuple(ordered))

    @classmethod
    def from_assignment(cls, labels: dict[int, int] | Iterable[int], n: int | None = None) -> "Partition":
        """Build from a vertex -> cluster-id map (ids need not be dense).

        An iterable is taken as labels for vertices 1..len in order.
        """
        if not isinstance(labels, dict):
            labels = {i + 1: lab for i, lab in enumerate(labels)}
        groups: dict[int, set[int]] = {}
        for v, lab in labels.items():
            groups.setdefault(lab, set()).add(v)
        return cls.from_cluster_list(groups.values(), n=n)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.from_cluster_list([{v} for v in range(1, n + 1)], n=n)

    @classmethod
    def one_cluster(cls, n: int) -> "Partition":
        return cls.from_cluster_list([set(range(1, n + 1))], n=n)

    def cluster_of(self, v: int) -> int:
        if v not in self.assignment:
            raise InvalidVertexError(f"vertex {v} outside [1..{self.n}]")
        return self.assignment[v]

    def same_cluster(self, u: int, v: int) -> bool:
        return self.cluster_of(u) == self.cluster_of(v)

    def is_split(self, tup: Iterable[int]) -> bool:
        """True unless every vertex of ``tup`` shares one cluster."""
        it = iter(tup)
        first = self.cluster_of(next(it))
        return any(self.cluster_of(v) != first for v in it)

    def labels_array(self):
        """Cluster indices as a dense list indexed by vertex-1."""
        return [self.assignment[v] for v in range(1, self.n + 1)]

    def __str__(self) -> str:
        return " | ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in self.clusters)


def rand_index(p: Partition, q: Partition) -> float:
    """Fraction of vertex pairs on which two partitions agree."""
    if p.n != q.n:
        raise InvalidParameterError(f"partition sizes differ: {p.n} vs {q.n}")
    if p.n < 2:
        return 1.0
    agree = 0
    total = 0
    for u, v in combinations(range(1, p.n + 1), 2):
        total += 1
        if p.same_cluster(u, v) == q.same_cluster(u, v):
            agree += 1
    return agree / total


def misassigned_vertices(p: Partition, reference: Partition) -> list[int]:
    """Vertices of ``p`` that disagree with ``reference`` under the best
    greedy matching of p's clusters onto reference clusters.

    Each cluster of ``p`` is matched to the reference cluster it overlaps
    most (ties to the lower reference index); vertices outside the matched
    cluster count as misassigned.
    """
    if p.n != reference.n:
        raise InvalidParameterError(f"partition sizes differ: {p.n} vs {reference.n}")
    bad: list[int] = []
    for cluster in p.clusters:
        overlaps = [(len(cluster & ref), -i) for i, ref in enumerate(reference.clusters)]
        best = max(range(len(overlaps)), key=lambda i: overlaps[i])
        bad.extend(v for v in cluster if v not in reference.clusters[best])
    return sorted(bad)
