"""Motif classification of k-tuples and resolution of (w+, w-) weight pairs.

Weights are "probability weights": every tuple gets w+ + w- = 1, with w+
the cost of splitting the tuple across clusters and w- the cost of keeping
it together.  A WeightRule maps motif classes to w+; MotifWeights applies a
rule to one graph with optional per-tuple overrides; MixedWeights stacks
layers of different tuple sizes with relevance factors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import InvalidParameterError, InvalidVertexError, UnsupportedMotifSizeError, as_number
from .graph import DirectedGraph, KTuple, canonical_tuple, enumerate_ktuples


class MotifClass(str, Enum):
    # k = 3, directed view
    DIRECTED_THREE_CYCLE = "DirectedThreeCycle"
    DIRECTED_THREE_CYCLE_BIDIRECTIONAL = "DirectedThreeCycleWithBidirectional"
    FEED_FORWARD = "FeedForward"
    OTHER_TRIPLE = "OtherTriple"
    # k = 3, undirected view
    TRIANGLE = "TriangleK3"
    PATH = "PathP3"
    # k = 2
    EDGE = "Edge"
    NON_EDGE = "NonEdge"

    def __str__(self) -> str:
        return self.value


_CLASSES = tuple(sorted(MotifClass, key=lambda c: c.value))  # as ``classify_rows`` numbers them


def classify_rows(graph: DirectedGraph, tuples, *, directed: bool | None = None) -> np.ndarray:
    """Class of every row of a (T, k) tuple array, k in {2, 3}, as an index into
    ``_CLASSES``: the one copy of the built-in rules.  O(T + n^2) work and memory.

    ``directed=None`` picks the view automatically: symmetric graphs get the
    undirected classes (TriangleK3 / PathP3 / OtherTriple), anything else
    the directed ones.  A clean directed 3-cycle requires one rotational
    orientation and zero bidirectional pairs; a cycle with bidirectional
    pairs is its own class.  FeedForward is the strict 3-arc acyclic
    triangle — a bidirectional pair disqualifies it.  k = 2 has one view.
    """
    t = np.asarray(tuples, dtype=np.int64)
    if t.shape[1] not in (2, 3):
        raise UnsupportedMotifSizeError(f"no built-in classes for k={t.shape[1]}")
    if t.size and (t.min() < 1 or t.max() > graph.n):
        raise InvalidVertexError(f"tuple vertex outside [1..{graph.n}]")
    arc = np.zeros((graph.n + 1, graph.n + 1), dtype=bool)
    arc[tuple(np.array(list(graph.arcs), dtype=np.int64).reshape(-1, 2).T)] = True
    adj, bidi, code = arc | arc.T, arc & arc.T, _CLASSES.index
    if t.shape[1] == 2:
        return np.where(adj[t[:, 0], t[:, 1]], code(MotifClass.EDGE), code(MotifClass.NON_EDGE))
    a, b, c = t.T
    if directed is None:
        directed = not graph.is_symmetric
    if not directed:
        deg = adj[a, b].astype(np.int64) + adj[a, c] + adj[b, c]
        picks = [(deg == 3, MotifClass.TRIANGLE), (deg == 2, MotifClass.PATH)]
    else:
        clean = ~(bidi[a, b] | bidi[a, c] | bidi[b, c])
        cycle = (arc[a, b] & arc[b, c] & arc[c, a]) | (arc[a, c] & arc[c, b] & arc[b, a])
        full = adj[a, b] & adj[a, c] & adj[b, c]
        picks = [(cycle & clean, MotifClass.DIRECTED_THREE_CYCLE),
                 (cycle, MotifClass.DIRECTED_THREE_CYCLE_BIDIRECTIONAL), (full & clean, MotifClass.FEED_FORWARD)]
    return np.select([m for m, _ in picks], [code(cls) for _, cls in picks], code(MotifClass.OTHER_TRIPLE))


def classify_pair(graph: DirectedGraph, pair: Iterable[int]) -> MotifClass:
    u, v = canonical_tuple(pair)
    return _CLASSES[classify_rows(graph, [(u, v)])[0]]


def classify_triple(graph: DirectedGraph, tup: Iterable[int], *, directed: bool | None = None) -> MotifClass:
    """Classify a 3-tuple (the classes are in ``classify_rows``)."""
    t = canonical_tuple(tup)
    if len(t) != 3:
        raise UnsupportedMotifSizeError(f"classify_triple needs k=3, got {len(t)}")
    return _CLASSES[classify_rows(graph, [t], directed=directed)[0]]


def classify(
    graph: DirectedGraph,
    tup: Iterable[int],
    *,
    directed: bool | None = None,
    classifier: Callable[[DirectedGraph, KTuple], str] | None = None,
) -> str:
    """Total classification for k in {2, 3}; larger k needs ``classifier``."""
    t = canonical_tuple(tup)
    if len(t) <= 3:
        return _CLASSES[classify_rows(graph, [t], directed=directed)[0]].value
    if classifier is None:
        raise UnsupportedMotifSizeError(f"no built-in classes for k={len(t)}; supply a classifier")
    return str(classifier(graph, t))


@dataclass(frozen=True)
class WeightRule:
    """Map motif-class tag -> w+ value, either a constant in [0,1] or a
    (lo, hi) range resolved per tuple by a seeded draw."""

    values: dict

    def __post_init__(self):
        if not isinstance(self.values, dict):
            raise InvalidParameterError(f"weight rules must map class names to w+, got {self.values!r}")
        norm = {}
        for tag, val in self.values.items():
            key = tag.value if isinstance(tag, MotifClass) else str(tag)
            if isinstance(val, (tuple, list)):
                if len(val) != 2:
                    raise InvalidParameterError(f"rule range for {key} needs [lo, hi], got {val!r}")
                lo, hi = (as_number(x, f"rule range for {key}") for x in val)
                if not (0.0 <= lo <= hi <= 1.0):
                    raise InvalidParameterError(f"rule range for {key} outside [0,1]: {val}")
                norm[key] = (lo, hi)
            else:
                v = as_number(val, f"rule value for {key}")
                if not (0.0 <= v <= 1.0):
                    raise InvalidParameterError(f"rule value for {key} outside [0,1]: {val}")
                norm[key] = v
        object.__setattr__(self, "values", norm)

    def value_for(self, tag: str):
        if tag not in self.values:
            raise InvalidParameterError(f"weight rule has no entry for class {tag!r}")
        return self.values[tag]


class TupleTable(NamedTuple):
    """Every k-tuple of one graph, classified and weighed once.

    ``tuples`` is int64 (T, k) in lexicographic order; row i has motif class
    ``classes[class_idx[i]]`` (``classes`` sorted) and weight ``wplus[i]``.
    """

    tuples: np.ndarray
    wplus: np.ndarray
    classes: tuple[str, ...]
    class_idx: np.ndarray


class MotifWeights:
    """Total w+/w- lookup over the k-tuples of one graph.

    Resolution order: per-tuple override, then the class rule.  Range rules
    draw per tuple from a SeedSequence spawned on the tuple itself, so the
    draw is independent of enumeration order.  The first lookup builds the
    tuple table, the only place tuples are classified and resolved.
    """

    def __init__(
        self,
        k: int,
        graph: DirectedGraph,
        rule: WeightRule,
        overrides: dict | None = None,
        *,
        seed: int = 0,
        directed: bool | None = None,
        classifier: Callable | None = None,
    ):
        if k < 2:
            raise InvalidParameterError(f"motif size must be >= 2, got {k}")
        self.k = k
        self.graph = graph
        self.rule = rule
        self.seed = int(seed)
        if self.seed < 0:
            raise InvalidParameterError(f"weight seed must be a non-negative integer, got {seed!r}")
        self.classifier = classifier
        self.directed = (not graph.is_symmetric) if directed is None else bool(directed)
        self.overrides: dict[KTuple, float] = {}
        for tup, wp in (overrides or {}).items():
            t = self._checked(tup, "override")
            wp = float(wp)
            if not (0.0 <= wp <= 1.0):
                raise InvalidParameterError(f"override weight for {t} outside [0,1]: {wp}")
            self.overrides[t] = wp
        self._table: TupleTable | None = None

    def _checked(self, tup: Iterable[int], what: str = "tuple") -> KTuple:
        t = canonical_tuple(tup)
        if len(t) != self.k:
            raise UnsupportedMotifSizeError(f"{what} {t} has size {len(t)}, weights are for k={self.k}")
        if t[0] < 1 or t[-1] > self.graph.n:
            raise InvalidVertexError(f"{what} {t} has a vertex outside [1..{self.graph.n}]")
        return t

    def classify(self, tup: KTuple) -> str:
        return classify(self.graph, tup, directed=self.directed, classifier=self.classifier)

    def classify_tuples(self, tuples: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """The sorted classes of the rows of ``tuples`` and each row's index into
        them: one ``classify_rows`` pass for k <= 3, else a classifier call per tuple."""
        if self.k <= 3:  # codes sort as their names do (``_CLASSES``)
            codes, idx = np.unique(classify_rows(self.graph, tuples, directed=self.directed), return_inverse=True)
            return tuple(_CLASSES[c].value for c in codes.tolist()), idx.astype(np.int64)
        classes, idx = np.unique([self.classify(t) for t in map(tuple, tuples.tolist())], return_inverse=True)
        return tuple(classes.tolist()), idx.astype(np.int64)

    def tuple_table(self) -> TupleTable:
        """The table over all k-tuples of the graph, built on first use."""
        if self._table is None:
            combos = chain.from_iterable(enumerate_ktuples(self.graph.vertices(), self.k))
            tuples = np.fromiter(combos, dtype=np.int64).reshape(-1, self.k)
            classes, class_idx = self.classify_tuples(tuples)
            self._table = TupleTable(tuples, self._weigh(tuples, classes, class_idx), classes, class_idx)
        return self._table

    def _weigh(self, tuples: np.ndarray, classes: tuple[str, ...], class_idx: np.ndarray) -> np.ndarray:
        """w+ of every row: its override, else its class rule."""
        wplus, ranks = np.empty(len(tuples)), [self._rank(t) for t in self.overrides]
        free = ~np.isin(np.arange(len(tuples)), ranks)
        present, first = np.unique(class_idx[free], return_index=True)
        # in the order of first use, so a missing rule names the first tuple that needs it
        for i in present[np.argsort(first)].tolist():
            raw = self.rule.value_for(classes[i])
            rows = np.nonzero((class_idx == i) & free)[0]
            if isinstance(raw, tuple):  # a draw per tuple, spawned on the tuple itself
                seeds = (np.random.SeedSequence(self.seed, spawn_key=t) for t in map(tuple, tuples[rows].tolist()))
                raw = [raw[0] + (raw[1] - raw[0]) * np.random.default_rng(s).random() for s in seeds]
            wplus[rows] = raw
        wplus[ranks] = list(self.overrides.values())
        return wplus

    def _rank(self, t: KTuple) -> int:
        """Lexicographic rank of the canonical tuple t among the k-subsets of [1..n]."""
        n, k = self.graph.n, self.k
        return math.comb(n, k) - 1 - sum(math.comb(n - v, k - i) for i, v in enumerate(t))

    def w_plus(self, tup: Iterable[int]) -> float:
        return float(self.tuple_table().wplus[self._rank(self._checked(tup))])

    def resolve(self, tup: Iterable[int]) -> tuple[float, float]:
        """(w+, w-) for one tuple; the pair sums to 1 exactly."""
        wp = self.w_plus(tup)
        return wp, 1.0 - wp


@dataclass(frozen=True)
class Layer:
    k: int
    weights: MotifWeights
    lam: float


class MixedWeights:
    """Stack of motif layers (k_1 < k_2 < ...) with relevance factors λ_t >= 0."""

    def __init__(self, layers: Iterable[Layer | tuple]):
        norm = []
        for entry in layers:
            layer = entry if isinstance(entry, Layer) else Layer(*entry)
            if layer.k != layer.weights.k:
                raise InvalidParameterError(
                    f"layer size {layer.k} disagrees with its weights (k={layer.weights.k})"
                )
            if not 0 <= layer.lam < math.inf:
                raise InvalidParameterError(f"relevance factor must be finite and >= 0, got {layer.lam}")
            norm.append(layer)
        if not norm:
            raise InvalidParameterError("at least one motif layer required")
        ks = [l.k for l in norm]
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise InvalidParameterError(f"layer sizes must be strictly increasing, got {ks}")
        self.layers: tuple[Layer, ...] = tuple(norm)

    @classmethod
    def single(cls, weights: MotifWeights, lam: float = 1.0) -> "MixedWeights":
        return cls([Layer(weights.k, weights, lam)])

    @property
    def k_star(self) -> int:
        return self.layers[-1].k

    @property
    def graph(self) -> DirectedGraph:
        return self.layers[0].weights.graph

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)


def build_table1_weights(method: str, graph: DirectedGraph) -> MixedWeights:
    """The published karate weight tables.

    CC: edges only (NonEdge 0.47).  MCC: triangles/paths/other at
    1, 2/3, 0.49.  MMCC: edge layer (NonEdge 0.45, λ=1) plus triple layer
    (other 0.5, λ=0.2).  Requires a symmetric graph.
    """
    m = method.upper()
    if not graph.is_symmetric:
        raise InvalidParameterError("table weights are defined for undirected (symmetric) graphs")
    if m == "CC":
        rule = WeightRule({MotifClass.EDGE: 1.0, MotifClass.NON_EDGE: 0.47})
        return MixedWeights.single(MotifWeights(2, graph, rule))
    if m == "MCC":
        rule = WeightRule(
            {MotifClass.TRIANGLE: 1.0, MotifClass.PATH: 2.0 / 3.0, MotifClass.OTHER_TRIPLE: 0.49}
        )
        return MixedWeights.single(MotifWeights(3, graph, rule))
    if m == "MMCC":
        edge_rule = WeightRule({MotifClass.EDGE: 1.0, MotifClass.NON_EDGE: 0.45})
        triple_rule = WeightRule(
            {MotifClass.TRIANGLE: 1.0, MotifClass.PATH: 2.0 / 3.0, MotifClass.OTHER_TRIPLE: 0.5}
        )
        return MixedWeights(
            [
                Layer(2, MotifWeights(2, graph, edge_rule), 1.0),
                Layer(3, MotifWeights(3, graph, triple_rule), 0.2),
            ]
        )
    raise InvalidParameterError(f"unknown method {method!r}; expected CC, MCC, or MMCC")


def directed_cycle_rule(other_weight=0.45, jitter: tuple[float, float] | None = None) -> WeightRule:
    """w+ = 1 for clean directed 3-cycles, ``other_weight`` for every other
    class (or a seeded per-tuple draw from ``jitter``)."""
    other = jitter if jitter is not None else other_weight
    return WeightRule(
        {
            MotifClass.DIRECTED_THREE_CYCLE: 1.0,
            MotifClass.DIRECTED_THREE_CYCLE_BIDIRECTIONAL: other,
            MotifClass.FEED_FORWARD: other,
            MotifClass.OTHER_TRIPLE: other,
        }
    )


# ------------------------------------------------------------------ config IO


def _layer_from_config(cfg: dict, graph: DirectedGraph) -> Layer:
    if not isinstance(cfg, dict):
        raise InvalidParameterError(f"weight layer must be an object, got {cfg!r}")
    missing = [key for key in ("k", "rules") if key not in cfg]
    if missing:
        raise InvalidParameterError(f"weight layer config missing key {missing[0]!r}")
    k = as_number(cfg["k"], "weight layer 'k'", int)
    overrides = {}
    if cfg.get("directed") not in (None, True, False):
        raise InvalidParameterError(f"weight layer 'directed' must be a boolean, got {cfg['directed']!r}")
    if not isinstance(cfg.get("overrides", []), list):
        raise InvalidParameterError(f"weight layer 'overrides' must be a list, got {cfg['overrides']!r}")
    for entry in cfg.get("overrides", []):
        if not isinstance(entry, list) or not entry:
            raise InvalidParameterError(f"override {entry!r} must be [vertex, ..., w+]")
        *verts, wp = entry
        verts = [as_number(v, f"override vertex in {entry!r}", int) for v in verts]
        overrides[canonical_tuple(verts)] = as_number(wp, f"override weight of {verts}")
    weights = MotifWeights(
        k,
        graph,
        WeightRule(cfg["rules"]),
        overrides,
        seed=as_number(cfg.get("seed", 0), "weight layer 'seed'", int),
        directed=cfg.get("directed"),
    )
    return Layer(k, weights, as_number(cfg.get("lambda", 1.0), "weight layer 'lambda'"))


def weights_from_config(cfg, graph: DirectedGraph) -> MixedWeights:
    """Build MixedWeights from a JSON-style dict, list of layer dicts, or a
    path to a JSON file holding either."""
    if isinstance(cfg, (str, bytes)) or hasattr(cfg, "read"):
        with open(cfg, encoding="utf-8") as fh:
            cfg = json.load(fh)
    if isinstance(cfg, dict) and "layers" in cfg:
        cfg = cfg["layers"]
    if isinstance(cfg, dict):
        cfg = [cfg]
    if not isinstance(cfg, list):
        raise InvalidParameterError(f"weight config must be a layer object or a list of them, got {cfg!r}")
    return MixedWeights([_layer_from_config(layer, graph) for layer in cfg])


def weights_to_config(mixed: MixedWeights) -> list[dict]:
    """Inverse of weights_from_config, for report echoes."""
    out = []
    for layer in mixed:
        w = layer.weights
        out.append(
            {
                "k": layer.k,
                "lambda": layer.lam,
                "rules": {tag: list(v) if isinstance(v, tuple) else v for tag, v in w.rule.values.items()},
                "overrides": [[*t, wp] for t, wp in sorted(w.overrides.items())],
                "seed": w.seed,
                "directed": w.directed,
            }
        )
    return out
