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
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import InvalidParameterError, InvalidVertexError, UnsupportedMotifSizeError
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


def classify_pair(graph: DirectedGraph, pair: Iterable[int]) -> MotifClass:
    u, v = canonical_tuple(pair)
    return MotifClass.EDGE if graph.adjacent(u, v) else MotifClass.NON_EDGE


def classify_triple(
    graph: DirectedGraph, tup: Iterable[int], *, directed: bool | None = None
) -> MotifClass:
    """Classify a 3-tuple.

    ``directed=None`` picks the view automatically: symmetric graphs get the
    undirected classes (TriangleK3 / PathP3 / OtherTriple), anything else
    the directed ones.  A clean directed 3-cycle requires one rotational
    orientation and zero bidirectional pairs; a cycle with bidirectional
    pairs is its own class.  FeedForward is the strict 3-arc acyclic
    triangle — a bidirectional pair disqualifies it.
    """
    t = canonical_tuple(tup)
    if len(t) != 3:
        raise UnsupportedMotifSizeError(f"classify_triple needs k=3, got {len(t)}")
    a, b, c = t
    if directed is None:
        directed = not graph.is_symmetric
    pairs = ((a, b), (a, c), (b, c))
    if not directed:
        deg = sum(graph.adjacent(u, v) for u, v in pairs)
        if deg == 3:
            return MotifClass.TRIANGLE
        if deg == 2:
            return MotifClass.PATH
        return MotifClass.OTHER_TRIPLE
    bidi = sum(graph.bidirectional(u, v) for u, v in pairs)
    cycle = (
        graph.has_arc(a, b) and graph.has_arc(b, c) and graph.has_arc(c, a)
    ) or (graph.has_arc(a, c) and graph.has_arc(c, b) and graph.has_arc(b, a))
    if cycle:
        if bidi == 0:
            return MotifClass.DIRECTED_THREE_CYCLE
        return MotifClass.DIRECTED_THREE_CYCLE_BIDIRECTIONAL
    if bidi == 0 and all(graph.adjacent(u, v) for u, v in pairs):
        return MotifClass.FEED_FORWARD
    return MotifClass.OTHER_TRIPLE


def classify(
    graph: DirectedGraph,
    tup: Iterable[int],
    *,
    directed: bool | None = None,
    classifier: Callable[[DirectedGraph, KTuple], str] | None = None,
) -> str:
    """Total classification for k in {2, 3}; larger k needs ``classifier``."""
    t = canonical_tuple(tup)
    if len(t) == 2:
        return classify_pair(graph, t).value
    if len(t) == 3:
        return classify_triple(graph, t, directed=directed).value
    if classifier is None:
        raise UnsupportedMotifSizeError(
            f"no built-in classes for k={len(t)}; supply a classifier"
        )
    return str(classifier(graph, t))


@dataclass(frozen=True)
class WeightRule:
    """Map motif-class tag -> w+ value, either a constant in [0,1] or a
    (lo, hi) range resolved per tuple by a seeded draw."""

    values: dict

    def __post_init__(self):
        norm = {}
        for tag, val in self.values.items():
            key = tag.value if isinstance(tag, MotifClass) else str(tag)
            if isinstance(val, (tuple, list)):
                lo, hi = float(val[0]), float(val[1])
                if not (0.0 <= lo <= hi <= 1.0):
                    raise InvalidParameterError(f"rule range for {key} outside [0,1]: {val}")
                norm[key] = (lo, hi)
            else:
                v = float(val)
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

    def tuple_table(self) -> TupleTable:
        """The table over all k-tuples of the graph, built on first use."""
        if self._table is None:
            tuples = list(enumerate_ktuples(self.graph.vertices(), self.k))
            tags = [self.classify(t) for t in tuples]
            classes = tuple(sorted(set(tags)))
            slot = {tag: i for i, tag in enumerate(classes)}
            wplus = np.array([self._weigh(t, tag) for t, tag in zip(tuples, tags)], dtype=float)
            self._table = TupleTable(
                np.array(tuples, dtype=np.int64).reshape(-1, self.k),
                wplus,
                classes,
                np.array([slot[tag] for tag in tags], dtype=np.int64),
            )
        return self._table

    def _weigh(self, t: KTuple, tag: str) -> float:
        if t in self.overrides:
            return self.overrides[t]
        raw = self.rule.value_for(tag)
        if isinstance(raw, tuple):
            lo, hi = raw
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=t))
            return lo + (hi - lo) * rng.random()
        return raw

    def w_plus(self, tup: Iterable[int]) -> float:
        t = self._checked(tup)
        # lexicographic rank of t among the k-subsets of [1..n]
        n, k = self.graph.n, self.k
        row = math.comb(n, k) - 1 - sum(math.comb(n - v, k - i) for i, v in enumerate(t))
        return float(self.tuple_table().wplus[row])

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
            if layer.lam < 0:
                raise InvalidParameterError(f"relevance factor must be >= 0, got {layer.lam}")
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
    try:
        k = int(cfg["k"])
        rules = cfg["rules"]
    except KeyError as exc:
        raise InvalidParameterError(f"weight layer config missing key {exc}") from exc
    overrides = {}
    for entry in cfg.get("overrides", []):
        *verts, wp = entry
        overrides[canonical_tuple(verts)] = float(wp)
    weights = MotifWeights(
        k,
        graph,
        WeightRule(rules),
        overrides,
        seed=int(cfg.get("seed", 0)),
        directed=cfg.get("directed"),
    )
    return Layer(k, weights, float(cfg.get("lambda", 1.0)))


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
