"""Instance generators for the worked examples and experiments.

Every generator is deterministic given its arguments and returns a Fixture
carrying the graph plus a manifest dict (recorded next to emitted edge
lists by the CLI).  Vertex labels are 1-based everywhere; the anomaly
instance is conventionally described 0-based elsewhere, so its manifest
records the +1 shift.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidParameterError
from .graph import DirectedGraph, Partition, write_edge_list
from .motifs import (
    MixedWeights,
    MotifClass,
    MotifWeights,
    WeightRule,
    directed_cycle_rule,
)


@dataclass(frozen=True)
class Fixture:
    graph: DirectedGraph
    manifest: dict

    def write(self, edges_path, manifest_path=None) -> None:
        write_edge_list(self.graph, edges_path, header=self.manifest.get("generator", "fixture"))
        if manifest_path is not None:
            with open(manifest_path, "w", encoding="utf-8") as fh:
                json.dump(self.manifest, fh, indent=1, sort_keys=True)
                fh.write("\n")


def _symmetric(n: int, edges) -> DirectedGraph:
    arcs = set()
    for u, v in edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return DirectedGraph.from_arcs(n, arcs)


def make_fig2a() -> Fixture:
    """Two positive triangles {1,2,3} and {4,5,6} bridged by edge 1-4."""
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4)]
    return Fixture(
        _symmetric(6, edges),
        {
            "generator": "fig2a",
            "n": 6,
            "positive_edges": sorted(edges),
            "positive_triples": [[1, 2, 3], [4, 5, 6]],
        },
    )


def make_fig2b(n: int) -> Fixture:
    """Triangle {1,2,3}, bridge 3-4, and a positive clique on {4..n}."""
    if n < 7:
        raise InvalidParameterError(f"fig2b needs n >= 7, got {n}")
    edges = [(1, 2), (1, 3), (2, 3), (3, 4)]
    edges += [(u, v) for u in range(4, n + 1) for v in range(u + 1, n + 1)]
    return Fixture(
        _symmetric(n, edges),
        {
            "generator": "fig2b",
            "n": n,
            "triangle": [1, 2, 3],
            "bridge": [3, 4],
            "clique": list(range(4, n + 1)),
        },
    )


#: Block arcs of the anomaly instance: the circulant tournament on {1..5}
#: (i beats i+1 and i+2, cyclically) plus vertex 6 beating {1,2,3} and
#: losing to {4,5}.  Outdegrees (3,3,3,2,2,2) make the cyclic-triple count
#: C(6,3) - sum C(d,2) = 20 - 12 = 8, and a tournament has no
#: bidirectional pair.
ANOMALY_BLOCK_ARCS = (
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (1, 3), (2, 4), (3, 5), (4, 1), (5, 2),
    (6, 1), (6, 2), (6, 3), (4, 6), (5, 6),
)
ANOMALY_BLOCK = (1, 2, 3, 4, 5, 6)
ANOMALY_N = 22


def make_anomaly(seed: int = 1) -> Fixture:
    """22 vertices: the 6-vertex anomaly block (8 clean directed 3-cycles,
    no bidirectional pairs) wired 4-out/2-in per block vertex into the
    outside vertices {7..22}, whose own arcs are directed ER(p=0.25).

    Attachments keep the anomaly's cycle structure confined to the block:
    block out-arcs land in the pool {7..14} and block in-arcs come from
    {15..22}, so no directed 3-cycle can pass through two block vertices,
    and each vertex's choice additionally avoids closing a 3-cycle through
    a single ER arc.  The block topology is fixed; the outside region and
    the attachment choice depend on the seed.
    """
    rng = np.random.default_rng(seed)
    arcs = set(ANOMALY_BLOCK_ARCS)
    out_pool = list(range(7, 15))
    in_pool = list(range(15, ANOMALY_N + 1))
    outside = out_pool + in_pool
    for u in outside:
        for v in outside:
            if u < v:
                if rng.random() < 0.25:
                    arcs.add((u, v))
                if rng.random() < 0.25:
                    arcs.add((v, u))
    # a one-way ER arc a -> b from the out pool to the in pool closes the
    # clean cycle u -> a -> b -> u if u attaches to both; skip such pairs
    single = {
        (a, b)
        for a in out_pool
        for b in in_pool
        if (a, b) in arcs and (b, a) not in arcs
    }
    for u in ANOMALY_BLOCK:
        choice = None
        for _ in range(200):
            ins = [int(v) for v in rng.choice(in_pool, size=2, replace=False)]
            blocked = {a for a, b in single if b in ins}
            avail = [a for a in out_pool if a not in blocked]
            if len(avail) >= 4:
                outs = [int(v) for v in rng.choice(avail, size=4, replace=False)]
                choice = (ins, outs)
                break
        if choice is None:
            ins = [int(v) for v in rng.choice(in_pool, size=2, replace=False)]
            outs = [int(v) for v in rng.choice(out_pool, size=4, replace=False)]
            choice = (ins, outs)
        ins, outs = choice
        arcs.update((u, o) for o in outs)
        arcs.update((i, u) for i in ins)
    return Fixture(
        DirectedGraph.from_arcs(ANOMALY_N, arcs),
        {
            "generator": "anomaly",
            "n": ANOMALY_N,
            "seed": seed,
            "block": list(ANOMALY_BLOCK),
            "block_arcs": sorted(ANOMALY_BLOCK_ARCS),
            "block_clean_cycles": 8,
            "er_p": 0.25,
            "attachment_out_pool": out_pool,
            "attachment_in_pool": in_pool,
            "label_shift": "vertex i here = vertex i-1 in 0-based descriptions",
        },
    )


#: Feedback 3-cycles of the layered-flow fixture, one per layer unit.
LAYERED_FLOW_CYCLES = ((1, 2, 3), (4, 5, 6), (4, 5, 7), (8, 9, 10))
LAYERED_FLOW_LAYERS = ((1, 2, 3), (4, 5, 6, 7), (8, 9, 10))


def make_layered_flow() -> Fixture:
    """Three layers with internal feedback 3-cycles, forward arcs between
    consecutive layers, and one long back-arc 7->1.  By construction the
    only directed 3-cycles are the four intra-layer ones."""
    arcs = [
        (1, 2), (2, 3), (3, 1),          # layer 1 cycle
        (4, 5), (5, 6), (6, 4),          # layer 2 cycles (sharing 4->5)
        (5, 7), (7, 4),
        (8, 9), (9, 10), (10, 8),        # layer 3 cycle
        (2, 4), (3, 5),                  # forward flow 1 -> 2
        (6, 8), (7, 9),                  # forward flow 2 -> 3
        (7, 1),                          # long feedback arc
    ]
    return Fixture(
        DirectedGraph.from_arcs(10, arcs),
        {
            "generator": "layered-flow",
            "n": 10,
            "layers": [list(l) for l in LAYERED_FLOW_LAYERS],
            "cycles": [list(c) for c in LAYERED_FLOW_CYCLES],
            "forward_arcs": [[2, 4], [3, 5], [6, 8], [7, 9]],
            "back_arc": [7, 1],
        },
    )


def karate() -> Fixture:
    """The 34-vertex / 78-edge karate club graph from the packaged edge
    list, with the two-faction ground truth in the manifest."""
    data = resources.files("motifcc.data")
    arcs = set()
    for line in (data / "karate_edges.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v = map(int, line.split())
        arcs.add((u, v))
        arcs.add((v, u))
    factions = json.loads((data / "karate_factions.json").read_text())
    return Fixture(
        DirectedGraph.from_arcs(34, arcs),
        {
            "generator": "karate",
            "n": 34,
            "edges": 78,
            "factions": factions["clusters"],
            "faction_names": factions["names"],
        },
    )


def karate_factions() -> Partition:
    """Faction alignment during the dispute (not post-split club choice):
    individual 9 sided with the officers' faction even though he joined
    the instructor's club afterwards, so 9 belongs to the second group."""
    fx = karate()
    return Partition.from_cluster_list(fx.manifest["factions"], n=34)


GENERATORS = {
    "fig2a": make_fig2a,
    "fig2b": lambda n=10: make_fig2b(int(n)),
    "anomaly": lambda seed=1: make_anomaly(int(seed)),
    "layered-flow": make_layered_flow,
    "karate": karate,
}


def make_fixture(name: str, args: dict) -> Fixture:
    """``GENERATORS[name](**args)``; an unknown name, an argument the
    generator does not take or a value it cannot use raises
    InvalidParameterError."""
    if name not in GENERATORS:
        raise InvalidParameterError(f"unknown generator {name!r}; have {sorted(GENERATORS)}")
    takes = inspect.signature(GENERATORS[name]).parameters
    unknown = sorted(set(args) - set(takes))
    if unknown:
        raise InvalidParameterError(
            f"generator {name} takes no argument {', '.join(map(repr, unknown))} "
            f"(it takes {sorted(takes) or 'none'})"
        )
    try:
        return GENERATORS[name](**args)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"generator {name} arguments {args}: {exc}") from exc


# ------------------------------------------------------- companion weights


def fig2_weights(graph: DirectedGraph) -> MixedWeights:
    """Triangles positive (1,0), every other triple negative (0,1)."""
    rule = WeightRule(
        {MotifClass.TRIANGLE: 1.0, MotifClass.PATH: 0.0, MotifClass.OTHER_TRIPLE: 0.0}
    )
    return MixedWeights.single(MotifWeights(3, graph, rule))


def anomaly_weights(graph: DirectedGraph, other_weight: float = 0.41) -> MixedWeights:
    """Clean directed 3-cycles at w+ = 1; every other triple below 0.42."""
    return MixedWeights.single(
        MotifWeights(3, graph, directed_cycle_rule(other_weight), directed=True)
    )


def layered_flow_weights(
    graph: DirectedGraph,
    other_weight: float = 0.45,
    jitter: tuple[float, float] | None = None,
    seed: int = 0,
) -> MixedWeights:
    """Clean directed 3-cycles at w+ = 1; other triples at a constant (or
    seeded per-triple draw from ``jitter``, e.g. (0.41, 0.48))."""
    return MixedWeights.single(
        MotifWeights(
            3, graph, directed_cycle_rule(other_weight, jitter), seed=seed, directed=True
        )
    )
