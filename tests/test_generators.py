"""Built-in instances: structure, manifests, determinism, companion weights."""

import itertools
import json
import math

import pytest

from motifcc.errors import InvalidParameterError
from motifcc.generators import (
    ANOMALY_BLOCK,
    ANOMALY_BLOCK_ARCS,
    ANOMALY_N,
    GENERATORS,
    LAYERED_FLOW_CYCLES,
    LAYERED_FLOW_LAYERS,
    anomaly_weights,
    fig2_weights,
    karate,
    karate_factions,
    layered_flow_weights,
    make_anomaly,
    make_fig2a,
    make_fig2b,
    make_layered_flow,
)
from motifcc.graph import canonical_tuple, load_edge_list
from motifcc.motifs import MotifClass, classify


def undirected_triangles(graph):
    out = set()
    for t in itertools.combinations(range(1, graph.n + 1), 3):
        if classify(graph, t, directed=False) is MotifClass.TRIANGLE:
            out.add(t)
    return out


def clean_directed_cycles(graph):
    out = set()
    for t in itertools.combinations(range(1, graph.n + 1), 3):
        if classify(graph, t, directed=True) is MotifClass.DIRECTED_THREE_CYCLE:
            out.add(t)
    return out


class TestFig2a:
    def test_structure(self):
        fx = make_fig2a()
        g = fx.graph
        assert g.n == 6
        assert g.is_symmetric
        assert len(g.undirected_edges()) == 7
        assert undirected_triangles(g) == {(1, 2, 3), (4, 5, 6)}
        assert fx.manifest["generator"] == "fig2a"
        assert fx.manifest["positive_triples"] == [[1, 2, 3], [4, 5, 6]]

    def test_bridge_edge(self):
        g = make_fig2a().graph
        assert g.adjacent(1, 4)
        assert not g.adjacent(2, 5)


class TestFig2b:
    @pytest.mark.parametrize("n", [7, 10, 15])
    def test_structure(self, n):
        fx = make_fig2b(n)
        g = fx.graph
        assert g.n == n
        clique = math.comb(n - 3, 2)
        assert len(g.undirected_edges()) == 4 + clique
        tris = undirected_triangles(g)
        assert (1, 2, 3) in tris
        # clique triangles plus the standalone one; the bridge 3-4 adds none
        assert len(tris) == 1 + math.comb(n - 3, 3)
        assert fx.manifest["bridge"] == [3, 4]

    def test_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_fig2b(6)


class TestAnomaly:
    def test_block_is_seed_independent(self):
        a = make_anomaly(seed=1).graph
        b = make_anomaly(seed=99).graph
        block_arcs = lambda g: {
            (u, v) for u, v in g.arcs if u in ANOMALY_BLOCK and v in ANOMALY_BLOCK
        }
        assert block_arcs(a) == block_arcs(b) == set(ANOMALY_BLOCK_ARCS)

    def test_block_census(self):
        g = make_anomaly(seed=1).graph
        block = set(ANOMALY_BLOCK)
        cycles = {
            t
            for t in itertools.combinations(sorted(block), 3)
            if classify(g, t, directed=True) is MotifClass.DIRECTED_THREE_CYCLE
        }
        assert len(cycles) == 8
        for u, v in itertools.combinations(sorted(block), 2):
            assert not g.bidirectional(u, v)

    def test_block_outdegrees(self):
        outdeg = {v: 0 for v in ANOMALY_BLOCK}
        for u, _ in ANOMALY_BLOCK_ARCS:
            outdeg[u] += 1
        assert sorted(outdeg.values()) == [2, 2, 2, 3, 3, 3]
        # tournament identity: C(6,3) - sum C(d,2) counts the cyclic triples
        assert math.comb(6, 3) - sum(math.comb(d, 2) for d in outdeg.values()) == 8

    def test_attachment_pattern(self):
        g = make_anomaly(seed=1).graph
        outside = set(range(7, ANOMALY_N + 1))
        for i in ANOMALY_BLOCK:
            assert sum(1 for v in outside if g.has_arc(i, v)) == 4
            assert sum(1 for v in outside if g.has_arc(v, i)) == 2

    def test_seed_determinism(self):
        assert make_anomaly(seed=3).graph.arcs == make_anomaly(seed=3).graph.arcs
        assert make_anomaly(seed=3).graph.arcs != make_anomaly(seed=4).graph.arcs

    def test_manifest(self):
        m = make_anomaly(seed=5).manifest
        assert m["n"] == ANOMALY_N == 22
        assert m["seed"] == 5
        assert m["block_clean_cycles"] == 8


class TestLayeredFlow:
    def test_only_intra_layer_cycles(self):
        g = make_layered_flow().graph
        assert g.n == 10
        expected = {canonical_tuple(c) for c in LAYERED_FLOW_CYCLES}
        assert clean_directed_cycles(g) == expected

    def test_cycles_respect_layers(self):
        layer_of = {}
        for i, layer in enumerate(LAYERED_FLOW_LAYERS):
            for v in layer:
                layer_of[v] = i
        for cyc in LAYERED_FLOW_CYCLES:
            assert len({layer_of[v] for v in cyc}) == 1

    def test_back_arc_present(self):
        g = make_layered_flow().graph
        assert g.has_arc(7, 1)
        assert not g.has_arc(1, 7)


class TestKarate:
    def test_graph_shape(self):
        fx = karate()
        g = fx.graph
        assert g.n == 34
        assert g.is_symmetric
        assert len(g.undirected_edges()) == 78
        assert fx.manifest["faction_names"] == ["Mr. Hi", "Officer"]

    def test_factions_partition(self):
        part = karate_factions()
        assert part.n == 34
        sizes = sorted(len(c) for c in part.clusters)
        assert sizes == [16, 18]
        # the instructor and the club officer anchor opposite factions
        assert not part.same_cluster(1, 34)
        # individual 9 sided with the officers during the dispute
        assert part.same_cluster(9, 34)
        assert part.same_cluster(10, 34)

    def test_known_edges(self):
        g = karate().graph
        assert g.adjacent(1, 2)
        assert g.adjacent(33, 34)
        assert not g.adjacent(1, 34)


class TestGeneratorRegistry:
    def test_names(self):
        assert set(GENERATORS) == {"fig2a", "fig2b", "anomaly", "layered-flow", "karate"}

    def test_kwargs_pass_through(self):
        assert GENERATORS["fig2b"](n=8).graph.n == 8
        assert GENERATORS["anomaly"](seed=2).manifest["seed"] == 2
        assert GENERATORS["karate"]().graph.n == 34

    def test_write_and_reload(self, tmp_path):
        fx = make_fig2a()
        edges = tmp_path / "e.txt"
        manifest = tmp_path / "m.json"
        fx.write(edges, manifest)
        again = load_edge_list(edges)
        assert again.arcs == fx.graph.arcs
        assert json.loads(manifest.read_text())["generator"] == "fig2a"


class TestCompanionWeights:
    def test_fig2_weights(self):
        g = make_fig2a().graph
        mixed = fig2_weights(g)
        w = mixed.layers[0].weights
        assert w.w_plus((1, 2, 3)) == pytest.approx(1.0)
        assert w.w_plus((1, 2, 4)) == pytest.approx(0.0)

    def test_anomaly_weights(self):
        g = make_anomaly(seed=1).graph
        w = anomaly_weights(g).layers[0].weights
        assert w.w_plus((1, 2, 4)) == pytest.approx(1.0)  # block cycle 1->2->4->1
        # (1,2,3) is feed-forward (1->2->3 with shortcut 1->3), not a cycle
        assert w.w_plus((1, 2, 3)) <= 0.42

    def test_layered_flow_weights_jitter_deterministic(self):
        g = make_layered_flow().graph
        a = layered_flow_weights(g, jitter=(0.41, 0.48), seed=7).layers[0].weights
        b = layered_flow_weights(g, jitter=(0.41, 0.48), seed=7).layers[0].weights
        for t in [(1, 2, 4), (2, 5, 9), (3, 6, 10)]:
            assert a.w_plus(t) == pytest.approx(b.w_plus(t))
            assert 0.41 <= a.w_plus(t) <= 0.48
        cyc = a.w_plus((1, 2, 3))
        assert cyc == pytest.approx(1.0)
