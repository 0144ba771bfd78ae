"""Motif classification and weight resolution."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifcc import (
    DirectedGraph,
    InvalidParameterError,
    InvalidVertexError,
    Layer,
    MixedWeights,
    MotifClass,
    MotifWeights,
    UnsupportedMotifSizeError,
    WeightRule,
    build_table1_weights,
    classify,
    classify_pair,
    classify_triple,
    directed_cycle_rule,
    weights_from_config,
    weights_to_config,
)
from motifcc.graph import Partition
from motifcc.lpmodel import build_lp2, evaluate_objective, per_class_breakdown

from conftest import ref_classify_triple_directed, ref_tuple_weight


class TestClassifyPair:
    def test_edge_and_nonedge(self):
        g = DirectedGraph.from_arcs(3, [(1, 2)])
        assert classify_pair(g, (1, 2)) is MotifClass.EDGE
        assert classify_pair(g, (2, 1)) is MotifClass.EDGE  # order-insensitive
        assert classify_pair(g, (1, 3)) is MotifClass.NON_EDGE


class TestClassifyTripleUndirected:
    def test_all_degrees(self, two_triangle_graph):
        g = two_triangle_graph
        assert classify_triple(g, (1, 2, 3)) is MotifClass.TRIANGLE
        assert classify_triple(g, (1, 2, 4)) is MotifClass.PATH  # edges 1-2, 1-4
        assert classify_triple(g, (2, 5, 6)) is MotifClass.OTHER_TRIPLE  # one edge
        assert classify_triple(g, (2, 4, 5)) is MotifClass.OTHER_TRIPLE  # one edge

    def test_no_edges_is_other(self):
        g = DirectedGraph.from_arcs(4, [(1, 2), (2, 1)])
        assert classify_triple(g, (1, 3, 4)) is MotifClass.OTHER_TRIPLE


class TestClassifyTripleDirected:
    def test_exhaustive_against_reference(self):
        """All 64 arc configurations on 3 vertices against the oracle."""
        pairs = [(1, 2), (1, 3), (2, 3)]
        for states in itertools.product(range(4), repeat=3):
            arcs = []
            for (u, v), s in zip(pairs, states):
                if s in (1, 3):
                    arcs.append((u, v))
                if s in (2, 3):
                    arcs.append((v, u))
            if not arcs:
                continue
            g = DirectedGraph.from_arcs(3, arcs)
            got = classify_triple(g, (1, 2, 3), directed=True)
            want = ref_classify_triple_directed(set(arcs), (1, 2, 3))
            assert got.value == want, f"states={states} arcs={sorted(arcs)}"

    def test_known_shapes(self):
        cyc = DirectedGraph.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        assert classify_triple(cyc, (1, 2, 3)) is MotifClass.DIRECTED_THREE_CYCLE
        ff = DirectedGraph.from_arcs(3, [(1, 2), (1, 3), (2, 3)])
        assert classify_triple(ff, (1, 2, 3)) is MotifClass.FEED_FORWARD
        cyc_bidi = DirectedGraph.from_arcs(3, [(1, 2), (2, 3), (3, 1), (2, 1)])
        assert (
            classify_triple(cyc_bidi, (1, 2, 3))
            is MotifClass.DIRECTED_THREE_CYCLE_BIDIRECTIONAL
        )
        ff_bidi = DirectedGraph.from_arcs(3, [(1, 2), (2, 1), (1, 3), (2, 3)])
        assert classify_triple(ff_bidi, (1, 2, 3)) is MotifClass.OTHER_TRIPLE

    def test_vertex_order_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            arcs = [
                (u, v)
                for u, v in itertools.permutations((1, 2, 3), 2)
                if rng.random() < 0.5
            ]
            if not arcs:
                continue
            g = DirectedGraph.from_arcs(3, arcs)
            results = {
                classify_triple(g, perm, directed=True)
                for perm in itertools.permutations((1, 2, 3))
            }
            assert len(results) == 1

    def test_auto_view_follows_symmetry(self):
        sym = DirectedGraph.from_arcs(3, [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)])
        assert classify_triple(sym, (1, 2, 3)) is MotifClass.TRIANGLE
        asym = DirectedGraph.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        assert classify_triple(asym, (1, 2, 3)) is MotifClass.DIRECTED_THREE_CYCLE

    def test_wrong_size_rejected(self):
        g = DirectedGraph.from_arcs(4, [(1, 2)])
        with pytest.raises(UnsupportedMotifSizeError):
            classify_triple(g, (1, 2, 3, 4))


class TestClassifyDispatch:
    def test_k4_needs_classifier(self):
        g = DirectedGraph.from_arcs(4, [(1, 2)])
        with pytest.raises(UnsupportedMotifSizeError):
            classify(g, (1, 2, 3, 4))
        tag = classify(g, (1, 2, 3, 4), classifier=lambda graph, t: "Quad")
        assert tag == "Quad"


class TestWeightRule:
    def test_constant_validation(self):
        with pytest.raises(InvalidParameterError):
            WeightRule({"Edge": 1.2})
        with pytest.raises(InvalidParameterError):
            WeightRule({"Edge": (-0.1, 0.5)})

    def test_range_resolution_is_seeded(self):
        g = DirectedGraph.from_arcs(3, [(1, 2), (2, 1)])
        rule = WeightRule({"Edge": (0.4, 0.6), "NonEdge": 0.3})
        w1 = MotifWeights(2, g, rule, seed=11)
        w2 = MotifWeights(2, g, rule, seed=11)
        w3 = MotifWeights(2, g, rule, seed=12)
        a = w1.resolve((1, 2))[0]
        assert 0.4 <= a <= 0.6
        assert a == w2.resolve((1, 2))[0]
        assert a != w3.resolve((1, 2))[0]

    def test_missing_class_rejected(self):
        g = DirectedGraph.from_arcs(3, [(1, 2), (2, 1)])
        w = MotifWeights(2, g, WeightRule({"Edge": 1.0}))
        with pytest.raises(InvalidParameterError):
            w.resolve((1, 3))  # NonEdge has no entry


class TestMotifWeights:
    def test_probability_complement(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        for tup in [(1, 2, 3), (1, 2, 4), (1, 4, 5)]:
            wp, wm = w.resolve(tup)
            assert wp + wm == pytest.approx(1.0)

    def test_overrides_take_precedence(self, two_triangle_graph):
        w = MotifWeights(
            3,
            two_triangle_graph,
            WeightRule({"TriangleK3": 1.0, "PathP3": 0.5, "OtherTriple": 0.5}),
            overrides={(1, 2, 3): 0.25},
        )
        assert w.resolve((1, 2, 3))[0] == pytest.approx(0.25)
        assert w.resolve((4, 5, 6))[0] == pytest.approx(1.0)

    def test_tuple_table_alignment(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        tuples, wplus, _, _ = w.tuple_table()
        assert tuples.shape == (20, 3)
        # lexicographic tuple order
        assert tuples[0].tolist() == [1, 2, 3]
        assert tuples[-1].tolist() == [4, 5, 6]
        assert wplus[0] == pytest.approx(1.0)  # triangle 123


class TestTupleTable:
    DIRECTED_ARCS = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 4), (5, 6), (6, 2)]

    def cases(self, undirected):
        directed = DirectedGraph.from_arcs(6, self.DIRECTED_ARCS)
        triple_ranges = WeightRule({"TriangleK3": (0.8, 1.0), "PathP3": (0.45, 0.75), "OtherTriple": 0.2})
        return {
            "k2-undirected-constant": MotifWeights(2, undirected, WeightRule({"Edge": 1.0, "NonEdge": 0.47})),
            "k2-directed-range-override": MotifWeights(
                2, directed, WeightRule({"Edge": (0.5, 0.9), "NonEdge": (0.1, 0.4)}), {(2, 6): 0.3}, seed=5
            ),
            "k3-undirected-range-override": MotifWeights(3, undirected, triple_ranges, {(4, 5, 6): 0.1}, seed=3),
            "k3-directed-constant": MotifWeights(3, directed, directed_cycle_rule(0.41)),
            "k3-directed-range": MotifWeights(3, directed, directed_cycle_rule(jitter=(0.35, 0.55)), seed=9),
        }

    @pytest.mark.parametrize(
        "case",
        [
            "k2-undirected-constant",
            "k2-directed-range-override",
            "k3-undirected-range-override",
            "k3-directed-constant",
            "k3-directed-range",
        ],
    )
    def test_matches_per_tuple_reference(self, case, two_triangle_graph):
        w = self.cases(two_triangle_graph)[case]
        table = w.tuple_table()
        want = list(itertools.combinations(range(1, 7), w.k))
        assert table.tuples.tolist() == [list(t) for t in want]
        tags = []
        for i, t in enumerate(want):
            tag, wp = ref_tuple_weight(w, t)
            tags.append(tag)
            assert table.classes[table.class_idx[i]] == tag
            assert table.wplus[i] == wp
            assert w.resolve(t) == (wp, 1.0 - wp)
        assert table.classes == tuple(sorted(set(tags)))

    def test_each_tuple_classified_once(self, two_triangle_graph):
        """One classification pass per table, over every tuple in
        lexicographic order; the lookups after it classify nothing."""
        w = self.cases(two_triangle_graph)["k3-undirected-range-override"]
        passes, singles = [], []
        classify_all, classify_one = w.classify_tuples, w.classify
        w.classify_tuples = lambda tuples: passes.append(tuples.tolist()) or classify_all(tuples)
        w.classify = lambda t: singles.append(t) or classify_one(t)
        mixed = MixedWeights.single(w)
        part = Partition.from_cluster_list([[1, 2, 4], [3, 5, 6]])
        build_lp2(w, 6)
        evaluate_objective(part, mixed)
        per_class_breakdown(part, mixed)
        w.resolve((1, 2, 3))
        assert passes == [[list(t) for t in itertools.combinations(range(1, 7), 3)]]
        assert singles == []

    def test_override_vertex_outside_graph_rejected(self):
        g = DirectedGraph.from_arcs(4, [(1, 2), (2, 1)])
        cfg = {"k": 3, "rules": {"TriangleK3": 1.0, "PathP3": 0.5, "OtherTriple": 0.2}, "overrides": [[1, 2, 99, 0.9]]}
        with pytest.raises(InvalidVertexError):
            weights_from_config(cfg, g)

    def test_lookup_vertex_outside_graph_rejected(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        with pytest.raises(InvalidVertexError):
            w.w_plus((1, 2, 7))
        with pytest.raises(UnsupportedMotifSizeError):
            w.w_plus((1, 2))


class TestTable1:
    def test_cc_values(self, two_triangle_graph):
        mixed = build_table1_weights("CC", two_triangle_graph)
        assert len(mixed) == 1 and mixed.layers[0].k == 2
        w = mixed.layers[0].weights
        assert w.resolve((1, 2))[0] == pytest.approx(1.0)
        assert w.resolve((2, 5))[0] == pytest.approx(0.47)

    def test_mcc_values(self, two_triangle_graph):
        w = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        assert w.resolve((1, 2, 3))[0] == pytest.approx(1.0)
        assert w.resolve((1, 2, 4))[0] == pytest.approx(2.0 / 3.0)
        assert w.resolve((2, 5, 6))[0] == pytest.approx(0.49)

    def test_mmcc_layers(self, two_triangle_graph):
        mixed = build_table1_weights("MMCC", two_triangle_graph)
        assert [(l.k, l.lam) for l in mixed.layers] == [(2, 1.0), (3, 0.2)]
        edge = mixed.layers[0].weights
        triple = mixed.layers[1].weights
        assert edge.resolve((2, 5))[0] == pytest.approx(0.45)
        assert triple.resolve((2, 5, 6))[0] == pytest.approx(0.5)

    def test_unknown_method_rejected(self, two_triangle_graph):
        with pytest.raises(InvalidParameterError):
            build_table1_weights("XYZ", two_triangle_graph)

    def test_directed_graph_rejected(self):
        g = DirectedGraph.from_arcs(3, [(1, 2)])
        with pytest.raises(InvalidParameterError):
            build_table1_weights("CC", g)


class TestMixedWeights:
    def test_layer_order_enforced(self, two_triangle_graph):
        w2 = build_table1_weights("CC", two_triangle_graph).layers[0]
        w3 = build_table1_weights("MCC", two_triangle_graph).layers[0]
        with pytest.raises(InvalidParameterError):
            MixedWeights([w3, w2])  # k must ascend

    def test_negative_lambda_rejected(self, two_triangle_graph):
        w3 = build_table1_weights("MCC", two_triangle_graph).layers[0].weights
        with pytest.raises(InvalidParameterError):
            MixedWeights([Layer(3, w3, -1.0)])

    def test_k_star(self, two_triangle_graph):
        mixed = build_table1_weights("MMCC", two_triangle_graph)
        assert mixed.k_star == 3


class TestConfigRoundTrip:
    def test_round_trip(self, two_triangle_graph):
        mixed = build_table1_weights("MMCC", two_triangle_graph)
        cfg = weights_to_config(mixed)
        back = weights_from_config(cfg, two_triangle_graph)
        assert len(back) == len(mixed)
        for la, lb in zip(mixed.layers, back.layers):
            assert la.k == lb.k and la.lam == pytest.approx(lb.lam)
            ta, wa, _, _ = la.weights.tuple_table()
            tb, wb, _, _ = lb.weights.tuple_table()
            assert np.array_equal(ta, tb)
            assert np.allclose(wa, wb)

    def test_file_round_trip(self, tmp_path, two_triangle_graph):
        import json

        mixed = build_table1_weights("MCC", two_triangle_graph)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(weights_to_config(mixed)))
        back = weights_from_config(str(path), two_triangle_graph)
        assert back.k_star == 3

    def test_overrides_survive(self, two_triangle_graph):
        cfg = {
            "layers": [
                {
                    "k": 3,
                    "rules": {"TriangleK3": 1.0, "PathP3": 0.5, "OtherTriple": 0.5},
                    "overrides": [[1, 2, 3, 0.125]],
                    "lambda": 1.0,
                }
            ]
        }
        mixed = weights_from_config(cfg, two_triangle_graph)
        assert mixed.layers[0].weights.resolve((1, 2, 3))[0] == pytest.approx(0.125)


class TestDirectedCycleRule:
    def test_defaults(self):
        rule = directed_cycle_rule()
        assert rule.values["DirectedThreeCycle"] == pytest.approx(1.0)
        assert rule.values["OtherTriple"] == pytest.approx(0.45)

    def test_jitter_range(self):
        rule = directed_cycle_rule(jitter=(0.41, 0.48))
        assert rule.values["OtherTriple"] == (0.41, 0.48)


# -------------------------------------------------- array rule vs per-tuple

# The per-tuple rules the array rule (``classify_rows``) replaced, kept as
# the reference: one tuple at a time, through the graph's arc predicates.


def reference_classify_pair(graph, pair) -> MotifClass:
    u, v = sorted(pair)
    return MotifClass.EDGE if graph.adjacent(u, v) else MotifClass.NON_EDGE


def reference_classify_triple(graph, tup, directed=None) -> MotifClass:
    a, b, c = sorted(tup)
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


def reference_table(w: MotifWeights):
    """(tuples, wplus, classes, class_idx) built one tuple at a time: the
    override if there is one, else the class rule (a missing entry raises
    at the first non-overridden tuple of that class)."""
    tuples = list(itertools.combinations(range(1, w.graph.n + 1), w.k))
    if w.k == 2:
        tags = [reference_classify_pair(w.graph, t).value for t in tuples]
    else:
        tags = [reference_classify_triple(w.graph, t, w.directed).value for t in tuples]
    classes = tuple(sorted(set(tags)))
    wplus = []
    for t, tag in zip(tuples, tags):
        if t in w.overrides:
            wplus.append(w.overrides[t])
            continue
        raw = w.rule.value_for(tag)
        if isinstance(raw, tuple):
            lo, hi = raw
            rng = np.random.default_rng(np.random.SeedSequence(w.seed, spawn_key=t))
            raw = lo + (hi - lo) * rng.random()
        wplus.append(raw)
    return tuples, np.array(wplus, dtype=float), classes, [classes.index(tag) for tag in tags]


PAIR_TAGS = ["Edge", "NonEdge"]
TRIPLE_TAGS = [c.value for c in MotifClass if c.value not in PAIR_TAGS]


@st.composite
def weight_cases(draw):
    n = draw(st.integers(3, 12))
    undirected = draw(st.booleans())
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < density]
    if undirected:
        arcs += [(v, u) for u, v in arcs]
    graph = DirectedGraph.from_arcs(n, arcs)
    k = draw(st.sampled_from([2, 3]))
    rule = {}
    for tag in PAIR_TAGS if k == 2 else TRIPLE_TAGS:
        kind = draw(st.sampled_from(["missing", "constant", "range"]))
        lo, hi = sorted(draw(st.tuples(st.floats(0, 1), st.floats(0, 1))))
        if kind == "constant":
            rule[tag] = lo
        elif kind == "range":
            rule[tag] = (lo, hi)
    tuples = list(itertools.combinations(range(1, n + 1), k))
    chosen = draw(st.lists(st.sampled_from(tuples), unique=True, max_size=len(tuples)))
    overrides = {t: draw(st.floats(0, 1)) for t in chosen}
    directed = draw(st.sampled_from([None, True, False]))
    return MotifWeights(k, graph, WeightRule(rule), overrides, seed=draw(st.integers(0, 2**31)), directed=directed)


def outcome(build):
    try:
        return build()
    except InvalidParameterError as exc:
        return type(exc), str(exc)


class TestArrayRule:
    @settings(max_examples=150, deadline=None)
    @given(weight_cases())
    def test_table_equals_the_per_tuple_rules(self, w):
        def array_table():
            tuples, wplus, classes, class_idx = w.tuple_table()
            return [tuple(t) for t in tuples.tolist()], wplus, classes, class_idx.tolist()

        got, want = outcome(array_table), outcome(lambda: reference_table(w))
        if isinstance(want[1], str):  # the missing-class error
            assert got == want
            return
        assert got[0] == want[0] and got[2:] == want[2:]
        assert got[1].tobytes() == want[1].tobytes()
        classify_k = classify_pair if w.k == 2 else (lambda g, t: classify_triple(g, t, directed=w.directed))
        reference_k = (
            reference_classify_pair if w.k == 2 else (lambda g, t: reference_classify_triple(g, t, w.directed))
        )
        for t in want[0]:
            assert classify_k(w.graph, t) is reference_k(w.graph, t)
            assert w.classify(t) == reference_k(w.graph, t).value

    def test_override_on_a_class_the_rule_lacks(self, two_triangle_graph):
        paths = [t for t in itertools.combinations(range(1, 7), 3)
                 if reference_classify_triple(two_triangle_graph, t) is MotifClass.PATH]
        rule = WeightRule({"TriangleK3": 1.0, "OtherTriple": (0.2, 0.4)})
        w = MotifWeights(3, two_triangle_graph, rule, {t: 0.7 for t in paths}, seed=4)
        table = w.tuple_table()
        assert "PathP3" in table.classes
        assert table.wplus.tobytes() == reference_table(w)[1].tobytes()
        partial = MotifWeights(3, two_triangle_graph, rule, {t: 0.7 for t in paths[1:]}, seed=4)
        with pytest.raises(InvalidParameterError, match="PathP3"):
            partial.tuple_table()

    def test_missing_class_error_names_the_first_tuple_that_needs_it(self, two_triangle_graph):
        # (1, 2, 3) is a triangle, (1, 2, 4) a path: both classes lack a rule
        rule = WeightRule({"OtherTriple": 0.5})
        for overrides, named in (({}, "TriangleK3"), ({(1, 2, 3): 0.9}, "PathP3")):
            w = MotifWeights(3, two_triangle_graph, rule, overrides)
            with pytest.raises(InvalidParameterError, match=named):
                w.tuple_table()
            with pytest.raises(InvalidParameterError, match=named):
                reference_table(w)

    def test_vertex_outside_the_graph_rejected(self):
        g = DirectedGraph.from_arcs(3, [(1, 2)])
        with pytest.raises(InvalidVertexError):
            classify_pair(g, (1, 4))
        with pytest.raises(InvalidVertexError):
            classify_triple(g, (0, 1, 2))
