"""Exhaustive reference solver and the partition enumerators behind it."""

import numpy as np
import pytest

from conftest import all_partitions, partitions_blocks
from motifcc.errors import InvalidParameterError, SizeLimitError
from motifcc.exact import (
    ClusteringReport,
    bell_number,
    exact_min_disagree,
    partitions_rgs,
)
from motifcc.graph import Partition
from motifcc.lpmodel import evaluate_objective
from motifcc.motifs import (
    MixedWeights,
    MotifWeights,
    WeightRule,
    build_table1_weights,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def fig2_style_weights(graph):
    rule = WeightRule({"TriangleK3": 1.0, "PathP3": 0.0, "OtherTriple": 0.0})
    return MixedWeights.single(MotifWeights(3, graph, rule))


class TestEnumerators:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_rgs_count_is_bell(self, n):
        assert sum(1 for _ in partitions_rgs(n)) == bell_number(n) == BELL[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rgs_and_blocks_agree(self, n):
        as_sets = lambda blocks: frozenset(frozenset(b) for b in blocks)
        from_rgs = set()
        for rgs in partitions_rgs(n):
            blocks = {}
            for i, lab in enumerate(rgs):
                blocks.setdefault(lab, []).append(i + 1)
            from_rgs.add(as_sets(blocks.values()))
        from_blocks = {as_sets(b) for b in partitions_blocks(n)}
        assert from_rgs == from_blocks
        assert len(from_rgs) == BELL[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conftest_enumerator_agrees_too(self, n):
        ours = {
            frozenset(frozenset(v for v, l in labels.items() if l == lab) for lab in set(labels.values()))
            for labels in all_partitions(n)
        }
        assert len(ours) == BELL[n]

    def test_rgs_is_lexicographic_and_valid(self):
        seen = list(partitions_rgs(4))
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))
        for a in seen:
            assert a[0] == 0
            for i in range(1, 4):
                assert a[i] <= 1 + max(a[:i])

    def test_bell_numbers(self):
        assert [bell_number(n) for n in range(10)] == BELL


class TestExactSearch:
    def test_two_triangles_reach_zero(self, two_triangle_graph):
        mixed = fig2_style_weights(two_triangle_graph)
        report = exact_min_disagree(mixed, 6)
        assert report.cost == pytest.approx(0.0)
        assert set(report.partition.clusters) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
        assert report.solver == "exact-enumeration"

    def test_matches_independent_brute_force(self, two_triangle_graph):
        mixed = build_table1_weights("MCC", two_triangle_graph)
        layer = mixed.layers[0]
        rows = [
            (tup, *layer.weights.resolve(tup), layer.lam)
            for tup in map(tuple, layer.weights.tuple_table().tuples.tolist())
        ]
        best = min(
            sum(
                lam * (wp if len({labels[v] for v in tup}) > 1 else wm)
                for tup, wp, wm, lam in rows
            )
            for labels in all_partitions(6)
        )
        report = exact_min_disagree(mixed, 6)
        assert report.cost == pytest.approx(best, abs=1e-9)

    def test_deterministic_tie_break(self, two_triangle_graph):
        mixed = fig2_style_weights(two_triangle_graph)
        a = exact_min_disagree(mixed, 6)
        b = exact_min_disagree(mixed, 6)
        assert a.partition.clusters == b.partition.clusters

    def test_cost_agrees_with_evaluate_objective(self, two_triangle_graph):
        mixed = build_table1_weights("CC", two_triangle_graph)
        report = exact_min_disagree(mixed, 6)
        assert report.cost == pytest.approx(evaluate_objective(report.partition, mixed))

    def test_mixed_layers(self, two_triangle_graph):
        mixed = build_table1_weights("MMCC", two_triangle_graph)
        report = exact_min_disagree(mixed, 6)
        costs = []
        for labels in all_partitions(6):
            part = Partition.from_assignment(labels, n=6)
            costs.append(evaluate_objective(part, mixed))
        assert report.cost == pytest.approx(min(costs), abs=1e-9)

    def test_size_cap(self, two_triangle_graph):
        mixed = fig2_style_weights(two_triangle_graph)
        with pytest.raises(SizeLimitError):
            exact_min_disagree(mixed, 6, cap=5)
        # raising the cap un-refuses the same instance
        assert exact_min_disagree(mixed, 6, cap=6).cost == pytest.approx(0.0)

    def test_vertex_count_other_than_the_graphs_rejected(self, two_triangle_graph):
        mixed = fig2_style_weights(two_triangle_graph)
        with pytest.raises(InvalidParameterError):
            exact_min_disagree(mixed, 5)
        with pytest.raises(InvalidParameterError):
            exact_min_disagree(mixed, 7)

    def test_small_batch_size_same_answer(self, two_triangle_graph):
        mixed = build_table1_weights("CC", two_triangle_graph)
        a = exact_min_disagree(mixed, 6)
        b = exact_min_disagree(mixed, 6, batch_size=7)
        assert a.cost == pytest.approx(b.cost)
        assert a.partition.clusters == b.partition.clusters

    def test_report_serializes(self, two_triangle_graph):
        mixed = fig2_style_weights(two_triangle_graph)
        d = exact_min_disagree(mixed, 6).to_json_dict()
        assert d["solver"] == "exact-enumeration"
        assert sorted(map(sorted, d["clusters"])) == [[1, 2, 3], [4, 5, 6]]
