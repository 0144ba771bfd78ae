"""Vertex tuples, graphs, partitions, and edge-list IO."""

import itertools
import math

import pytest

from motifcc import (
    DirectedGraph,
    InvalidParameterError,
    InvalidVertexError,
    MalformedPartitionError,
    Partition,
    canonical_tuple,
    enumerate_ktuples,
    load_edge_list,
    misassigned_vertices,
    rand_index,
    write_edge_list,
)


class TestCanonicalTuple:
    def test_sorts(self):
        assert canonical_tuple([3, 1, 2]) == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidParameterError):
            canonical_tuple([1, 1, 2])

    def test_rejects_short(self):
        with pytest.raises(InvalidParameterError):
            canonical_tuple([1])


class TestEnumerateKTuples:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3), (7, 4)])
    def test_count_matches_binomial(self, n, k):
        tuples = list(enumerate_ktuples(range(1, n + 1), k))
        assert len(tuples) == math.comb(n, k)
        assert len(set(tuples)) == len(tuples)
        assert all(t == tuple(sorted(t)) for t in tuples)

    def test_lexicographic_order(self):
        tuples = list(enumerate_ktuples([1, 2, 3, 4], 3))
        assert tuples == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidParameterError):
            list(enumerate_ktuples([1, 2, 3], 1))


class TestDirectedGraph:
    def test_from_arcs_and_queries(self):
        g = DirectedGraph.from_arcs(3, [(1, 2), (2, 1), (2, 3)])
        assert g.has_arc(1, 2) and g.has_arc(2, 1) and g.has_arc(2, 3)
        assert not g.has_arc(3, 2)
        assert g.adjacent(2, 3) and g.adjacent(3, 2)
        assert g.bidirectional(1, 2)
        assert not g.bidirectional(2, 3)

    def test_symmetry_flag(self):
        sym = DirectedGraph.from_arcs(2, [(1, 2), (2, 1)])
        asym = DirectedGraph.from_arcs(2, [(1, 2)])
        assert sym.is_symmetric
        assert not asym.is_symmetric

    def test_undirected_edges(self):
        g = DirectedGraph.from_arcs(3, [(1, 2), (2, 1), (3, 1)])
        assert sorted(g.undirected_edges()) == [(1, 2), (1, 3)]

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(InvalidVertexError):
            DirectedGraph.from_arcs(2, [(1, 3)])
        with pytest.raises(InvalidVertexError):
            DirectedGraph.from_arcs(2, [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            DirectedGraph.from_arcs(2, [(1, 1)])


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = DirectedGraph.from_arcs(4, [(1, 2), (3, 4), (4, 3)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        back = load_edge_list(path, n=4)
        assert back.arcs == g.arcs and back.n == g.n

    def test_undirected_load_mirrors(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3\n")
        g = load_edge_list(path, undirected=True)
        assert g.has_arc(2, 1) and g.has_arc(3, 2)
        assert g.is_symmetric

    def test_zero_based_shifts(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path, zero_based=True)
        assert g.has_arc(1, 2) and g.has_arc(2, 3)
        assert g.n == 3

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n1 2\n")
        g = load_edge_list(path)
        assert g.has_arc(1, 2)


class TestPartition:
    def test_from_cluster_list(self):
        p = Partition.from_cluster_list([[2, 1], [3]])
        assert p.n == 3
        assert p.clusters == (frozenset({1, 2}), frozenset({3}))
        assert p.same_cluster(1, 2)
        assert not p.same_cluster(1, 3)

    def test_missing_vertex_rejected(self):
        with pytest.raises(MalformedPartitionError):
            Partition.from_cluster_list([[1], [3]], n=3)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(MalformedPartitionError):
            Partition.from_cluster_list([[1, 2], [2, 3]])

    def test_singletons_and_one_cluster(self):
        s = Partition.singletons(4)
        assert len(s.clusters) == 4
        o = Partition.one_cluster(4)
        assert len(o.clusters) == 1

    def test_is_split(self):
        p = Partition.from_cluster_list([[1, 2], [3, 4]])
        assert not p.is_split((1, 2))
        assert p.is_split((1, 3))
        assert p.is_split((1, 2, 3))
        assert not p.is_split((3, 4))

    def test_is_split_brute_force(self):
        """P.is_split(T) false exactly when T's labels collapse to one."""
        from conftest import all_partitions

        for labels in all_partitions(5):
            p = Partition.from_assignment(labels, n=5)
            for tup in [(1, 2), (2, 5), (1, 3, 4), (2, 3, 4, 5)]:
                want = len({labels[v] for v in tup}) > 1
                assert p.is_split(tup) == want

    def test_labels_array_alignment(self):
        p = Partition.from_cluster_list([[1, 3], [2]])
        labs = p.labels_array()
        assert labs[0] == labs[2] != labs[1]


class TestRandIndex:
    def test_identical_is_one(self):
        p = Partition.from_cluster_list([[1, 2], [3]])
        assert rand_index(p, p) == pytest.approx(1.0)

    def test_hand_value(self):
        # pairs: (1,2) together/together, (1,3) split/split, (2,3) split/together
        p = Partition.from_cluster_list([[1, 2], [3]])
        q = Partition.from_cluster_list([[1], [2, 3]])
        assert rand_index(p, q) == pytest.approx(1.0 / 3.0)

    def test_brute_force_agreement(self):
        # rand index == fraction of unordered pairs on which both agree
        p = Partition.from_cluster_list([[1, 2, 3], [4, 5]])
        q = Partition.from_cluster_list([[1, 2], [3, 4], [5]])
        agree = 0
        for u, v in itertools.combinations(range(1, 6), 2):
            agree += p.same_cluster(u, v) == q.same_cluster(u, v)
        assert rand_index(p, q) == pytest.approx(agree / 10.0)


class TestMisassigned:
    def test_exact_match_empty(self):
        p = Partition.from_cluster_list([[1, 2], [3, 4]])
        assert misassigned_vertices(p, p) == []

    def test_single_moved_vertex(self):
        ref = Partition.from_cluster_list([[1, 2, 3], [4, 5, 6]])
        got = Partition.from_cluster_list([[1, 2, 3, 4], [5, 6]])
        assert misassigned_vertices(got, ref) == [4]

    def test_label_permutation_ignored(self):
        ref = Partition.from_cluster_list([[1, 2], [3, 4]])
        got = Partition.from_cluster_list([[3, 4], [1, 2]])
        assert misassigned_vertices(got, ref) == []
