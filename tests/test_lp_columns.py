"""LP columns as arrays (``lpmodel.Columns``): a ``VarId`` list becomes the
blocks ``build_lp3_core`` makes, what a built LP derives from its blocks equals
what the same LP built from that list gives, dumps keep their bytes, and
duplicate columns are refused."""

import hashlib
import io
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifcc import lpmodel, pipeline
from motifcc.errors import InvalidParameterError, InvalidVertexError
from motifcc.generators import fig2_weights, karate, make_fixture
from motifcc.graph import DirectedGraph, Partition
from motifcc.lpmodel import (
    Columns,
    FractionalSolution,
    LpProblem,
    VarId,
    build_lp1,
    build_lp1_core,
    build_lp2,
    build_lp3,
    build_lp3_core,
    drop_zero_cost_tuples,
    first_rows,
    induced_point,
)
from motifcc.motifs import Layer, MixedWeights, MotifWeights, WeightRule, build_table1_weights
from motifcc.rounding import _pair_matrix, _tuple_arrays

from test_lp_rows import any_class_weights, lp1_cases


def list_built(problem: LpProblem) -> LpProblem:
    """``problem`` with its columns given as the VarId list the builders
    made before the columns were arrays: tuple columns layer by layer, then
    every pair u < v."""
    var_ids = []
    for kind, keys in problem.columns.blocks:
        var_ids += [VarId(kind, tuple(map(int, key))) for key in keys]
    lp = LpProblem(problem.name, var_ids, problem.obj, problem.offset, (problem.data, problem.indices, problem.indptr),
                   problem.senses, problem.rhs, problem._row_names, census=problem.census)
    assert [(kind, keys.dtype, keys.tolist()) for kind, keys in lp.columns.blocks] == [
        (kind, np.dtype(np.int64), keys.tolist()) for kind, keys in problem.columns.blocks if len(keys)
    ]
    return lp


def reference_lift_groups(var_ids: list[VarId], dropped: np.ndarray, zc: np.ndarray) -> list:
    """(tuple columns, their pair columns) per tuple size of the dropped
    columns, read off their VarIds."""
    groups = []
    keys = [var_ids[j].key for j in dropped.tolist()]
    for k in sorted({len(key) for key in keys}):
        cols = np.array([j for j, key in zip(dropped.tolist(), keys) if len(key) == k], dtype=np.int64)
        tup = np.array([key for key in keys if len(key) == k], dtype=np.int64).reshape(-1, k)
        i, j = np.array(list(combinations(range(k), 2))).T
        groups.append((cols, zc[tup[:, i], tup[:, j]]))
    return groups


@st.composite
def random_mixed(draw) -> tuple[MixedWeights, int]:
    """Edge, triple and 4-tuple layers (a non-empty subset) on a random
    undirected graph; rules with a fixed w+ = 0.5 class leave some tuple
    columns at cost 0."""
    n = draw(st.integers(4, 8), label="n")
    pairs = list(combinations(range(1, n + 1), 2))
    edges = [p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    graph = DirectedGraph.from_arcs(n, edges + [(v, u) for u, v in edges])
    seed = draw(st.integers(0, 2**16), label="seed")
    layers = {
        2: MotifWeights(2, graph, WeightRule({"Edge": (0.5, 1.0), "NonEdge": 0.5}), seed=seed),
        3: MotifWeights(3, graph, WeightRule({"TriangleK3": (0.8, 1.0), "PathP3": 0.5, "OtherTriple": (0.0, 0.5)}),
                        seed=seed + 1),
        4: any_class_weights(4, n, seed),
    }
    ks = draw(st.lists(st.sampled_from(sorted(layers)), min_size=1, max_size=3, unique=True).map(sorted), label="ks")
    return MixedWeights([Layer(k, layers[k], 1.0 / k) for k in ks]), n


@settings(max_examples=40, deadline=None)
@given(case=random_mixed())
def test_block_columns_equal_the_list_built_ones(case):
    mixed, n = case
    core = build_lp3_core(mixed, n)
    ref = list_built(core)
    assert core.var_ids == ref.var_ids
    assert core.var_ids[: -n * (n - 1) // 2] == [
        VarId("tuple", tuple(t)) for layer in mixed if layer.k >= 3 for t in combinations(range(1, n + 1), layer.k)
    ]
    assert core.col_index == ref.col_index
    assert np.array_equal(core.pair_columns, ref.pair_columns)
    reduced, lift = drop_zero_cost_tuples(core)
    ref_reduced, ref_lift = drop_zero_cost_tuples(ref)
    assert reduced.var_ids == ref_reduced.var_ids
    assert reduced.col_index == ref_reduced.col_index
    assert np.array_equal(reduced.pair_columns, ref_reduced.pair_columns)
    assert np.array_equal(lift.kept, ref_lift.kept) and np.array_equal(lift.dropped, ref_lift.dropped)
    want = reference_lift_groups(core.var_ids, lift.dropped, core.pair_columns)
    for got in (lift._groups, ref_lift._groups):
        assert len(got) == len(want)
        for (cols, pair_cols), (ref_cols, ref_pair_cols) in zip(got, want):
            assert np.array_equal(cols, ref_cols) and np.array_equal(pair_cols, ref_pair_cols)
    # a point on the reduced LP lifts to the same point and views either way
    values = np.random.default_rng(n).random(reduced.num_vars)
    point = lift(FractionalSolution(reduced.columns, values, 0.5, "optimal"))
    ref_point = ref_lift(FractionalSolution(ref_reduced.var_ids, values, 0.5, "optimal"))
    assert point.var_ids == ref_point.var_ids == core.var_ids
    assert np.array_equal(point.values, ref_point.values)
    pairs = {vid.key: float(x) for vid, x in zip(core.var_ids, point.values) if vid.kind == "pair"}
    assert point.pair_values() == ref_point.pair_values() == pairs
    Z = np.zeros((n + 1, n + 1))
    for (u, v), x in pairs.items():
        Z[u, v] = Z[v, u] = x
    assert np.array_equal(_pair_matrix(point, n), Z)
    for layer in mixed:
        want = {vid.key: float(x) for vid, x in zip(core.var_ids, point.values) if vid.kind == "tuple" and len(vid.key) == layer.k}
        assert point.tuple_values(layer.k) == ref_point.tuple_values(layer.k) == want
        if want:  # the rounding's arrays, tuples in lexicographic order
            tuples, values, _ = _tuple_arrays(point, layer.k)
            assert tuples.tolist() == [list(t) for t in sorted(want)] and values.tolist() == [want[t] for t in sorted(want)]


def lp1_column_cases() -> dict:
    """``lp1_cases`` (k = 3 and 4) plus a k = 2 layer."""
    return {**lp1_cases(), "karate-CC": (build_table1_weights("CC", karate().graph).layers[0].weights, 34)}


@pytest.mark.parametrize("case", sorted(lp1_column_cases()))
def test_lp1_block_columns_equal_the_list_built_ones(case):
    weights, n = lp1_column_cases()[case]
    lp = build_lp1_core(weights, n)
    ref = list_built(lp)
    assert lp.var_ids == ref.var_ids == [VarId("tuple", t) for t in combinations(range(1, n + 1), weights.k)]
    assert lp.col_index == ref.col_index
    assert lp.pair_columns is None and ref.pair_columns is None
    assert drop_zero_cost_tuples(lp)[0] is lp


def dump_digest(problem: LpProblem) -> str:
    buf = io.StringIO()
    problem.to_text(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# sha256 of each LP's ``to_text`` as written when every column was a VarId
DUMP_DIGESTS = {
    "karate-MMCC-LP3": "b13e23fc6d75ecf52111295f5585fd4a5a9e1b8144a86bfe14140fa508106997",
    "karate-CC-LP3": "1caeef5b1fa5f6766414d8e90179bc77a3c50f73f0247338ba013e1835080b9b",
    "fig2a-LP1": "5dcd4de42dc0bb10fc95e5d10c69a11d264aec98ff5d339f95a4e70655b7836c",
    "fig2a-LP2": "006d3e5b0145bd6184fe57ad438dff835dfd9bf5110f0c073a12ae16d3e7d207",
    "karate-MMCC-reduced": "d8fd912e22b5816a5c7fe7149652a2fe6a18f526cbecc3b52d937b2577492fbc",
}


@pytest.mark.parametrize("case", sorted(DUMP_DIGESTS))
def test_dumps_keep_their_bytes(case):
    graph = karate().graph
    fig2a = make_fixture("fig2a", {}).graph
    build = {
        "karate-MMCC-LP3": lambda: build_lp3(build_table1_weights("MMCC", graph), graph.n),
        "karate-CC-LP3": lambda: build_lp3(build_table1_weights("CC", graph), graph.n),
        "fig2a-LP1": lambda: build_lp1(fig2_weights(fig2a).layers[0].weights, fig2a.n),
        "fig2a-LP2": lambda: build_lp2(fig2_weights(fig2a).layers[0].weights, fig2a.n),
        "karate-MMCC-reduced": lambda: drop_zero_cost_tuples(build_lp3_core(build_table1_weights("MMCC", graph), 34))[0],
    }
    assert dump_digest(build[case]()) == DUMP_DIGESTS[case]


class TestDuplicateColumns:
    def lp(self, columns, n: int) -> LpProblem:
        return LpProblem("dup", columns, np.zeros(n), 0.0, (np.empty(0), np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)),
                         [], [], [])

    def test_a_hand_built_list_with_a_repeated_column_is_refused(self):
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):
            self.lp([VarId.tuple_var((1, 2, 3)), VarId("named", ("a",)), VarId.tuple_var((3, 2, 1))], 3)

    def test_a_repeated_name_in_a_named_block_is_refused(self):
        self.lp([VarId("named", ("a",)), VarId("named", ("b",)), VarId.tuple_var((1, 2, 3))], 3)
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):
            self.lp([VarId("named", ("a",)), VarId("named", ("b",)), VarId("named", ("a",))], 3)
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):  # in two runs
            self.lp([VarId("named", ("a",)), VarId.tuple_var((1, 2, 3)), VarId("named", ("a",))], 3)
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):
            self.lp(Columns([("named", np.array([["a"], ["b"], ["a"]], dtype=object))]), 3)

    def test_blocks_with_a_repeated_key_are_refused(self):
        pairs = np.array([[1, 2], [1, 3], [2, 3]])
        triples = np.array([[1, 2, 3], [1, 2, 4]])
        self.lp(Columns([("tuple", triples), ("tuple", pairs), ("pair", pairs)]), 8)  # x_1_2 is no z_1_2
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):
            self.lp(Columns([("pair", pairs), ("pair", pairs[1:2])]), 4)
        with pytest.raises(InvalidParameterError, match="duplicate variable ids"):
            self.lp(Columns([("tuple", triples), ("tuple", triples[::-1])]), 4)


@settings(max_examples=30, deadline=None)
@given(case=random_mixed(), drop=st.booleans(), seed=st.integers(0, 2**16))
def test_columns_of_a_var_id_list_equal_the_built_blocks(case, drop, seed):
    mixed, n = case
    built = build_lp3_core(mixed, n, drop_zero_cost=drop).columns
    listed = Columns.of([VarId(vid.kind, vid.key) for vid in built])
    assert len(listed) == len(built)

    # build_lp3_core keeps the block of a layer whose every tuple it left out, and take keeps empty blocks
    def blocks(columns: Columns) -> list:
        return [(kind, keys.dtype, keys.tolist()) for kind, keys in columns.blocks if len(keys)]

    def groups(columns: Columns) -> dict:
        return {g: (cols.tolist(), keys.tolist()) for g, (cols, keys) in columns.groups.items() if len(cols)}

    assert all(len(keys) for _, keys in listed.blocks)  # no run of VarIds is empty
    assert blocks(listed) == blocks(built) and groups(listed) == groups(built)
    keep = np.sort(np.random.default_rng(seed).choice(len(built), size=len(built) // 2, replace=False))
    assert blocks(listed.take(keep)) == blocks(built.take(keep))
    assert groups(listed.take(keep)) == groups(built.take(keep))
    assert listed.take(keep).var_ids == built.take(keep).var_ids == [built[j] for j in keep.tolist()]


def test_a_dump_with_named_and_tuple_columns_round_trips():
    var_ids = [VarId.tuple_var((1, 2, 3)), VarId("named", ("slack",)), VarId("named", ("x_a",)),
               VarId.tuple_var((1, 2, 4)), VarId.pair_var(1, 2), VarId("named", ("y_2",))]
    rows = (np.array([1.0, -1.0, 2.0, 1.0, -1.0, 0.5]), np.array([0, 1, 2, 3, 4, 5]), np.array([0, 2, 6]))
    lp = LpProblem("mixed", var_ids, [1.0, 0.0, -0.5, 2.0, 0.0, 0.25], 1.5, rows, [-1, 1], [0.0, 1.0], ["r0", "r1"],
                   lb=[0.0, -1.0, 0.0, 0.0, 0.0, 0.0], ub=[1.0, 2.0, 1.0, 1.0, 1.0, 3.0])
    assert [(kind, keys.tolist()) for kind, keys in lp.columns.blocks] == [
        ("tuple", [[1, 2, 3]]), ("named", [["slack"], ["x_a"]]), ("tuple", [[1, 2, 4]]), ("pair", [[1, 2]]),
        ("named", [["y_2"]]),
    ]
    assert {g: cols.tolist() for g, (cols, _) in lp.columns.groups.items()} == {
        ("tuple", 3): [0, 3], ("named", 1): [1, 2, 5], ("pair", 2): [4],
    }
    text = io.StringIO()
    lp.to_text(text)
    back = LpProblem.from_text(io.StringIO(text.getvalue()), name="mixed")
    again = io.StringIO()
    back.to_text(again)
    assert again.getvalue() == text.getvalue()
    assert back.var_ids == var_ids
    assert [(kind, keys.tolist()) for kind, keys in back.columns.blocks] == [
        (kind, keys.tolist()) for kind, keys in lp.columns.blocks
    ]
    assert np.array_equal(back.lb, lp.lb) and np.array_equal(back.ub, lp.ub) and np.array_equal(back.obj, lp.obj)
    assert back.pair_columns[1, 2] == back.pair_columns[2, 1] == 4
    with pytest.raises(InvalidParameterError, match="free variable slack"):
        induced_point(Partition.from_cluster_list([[1, 2], [3, 4]]), back)


def test_an_induced_point_needs_every_key_in_the_partition():
    lp = build_lp2(fig2_weights(make_fixture("fig2a", {}).graph).layers[0].weights, 6)
    induced_point(Partition.from_cluster_list([[1, 2, 3], [4, 5, 6]]), lp)
    with pytest.raises(InvalidVertexError, match=r"\[1\.\.5\]"):
        induced_point(Partition.from_cluster_list([[1, 2, 3], [4, 5]]), lp)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 30), st.integers(1, 5)),
    top=st.sampled_from([1, 3, 40, 2**20, 2**40]),
    seed=st.integers(0, 2**16),
)
def test_first_rows_is_numpys_unique_over_rows(shape, top, seed):
    rows = np.random.default_rng(seed).integers(-2, top, size=shape, dtype=np.int64)
    assert np.array_equal(first_rows(rows), np.unique(rows, axis=0, return_index=True)[1])


def test_a_solve_enumerates_the_triangle_triples_once(monkeypatch):
    # every round and the check stage separate over the core's triple list
    calls = []
    real = lpmodel._triples
    monkeypatch.setattr(lpmodel, "_triples", lambda n: calls.append(n) or real(n))
    report = pipeline.run(pipeline.RunConfig(generator="karate", method="CC"))
    assert report.solver["row_rounds"] > 1
    assert calls == [34]
