"""Every built LP row, checked against per-row reference builders.

The builders write their rows through one vectorized emitter.  The
references below write the same rows one at a time, the way the builders
did before the emitter, and the LPs must agree byte for byte: matrix
arrays and their dtypes, senses, rhs, row names, census, objective,
offset, columns and bounds.
"""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from motifcc import DirectedGraph, build_lp1, build_lp3, build_table1_weights
from motifcc.generators import fig2_weights, karate, make_fixture
from motifcc.graph import enumerate_ktuples
from motifcc.lpmodel import (
    LpProblem,
    VarId,
    add_triangle_rows,
    all_triangles,
    build_lp3_core,
    separate_triangles,
)
from motifcc.motifs import MixedWeights, MotifWeights, WeightRule


class RowList:
    """One row at a time: column indices, coefficients, ``<=`` and rhs."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.indices, self.data, self.indptr = [], [], [0]
        self.senses, self.rhs, self.names = [], [], []

    def add(self, name, cols, coeffs, rhs=0.0):
        self.indices.extend(cols)
        self.data.extend(coeffs)
        self.indptr.append(len(self.indices))
        self.senses.append(-1)
        self.rhs.append(rhs)
        self.names.append(name)

    def build(self):
        A = sp.csr_matrix(
            (
                np.array(self.data, dtype=float),
                np.array(self.indices, dtype=np.int64),
                np.array(self.indptr, dtype=np.int64),
            ),
            shape=(len(self.rhs), self.num_vars),
        )
        return A, np.array(self.senses, dtype=np.int8), np.array(self.rhs, dtype=float), self.names


def reference_build_lp1(weights: MotifWeights, n: int) -> LpProblem:
    k = weights.k
    tuples = list(map(tuple, weights.tuple_table().tuples.tolist()))
    var_ids = [VarId("tuple", t) for t in tuples]
    col = {t: j for j, t in enumerate(tuples)}
    wplus = weights.tuple_table().wplus
    rows = RowList(len(var_ids))
    tsets = [frozenset(t) for t in tuples]
    count = 0
    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            if not (tsets[i] & tsets[j]):
                continue
            for k3 in combinations(sorted(tsets[i] | tsets[j]), k):
                if k3 == tuples[i] or k3 == tuples[j]:
                    continue
                rows.add(f"ups{count}", (col[k3], col[tuples[i]], col[tuples[j]]), (1.0, -1.0, -1.0))
                count += 1
    A, senses, rhs, names = rows.build()
    return LpProblem(
        f"lp1_n{n}_k{k}",
        var_ids,
        2.0 * wplus - 1.0,
        float((1.0 - wplus).sum()),
        A,
        senses,
        rhs,
        names,
        census={"upsilon": count},
    )


def reference_build_lp3_core(mixed: MixedWeights, n: int) -> LpProblem:
    pairs = list(enumerate_ktuples(range(1, n + 1), 2))
    var_ids, base, layer_tuples = [], {}, {}
    for layer in mixed:
        if layer.k < 3:
            continue
        base[layer.k] = len(var_ids)
        layer_tuples[layer.k] = list(map(tuple, layer.weights.tuple_table().tuples.tolist()))
        var_ids.extend(VarId("tuple", t) for t in layer_tuples[layer.k])
    zbase = len(var_ids)
    zcol = {p: zbase + j for j, p in enumerate(pairs)}
    var_ids.extend(VarId("pair", p) for p in pairs)
    obj = np.zeros(len(var_ids))
    offset = 0.0
    for layer in mixed:
        wplus = layer.weights.tuple_table().wplus
        lo = base.get(layer.k, zbase)
        obj[lo : lo + len(wplus)] += layer.lam * (2.0 * wplus - 1.0)
        offset += layer.lam * float((1.0 - wplus).sum())
    rows = RowList(len(var_ids))
    census = {"pair_floor": 0, "pair_sum_cap": 0, "unit_cap": 0}
    for layer in mixed:
        k = layer.k
        if k < 3:
            continue
        for xj, t in enumerate(layer_tuples[k], start=base[k]):
            pair_cols = [zcol[p] for p in combinations(t, 2)]
            tn = "_".join(map(str, t))
            for p, zj in zip(combinations(t, 2), pair_cols):
                rows.add(f"pf_{tn}_{p[0]}_{p[1]}", (zj, xj), (1.0, -1.0))
            rows.add(f"ps_{tn}", (xj, *pair_cols), (float(k - 1), *([-1.0] * len(pair_cols))))
        census["pair_floor"] += len(layer_tuples[k]) * math.comb(k, 2)
        census["pair_sum_cap"] += len(layer_tuples[k])
        census["unit_cap"] += len(layer_tuples[k])
    census["triangle"] = 3 * math.comb(n, 3)
    if not any(l.k >= 3 for l in mixed):
        census = {"triangle": census["triangle"]}
    census["triangle_active"] = 0
    A, senses, rhs, names = rows.build()
    ks = "-".join(str(l.k) for l in mixed)
    return LpProblem(f"lp3_n{n}_k{ks}", var_ids, obj, offset, A, senses, rhs, names, census=census)


def reference_add_triangle_rows(core: LpProblem, triangles: np.ndarray) -> LpProblem:
    zcol = {vid.key: j for j, vid in enumerate(core.var_ids) if vid.kind == "pair"}
    rows = RowList(core.num_vars)
    for a, b, c, p in np.asarray(triangles).tolist():
        q, r = [v for v in (a, b, c) if v != p]
        cols = (zcol[(q, r)], zcol[tuple(sorted((p, q)))], zcol[tuple(sorted((p, r)))])
        rows.add(f"tri_{a}_{b}_{c}_a{p}", cols, (1.0, -1.0, -1.0))
    block, senses, rhs, names = rows.build()
    census = dict(core.census, triangle_active=core.census.get("triangle_active", 0) + len(names))
    return LpProblem(
        core.name,
        core.var_ids,
        core.obj,
        core.offset,
        sp.vstack([core.A, block], format="csr"),
        np.concatenate([core.senses, senses]),
        np.concatenate([core.rhs, rhs]),
        core.row_names + names,
        census=census,
        lb=core.lb,
        ub=core.ub,
    )


def assert_same_lp(got: LpProblem, want: LpProblem) -> None:
    assert got.name == want.name
    assert got.A.shape == want.A.shape
    for attr in ("data", "indices", "indptr"):
        g, w = getattr(got.A, attr), getattr(want.A, attr)
        assert g.dtype == w.dtype, attr
        assert g.tobytes() == w.tobytes(), attr
    for attr in ("senses", "rhs", "obj", "lb", "ub"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype, attr
        assert g.tobytes() == w.tobytes(), attr
    assert got.row_names == want.row_names
    assert got.census == want.census
    assert got.offset == want.offset
    assert got.var_ids == want.var_ids


# ------------------------------------------------------------------ cases


def planted_graph(n: int) -> DirectedGraph:
    """Undirected planted partition, four blocks, p_in 0.7, p_out 0.1."""
    rng = np.random.default_rng([0, n])
    blocks = np.arange(n) % 4
    rng.shuffle(blocks)
    draws = rng.random((n, n))
    edges = [
        (u + 1, v + 1)
        for u in range(n)
        for v in range(u + 1, n)
        if draws[u, v] < (0.7 if blocks[u] == blocks[v] else 0.1)
    ]
    return DirectedGraph.from_arcs(n, edges + [(v, u) for u, v in edges])


def directed_range_weights(n: int = 10) -> MotifWeights:
    """A directed Erdos-Renyi graph with range rules on its triples."""
    rng = np.random.default_rng([1, 1])
    draws = rng.random((n, n))
    arcs = [(u + 1, v + 1) for u in range(n) for v in range(n) if u != v and draws[u, v] < 0.25]
    rule = WeightRule(
        {
            "DirectedThreeCycle": 1.0,
            "DirectedThreeCycleWithBidirectional": (0.35, 0.55),
            "FeedForward": (0.35, 0.55),
            "OtherTriple": (0.35, 0.55),
        }
    )
    return MotifWeights(3, DirectedGraph.from_arcs(n, arcs), rule, seed=int(rng.integers(2**31)), directed=True)


def any_class_weights(k: int, n: int, seed: int) -> MotifWeights:
    """One class for every k-tuple, w+ drawn per tuple from [0, 1]."""
    graph = DirectedGraph.from_arcs(n, [])
    return MotifWeights(k, graph, WeightRule({"any": (0.0, 1.0)}), seed=seed, classifier=lambda g, t: "any")


def lp1_cases() -> dict:
    fig2a = make_fixture("fig2a", {}).graph
    fig2b = make_fixture("fig2b", {"n": 10}).graph
    return {
        "fig2a": (fig2_weights(fig2a).layers[0].weights, fig2a.n),
        "fig2b-mcc": (build_table1_weights("MCC", fig2b).layers[0].weights, fig2b.n),
        "directed-range": (directed_range_weights(), 10),
        "k4-n7": (any_class_weights(4, 7, seed=5), 7),
    }


def lp3_cases() -> dict:
    cases = {f"karate-{m}": (build_table1_weights(m, karate().graph), 34) for m in ("CC", "MCC", "MMCC")}
    for n in (16, 20, 22):
        cases[f"planted{n}-MMCC"] = (build_table1_weights("MMCC", planted_graph(n)), n)
    n = 8
    g = planted_graph(n)
    edge = WeightRule({"Edge": (0.5, 1.0), "NonEdge": (0.0, 0.5)})
    triple = WeightRule({"TriangleK3": (0.8, 1.0), "PathP3": (0.45, 0.75), "OtherTriple": (0.2, 0.5)})
    stack = [
        (2, MotifWeights(2, g, edge, seed=2), 1.0),
        (3, MotifWeights(3, g, triple, seed=3), 0.5),
        (4, any_class_weights(4, n, seed=4), 0.25),
    ]
    cases["k2+3+4"] = (MixedWeights(stack), n)
    return cases


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("case", sorted(lp1_cases()))
def test_lp1_equals_the_per_row_builder(case):
    weights, n = lp1_cases()[case]
    lp = build_lp1(weights, n)
    assert lp.num_rows > 0
    assert_same_lp(lp, reference_build_lp1(weights, n))


@pytest.mark.parametrize("case", sorted(lp3_cases()))
def test_lp3_core_and_full_equal_the_per_row_builders(case):
    mixed, n = lp3_cases()[case]
    want = reference_build_lp3_core(mixed, n)
    assert_same_lp(build_lp3_core(mixed, n), want)
    assert_same_lp(build_lp3(mixed, n), reference_add_triangle_rows(want, all_triangles(n)))


def test_separated_triangle_rows_equal_the_per_row_builder():
    mixed, n = lp3_cases()["planted16-MMCC"]
    core = build_lp3_core(mixed, n)
    rng = np.random.default_rng(2)
    tri = separate_triangles(core, rng.random(core.num_vars), 0.0)
    assert 0 < len(tri) < 3 * math.comb(n, 3)
    once = add_triangle_rows(core, tri[::2])
    assert_same_lp(once, reference_add_triangle_rows(core, tri[::2]))
    twice = add_triangle_rows(once, tri[1::2])
    assert_same_lp(twice, reference_add_triangle_rows(reference_add_triangle_rows(core, tri[::2]), tri[1::2]))
