"""LP construction: variables, constraint families, dumps, induced points."""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifcc import (
    DirectedGraph,
    FractionalSolution,
    Partition,
    SizeLimitError,
    VarId,
    build_lp1,
    build_lp2,
    build_lp3,
    build_table1_weights,
    count_upsilon,
    evaluate_objective,
    induced_point,
    per_class_breakdown,
    verify_solution,
)
from motifcc.generators import karate
from motifcc.lpmodel import (
    LpProblem,
    add_triangle_rows,
    all_triangles,
    build_lp3_core,
    drop_zero_cost_tuples,
    separate_triangles,
)
from motifcc.motifs import Layer, MixedWeights, MotifWeights, WeightRule, directed_cycle_rule

from conftest import all_partitions, brute_force_cost, ref_tuple_weight


def brute_force_upsilon(n: int, k: int) -> int:
    """Count ordered-up-to-swap triples (K1, K2, K3): K1, K2 distinct
    overlapping k-sets, K3 a k-subset of their union distinct from both."""
    verts = range(1, n + 1)
    ksets = [frozenset(c) for c in itertools.combinations(verts, k)]
    count = 0
    for K1, K2 in itertools.combinations(ksets, 2):
        if not (K1 & K2):
            continue
        union = K1 | K2
        for K3 in itertools.combinations(sorted(union), k):
            K3 = frozenset(K3)
            if K3 != K1 and K3 != K2:
                count += 1
    return count


class TestVarId:
    def test_names(self):
        assert VarId.tuple_var((3, 1, 2)).name == "x_1_2_3"
        assert VarId.pair_var(2, 1).name == "z_1_2"

    def test_from_name_round_trip(self):
        for vid in [VarId.tuple_var((1, 2, 3)), VarId.pair_var(4, 7)]:
            assert VarId.from_name(vid.name) == vid


class TestCountUpsilon:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_brute_force_k3(self, n):
        assert count_upsilon(n, 3) == brute_force_upsilon(n, 3)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (5, 4), (6, 4)])
    def test_matches_brute_force_other_k(self, n, k):
        assert count_upsilon(n, k) == brute_force_upsilon(n, k)

    def test_n4_k3_is_twelve(self):
        assert count_upsilon(4, 3) == 12

    def test_k2_reduces_to_triangle_count(self):
        for n in (3, 5, 8):
            assert count_upsilon(n, 2) == 3 * math.comb(n, 3)


@pytest.fixture
def mcc_weights(two_triangle_graph):
    return build_table1_weights("MCC", two_triangle_graph)


@pytest.fixture
def mmcc_weights(two_triangle_graph):
    return build_table1_weights("MMCC", two_triangle_graph)


class TestBuildLp1:
    def test_shape(self, mcc_weights):
        lp = build_lp1(mcc_weights.layers[0].weights, 6)
        assert lp.num_vars == math.comb(6, 3)
        assert lp.num_rows == count_upsilon(6, 3)
        assert lp.census == {"upsilon": count_upsilon(6, 3)}
        assert np.all(lp.senses == -1)
        assert np.all(lp.rhs == 0.0)

    def test_row_structure(self, mcc_weights):
        lp = build_lp1(mcc_weights.layers[0].weights, 6)
        for row in itertools.islice(lp.iter_constraints(), 50):
            coeffs = sorted(c for _, c in row.terms)
            assert coeffs == [-1.0, -1.0, 1.0]
            (k3,) = [vid for vid, c in row.terms if c == 1.0]
            k1, k2 = [vid for vid, c in row.terms if c == -1.0]
            s1, s2, s3 = set(k1.key), set(k2.key), set(k3.key)
            assert s1 & s2
            assert s3 <= (s1 | s2)
            assert s3 != s1 and s3 != s2

    def test_cap_enforced(self, mcc_weights):
        with pytest.raises(SizeLimitError):
            build_lp1(mcc_weights.layers[0].weights, 6, max_constraints=100)

    def test_objective_coefficients(self, mcc_weights):
        lp = build_lp1(mcc_weights.layers[0].weights, 6)
        w = mcc_weights.layers[0].weights
        offset = 0.0
        for j, vid in enumerate(lp.var_ids):
            wp, wm = w.resolve(vid.key)
            assert lp.obj[j] == pytest.approx(2.0 * wp - 1.0)
            offset += wm
        assert lp.offset == pytest.approx(offset)


class TestBuildLp2:
    def test_census_formula(self, mcc_weights):
        n, k = 6, 3
        lp = build_lp2(mcc_weights.layers[0].weights, n)
        assert lp.census["pair_floor"] == math.comb(n, k) * math.comb(k, 2)
        assert lp.census["pair_sum_cap"] == math.comb(n, k)
        assert lp.census["unit_cap"] == math.comb(n, k)
        assert lp.census["triangle"] == 3 * math.comb(n, 3)
        assert lp.structural_constraint_count == math.comb(n, k) * (
            math.comb(k, 2) + 2
        ) + 3 * math.comb(n, 3)
        # unit caps live in the variable bounds, not in rows
        assert lp.num_rows == lp.structural_constraint_count - lp.census["unit_cap"]

    def test_variable_layout(self, mcc_weights):
        lp = build_lp2(mcc_weights.layers[0].weights, 6)
        kinds = [vid.kind for vid in lp.var_ids]
        assert kinds == ["tuple"] * math.comb(6, 3) + ["pair"] * math.comb(6, 2)

    def test_pair_rows(self, mcc_weights):
        lp = build_lp2(mcc_weights.layers[0].weights, 6)
        rows = {row.name: row for row in lp.iter_constraints()}
        # z_uv - x_K <= 0 for each pair in each tuple
        r = rows["pf_1_2_3_1_2"]
        terms = {vid.name: c for vid, c in r.terms}
        assert terms == {"z_1_2": 1.0, "x_1_2_3": -1.0}
        assert r.sense == "<=" and r.rhs == 0.0
        # (k-1) x_K - sum z <= 0
        r = rows["ps_1_2_3"]
        terms = {vid.name: c for vid, c in r.terms}
        assert terms == {"x_1_2_3": 2.0, "z_1_2": -1.0, "z_1_3": -1.0, "z_2_3": -1.0}

    def test_triangle_rows(self, mcc_weights):
        lp = build_lp2(mcc_weights.layers[0].weights, 6)
        rows = {row.name: row for row in lp.iter_constraints()}
        # z_bc <= z_ab + z_ac with apex a
        r = rows["tri_1_2_3_a1"]
        terms = {vid.name: c for vid, c in r.terms}
        assert terms == {"z_2_3": 1.0, "z_1_2": -1.0, "z_1_3": -1.0}


class TestBuildLp3:
    def test_single_k3_layer_matches_lp2(self, mcc_weights):
        lp2 = build_lp2(mcc_weights.layers[0].weights, 6)
        lp3 = build_lp3(mcc_weights, 6)
        assert [v.name for v in lp2.var_ids] == [v.name for v in lp3.var_ids]
        assert np.allclose(lp2.obj, lp3.obj)
        assert lp2.offset == pytest.approx(lp3.offset)
        assert lp2.row_names == lp3.row_names
        assert (lp2.A != lp3.A).nnz == 0
        assert np.array_equal(lp2.senses, lp3.senses)

    def test_mixed_layers_objective(self, mmcc_weights, two_triangle_graph):
        lp = build_lp3(mmcc_weights, 6)
        # k=2 layer contributes to z coefficients with lambda weighting
        edge_layer, triple_layer = mmcc_weights.layers
        j = lp.index_of(VarId.pair_var(1, 2))
        wp, _ = edge_layer.weights.resolve((1, 2))
        assert lp.obj[j] == pytest.approx(edge_layer.lam * (2 * wp - 1))
        want_offset = sum(
            layer.lam * layer.weights.resolve(t)[1]
            for layer in mmcc_weights.layers
            for t in itertools.combinations(range(1, 7), layer.k)
        )
        assert lp.offset == pytest.approx(want_offset)

    def test_k2_only_has_just_triangles(self, two_triangle_graph):
        cc = build_table1_weights("CC", two_triangle_graph)
        lp = build_lp3(cc, 6)
        assert lp.census == {"triangle": 3 * math.comb(6, 3), "triangle_active": 3 * math.comb(6, 3)}
        assert all(vid.kind == "pair" for vid in lp.var_ids)


def _core_and_full(n: int, with_tuples: bool) -> tuple[LpProblem, LpProblem]:
    mixed = build_table1_weights("MCC" if with_tuples else "CC", DirectedGraph.from_arcs(n, []))
    return build_lp3_core(mixed, n), build_lp3(mixed, n)


class TestTriangleRows:
    def test_canonical_order_is_the_full_builders(self, mcc_weights):
        lp = build_lp2(mcc_weights.layers[0].weights, 6)
        tri = all_triangles(6)
        assert len(tri) == lp.census["triangle"] == lp.census["triangle_active"]
        names = [f"tri_{a}_{b}_{c}_a{x}" for a, b, c, x in tri.tolist()]
        assert lp.row_names[-len(tri):] == names

    def test_core_plus_rows_is_a_row_subset_of_the_full_lp(self, mmcc_weights):
        full = build_lp3(mmcc_weights, 6)
        core = build_lp3_core(mmcc_weights, 6)
        assert core.census == {**full.census, "triangle_active": 0}
        assert core.structural_constraint_count == full.structural_constraint_count
        assert not any(name.startswith("tri_") for name in core.row_names)
        picked = np.array([0, 7, 8, 31, 59])
        lazy = add_triangle_rows(core, all_triangles(6)[picked])
        rows = np.concatenate([np.arange(core.num_rows), core.num_rows + picked])
        assert lazy.row_names == [full.row_names[i] for i in rows]
        assert (lazy.A != full.A[rows]).nnz == 0
        assert np.array_equal(lazy.senses, full.senses[rows])
        assert lazy.census["triangle_active"] == len(picked)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_separation_equals_brute_force(self, data):
        n = data.draw(st.integers(3, 9), label="n")
        with_tuples = data.draw(st.booleans(), label="with_tuples")
        tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-7, 0.05]), label="tol")
        core, full = _core_and_full(n, with_tuples)
        unit = st.floats(0.0, 1.0, allow_nan=False)
        z = data.draw(st.lists(unit, min_size=math.comb(n, 2), max_size=math.comb(n, 2)), label="z")
        x = np.zeros(full.num_vars)
        x[full.num_vars - len(z):] = z  # z columns come last
        first = full.num_rows - full.census["triangle"]
        gap = full.A[first:] @ x - full.rhs[first:]
        want = all_triangles(n)[np.nonzero(gap > tol)[0]]
        assert np.array_equal(separate_triangles(full, x, tol), want)
        # the rows an LP holds do not change what is separated
        assert np.array_equal(separate_triangles(core, x, tol), want)

    def test_no_pair_variables_no_rows(self, mcc_weights):
        lp = build_lp1(mcc_weights.layers[0].weights, 6)
        assert separate_triangles(lp, np.ones(lp.num_vars), 1e-7).shape == (0, 4)


class TestZeroCostTuples:
    def test_drops_the_zero_cost_tuples_and_only_their_rows(self):
        # MMCC's triple layer puts OtherTriple at w+ = 0.5, so those columns cost 0
        mixed = build_table1_weights("MMCC", random_graph(9, 1, directed=False))
        core = build_lp3_core(mixed, 9)
        reduced, lift = drop_zero_cost_tuples(core)
        zero = [vid for vid, c in zip(core.var_ids, core.obj) if vid.kind == "tuple" and c == 0.0]
        assert 0 < len(zero) < math.comb(9, 3)
        assert reduced.var_ids == [vid for vid in core.var_ids if vid not in zero]
        assert [core.var_ids[j] for j in lift.dropped] == zero
        own = {f"ps_{'_'.join(map(str, vid.key))}" for vid in zero}
        own |= {
            f"pf_{'_'.join(map(str, vid.key))}_{u}_{v}" for vid in zero for u, v in itertools.combinations(vid.key, 2)
        }
        assert reduced.row_names == [name for name in core.row_names if name not in own]
        assert reduced.num_rows == core.num_rows - 4 * len(zero)
        rows = [core.row_names.index(name) for name in reduced.row_names]
        assert (reduced.A != core.A[rows][:, lift.kept]).nnz == 0
        assert reduced.census == core.census

    def test_lift_of_an_induced_point_is_the_induced_point(self):
        g = random_graph(6, 3, directed=False)
        core = build_lp3(build_table1_weights("MMCC", g), 6)
        reduced, lift = drop_zero_cost_tuples(core)
        assert len(lift.dropped)
        for labels in itertools.islice(all_partitions(6), 0, None, 5):
            part = Partition.from_assignment(labels, n=6)
            lifted = lift(induced_point(part, reduced))
            assert lifted.var_ids == core.var_ids
            assert np.array_equal(lifted.values, induced_point(part, core).values)
            assert lifted.objective_value == pytest.approx(induced_point(part, core).objective_value)

    def test_lift_takes_the_largest_pair_value(self):
        n = 5
        empty = DirectedGraph.from_arcs(n, [])
        w3 = MotifWeights(3, empty, WeightRule({"OtherTriple": 0.5}))
        w4 = MotifWeights(4, empty, WeightRule({"any": 0.5}), {(1, 2, 3, 4): 0.9}, classifier=lambda g, t: "any")
        core = build_lp3_core(MixedWeights([(3, w3, 1.0), (4, w4, 1.0)]), n)
        reduced, lift = drop_zero_cost_tuples(core)
        # every triple and every 4-tuple but (1, 2, 3, 4) costs 0
        assert [vid.key for vid in reduced.var_ids if vid.kind == "tuple"] == [(1, 2, 3, 4)]
        values = np.random.default_rng(5).random(reduced.num_vars)
        lifted = lift(FractionalSolution(reduced.var_ids, values, 1.5, "optimal"))
        assert lifted.objective_value == 1.5 and lifted.status == "optimal"
        for vid in core.var_ids:
            if vid in reduced.col_index:
                assert lifted[vid] == values[reduced.index_of(vid)]
            else:
                pairs = itertools.combinations(vid.key, 2)
                assert lifted[vid] == max(lifted[VarId.pair_var(u, v)] for u, v in pairs)

    def test_nothing_to_drop_returns_the_lp_itself(self, mcc_weights):
        cc = build_lp3_core(build_table1_weights("CC", karate().graph), 34)
        assert drop_zero_cost_tuples(cc)[0] is cc
        # MCC's triple costs are 2w+ - 1 for w+ in {1, 2/3, 0.49}: none is 0
        lp2 = build_lp3_core(mcc_weights, 6)
        assert drop_zero_cost_tuples(lp2)[0] is lp2
        # LP1 rows tie tuple columns to each other, so a zero cost drops nothing
        rule = WeightRule({"TriangleK3": 0.5, "PathP3": 0.5, "OtherTriple": 0.5})
        lp1 = build_lp1(MotifWeights(3, DirectedGraph.from_arcs(6, []), rule), 6)
        assert not lp1.obj.any()
        reduced, lift = drop_zero_cost_tuples(lp1)
        assert reduced is lp1 and not len(lift.dropped)


class TestInducedPoint:
    @pytest.mark.parametrize("builder", ["lp1", "lp2", "lp3"])
    def test_feasible_for_all_partitions(self, builder, mcc_weights, mmcc_weights):
        n = 5
        g = DirectedGraph.from_arcs(
            5, [(u, v) for u, v in [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]]
            + [(v, u) for u, v in [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]]
        )
        mcc = build_table1_weights("MCC", g)
        mmcc = build_table1_weights("MMCC", g)
        if builder == "lp1":
            lp = build_lp1(mcc.layers[0].weights, n)
            mixed = mcc
        elif builder == "lp2":
            lp = build_lp2(mcc.layers[0].weights, n)
            mixed = mcc
        else:
            lp = build_lp3(mmcc, n)
            mixed = mmcc
        for labels in all_partitions(n):
            part = Partition.from_assignment(labels, n=n)
            point = induced_point(part, lp)
            assert point.status == "feasible"
            report = verify_solution(lp, point, tol=1e-12)
            assert report.ok, report.summary()
            assert point.objective_value == pytest.approx(
                evaluate_objective(part, mixed), abs=1e-9
            )

    def test_values_are_indicators(self, mcc_weights):
        lp = build_lp2(mcc_weights.layers[0].weights, 6)
        part = Partition.from_cluster_list([[1, 2, 3], [4, 5, 6]])
        point = induced_point(part, lp)
        assert point[VarId.tuple_var((1, 2, 3))] == 0.0
        assert point[VarId.tuple_var((1, 2, 4))] == 1.0
        assert point[VarId.pair_var(1, 2)] == 0.0
        assert point[VarId.pair_var(3, 4)] == 1.0


class TestEvaluateObjective:
    def test_against_brute_force(self, mmcc_weights):
        for labels in itertools.islice(all_partitions(6), 0, None, 7):
            part = Partition.from_assignment(labels, n=6)
            rows = []
            for layer in mmcc_weights.layers:
                for t in itertools.combinations(range(1, 7), layer.k):
                    wp, wm = layer.weights.resolve(t)
                    rows.append((t, wp, wm, layer.lam))
            want = brute_force_cost(labels, rows)
            assert evaluate_objective(part, mmcc_weights) == pytest.approx(want)

    def test_breakdown_sums_to_cost(self, mmcc_weights):
        part = Partition.from_cluster_list([[1, 2, 4], [3, 5, 6]])
        breakdown = per_class_breakdown(part, mmcc_weights)
        total = sum(v for layer in breakdown.values() for v in layer.values())
        assert total == pytest.approx(evaluate_objective(part, mmcc_weights))


def random_graph(n: int, seed: int, directed: bool) -> DirectedGraph:
    rng = np.random.default_rng(seed)
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < 0.3]
    if not directed:
        arcs += [(v, u) for u, v in arcs]
    return DirectedGraph.from_arcs(n, arcs)


def table_consumer_cases() -> dict:
    """Weight stacks with constant rules, range rules and overrides."""
    und = random_graph(9, 1, directed=False)
    dirg = random_graph(9, 2, directed=True)
    triple = WeightRule({"TriangleK3": (0.8, 1.0), "PathP3": (0.45, 0.75), "OtherTriple": (0.2, 0.5)})
    edge = WeightRule({"Edge": (0.6, 1.0), "NonEdge": 0.45})
    return {
        "karate-mmcc": build_table1_weights("MMCC", karate().graph),
        "directed-range": MixedWeights.single(
            MotifWeights(3, dirg, directed_cycle_rule(jitter=(0.35, 0.55)), {(1, 2, 3): 0.9}, seed=4)
        ),
        "two-layer-range": MixedWeights(
            [
                Layer(2, MotifWeights(2, und, edge, {(1, 9): 0.1}, seed=7), 1.0),
                Layer(3, MotifWeights(3, und, triple, {(2, 5, 8): 0.05}, seed=8), 0.3),
            ]
        ),
    }


def ref_objective(mixed: MixedWeights, problem: LpProblem) -> tuple[np.ndarray, float]:
    """The builders' objective from a per-tuple loop: each tuple adds
    λ(2w+ - 1) to its own column (x_K, or z_uv for an LP3 pair layer), and
    each layer adds λ Σ w- to the offset."""
    obj = np.zeros(problem.num_vars)
    offset = 0.0
    for layer in mixed:
        n = layer.weights.graph.n
        wplus = []
        for t in itertools.combinations(range(1, n + 1), layer.k):
            wp = ref_tuple_weight(layer.weights, t)[1]
            vid = VarId("tuple", t)
            if vid not in problem.col_index:
                vid = VarId("pair", t)
            obj[problem.index_of(vid)] += layer.lam * (2.0 * wp - 1.0)
            wplus.append(wp)
        offset += layer.lam * float((1.0 - np.array(wplus)).sum())
    return obj, offset


class TestTableConsumers:
    @pytest.mark.parametrize("case", ["karate-mmcc", "directed-range", "two-layer-range"])
    def test_builder_objective_bit_identical(self, case):
        mixed = table_consumer_cases()[case]
        n = mixed.graph.n
        problems = [build_lp3(mixed, n)]
        if len(mixed) == 1:
            weights = mixed.layers[0].weights
            problems += [build_lp2(weights, n), build_lp1(weights, n)]
        for problem in problems:
            obj, offset = ref_objective(mixed, problem)
            assert problem.obj.tobytes() == obj.tobytes()
            assert problem.offset == offset

    @pytest.mark.parametrize("case", ["karate-mmcc", "directed-range", "two-layer-range"])
    def test_breakdown_equals_per_tuple_loop(self, case):
        mixed = table_consumer_cases()[case]
        n = mixed.graph.n
        rng = np.random.default_rng(3)
        part = Partition.from_assignment(rng.integers(0, 4, size=n).tolist(), n=n)
        want = {}
        for layer in mixed:
            bucket: dict[str, float] = {}
            for t in itertools.combinations(range(1, n + 1), layer.k):
                tag, wp = ref_tuple_weight(layer.weights, t)
                cost = wp if part.is_split(t) else 1.0 - wp
                bucket[tag] = bucket.get(tag, 0.0) + layer.lam * cost
            want[f"k{layer.k}"] = dict(sorted(bucket.items()))
        assert per_class_breakdown(part, mixed) == want


class TestDumpRoundTrip:
    def test_text_round_trip(self, mcc_weights):
        lp = build_lp2(mcc_weights.layers[0].weights, 6)
        buf = io.StringIO()
        lp.to_text(buf)
        back = LpProblem.from_text(io.StringIO(buf.getvalue()))
        assert [v.name for v in back.var_ids] == [v.name for v in lp.var_ids]
        assert np.allclose(back.obj, lp.obj)
        assert back.offset == pytest.approx(lp.offset)
        assert (back.A != lp.A).nnz == 0
        assert np.array_equal(back.senses, lp.senses)
        assert np.allclose(back.rhs, lp.rhs)
        assert np.allclose(back.lb, lp.lb)
        assert np.allclose(back.ub, lp.ub)

    def test_file_round_trip(self, tmp_path, mcc_weights):
        lp = build_lp1(mcc_weights.layers[0].weights, 6)
        path = tmp_path / "p.lp"
        lp.to_text(str(path))
        back = LpProblem.from_text(str(path))
        assert back.num_vars == lp.num_vars and back.num_rows == lp.num_rows


class TestFractionalSolution:
    def test_json_round_trip(self, mcc_weights):
        lp = build_lp2(mcc_weights.layers[0].weights, 6)
        rng = np.random.default_rng(3)
        sol = FractionalSolution(lp.var_ids, rng.random(lp.num_vars), 1.25, "optimal")
        back = FractionalSolution.from_json_dict(sol.to_json_dict())
        assert np.allclose(back.values, sol.values)
        assert back.objective_value == pytest.approx(1.25)
        assert back.status == "optimal"

    def test_tuple_and_pair_views(self, mcc_weights):
        lp = build_lp2(mcc_weights.layers[0].weights, 6)
        sol = FractionalSolution(lp.var_ids, np.arange(lp.num_vars, dtype=float), 0.0, "optimal")
        tv = sol.tuple_values(3)
        pv = sol.pair_values()
        assert len(tv) == math.comb(6, 3)
        assert len(pv) == math.comb(6, 2)
        assert tv[(1, 2, 3)] == 0.0
        assert pv[(5, 6)] == lp.num_vars - 1
