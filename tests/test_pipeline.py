"""End-to-end pipeline: configs, staged runs, reports, comparisons."""

import json

import pytest

from motifcc.errors import InvalidParameterError, StageError
from motifcc.generators import make_fig2a
from motifcc.graph import Partition, write_edge_list
from motifcc.lpmodel import evaluate_objective
from motifcc.motifs import MixedWeights, MotifWeights, WeightRule, build_table1_weights
from motifcc.pipeline import (
    Report,
    RunConfig,
    baseline_report,
    choose_params,
    compare,
    greedy_partition,
    load_instance,
    pick_relaxation,
    resolve_weights,
    run,
    write_comparison,
)

FIG2A = {"generator": "fig2a", "weights": "fig2"}


class TestRunConfig:
    def test_from_dict_round_trip(self):
        cfg = RunConfig.from_dict({"generator": "fig2a", "weights": "fig2", "seed": 4})
        assert cfg.generator == "fig2a"
        assert cfg.seed == 4
        assert RunConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown config keys"):
            RunConfig.from_dict({"generator": "fig2a", "wieghts": "fig2"})


class TestLoadInstance:
    def test_generator_with_args(self):
        graph, manifest = load_instance(
            RunConfig(generator="fig2b", generator_args={"n": 8})
        )
        assert graph.n == 8
        assert manifest["generator"] == "fig2b"

    def test_input_file(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(make_fig2a().graph, path)
        graph, manifest = load_instance(RunConfig(input=str(path)))
        assert graph.arcs == make_fig2a().graph.arcs
        assert manifest == {"input": str(path)}

    def test_exactly_one_source(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_instance(RunConfig())
        with pytest.raises(InvalidParameterError):
            load_instance(RunConfig(input="x", generator="fig2a"))

    def test_unknown_generator(self):
        with pytest.raises(InvalidParameterError):
            load_instance(RunConfig(generator="fig9z"))


class TestResolveWeights:
    def graph(self):
        return make_fig2a().graph

    def test_table1_needs_method(self):
        with pytest.raises(InvalidParameterError):
            resolve_weights(RunConfig(weights="table1"), self.graph())
        mixed = resolve_weights(RunConfig(weights="table1", method="MMCC"), self.graph())
        assert [layer.k for layer in mixed] == [2, 3]

    def test_method_alone_implies_table1(self):
        mixed = resolve_weights(RunConfig(method="CC"), self.graph())
        assert mixed.k_star == 2

    def test_named_specs(self):
        g = self.graph()
        assert resolve_weights(RunConfig(weights="fig2"), g).k_star == 3
        w = resolve_weights(RunConfig(weights="anomaly:0.3"), g).layers[0].weights
        assert w.w_plus((1, 2, 4)) in (pytest.approx(0.3), pytest.approx(1.0))

    def test_dict_and_passthrough(self):
        g = self.graph()
        rule = WeightRule({"TriangleK3": 1.0, "PathP3": 0.0, "OtherTriple": 0.0})
        mixed = MixedWeights.single(MotifWeights(3, g, rule))
        assert resolve_weights(RunConfig(weights=mixed), g) is mixed

    def test_nothing_specified(self):
        with pytest.raises(InvalidParameterError):
            resolve_weights(RunConfig(), self.graph())

    def test_garbage_spec(self):
        with pytest.raises(InvalidParameterError):
            resolve_weights(RunConfig(weights="wavelets"), self.graph())


class TestPickRelaxation:
    def single3(self):
        return resolve_weights(RunConfig(weights="fig2"), make_fig2a().graph)

    def mixed23(self):
        return build_table1_weights("MMCC", make_fig2a().graph)

    def test_auto(self):
        assert pick_relaxation(RunConfig(relaxation="auto"), self.single3()) == "LP2"
        assert pick_relaxation(RunConfig(relaxation="auto"), self.mixed23()) == "LP3"
        cc = build_table1_weights("CC", make_fig2a().graph)
        assert pick_relaxation(RunConfig(relaxation="auto"), cc) == "LP3"

    def test_explicit(self):
        assert pick_relaxation(RunConfig(relaxation="LP1"), self.single3()) == "LP1"
        assert pick_relaxation(RunConfig(relaxation="lp2"), self.single3()) == "LP2"
        assert pick_relaxation(RunConfig(relaxation="LP3"), self.mixed23()) == "LP3"

    def test_single_layer_relaxations_reject_stacks(self):
        with pytest.raises(InvalidParameterError):
            pick_relaxation(RunConfig(relaxation="LP1"), self.mixed23())
        with pytest.raises(InvalidParameterError):
            pick_relaxation(RunConfig(relaxation="LP2"), self.mixed23())

    def test_unknown(self):
        with pytest.raises(InvalidParameterError):
            pick_relaxation(RunConfig(relaxation="LP9"), self.single3())


class TestChooseParams:
    def test_lp1_recommendation(self):
        mixed = resolve_weights(RunConfig(weights="fig2"), make_fig2a().graph)
        rec = choose_params(RunConfig(), mixed, "LP1", 6)
        assert rec.algorithm == "alg1"
        assert rec.ratio == pytest.approx(6.0)

    def test_edge_motif_stack_detected(self):
        mixed = build_table1_weights("MMCC", make_fig2a().graph)
        rec = choose_params(RunConfig(), mixed, "LP3", 6)
        assert rec.mode == "mmcc-edge-motif"
        r0 = (3 - 2.0) / (1.0 + 0.2 * 6.0**2)
        assert rec.r0 == pytest.approx(r0)
        assert rec.ratio == pytest.approx(3 * (3 - r0))

    def test_explicit_alpha_overrides(self):
        mixed = resolve_weights(RunConfig(weights="fig2"), make_fig2a().graph)
        rec = choose_params(RunConfig(alpha=0.25, beta=0.25), mixed, "LP2", 6)
        assert rec.mode == "manual"
        assert rec.params.alpha == pytest.approx(0.25)
        assert rec.ratio == pytest.approx(16.0)


class TestGreedyPartition:
    def test_valid_and_deterministic(self):
        mixed = build_table1_weights("CC", make_fig2a().graph)
        a = greedy_partition(mixed, 6)
        b = greedy_partition(mixed, 6)
        assert a.clusters == b.clusters
        assert sorted(v for c in a.clusters for v in c) == list(range(1, 7))

    def test_never_worse_than_singletons(self):
        for method in ("CC", "MCC", "MMCC"):
            mixed = build_table1_weights(method, make_fig2a().graph)
            greedy = evaluate_objective(greedy_partition(mixed, 6), mixed)
            start = evaluate_objective(Partition.singletons(6), mixed)
            assert greedy <= start + 1e-9

    def test_cc_on_two_triangles_finds_the_cut(self):
        # pairwise objectives are easy for single-vertex moves
        mixed = build_table1_weights("CC", make_fig2a().graph)
        part = greedy_partition(mixed, 6)
        assert set(part.clusters) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}


class TestRun:
    def test_fig2a_lp2_full_pipeline(self):
        report = run(RunConfig.from_dict(FIG2A))
        assert report.relaxation == "LP2"
        assert report.lp_value == pytest.approx(0.0, abs=1e-7)
        assert report.cost == pytest.approx(0.0, abs=1e-7)
        assert sorted(map(sorted, report.clusters)) == [[1, 2, 3], [4, 5, 6]]
        assert report.params["algorithm"] == "alg2"
        assert report.certified_ratio == pytest.approx(9.0)
        assert report.empirical_ratio is None  # LP value is zero
        assert report.solver["status"] == "optimal"
        assert len(report.instance_digest) == 16
        assert report.schema_version == 1

    def test_k2_lp2_matches_lp3(self):
        # for k=2 the LP2 rows force x_uv = z_uv, so LP2 is the z-only LP3
        cfg = {"generator": "fig2b", "generator_args": {"n": 10}, "method": "CC"}
        lp2 = run(RunConfig.from_dict({**cfg, "relaxation": "LP2"}))
        lp3 = run(RunConfig.from_dict({**cfg, "relaxation": "LP3"}))
        assert lp2.relaxation == "LP2"
        assert lp2.lp_value == pytest.approx(lp3.lp_value, abs=1e-7)
        assert lp2.clusters == lp3.clusters == [[1, 2, 3], [4, 5, 6, 7, 8, 9, 10]]

    def test_fig2a_lp1_alg1(self):
        report = run(RunConfig.from_dict({**FIG2A, "relaxation": "LP1"}))
        assert report.relaxation == "LP1"
        assert report.params["algorithm"] == "alg1"
        assert report.certified_ratio == pytest.approx(6.0)
        assert sorted(map(sorted, report.clusters)) == [[1, 2, 3], [4, 5, 6]]

    def test_deterministic_modulo_timings(self):
        a = run(RunConfig.from_dict(FIG2A))
        b = run(RunConfig.from_dict(FIG2A))
        assert a.to_json(with_timings=False) == b.to_json(with_timings=False)
        assert a.to_json(with_timings=False) != a.to_json()  # timings differ textually

    def test_report_files(self, tmp_path):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.jsonl"
        report = run(RunConfig.from_dict({**FIG2A, "out": str(out), "trace": str(trace)}))
        payload = json.loads(out.read_text())
        assert payload["clusters"] == report.clusters
        assert payload["schema_version"] == 1
        steps = [json.loads(l) for l in trace.read_text().splitlines()]
        assert steps and all("pivot" in s or "leftover" in s for s in steps)

    def test_partition_property(self):
        report = run(RunConfig.from_dict(FIG2A))
        part = report.partition
        assert isinstance(part, Partition)
        assert part.same_cluster(1, 2)
        assert not part.same_cluster(3, 4)

    def test_breakdown_sums_to_cost(self):
        report = run(RunConfig.from_dict({"generator": "fig2a", "weights": "table1", "method": "MMCC"}))
        total = sum(cost for per_class in report.breakdown.values() for cost in per_class.values())
        assert total == pytest.approx(report.cost, abs=1e-9)

    def test_stage_error_carries_stage_name(self):
        with pytest.raises(StageError) as err:
            run(RunConfig(generator="fig2a", weights="table1"))  # method missing
        assert err.value.stage == "weights"

    def test_cold_start_same_answer(self):
        warm = run(RunConfig.from_dict(FIG2A))
        cold = run(RunConfig.from_dict({**FIG2A, "warm_start": False}))
        assert warm.lp_value == pytest.approx(cold.lp_value, abs=1e-7)
        assert warm.clusters == cold.clusters

    def test_scipy_engine_parity(self):
        ours = run(RunConfig.from_dict(FIG2A))
        ref = run(RunConfig.from_dict({**FIG2A, "engine": "scipy"}))
        assert ours.lp_value == pytest.approx(ref.lp_value, abs=1e-6)
        assert ref.solver["engine"] == "scipy"
        # the scipy engine takes no starting point, so none is computed or reported
        assert ours.solver["warm_start"] is True and "warm_start" in ours.timings
        assert ref.solver["warm_start"] is False and "warm_start" not in ref.timings

    def test_every_stage_timed(self):
        report = run(RunConfig.from_dict(FIG2A))
        stages = {"load", "weights", "build", "warm_start", "solve", "round", "certify", "breakdown"}
        assert stages <= set(report.timings)
        assert all(report.timings[s] >= 0.0 for s in stages)

    def test_lp_point_checked_before_rounding(self):
        report = run(RunConfig.from_dict(FIG2A))
        assert report.timings["check"] >= 0.0
        assert list(report.timings).index("check") == list(report.timings).index("solve") + 1


class TestCompare:
    def test_rows_and_reference(self):
        rows = compare(
            [FIG2A, {**FIG2A, "relaxation": "LP1"}],
            reference=[[1, 2, 3], [4, 5, 6]],
            labels=["pair", "tuple"],
        )
        assert [r["label"] for r in rows] == ["pair", "tuple"]
        for row in rows:
            assert row["rand_index"] == pytest.approx(1.0)
            assert row["errors_vs_reference"] == 0
            assert row["misassigned"] == []
        assert rows[0]["relaxation"] == "LP2"
        assert rows[1]["relaxation"] == "LP1"

    def test_mismatched_instances_rejected(self):
        with pytest.raises(InvalidParameterError, match="different instance"):
            compare([FIG2A, {"generator": "fig2b", "generator_args": {"n": 8}, "weights": "fig2"}])

    def test_write_comparison(self, tmp_path):
        rows = compare([FIG2A], labels=["only"])
        jpath = tmp_path / "cmp.json"
        cpath = tmp_path / "cmp.csv"
        write_comparison(rows, json_path=str(jpath), csv_path=str(cpath))
        assert json.loads(jpath.read_text())[0]["label"] == "only"
        header = cpath.read_text().splitlines()[0].split(",")
        assert "label" in header and "cost" in header


class TestBaselineReport:
    def test_kinds(self):
        g = make_fig2a().graph
        mixed = resolve_weights(RunConfig(weights="fig2"), g)
        v = baseline_report("vertex", g, mixed, seed=1)
        e = baseline_report("edge", g, mixed, seed=1, first_edge=(1, 4))
        assert v.solver == "pivot-vertex"
        assert e.cost == pytest.approx(18.0)
        with pytest.raises(InvalidParameterError):
            baseline_report("hybrid", g, mixed)
