"""End-to-end pipeline: configs, staged runs, reports, comparisons."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifcc import pipeline, simplex
from motifcc.cli import EXIT_CONFIG, EXIT_SOLVER, main
from motifcc.errors import InvalidParameterError, SolverFailureError, StageError
from motifcc.generators import make_fig2a
from motifcc.graph import DirectedGraph, Partition, write_edge_list
from motifcc.lpmodel import (
    TupleLift,
    build_lp2,
    build_lp3,
    build_lp3_core,
    build_lp1,
    count_upsilon,
)
from motifcc.motifs import Layer, MixedWeights, MotifWeights, WeightRule, build_table1_weights
from motifcc.pipeline import (
    Report,
    RunConfig,
    baseline_report,
    choose_params,
    compare,
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

    @pytest.mark.parametrize("key", ["tol", "certificate_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-6, "1e-6", None])
    def test_tolerance_must_be_finite_and_non_negative(self, key, value):
        with pytest.raises(InvalidParameterError, match=key):
            RunConfig.from_dict({**FIG2A, key: value})

    @pytest.mark.parametrize("value", [0, -3, 2.5, "10", None])
    def test_max_iterations_must_be_a_positive_integer(self, value):
        with pytest.raises(InvalidParameterError, match=f"max_iterations must be an integer of at least 1, got {value!r}"):
            RunConfig.from_dict({**FIG2A, "max_iterations": value})


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

    @pytest.mark.parametrize("flag,value", [("--alpha", "0"), ("--alpha", "nan"), ("--alpha", "inf"), ("--beta", "-1")])
    def test_a_bad_explicit_parameter_exits_2_before_the_solve(self, flag, value, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("the LP was solved")

        monkeypatch.setattr(pipeline, "solve", no_solve)
        assert main(["solve", "--generator", "fig2a", "--method", "CC", flag, value]) == EXIT_CONFIG
        assert f"{flag[2:]} must be positive and finite, got {float(value)}" in capsys.readouterr().err
        with pytest.raises(InvalidParameterError, match=flag[2:]):
            RunConfig.from_dict({**FIG2A, flag[2:]: float(value)})
        with pytest.raises(InvalidParameterError, match=f"{flag[2:]} must be a number"):
            RunConfig.from_dict({**FIG2A, flag[2:]: "x"})


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

    def test_every_stage_timed(self):
        stages = {"load", "weights", "build", "solve", "check", "round", "certify", "breakdown"}
        lp2 = run(RunConfig.from_dict(FIG2A))
        lp1 = run(RunConfig.from_dict({**FIG2A, "relaxation": "LP1"}))
        assert set(lp2.timings) == set(lp1.timings) == stages | {"solver_wall"}
        assert all(t >= 0.0 for t in [*lp2.timings.values(), *lp1.timings.values()])

    @pytest.mark.parametrize("key,value", [("engine", "simplex"), ("warm_start", False)])
    def test_removed_keys_are_unknown(self, key, value, tmp_path, capsys):
        with pytest.raises(InvalidParameterError, match=f"unknown config keys: \\['{key}'\\]"):
            RunConfig.from_dict({**FIG2A, key: value})
        spec = tmp_path / "runs.json"
        spec.write_text(json.dumps({"runs": [{**FIG2A, key: value}]}))
        assert main(["compare", "--config", str(spec)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_lp_point_checked_before_rounding(self):
        report = run(RunConfig.from_dict(FIG2A))
        assert report.timings["check"] >= 0.0
        assert list(report.timings).index("check") == list(report.timings).index("solve") + 1


def full_relaxation(relaxation, mixed, n):
    """``build_relaxation`` with every triangle row materialized."""
    if relaxation == "LP2":
        return build_lp2(mixed.layers[0].weights, n)
    return build_lp3(mixed, n)


def planted_edges(path, n=12, blocks=3, seed=12):
    rng = np.random.default_rng(seed)
    block = np.arange(n) % blocks
    path.write_text(
        "".join(
            f"{u + 1}\t{v + 1}\n"
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < (0.8 if block[u] == block[v] else 0.1)
        )
    )
    return str(path)


class TestTriangleRounds:
    @pytest.mark.parametrize("case", ["fig2b-lp2", "planted12-mmcc"])
    def test_same_answer_as_the_full_lp(self, case, monkeypatch, tmp_path):
        """Row generation on HiGHS against the fully built LP, solved in one round."""
        if case == "fig2b-lp2":
            cfg = {"generator": "fig2b", "generator_args": {"n": 10}, "weights": "fig2", "relaxation": "LP2"}
        else:
            cfg = {"input": planted_edges(tmp_path / "planted.txt"), "undirected": True, "method": "MMCC"}
        lazy = run(RunConfig.from_dict(cfg))
        monkeypatch.setattr(pipeline, "build_relaxation", full_relaxation)
        full = run(RunConfig.from_dict(cfg))
        assert full.solver["row_rounds"] == 1
        assert lazy.solver["rows_in_lp"] < full.solver["rows_in_lp"]
        assert lazy.lp_value == pytest.approx(full.lp_value, rel=1e-9, abs=1e-9)
        assert lazy.clusters == full.clusters
        assert lazy.cost == full.cost

    def test_karate_cc_adds_rows_over_rounds(self):
        cfg = RunConfig(generator="karate", weights="table1", method="CC")
        a, b = run(cfg), run(cfg)
        assert a.to_json(with_timings=False) == b.to_json(with_timings=False)
        assert a.solver["row_rounds"] >= 2
        assert 0 < a.solver["rows_in_lp"] < 17952
        assert a.lp_value == pytest.approx(249.25, abs=1e-7)

    def test_karate_cc_reenters_from_the_previous_basis(self):
        report = run(RunConfig(generator="karate", weights="table1", method="CC"))
        per_round = report.solver["round_iterations"]
        assert len(per_round) == report.solver["row_rounds"] >= 2
        assert sum(per_round) == report.solver["iterations"] <= 1000
        assert report.lp_value == pytest.approx(249.25, abs=1e-7)

    @pytest.mark.parametrize("failure", ["status", "exception"])
    def test_failed_reentry_names_the_round(self, failure, monkeypatch):
        # round 2 re-enters HiGHS from round 1's basis after addRows
        real_load, real_bounds = simplex.HighsModel.load, simplex._row_bounds
        loads = []

        def load(model, problem):
            loads.append(problem.num_rows)
            real_load(model, problem)
            if failure == "status" and len(loads) == 2:
                model.highs.setOptionValue("simplex_iteration_limit", 0)

        def bounds(problem, first=0):
            lower, upper = real_bounds(problem, first)
            return (lower, np.full_like(upper, np.nan)) if len(loads) == 2 and failure == "exception" else (lower, upper)

        monkeypatch.setattr(simplex.HighsModel, "load", load)
        monkeypatch.setattr(simplex, "_row_bounds", bounds)
        message = "status iteration-limit in round 2" if failure == "status" else "rejected the LP .* in round 2"
        with pytest.raises(SolverFailureError, match=message):
            run(RunConfig(generator="fig2b", generator_args={"n": 10}, method="CC"))

    def test_lp1_needs_one_round(self):
        report = run(RunConfig.from_dict({**FIG2A, "relaxation": "LP1"}))
        assert report.solver["row_rounds"] == 1
        assert report.solver["rows_in_lp"] < count_upsilon(6, 3) == 900
        graph = make_fig2a().graph
        full = build_lp1(resolve_weights(RunConfig(weights="fig2"), graph).layers[0].weights, graph.n)
        assert report.lp_value == pytest.approx(simplex.solve(full).solution.objective_value, rel=1e-9, abs=1e-12)

    def test_round_failure_names_the_round(self, monkeypatch):
        real_solve = pipeline.solve
        calls = []

        def fails_second(problem, config, **kwargs):
            calls.append(problem.num_rows)
            result = real_solve(problem, config, **kwargs)
            if len(calls) == 2:
                result.status = "iteration-limit"
            return result

        monkeypatch.setattr(pipeline, "solve", fails_second)
        with pytest.raises(SolverFailureError, match="iteration-limit in round 2"):
            run(RunConfig(generator="fig2b", generator_args={"n": 10}, method="CC"))


W_GRID = (0.0, 0.3, 0.5, 0.7, 1.0)


def random_stack(data) -> tuple[MixedWeights, int]:
    """An optional edge layer plus a k=3 and a k=4 layer on an empty graph,
    every tuple's w+ drawn from ``W_GRID`` (so some columns cost exactly 0)."""
    n = data.draw(st.integers(4, 8), label="n")
    empty = DirectedGraph.from_arcs(n, [])
    rule = WeightRule({"any": 0.5})  # every tuple has an override
    layers = []
    ks = [2, 3, 4] if data.draw(st.booleans(), label="edge_layer") else [3, 4]
    for k in ks:
        tuples = list(itertools.combinations(range(1, n + 1), k))
        wplus = data.draw(st.lists(st.sampled_from(W_GRID), min_size=len(tuples), max_size=len(tuples)))
        lam = data.draw(st.sampled_from([0.2, 1.0]), label=f"lambda{k}")
        weights = MotifWeights(k, empty, rule, dict(zip(tuples, wplus)), classifier=lambda g, t: "any")
        layers.append(Layer(k, weights, lam))
    return MixedWeights(layers), n


def pipeline_solve(mixed: MixedWeights, n: int) -> pipeline.RelaxationSolve:
    return pipeline.solve_relaxation(pipeline.build_relaxation("LP3", mixed, n), simplex.SolverConfig())


class TestZeroCostTuples:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lifted_optimum_is_the_full_lp_optimum(self, data):
        mixed, n = random_stack(data)
        relaxed = pipeline_solve(mixed, n)
        full = build_lp3(mixed, n)
        ref = simplex.solve(full)
        assert ref.status == "optimal"
        assert relaxed.solution.objective_value == pytest.approx(ref.solution.objective_value, rel=0, abs=1e-7)
        assert relaxed.solution.var_ids == full.var_ids
        check = simplex.verify_solution(full, relaxed.solution, tol=1e-6)
        assert check.ok, check.summary()

    def test_every_tuple_column_costs_zero(self):
        # the triple layer is all w+ = 0.5: only the edge layer's z costs
        # are left, and the triple rows come back through the lift alone
        graph = make_fig2a().graph
        half = WeightRule({"TriangleK3": 0.5, "PathP3": 0.5, "OtherTriple": 0.5})
        mixed = MixedWeights([build_table1_weights("CC", graph).layers[0], Layer(3, MotifWeights(3, graph, half), 1.0)])
        relaxed = pipeline_solve(mixed, 6)
        assert all(vid.kind == "pair" for vid in relaxed.solved.var_ids)
        assert relaxed.solved.num_rows == relaxed.solved.census["triangle_active"]
        full = build_lp3(mixed, 6)
        ref = simplex.solve(full)
        assert relaxed.solution.objective_value == pytest.approx(ref.solution.objective_value, abs=1e-7)
        assert simplex.verify_solution(full, relaxed.solution, tol=1e-6).ok

    def test_report_counts_the_lp_the_solver_saw(self, tmp_path):
        cfg = {"input": planted_edges(tmp_path / "planted.txt"), "undirected": True, "method": "MMCC"}
        config = RunConfig.from_dict(cfg)
        report = run(config)
        graph, _ = load_instance(config)
        core = build_lp3_core(resolve_weights(config, graph), graph.n)
        zero = int(((core.obj == 0.0) & np.array([vid.kind == "tuple" for vid in core.var_ids])).sum())
        assert zero > 0
        assert report.solver["vars_in_lp"] == core.num_vars - zero
        cc = run(RunConfig(generator="fig2a", method="CC"))
        assert cc.solver["vars_in_lp"] == 15

    @pytest.mark.parametrize("via", ["run", "cli"])
    def test_a_lift_that_zeroes_the_left_out_columns_fails_the_check(self, via, monkeypatch, tmp_path, capsys):
        real_lift = TupleLift.__call__

        def zeroed(self, solution):
            lifted = real_lift(self, solution)
            lifted.values[self.dropped] = 0.0
            return lifted

        monkeypatch.setattr(TupleLift, "__call__", zeroed)
        edges = planted_edges(tmp_path / "planted.txt")
        if via == "run":
            with pytest.raises(SolverFailureError, match=r"LP point infeasible: .*first row pf_"):
                run(RunConfig(input=edges, undirected=True, method="MMCC"))
        else:
            assert main(["solve", "--input", edges, "--undirected", "--method", "MMCC"]) == EXIT_SOLVER
            assert "first row pf_" in capsys.readouterr().err


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


def planted_ladder_edges(path, n):
    """The planted-partition graph of size n on the benchmark's planted-mmcc
    ladder (perfbench/workloads.py): four shuffled blocks, p_in 0.7,
    p_out 0.1, drawn from the seed [0, n]."""
    rng = np.random.default_rng([0, n])
    block = np.arange(n) % 4
    rng.shuffle(block)
    draws = rng.random((n, n))
    path.write_text(
        "".join(
            f"{u + 1}\t{v + 1}\n"
            for u in range(n)
            for v in range(u + 1, n)
            if draws[u, v] < (0.7 if block[u] == block[v] else 0.1)
        )
    )
    return str(path)


def linprog_value(problem) -> float:
    """Interior-point HiGHS through ``linprog`` on ``problem`` as given."""
    from scipy.optimize import linprog

    le, ge, eq = (problem.senses == -1), (problem.senses == 1), (problem.senses == 0)
    ub_rows = le | ge
    sign = np.where(ge, -1.0, 1.0)[ub_rows]
    res = linprog(
        problem.obj,
        A_ub=problem.A[ub_rows].multiply(sign[:, None]).tocsr(),
        b_ub=sign * problem.rhs[ub_rows],
        A_eq=problem.A[eq] if eq.any() else None,
        b_eq=problem.rhs[eq] if eq.any() else None,
        bounds=np.column_stack([problem.lb, problem.ub]),
        method="highs-ipm",
    )
    assert res.status == 0, res.message
    return float(res.fun) + problem.offset


class TestFullLpCrossCheck:
    """The row-generated LP value against an interior-point solve of the
    fully materialized ``build_lp3``: a different algorithm on a different
    LP, so a shared solver defect cannot hide."""

    @pytest.mark.parametrize("case", ["karate-CC", "karate-MMCC", "planted16", "planted20", "planted22"])
    def test_lp_value_matches_the_full_lp(self, case, tmp_path):
        if case.startswith("karate"):
            cfg = RunConfig(generator="karate", method=case.split("-")[1])
        else:
            cfg = RunConfig(input=planted_ladder_edges(tmp_path / "planted.txt", int(case[7:])),
                            undirected=True, method="MMCC")
        report = run(cfg)
        assert report.solver["engine"] == "scipy"
        graph, _ = load_instance(cfg)
        full = build_lp3(resolve_weights(cfg, graph), graph.n)
        assert report.lp_value == pytest.approx(linprog_value(full), rel=1e-7)
