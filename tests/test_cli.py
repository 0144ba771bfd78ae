"""Command-line interface: subcommands, JSON output, exit codes."""

import io
import json

import pytest

from motifcc import pipeline
from motifcc.cli import COMMANDS, EXIT_CERTIFICATE, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, build_parser, main
from motifcc.generators import make_fig2a
from motifcc.lpmodel import VarId, build_lp2
from motifcc.motifs import MixedWeights, MotifWeights, WeightRule

from test_highs import fresh
from test_simplex import LinearConstraint, make_problem, v


def fig2a_lp2():
    rule = WeightRule({"TriangleK3": 1.0, "PathP3": 0.0, "OtherTriple": 0.0})
    weights = MotifWeights(3, make_fig2a().graph, rule)
    return build_lp2(weights, 6)


def last_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestSolve:
    def test_full_pipeline(self, capsys):
        code = main(["solve", "--generator", "fig2a", "--weights", "fig2"])
        assert code == EXIT_OK
        payload = last_json(capsys)
        assert sorted(map(sorted, payload["clusters"])) == [[1, 2, 3], [4, 5, 6]]
        assert payload["relaxation"] == "LP2"
        assert payload["lp_value"] == pytest.approx(0.0, abs=1e-7)

    def test_lp_dump_solve_and_solution_out(self, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        code = main(
            ["solve", "--lp-dump", str(dump), "--solution-out", str(sol)]
        )
        assert code == EXIT_OK
        payload = last_json(capsys)
        assert payload["status"] == "optimal"
        assert payload["objective"] == pytest.approx(0.0, abs=1e-7)
        saved = json.loads(sol.read_text())
        assert "values" in saved

    def test_infeasible_dump_exits_3(self, tmp_path, capsys):
        problem = make_problem(
            "inf",
            [LinearConstraint("lo", [(v("a"), 1.0)], ">=", 2.0)],
            {v("a"): 1.0},
            ub=[1.0],
        )
        dump = tmp_path / "inf.lp.txt"
        problem.to_text(str(dump))
        assert main(["solve", "--lp-dump", str(dump)]) == EXIT_SOLVER
        assert last_json(capsys)["status"] == "infeasible"

    def test_infeasible_lp_point_exits_3(self, monkeypatch, capsys):
        real_solve = pipeline.solve

        def perturbed(problem, config, **kwargs):
            result = real_solve(problem, config, **kwargs)
            result.solution.values[0] = problem.ub[0] + 1e-4  # just past its bound
            return result

        monkeypatch.setattr(pipeline, "solve", perturbed)
        assert main(["solve", "--generator", "fig2a", "--weights", "fig2"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "LP point infeasible" in err and "violations" in err

    def test_omitted_triangle_row_violation_exits_3(self, monkeypatch, capsys):
        # a solver tolerance looser than the certificate's lets the rounds
        # stop on a point that violates a triangle row they never added
        real_solve = pipeline.solve

        def perturbed(problem, config, **kwargs):
            result = real_solve(problem, config, **kwargs)
            result.solution.values[problem.index_of(VarId.pair_var(2, 3))] += 5e-4
            return result

        monkeypatch.setattr(pipeline, "solve", perturbed)
        argv = ["solve", "--generator", "fig2a", "--method", "CC", "--tol", "1e-3"]
        assert main(argv) == EXIT_SOLVER
        assert "omitted triangle rows (first tri_1_2_3_a1)" in capsys.readouterr().err

    def test_config_error_exits_2(self, capsys):
        # table1 weights without --method fails in the weights stage
        code = main(["solve", "--generator", "fig2a", "--weights", "table1"])
        assert code == EXIT_CONFIG
        assert "weights" in capsys.readouterr().err

    def test_missing_input_exits_2(self, capsys):
        assert main(["solve", "--weights", "fig2"]) == EXIT_CONFIG

    def test_unreadable_input_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.txt"
        assert main(["solve", "--input", str(missing), "--weights", "fig2"]) == EXIT_CONFIG


INSTANCE_COMMANDS = {
    "solve": ["solve", "--method", "CC"],
    "exact": ["exact", "--method", "CC"],
    "baseline": ["baseline", "--method", "CC", "--kind", "vertex"],
}


class TestEdgeListInput:
    @pytest.mark.parametrize("line", ["1\tx", "1\t2.5"])
    @pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
    def test_malformed_label_exits_2_naming_the_line(self, command, line, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text(f"1\t2\n{line}\n")
        assert main([*INSTANCE_COMMANDS[command], "--input", str(edges)]) == EXIT_CONFIG
        assert f"{edges}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
    def test_num_vertices_keeps_an_isolated_top_vertex(self, command, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("1\t2\n2\t3\n4\t5\n5\t6\n7\t8\n8\t9\n")
        argv = [*INSTANCE_COMMANDS[command], "--input", str(edges), "--undirected"]
        assert main([*argv, "--num-vertices", "10"]) == EXIT_OK
        payload = last_json(capsys)
        assert sorted(v for c in payload["clusters"] for v in c) == list(range(1, 11))
        if command == "solve":
            assert payload["n"] == 10
            assert payload["config"]["num_vertices"] == 10
        # without the flag the top label sets n
        assert main(argv) == EXIT_OK
        assert sorted(v for c in last_json(capsys)["clusters"] for v in c) == list(range(1, 10))

    @pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
    def test_label_above_num_vertices_exits_2(self, command, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("1\t2\n2\t11\n")
        argv = [*INSTANCE_COMMANDS[command], "--input", str(edges), "--num-vertices", "10"]
        assert main(argv) == EXIT_CONFIG
        assert "outside [1..10]" in capsys.readouterr().err

    def test_num_vertices_needs_an_input_file(self, capsys):
        argv = ["solve", "--generator", "fig2a", "--method", "CC", "--num-vertices", "6"]
        assert main(argv) == EXIT_CONFIG


class TestRoundCommand:
    def test_round_saved_solution(self, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        assert main(["solve", "--lp-dump", str(dump), "--solution-out", str(sol)]) == EXIT_OK
        capsys.readouterr()
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "round",
                "--solution", str(sol),
                "--n", "6",
                "--k", "3",
                "--algorithm", "alg2",
                "--trace", str(trace),
            ]
        )
        assert code == EXIT_OK
        payload = last_json(capsys)
        assert sorted(map(sorted, payload["clusters"])) == [[1, 2, 3], [4, 5, 6]]
        assert payload["alpha"] == pytest.approx(1.0 / 3)
        assert trace.read_text().strip()

    def test_explicit_parameters(self, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        main(["solve", "--lp-dump", str(dump), "--solution-out", str(sol)])
        capsys.readouterr()
        code = main(
            [
                "round",
                "--solution", str(sol),
                "--n", "6",
                "--k", "3",
                "--algorithm", "alg2",
                "--alpha", "0.25",
                "--beta", "0.25",
            ]
        )
        assert code == EXIT_OK
        assert last_json(capsys)["beta"] == pytest.approx(0.25)

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        main(["solve", "--lp-dump", str(dump), "--solution-out", str(sol)])
        capsys.readouterr()
        code = main(
            [
                "round",
                "--solution", str(sol),
                "--n", "6", "--k", "3",
                "--algorithm", "alg2",
                "--alpha", "0.9", "--beta", "0.25",
            ]
        )
        assert code == EXIT_CONFIG


    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("n", [4, 0])
    def test_n_below_the_solution_vertices_exits_2(self, algorithm, n, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        main(["solve", "--lp-dump", str(dump), "--solution-out", str(sol)])
        capsys.readouterr()
        code = main(["round", "--solution", str(sol), "--n", str(n), "--k", "3", "--algorithm", algorithm])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "vertex 6" in err and f"n={n}" in err

    @pytest.mark.parametrize("missing", ["objective_value", "status"])
    def test_solution_without_required_key_exits_2(self, missing, tmp_path, capsys):
        payload = {"status": "optimal", "objective_value": 1.0, "values": {"z_1_2": 0.5}}
        del payload[missing]
        sol = tmp_path / "solution.json"
        sol.write_text(json.dumps(payload))
        code = main(["round", "--solution", str(sol), "--n", "3", "--k", "2"])
        assert code == EXIT_CONFIG
        assert missing in capsys.readouterr().err


FIG2A_CC = ["--generator", "fig2a", "--method", "CC"]

# Malformed JSON inputs, written into the working directory of every case.
TRIPLE_RULES = {"TriangleK3": 1.0, "PathP3": 0.5, "OtherTriple": 0.2}
SOLUTION = {"objective_value": 0.0, "status": "optimal"}
BAD_FILES = {
    "w_lambda.json": {"k": 3, "rules": TRIPLE_RULES, "lambda": "x"},
    "w_k.json": {"k": "x", "rules": TRIPLE_RULES},
    "w_seed.json": {"k": 3, "rules": TRIPLE_RULES, "seed": "s"},
    "w_rule.json": {"k": 3, "rules": dict(TRIPLE_RULES, PathP3="abc")},
    "w_override.json": {"k": 3, "rules": TRIPLE_RULES, "overrides": [[1, 2, 3, "q"]]},
    "w_rules_list.json": {"k": 3, "rules": [1, 2]},
    "w_list.json": [1, 2],
    "w_overrides.json": {"k": 3, "rules": TRIPLE_RULES, "overrides": 5},
    "w_negative_seed.json": {"k": 3, "rules": dict(TRIPLE_RULES, PathP3=[0.2, 0.8]), "seed": -1},
    "w_lambda_nan.json": {"k": 3, "rules": TRIPLE_RULES, "lambda": "nan"},
    "w_directed.json": {"k": 3, "rules": TRIPLE_RULES, "directed": "no"},
    "s_list.json": [1, 2],
    "s_string.json": "x_1_2",
    "s_value.json": {"x_1_2": "abc"},
    "s_values_list.json": dict(SOLUTION, values=[0.5]),
    "s_values_value.json": dict(SOLUTION, values={"x_1_2": "abc"}),
    "c_list.json": [{"generator": "fig2a", "weights": "fig2"}],
    "c_run.json": {"runs": [{"generator": "fig2a", "weights": "fig2"}, 3]},
}
DUMP = "minimize\nobj: +1*x_1_2 offset 0\nsubject to\nbounds\n0 <= x_1_2 <= 1\nend\n"
BAD_DUMPS = {"d_outside.txt": "obj: +1*x\n", "d_no_end.txt": DUMP.removesuffix("end\n")}
VERIFY = ["verify", "--problem", "p.txt", "--solution"]
ROUND = ["round", "--n", "3", "--k", "2", "--solution"]
BAD_VALUES = {
    "alpha-0": (["solve", *FIG2A_CC, "--alpha", "0"], "alpha"),
    "beta-0": (["solve", *FIG2A_CC, "--beta", "0"], "beta"),
    "anomaly-weight": (["solve", "--generator", "fig2a", "--weights", "anomaly:abc"], "'abc'"),
    "layered-flow-weight": (["exact", "--generator", "fig2a", "--weights", "layered-flow:x"], "'x'"),
    "generator-arg": (
        ["solve", "--generator", "fig2b", "--generator-arg", "n=abc", "--weights", "fig2"], "'abc'"
    ),
    "generate-arg": (["generate", "--name", "fig2b", "--generator-arg", "n=abc"], "'abc'"),
    "zero-seeds": (["baseline", *FIG2A_CC, "--kind", "vertex", "--num-seeds", "0"], "got 0"),
    "negative-seeds": (["baseline", *FIG2A_CC, "--kind", "vertex", "--num-seeds", "-2"], "got -2"),
    "first-edge": (["baseline", *FIG2A_CC, "--kind", "edge", "--first-edge", "a,b"], "'a,b'"),
    "tol-nan": (["solve", *FIG2A_CC, "--tol", "nan"], "got nan"),
    "tol-inf": (["solve", *FIG2A_CC, "--tol", "inf"], "got inf"),
    "zero-max-iterations": (["solve", *FIG2A_CC, "--max-iterations", "0"], "got 0"),
    "solve-seed": (["solve", *FIG2A_CC, "--seed", "-1"], "got -1"),
    "exact-seed": (["exact", *FIG2A_CC, "--seed", "-1"], "got -1"),
    "baseline-seed": (["baseline", *FIG2A_CC, "--kind", "vertex", "--seed", "-1"], "got -1"),
    "round-seed": (["round", "--solution", "x.json", "--n", "3", "--k", "2", "--seed", "-1"], "got -1"),
    "unknown-generator-arg": (["solve", "--generator", "fig2b", "--generator-arg", "foo=1", "--weights", "fig2"], "'foo'"),
    "unknown-generate-arg": (["generate", "--name", "fig2a", "--generator-arg", "n=4"], "'n'"),
    "tol-below-highs-range": (["solve", *FIG2A_CC, "--tol", "1e-12"], "primal_feasibility_tolerance=1e-12"),
    "weights-lambda": (["solve", "--generator", "fig2a", "--weights", "w_lambda.json"], "'lambda'"),
    "weights-k": (["solve", "--generator", "fig2a", "--weights", "w_k.json"], "'k'"),
    "weights-seed": (["solve", "--generator", "fig2a", "--weights", "w_seed.json"], "'seed'"),
    "weights-rule-value": (["solve", "--generator", "fig2a", "--weights", "w_rule.json"], "PathP3"),
    "weights-override": (["solve", "--generator", "fig2a", "--weights", "w_override.json"], "'q'"),
    "weights-rules-list": (["solve", "--generator", "fig2a", "--weights", "w_rules_list.json"], "rules"),
    "weights-top-list": (["solve", "--generator", "fig2a", "--weights", "w_list.json"], "got 1"),
    "weights-overrides": (["solve", "--generator", "fig2a", "--weights", "w_overrides.json"], "'overrides'"),
    "weights-negative-seed": (["solve", "--generator", "fig2a", "--weights", "w_negative_seed.json"], "got -1"),
    "weights-lambda-nan": (["solve", "--generator", "fig2a", "--weights", "w_lambda_nan.json"], "got nan"),
    "weights-directed": (["solve", "--generator", "fig2a", "--weights", "w_directed.json"], "'directed'"),
    "verify-list": ([*VERIFY, "s_list.json"], "got list"),
    "verify-string": ([*VERIFY, "s_string.json"], "got str"),
    "verify-value": ([*VERIFY, "s_value.json"], "'x_1_2'"),
    "verify-values-list": ([*VERIFY, "s_values_list.json"], "'values'"),
    "verify-values-value": ([*VERIFY, "s_values_value.json"], "'x_1_2'"),
    "round-values-list": ([*ROUND, "s_values_list.json"], "'values'"),
    "round-values-value": ([*ROUND, "s_values_value.json"], "'x_1_2'"),
    "compare-list": (["compare", "--config", "c_list.json"], "got list"),
    "compare-run": (["compare", "--config", "c_run.json"], "runs[1]"),
    "dump-line-before-section": (["solve", "--lp-dump", "d_outside.txt"], "line 1: 'obj: +1*x'"),
    "dump-without-end": (["solve", "--lp-dump", "d_no_end.txt"], "line 5: the dump ends without"),
    "verify-line-before-section": (["verify", "--problem", "d_outside.txt", "--solution", "s.json"], "line 1: 'obj"),
    "verify-without-end": (["verify", "--problem", "d_no_end.txt", "--solution", "s.json"], "line 5: the dump"),
}


class TestBadValuesExit2:
    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_exits_2_naming_the_value(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # generate writes into the working directory
        for name, payload in BAD_FILES.items():
            (tmp_path / name).write_text(json.dumps(payload))
        (tmp_path / "p.txt").write_text(DUMP)
        for name, text in BAD_DUMPS.items():
            (tmp_path / name).write_text(text)
        argv, named = BAD_VALUES[case]
        assert main(argv) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--tol", "0", "got 0.0"),
            ("--tol", "1e-12", "primal_feasibility_tolerance=1e-12"),
            ("--tol", "nan", "got nan"),
            ("--max-iterations", "0", "got 0"),
        ],
    )
    def test_a_bad_solver_option_exits_2_before_an_lp_is_built_or_read(
        self, flag, value, named, tmp_path, monkeypatch, capsys
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("an LP was built")

        monkeypatch.setattr(pipeline, "build_relaxation", no_build)
        assert main(["solve", *FIG2A_CC, flag, value]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        # the dump is never opened: its absence would name the file instead
        assert main(["solve", "--lp-dump", str(tmp_path / "absent.lp"), flag, value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and "absent.lp" not in err

    @pytest.mark.parametrize("flag", [["--engine", "scipy"], ["--no-warm-start"]])
    def test_removed_solver_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", *FIG2A_CC, *flag])
        assert exc.value.code == EXIT_CONFIG
        assert flag[0] in capsys.readouterr().err


class TestExactCommand:
    def test_small_instance(self, capsys):
        code = main(["exact", "--generator", "fig2a", "--weights", "fig2"])
        assert code == EXIT_OK
        payload = last_json(capsys)
        assert payload["cost"] == pytest.approx(0.0)
        assert payload["solver"] == "exact-enumeration"

    def test_cap_refusal_exits_2(self, capsys):
        code = main(["exact", "--generator", "fig2a", "--weights", "fig2", "--cap", "4"])
        assert code == EXIT_CONFIG

    def test_override_outside_graph_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("1\t2\n2\t3\n3\t4\n")
        weights = tmp_path / "weights.json"
        rules = {"TriangleK3": 1.0, "PathP3": 0.5, "OtherTriple": 0.2}
        weights.write_text(json.dumps({"k": 3, "rules": rules, "overrides": [[1, 2, 99, 0.9]]}))
        code = main(["exact", "--input", str(edges), "--undirected", "--weights", str(weights)])
        assert code == EXIT_CONFIG
        assert "99" in capsys.readouterr().err


class TestBaselineCommand:
    def test_single_seed(self, capsys):
        code = main(
            ["baseline", "--generator", "fig2a", "--weights", "fig2", "--kind", "vertex"]
        )
        assert code == EXIT_OK
        assert last_json(capsys)["solver"] == "pivot-vertex"

    def test_multi_seed_summary(self, capsys):
        code = main(
            [
                "baseline",
                "--generator", "fig2a",
                "--weights", "fig2",
                "--kind", "edge",
                "--num-seeds", "3",
            ]
        )
        assert code == EXIT_OK
        payload = last_json(capsys)
        assert payload["seeds"] == [0, 1, 2]
        assert len(payload["costs"]) == 3
        assert payload["best"]["cost"] == pytest.approx(min(payload["costs"]))

    def test_forced_first_edge(self, capsys):
        code = main(
            [
                "baseline",
                "--generator", "fig2a",
                "--weights", "fig2",
                "--kind", "edge",
                "--first-edge", "1,4",
            ]
        )
        assert code == EXIT_OK
        assert last_json(capsys)["cost"] == pytest.approx(18.0)


class TestGenerateCommand:
    def test_writes_edges_and_manifest(self, tmp_path, capsys):
        code = main(
            ["generate", "--name", "fig2b", "--generator-arg", "n=9", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        payload = last_json(capsys)
        assert payload["n"] == 9
        manifest = json.loads((tmp_path / "fig2b_manifest.json").read_text())
        assert manifest["n"] == 9
        assert (tmp_path / "fig2b_edges.txt").exists()

    def test_bad_generator_arg_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--name", "fig2b", "--generator-arg", "n:9"])


class TestCompareCommand:
    def test_two_runs_with_reference(self, tmp_path, capsys):
        spec = {
            "runs": [
                {"generator": "fig2a", "weights": "fig2"},
                {"generator": "fig2a", "weights": "fig2", "relaxation": "LP1"},
            ],
            "labels": ["pair", "tuple"],
            "reference": [[1, 2, 3], [4, 5, 6]],
        }
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps(spec))
        csv_out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", str(cfg), "--out-csv", str(csv_out)])
        assert code == EXIT_OK
        rows = last_json(capsys)
        assert [r["label"] for r in rows] == ["pair", "tuple"]
        assert all(r["errors_vs_reference"] == 0 for r in rows)
        assert csv_out.read_text().startswith("label,")

    def test_empty_runs_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({"runs": []}))
        assert main(["compare", "--config", str(cfg)]) == EXIT_CONFIG

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.json"
        cfg.write_text("{not json")
        assert main(["compare", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("tol", ["NaN", "Infinity", "-1e-6"])
    def test_bad_certificate_tol_exits_2(self, tol, tmp_path, capsys):
        cfg = tmp_path / "cmp.json"
        # json.dumps cannot write NaN as a literal, so the file is written by hand
        cfg.write_text('{"runs": [{"generator": "fig2a", "weights": "fig2", "certificate_tol": %s}]}' % tol)
        assert main(["compare", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"got {float(tol)}" in capsys.readouterr().err


class TestVerifyCommand:
    def test_valid_solution_passes(self, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        main(["solve", "--lp-dump", str(dump), "--solution-out", str(sol)])
        capsys.readouterr()
        assert main(["verify", "--problem", str(dump), "--solution", str(sol)]) == EXIT_OK

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_2(self, tol, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        sol.write_text(json.dumps({"z_1_2": 7.0}))  # 6.0 above its bound
        assert main(["verify", "--problem", str(dump), "--solution", str(sol), "--tol", tol]) == EXIT_CONFIG
        assert f"got {float(tol)}" in capsys.readouterr().err

    def test_violated_solution_exits_4(self, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        main(["solve", "--lp-dump", str(dump), "--solution-out", str(sol)])
        capsys.readouterr()
        payload = json.loads(sol.read_text())
        payload["values"] = {name: 5.0 for name in payload["values"]}  # breach the [0,1] bounds
        sol.write_text(json.dumps(payload))
        assert main(["verify", "--problem", str(dump), "--solution", str(sol)]) == EXIT_CERTIFICATE
        assert "violation" in capsys.readouterr().out.lower()

    def test_nan_solution_exits_4(self, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        main(["solve", "--lp-dump", str(dump), "--solution-out", str(sol)])
        capsys.readouterr()
        payload = json.loads(sol.read_text())
        payload["values"] = {name: float("nan") for name in payload["values"]}
        sol.write_text(json.dumps(payload))  # json writes the bare token NaN
        assert main(["verify", "--problem", str(dump), "--solution", str(sol)]) == EXIT_CERTIFICATE
        assert "violations (worst inf)" in capsys.readouterr().out

    def test_name_map_accepted(self, tmp_path, capsys):
        problem = make_problem(
            "tiny",
            [LinearConstraint("r", [(v("a"), 1.0), (v("b"), 1.0)], "<=", 1.0)],
            {v("a"): -1.0, v("b") : 0.0},
        )
        dump = tmp_path / "tiny.lp.txt"
        problem.to_text(str(dump))
        sol = tmp_path / "map.json"
        sol.write_text(json.dumps({"a": 1.0, "b": 0.0}))
        assert main(["verify", "--problem", str(dump), "--solution", str(sol)]) == EXIT_OK


class TestMalformedDump:
    # section whose first line gets corrupted, and how
    CASES = {
        "no-sense-token": ("subject to", lambda ln: ln.replace(" <= ", " ")),
        "non-numeric-coefficient": ("subject to", lambda ln: ln.replace(": ", ": +abc*z_1_2 ", 1)),
        "short-bounds-line": ("bounds", lambda ln: "0 <= z_1_2"),
        "no-right-hand-side": ("subject to", lambda ln: ln.rsplit(" ", 1)[0]),
    }

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_line(self, case, command, tmp_path, capsys):
        buf = io.StringIO()
        fig2a_lp2().to_text(buf)
        lines = buf.getvalue().splitlines()
        section, corrupt = self.CASES[case]
        at = lines.index(section) + 1
        lines[at] = corrupt(lines[at])
        dump = tmp_path / "bad.lp.txt"
        dump.write_text("\n".join(lines) + "\n")
        sol = tmp_path / "solution.json"
        sol.write_text("{}")
        argv = {
            "verify": ["verify", "--problem", str(dump), "--solution", str(sol)],
            "solve": ["solve", "--lp-dump", str(dump)],
        }[command]
        assert main(argv) == EXIT_CONFIG
        assert f"line {at + 1}:" in capsys.readouterr().err

    # a file that is not one whole dump, and the line its error names
    PARTS = {
        "line-before-first-section": (lambda lines: ["obj: +1*x"], 1),
        "first-half-without-end": (lambda lines: lines[: len(lines) // 2], None),
    }

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("case", sorted(PARTS))
    def test_a_part_of_a_dump_exits_2_naming_the_line(self, case, command, tmp_path, capsys):
        buf = io.StringIO()
        fig2a_lp2().to_text(buf)
        cut, at = self.PARTS[case]
        lines = cut(buf.getvalue().splitlines())
        dump = tmp_path / "part.lp.txt"
        dump.write_text("\n".join(lines) + "\n")
        sol = tmp_path / "solution.json"
        sol.write_text("{}")
        argv = {
            "verify": ["verify", "--problem", str(dump), "--solution", str(sol)],
            "solve": ["solve", "--lp-dump", str(dump)],
        }[command]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"line {at or len(lines)}:" in err
        assert ("before the first section" if at else "without its 'end' line") in err


class TestOversizedInput:
    """An input whose LP is over its cap exits 2 before anything of size
    C(n,k) is made: the edge list ``1 2`` / ``2000 2001`` has n = 2001,
    so C(n,3) = 1.33e9 triples.  Each case runs in its own process under an
    address-space limit, so a regression fails instead of taking the
    machine's memory."""

    @pytest.mark.parametrize("method", [["CC"], ["MCC"], ["MMCC"], ["MCC", "--relaxation", "LP1"]],
                             ids=["CC", "MCC", "MMCC", "MCC-LP1"])
    def test_exits_2_within_a_second(self, method, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2000 2001\n")
        argv = ["solve", "--input", str(edges), "--undirected", "--weights", "table1", "--method", *method]
        code = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from motifcc.cli import main\n"
            "t0 = time.perf_counter()\n"
            f"code = main({argv!r})\n"
            "print(time.perf_counter() - t0)\n"
            "sys.exit(code)\n"
        )
        proc = fresh(code)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "would need" in proc.stderr and "(cap " in proc.stderr
        assert float(proc.stdout) < 1.0


class TestParserBasics:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_choice_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["solve", "--generator", "marble"])

    @pytest.mark.parametrize(
        "argv",
        [["--help"], [], ["marble"], ["solve", "--bogus"], ["round"]] + [[name, "--help"] for name in COMMANDS],
        ids=" ".join,
    )
    def test_a_parser_of_one_command_prints_what_the_full_parser_does(self, argv, capsys):
        # main adds the arguments of the command argv names only; the full
        # parser is the one every subcommand's arguments are added to
        outputs = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outputs.append((exc.value.code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].out or outputs[0][1].err

    def test_the_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert all(f"    {name} " in out for name in COMMANDS)

    def test_a_parser_for_one_command_adds_no_other_commands_arguments(self, capsys):
        assert build_parser("solve").parse_args(["solve", "--seed", "1"]).seed == 1
        with pytest.raises(SystemExit):
            build_parser("round").parse_args(["solve", "--seed", "1"])
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
