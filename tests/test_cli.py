"""Command-line interface: subcommands, JSON output, exit codes."""

import io
import json

import pytest

from motifcc.cli import EXIT_CERTIFICATE, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from motifcc.generators import make_fig2a
from motifcc.lpmodel import build_lp2
from motifcc.motifs import MixedWeights, MotifWeights, WeightRule

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


class TestVerifyCommand:
    def test_valid_solution_passes(self, tmp_path, capsys):
        dump = tmp_path / "problem.lp.txt"
        fig2a_lp2().to_text(str(dump))
        sol = tmp_path / "solution.json"
        main(["solve", "--lp-dump", str(dump), "--solution-out", str(sol)])
        capsys.readouterr()
        assert main(["verify", "--problem", str(dump), "--solution", str(sol)]) == EXIT_OK

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


class TestParserBasics:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_choice_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["solve", "--generator", "marble"])
