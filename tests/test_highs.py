"""scipy's bundled HiGHS: the loader, the hot start by addRows, and what
importing and running motifcc leaves in the process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from motifcc import simplex
from motifcc.cli import EXIT_OK, EXIT_SOLVER, main
from motifcc.errors import InvalidParameterError
from motifcc.lpmodel import add_triangle_rows, separate_triangles
from motifcc.pipeline import RunConfig, build_relaxation, load_instance, resolve_weights, run

from test_lp_rows import lp3_cases

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = "scipy.optimize._highspy._core"
FIG2A = ["solve", "--generator", "fig2a", "--weights", "fig2"]


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports motifcc from src/."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


class TestLoader:
    def test_finds_the_extension_in_scipy(self):
        core = simplex.highs_core()
        assert Path(core.__file__).parent == Path(scipy.__file__).parent / "optimize" / "_highspy"
        assert sys.modules[CORE] is core
        assert hasattr(core._Highs, "addRows")

    def test_missing_extension_exits_3_naming_the_path(self, monkeypatch, tmp_path, capsys):
        fake = tmp_path / "scipy"
        fake.mkdir()
        monkeypatch.setattr(scipy, "__file__", str(fake / "__init__.py"))
        monkeypatch.delitem(sys.modules, CORE, raising=False)
        assert main(FIG2A) == EXIT_SOLVER
        assert str(fake / "optimize" / "_highspy" / "_core") in capsys.readouterr().err

    def test_import_loads_neither_scipy_optimize_nor_highs(self):
        proc = fresh(f"import sys, motifcc.cli; print([m in sys.modules for m in ('scipy.optimize', {CORE!r})])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[False, False]\n"

    def test_an_lp2_run_prints_only_its_report_and_leaves_scipy_optimize_out(self):
        code = (
            "import sys\n"
            "from motifcc.cli import main\n"
            f"code = main({FIG2A!r})\n"
            f"print([m in sys.modules for m in ('scipy.optimize', {CORE!r})], file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = fresh(code)
        assert proc.returncode == EXIT_OK
        report = json.loads(proc.stdout)  # one JSON document: HiGHS wrote nothing around it
        assert report["relaxation"] == "LP2" and report["solver"]["engine"] == "scipy"
        assert proc.stderr == "[False, True]\n"

    @pytest.mark.parametrize("linprog_first", [True, False])
    def test_linprog_before_and_after_the_loader(self, linprog_first):
        code = f"""
import sys
from motifcc import simplex
from motifcc.pipeline import RunConfig, run

def check_linprog(**options):
    from scipy.optimize import linprog
    res = linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=[(0, 1)] * 2,
                  method="highs", options=options)
    assert res.status == 0 and abs(res.fun - 1.0) < 1e-12, res

if {linprog_first}:
    # two threads start HiGHS's shared scheduler with more threads than motifcc uses
    check_linprog(threads=2)
report = run(RunConfig(generator="fig2a", weights="fig2"))
if not {linprog_first}:
    check_linprog()
from scipy.optimize._highspy import _highs_wrapper
assert simplex.highs_core() is sys.modules[{CORE!r}] is _highs_wrapper._h
print(report.lp_value)
"""
        proc = fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == run(RunConfig(generator="fig2a", weights="fig2")).lp_value


def karate_cc_core():
    cfg = RunConfig(generator="karate", weights="table1", method="CC")
    graph, _ = load_instance(cfg)
    return build_relaxation("LP3", resolve_weights(cfg, graph), graph.n)


class TestPresolveOff:
    def test_highs_reads_back_presolve_off(self):
        model = simplex.HighsModel()
        assert simplex.solve(karate_cc_core(), model=model).status == "optimal"
        assert model.highs.getOptionValue("presolve")[1] == "off"

    @pytest.mark.parametrize("case", ["karate-MMCC", "planted22-MMCC"])
    def test_round_one_is_the_same_as_with_presolve_on(self, case, monkeypatch):
        mixed, n = lp3_cases()[case]
        problem = build_relaxation("LP3", mixed, n)
        off = simplex.solve(problem)
        real_load = simplex.HighsModel.load

        def presolve_on(model, lp):
            real_load(model, lp)
            model.highs.setOptionValue("presolve", "on")

        monkeypatch.setattr(simplex.HighsModel, "load", presolve_on)
        on = simplex.solve(problem)
        assert on.status == off.status == "optimal"
        assert on.iterations == off.iterations > 0
        assert on.solution.objective_value == off.solution.objective_value


class TestHotStart:
    def test_added_rows_reoptimize_from_the_last_basis(self):
        cfg = simplex.SolverConfig(engine="scipy")
        model = simplex.HighsModel()
        problem = karate_cc_core()
        hot_iterations = cold_iterations = 0
        for _ in range(10):
            hot = simplex.solve(problem, cfg, model=model)
            cold = simplex.solve(problem, cfg)
            assert hot.status == cold.status == "optimal"
            assert hot.solution.objective_value == pytest.approx(cold.solution.objective_value, rel=1e-12)
            assert model.highs.getNumRow() == problem.num_rows
            hot_iterations += hot.iterations
            cold_iterations += cold.iterations
            violated = separate_triangles(problem, hot.solution.values, cfg.tol)
            if not len(violated):
                break
            problem = add_triangle_rows(problem, violated)
        assert hot.solution.objective_value == pytest.approx(249.25, abs=1e-9)
        assert hot_iterations < cold_iterations

    def test_a_problem_that_does_not_extend_the_model_is_refused(self):
        core = karate_cc_core()
        grown = add_triangle_rows(core, np.array([[1, 2, 3, 1], [1, 2, 4, 2]]))
        model = simplex.HighsModel()
        simplex.solve(grown, simplex.SolverConfig(engine="scipy"), model=model)
        with pytest.raises(InvalidParameterError, match="does not extend"):
            simplex.solve(core, simplex.SolverConfig(engine="scipy"), model=model)

    def test_lp_dump_solves_on_highs(self, monkeypatch, tmp_path, capsys):
        calls = []
        real = simplex._solve_highs

        def counted(problem, *args):
            calls.append(problem.num_rows)
            return real(problem, *args)

        monkeypatch.setattr(simplex, "_solve_highs", counted)
        dump = tmp_path / "karate.lp.txt"
        grown = add_triangle_rows(karate_cc_core(), np.array([[1, 2, 3, 1]]))
        grown.to_text(str(dump))
        assert main(["solve", "--lp-dump", str(dump)]) == EXIT_OK
        assert calls == [1]
        assert json.loads(capsys.readouterr().out)["status"] == "optimal"
