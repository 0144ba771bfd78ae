#!/usr/bin/env python3
"""motifcc benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload karate-cc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Run it from the repository root.  The end-to-end unit is one ``motifcc``
command, run in this process through ``motifcc.cli.main(argv)`` on input
files generated from the workload seed (see workloads.py).  A workload of
several instances (any workload, when traced) first runs its first
instance's commands once, gated but untimed, so lazy imports and first
calls stay out of the timed batches.  A run then repeats the workload's
batch of commands, starting another batch only while at least half of one
still fits in ``--seconds``, and reports medians over the batches
(small-exact's batch takes about 30 s, so it runs once).  Every command
goes through the output gate (gate.py); the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, all measured untraced:

  wall_s        wall seconds of one batch: the sum over its commands of
                each command's median over the run's batches
  cpu_s         the same for process CPU seconds, all threads
  setup_s       median fresh-interpreter import of motifcc.cli plus the
                median time to generate and write the workload's inputs
  peak_rss_mb   peak resident set of this process
  cost_over_lp  sum of rounded costs / sum of LP values over solve commands

``--trace 1`` alternates untraced and traced batches after the warm-up
and reports the per-layer metrics from the traced ones (tracer.py), plus
``trace.overhead_frac`` = traced wall / untraced wall - 1.  Only the traced
batches capture the LP point, so only they check it against
``verify_solution`` and an independent HiGHS solve.

Thread variables are recorded as found and never set here, so ``cpu_s``
includes whatever the BLAS threads burn.  Working files (inputs, reports,
results, spans) go to .perfbench_work/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from gate import Gate, Outcome, close

# motifcc is imported inside functions: src/ goes on the path only after
# main() has found it, so a tree without the sources fails cleanly.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
# The ROADMAP baseline the traced karate-cc run must reproduce.
KARATE_BASELINE = {"iterations": 1913, "rows": 17952, "vars": 561, "lp_value": 249.25, "solve_s": 7.8}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cost_over_lp": "ratio",
}


def per_layer_units() -> dict[str, str]:
    from tracer import KERNELS

    units = {
        "motifs.table_s": "s",
        "motifs.tuples": "count",
        "motifs.classify_per_tuple": "ratio",
        "pipeline.weights_s": "s",
        "pipeline.greedy_s": "s",
        "lpmodel.build_s": "s",
        "lpmodel.rows": "count",
        "lpmodel.vars": "count",
        "lpmodel.nnz": "count",
        "lpmodel.row_name_bytes": "bytes",
        "lpmodel.induced_s": "s",
        "lpmodel.breakdown_s": "s",
        "lpmodel.evaluate_calls": "count",
        "simplex.solve_s": "s",
        "simplex.iterations": "count",
        "simplex.pivots": "count",
        "simplex.bound_flips": "count",
        "simplex.phase1_iterations": "count",
        "simplex.refactors": "count",
        "simplex.refactor_s": "s",
        "simplex.s_per_iter": "s",
        "simplex.verify_s": "s",
    }
    for name in KERNELS:
        units[f"kernels.{name}.calls"] = "count"
        units[f"kernels.{name}.s"] = "s"
        units[f"kernels.{name}.bytes"] = "bytes_computed"
    units.update(
        {
            "rounding.round_s": "s",
            "rounding.certify_s": "s",
            "exact.search_s": "s",
            "exact.partitions_per_s": "1/s",
            "exact.cost_over_opt": "ratio",
            "baselines.pivot_s": "s",
            "cli.overhead_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------- set-up


def fresh_import_seconds() -> float:
    """Import time of motifcc.cli in a new interpreter (what every
    ``motifcc`` invocation pays before it starts work)."""
    code = "import time; t = time.perf_counter(); import motifcc.cli; print(time.perf_counter() - t)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    from motifcc import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "machine": os.uname().machine,
        "system": f"{os.uname().sysname} {os.uname().release}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_backend": kernels.active_backend(),
        "MOTIFCC_BACKEND": os.environ.get("MOTIFCC_BACKEND"),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_pinned_by_benchmark": False,
    }


# ---------------------------------------------------------------- batches


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """``motifcc <argv>`` in this process: exit code, stdout, stderr.

    An exception that escapes ``main`` is what the console script would
    die of with exit code 1, so it is recorded as that."""
    from motifcc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the boundary a console script would crash at
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_batch(workload, tracer=None):
    """All of the workload's commands once, each timed on its own."""
    outcomes = []
    for inst, cmd in workload.commands:
        if tracer is not None:
            tracer.command = cmd.cid
        t, c = time.perf_counter(), time.process_time()
        code, stdout, stderr = run_command(cmd.argv)
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        outcomes.append((inst, Outcome(cmd, code, stdout, stderr, wall, cpu)))
    if tracer is not None:
        for _, out in outcomes:
            out.lp_point = tracer.lp_points.get(out.command.cid)
    return outcomes


def batch_seconds(batches: list[list]) -> tuple[float, float]:
    """Wall and CPU seconds of one batch, each the sum over commands of
    that command's median over the batches.  A slow spell of the machine
    then shifts one sample of a few commands rather than a whole batch."""
    by_cmd: dict[str, list] = {}
    for outcomes in batches:
        for _, out in outcomes:
            by_cmd.setdefault(out.command.cid, []).append((out.wall, out.cpu))
    wall = sum(median([w for w, _ in v]) for v in by_cmd.values())
    cpu = sum(median([c for _, c in v]) for v in by_cmd.values())
    return wall, cpu


class GateChecks:
    """The gate's references: weights built by the benchmark from each
    generated graph, and (traced runs) the LP-point checks."""

    def __init__(self):
        self._weights: dict[str, object] = {}
        self.verify_s = 0.0

    def cost_of(self, inst, clusters) -> float:
        from motifcc.graph import DirectedGraph, Partition
        from motifcc.lpmodel import evaluate_objective
        from motifcc.motifs import build_table1_weights, weights_from_config

        if inst.iid not in self._weights:
            graph = DirectedGraph.from_arcs(inst.n, inst.arcs)
            self._weights[inst.iid] = (
                build_table1_weights(inst.method, graph)
                if inst.weights == "table1"
                else weights_from_config(inst.weights, graph)
            )
        return evaluate_objective(Partition.from_cluster_list(clusters, n=inst.n), self._weights[inst.iid])

    def check_lp(self, problem, result, lp_value: float) -> str:
        from motifcc.simplex import SolverConfig, solve, verify_solution

        t = time.perf_counter()
        report = verify_solution(problem, result.solution, tol=1e-6)
        self.verify_s += time.perf_counter() - t
        if not report.ok:
            return f"LP point infeasible: {report.summary()}"
        own = result.solution.objective_value
        if not close(own, lp_value):
            return f"report LP value {lp_value!r} differs from the solver's {own!r}"
        highs = solve(problem, SolverConfig(engine="scipy"))
        if highs.status != "optimal":
            return f"HiGHS cross-check status {highs.status}"
        ref = highs.solution.objective_value
        if not close(ref, own):
            return f"LP value {own!r} differs from HiGHS {ref!r}"
        return ""


# ---------------------------------------------------------------- metrics


def layer_metrics(tracer, outcomes, verify_s: float) -> dict[str, float]:
    from tracer import KERNELS

    seconds, calls = tracer.totals()
    c = tracer.counts
    m = {
        "motifs.table_s": seconds["motifs.tuple_table"],
        "motifs.tuples": c["motifs.tuples"],
        "motifs.classify_per_tuple": calls["motifs.classify"] / c["motifs.tuples"] if c["motifs.tuples"] else 0.0,
        "pipeline.weights_s": seconds["pipeline.resolve_weights"],
        "pipeline.greedy_s": seconds["pipeline.greedy_partition"],
        "lpmodel.build_s": seconds["pipeline.build_relaxation"],
        "lpmodel.rows": c["lpmodel.rows"],
        "lpmodel.vars": c["lpmodel.vars"],
        "lpmodel.nnz": c["lpmodel.nnz"],
        "lpmodel.row_name_bytes": c["lpmodel.row_name_bytes"],
        "lpmodel.induced_s": seconds["pipeline.induced_point"],
        "lpmodel.breakdown_s": seconds["pipeline.per_class_breakdown"],
        "lpmodel.evaluate_calls": calls["pipeline.evaluate_objective"],
        "simplex.solve_s": seconds["pipeline.solve"],
        "simplex.iterations": c["simplex.iterations"],
        "simplex.pivots": c["simplex.pivots"],
        "simplex.bound_flips": c["simplex.bound_flips"],
        "simplex.phase1_iterations": c["simplex.phase1_iterations"],
        "simplex.refactors": calls["simplex.splu"],
        "simplex.refactor_s": seconds["simplex.splu"],
        "simplex.s_per_iter": seconds["pipeline.solve"] / c["simplex.iterations"] if c["simplex.iterations"] else 0.0,
        "simplex.verify_s": verify_s,
    }
    for name in KERNELS:
        m[f"kernels.{name}.calls"] = calls[f"kernels.{name}"]
        m[f"kernels.{name}.s"] = seconds[f"kernels.{name}"]
        m[f"kernels.{name}.bytes"] = c[f"kernels.{name}.bytes"]
    run_s = {}
    for cmd, name, start, end, _ in tracer.spans:
        if name == "pipeline.run":
            run_s[cmd] = run_s.get(cmd, 0.0) + end - start
    m.update(
        {
            "rounding.round_s": seconds["pipeline.round_alg1"] + seconds["pipeline.round_alg2"],
            "rounding.certify_s": seconds["pipeline.certify"],
            "exact.search_s": seconds["exact.search"],
            "exact.partitions_per_s": c["exact.partitions"] / seconds["exact.search"] if seconds["exact.search"] else 0.0,
            "baselines.pivot_s": seconds["baselines.pivot"],
            "cli.overhead_s": sum(out.wall - run_s[out.command.cid] for _, out in outcomes if out.command.cid in run_s),
        }
    )
    return m


def quality(answers: dict, workload) -> dict[str, float]:
    """cost_over_lp over solve commands; cost_over_opt over solve commands
    whose instance has a passing exact command (0 where there is none)."""
    cost = lp = cost_opt = opt = 0.0
    for inst, cmd in workload.commands:
        if cmd.kind != "solve" or cmd.cid not in answers:
            continue
        cost += answers[cmd.cid][1]
        lp += answers[cmd.cid][2]
        exact = next((c.cid for c in inst.commands if c.kind == "exact"), None)
        if exact in answers:
            cost_opt += answers[cmd.cid][1]
            opt += answers[exact][1]
    return {
        "cost_over_lp": cost / lp if lp else 0.0,
        "cost_over_opt": cost_opt / opt if opt else 0.0,
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- runs


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{name}-seed{seed}"
    import_s = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    import motifcc.cli  # noqa: F401 - the in-process copy the commands run on

    gen_s = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t = time.perf_counter()
        workload = workloads.generate(name, seed, workdir)
        gen_s.append(time.perf_counter() - t)
    setup_s = median(import_s) + median(gen_s)

    checks = GateChecks()
    gate = Gate(checks.cost_of)
    traced_gate = Gate(checks.cost_of, checks.check_lp)
    traced_gate.reference = gate.reference
    verdicts, untraced, traced, layer_runs = [], [], [], []
    tracer = None

    def one_batch(with_trace: bool) -> None:
        nonlocal tracer
        if not with_trace:
            outcomes = run_batch(workload)
            untraced.append(outcomes)
            verdicts.extend(gate.check_batch(outcomes))
            return
        from tracer import Tracer

        with Tracer() as tracer:
            outcomes = run_batch(workload, tracer)
        traced.append(outcomes)
        checks.verify_s = 0.0
        verdicts.extend(traced_gate.check_batch(outcomes))
        layer_runs.append(layer_metrics(tracer, outcomes, checks.verify_s))

    if trace or len(workload.instances) > 1:
        # untraced, a single-instance workload repeats its batch instead and
        # the per-command median drops the cold first one; traced, a cold
        # batch would skew the traced-versus-untraced comparison of a pair
        warm_up = run_batch(workloads.Workload(workload.instances[:1]))
        verdicts.extend(gate.check_batch(warm_up))

    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        order = [False, True] if trace else [False]
        if len(traced) % 2:
            order.reverse()  # alternate, so drift during a pair cancels
        for with_trace in order:
            one_batch(with_trace)
        now = time.perf_counter()
        # another round only if at least half of it fits before the deadline
        if now + (now - start) / 2 >= deadline:
            break

    answers = gate.answers
    q = quality(answers, workload)
    wall_s, cpu_s = batch_seconds(untraced)
    result = {
        "environment": environment(name, seed),
        "attempted": len(verdicts),
        "failed": sum(not v.passed for v in verdicts),
        "wrong": sum(v.kind == "wrong" for v in verdicts),
        "failures": sorted({f"{v.cid}: {v.kind}: {v.reason}" for v in verdicts if not v.passed}),
        "batch_wall_s": [sum(out.wall for _, out in b) for b in untraced],
        "batch_cpu_s": [sum(out.cpu for _, out in b) for b in untraced],
        "setup": {"import_s": import_s, "generate_s": gen_s},
        "cost_over_opt": q["cost_over_opt"],
        "metrics": {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cost_over_lp": q["cost_over_lp"],
        },
    }
    if trace:
        # counts repeat exactly between batches; keep them whole numbers
        layers = {
            key: (statistics.median_low if isinstance(layer_runs[0][key], int) else median)([r[key] for r in layer_runs])
            for key in layer_runs[0]
        }
        layers["exact.cost_over_opt"] = q["cost_over_opt"]
        layers["trace.overhead_frac"] = batch_seconds(traced)[0] / batch_seconds(untraced)[0] - 1.0
        result["layers"] = layers
        result["batch_traced_wall_s"] = [sum(out.wall for _, out in b) for b in traced]
        result["self_s"] = dict(sorted(tracer.self_seconds().items(), key=lambda kv: -kv[1]))
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        if name == "karate-cc":
            measured = {
                "iterations": layers["simplex.iterations"],
                "rows": layers["lpmodel.rows"],
                "vars": layers["lpmodel.vars"],
                "lp_value": answers["karate.solve"][2] if "karate.solve" in answers else None,
                "solve_s": layers["simplex.solve_s"],
            }
            counts_match = all(measured[k] == KARATE_BASELINE[k] for k in ("iterations", "rows", "vars"))
            lp_match = measured["lp_value"] is not None and close(measured["lp_value"], KARATE_BASELINE["lp_value"])
            result["karate_baseline"] = {
                "expected": KARATE_BASELINE,
                "measured": measured,
                "counts_and_lp_match": counts_match and lp_match,
            }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def report(name: str, result: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the result line's JSON."""
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    m = result["metrics"]
    batches = len(result["batch_wall_s"])
    print(f"{name}: {result['attempted']} commands attempted, {result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.4f}), {result['wrong']} wrong; "
          f"{batches} untraced batches")
    for key, unit in END_TO_END.items():
        print(f"  {key:<14} {m[key]:.6g} {unit}")
    if result["cost_over_opt"]:
        print(f"  {'cost_over_opt':<14} {result['cost_over_opt']:.6g} ratio")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    if trace:
        units = per_layer_units()
        for key, value in result["layers"].items():
            print(f"  {key:<36} {value:.6g} {units[key]}")
        print("  self time by span (s): " + ", ".join(f"{k} {v:.3f}" for k, v in list(result["self_s"].items())[:8]))
        if "karate_baseline" in result:
            print("  ROADMAP karate-cc baseline vs measured: " + json.dumps(result["karate_baseline"]))
        metrics = {key: {"value": result["layers"][key], "unit": unit} for key, unit in units.items()}
    else:
        metrics = {key: {"value": m[key], "unit": unit} for key, unit in END_TO_END.items()}
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process, one after the other, then one
    table of their metrics."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    first = next(iter(results.values()))
    rows = [("attempted", "count", [r["attempted"] for r in results.values()]),
            ("failed", "count", [r["failed"] for r in results.values()]),
            ("fail_frac", "ratio", [r["failed"] / r["attempted"] for r in results.values()])]
    rows += [(key, m["unit"], [r["metrics"][key]["value"] for r in results.values()])
             for key, m in first["metrics"].items()]
    if not args.trace:
        # not a BENCHMARK.json metric: defined only where an exact optimum is known
        opt = [json.loads((WORK / f"{name}-seed{args.seed}" / "result.json").read_text())["cost_over_opt"]
               for name in results]
        rows.append(("cost_over_opt", "ratio", opt))
    print(f"{'metric':<36} {'unit':<15}" + "".join(f" {name:>14}" for name in results))
    for key, unit, values in rows:
        print(f"{key:<36} {unit:<15}" + "".join(f" {v:>14.6g}" for v in values))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="motifcc benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "motifcc" / "cli.py").is_file():
        print(f"perfbench: no motifcc sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
