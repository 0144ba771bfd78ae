"""Command-line interface.

Subcommands
-----------
solve     full pipeline (instance -> weights -> LP -> solve, adding the
          violated triangle or Upsilon rows -> rounding -> certificate), or
          a standalone HiGHS solve of a problem dump (--lp-dump)
round     apply a rounding procedure to a saved fractional solution
exact     exhaustive minimum-disagreement search (small n)
baseline  randomized vertex- or edge-pivot heuristics
generate  write a named instance (edge list + manifest) to a directory
compare   run several configs on one instance and tabulate the results
verify    check a solution file against a problem dump

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 certificate or verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    CertificateViolationError,
    InvalidParameterError,
    MotifccError,
    SolverFailureError,
    as_number,
)
from .exact import exact_min_disagree
from .generators import GENERATORS, make_fixture
from .lpmodel import LpProblem, FractionalSolution
from .pipeline import (
    RunConfig,
    baseline_report,
    check_seed,
    compare,
    load_instance,
    resolve_weights,
    run,
    write_comparison,
)
from .rounding import RoundingParams, recommended_params, round_alg1, round_alg2
from .simplex import SolverConfig, solve, verify_solution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATE = 4


def _parse_generator_arg(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, _, raw = text.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.replace("-", "_"), value


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="edge-list file (one 'u v' arc per line)")
    p.add_argument(
        "--generator",
        choices=sorted(GENERATORS),
        help="built-in instance generator (alternative to --input)",
    )
    p.add_argument(
        "--generator-arg",
        action="append",
        default=[],
        type=_parse_generator_arg,
        metavar="KEY=VALUE",
        help="generator keyword argument, repeatable (e.g. n=15, seed=3)",
    )
    p.add_argument("--undirected", action="store_true", help="mirror every input arc")
    p.add_argument("--zero-based", action="store_true", help="input vertices start at 0")
    p.add_argument(
        "--num-vertices",
        type=int,
        metavar="N",
        help="vertex count of the --input graph (default: its largest label), "
        "so isolated top vertices are kept",
    )


def _add_weight_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--weights",
        help=(
            "weight spec: 'table1' (with --method), 'fig2', 'anomaly[:w]', "
            "'layered-flow[:w]', or a JSON config file"
        ),
    )
    p.add_argument("--method", choices=["CC", "MCC", "MMCC"], help="table-driven preset")


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        input=args.input,
        generator=args.generator,
        generator_args=dict(args.generator_arg),
        undirected=args.undirected,
        zero_based=args.zero_based,
        num_vertices=args.num_vertices,
        weights=args.weights,
        method=args.method,
        relaxation=getattr(args, "relaxation", "auto"),
        alpha=getattr(args, "alpha", None),
        beta=getattr(args, "beta", None),
        pivot_rule=getattr(args, "pivot_rule", "lowest"),
        leftover=getattr(args, "leftover", "together"),
        seed=args.seed,
        tol=getattr(args, "tol", 1e-7),
        max_iterations=getattr(args, "max_iterations", 200_000),
        out=getattr(args, "out", None),
        trace=getattr(args, "trace", None),
    )


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


# ----------------------------------------------------------------- commands


def _cmd_solve(args) -> int:
    if args.lp_dump:
        problem = LpProblem.from_text(args.lp_dump)
        cfg = SolverConfig(tol=args.tol, max_iterations=args.max_iterations)
        result = solve(problem, cfg)
        payload = {
            "status": result.status,
            "objective": result.solution.objective_value if result.solution else None,
            "iterations": result.iterations,
        }
        _emit(payload, args.out)
        if args.solution_out and result.solution is not None:
            with open(args.solution_out, "w", encoding="utf-8") as fh:
                json.dump(result.solution.to_json_dict(), fh, indent=1, sort_keys=True)
                fh.write("\n")
        return EXIT_OK if result.status == "optimal" else EXIT_SOLVER
    report = run(_config_from_args(args))
    print(report.text)
    return EXIT_OK


def _cmd_round(args) -> int:
    check_seed(args.seed)
    with open(args.solution, encoding="utf-8") as fh:
        sol = FractionalSolution.from_json_dict(json.load(fh))
    alg1 = args.algorithm == "alg1"
    if args.alpha is None:
        params = recommended_params(args.k, "mcc-lp1" if alg1 else "mcc-lp2").params
    else:
        params = RoundingParams(args.alpha, args.beta)
    rounder = round_alg1 if alg1 else round_alg2
    partition, trace = rounder(sol, args.n, args.k, params, pivot_rule=args.pivot_rule, seed=args.seed)
    if args.trace:
        trace.write_jsonl(args.trace)
    _emit(
        {
            "clusters": [sorted(c) for c in partition.clusters],
            "algorithm": args.algorithm,
            "alpha": params.alpha,
            "beta": params.beta,
        },
        args.out,
    )
    return EXIT_OK


def _make_instance_and_weights(args):
    cfg = _config_from_args(args)
    graph, _ = load_instance(cfg)
    mixed = resolve_weights(cfg, graph)
    return graph, mixed


def _cmd_exact(args) -> int:
    graph, mixed = _make_instance_and_weights(args)
    report = exact_min_disagree(mixed, graph.n, cap=args.cap)
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_baseline(args) -> int:
    if args.num_seeds < 1:
        raise InvalidParameterError(f"--num-seeds must be at least 1, got {args.num_seeds}")
    graph, mixed = _make_instance_and_weights(args)
    first_edge = None
    if args.first_edge:
        u, _, v = args.first_edge.partition(",")
        try:
            first_edge = (int(u), int(v))
        except ValueError:
            raise InvalidParameterError(f"--first-edge expects U,V, got {args.first_edge!r}") from None
    if args.num_seeds == 1:
        report = baseline_report(args.kind, graph, mixed, args.seed, first_edge)
        _emit(report.to_json_dict(), args.out)
        return EXIT_OK
    reports = [
        baseline_report(args.kind, graph, mixed, s, first_edge)
        for s in range(args.seed, args.seed + args.num_seeds)
    ]
    best = min(reports, key=lambda r: r.cost)
    _emit(
        {
            "kind": args.kind,
            "seeds": [r.seed for r in reports],
            "costs": [r.cost for r in reports],
            "mean_cost": sum(r.cost for r in reports) / len(reports),
            "best": best.to_json_dict(),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_generate(args) -> int:
    import pathlib

    fx = make_fixture(args.name, dict(args.generator_arg))
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    edges = out_dir / f"{args.name}_edges.txt"
    manifest = out_dir / f"{args.name}_manifest.json"
    fx.write(edges, manifest)
    print(json.dumps({"edges": str(edges), "manifest": str(manifest), "n": fx.graph.n}))
    return EXIT_OK


def _cmd_compare(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"compare config must be a JSON object, got {type(spec).__name__}")
    runs = spec.get("runs")
    if not isinstance(runs, list) or not runs:
        raise MotifccError("compare config needs a non-empty 'runs' list")
    for i, r in enumerate(runs):
        if not isinstance(r, dict):
            raise InvalidParameterError(f"compare config 'runs[{i}]' must be an object, got {r!r}")
    rows = compare(
        [RunConfig.from_dict(r) for r in runs],
        reference=spec.get("reference"),
        labels=spec.get("labels"),
    )
    write_comparison(
        rows,
        json_path=args.out_json or spec.get("out_json"),
        csv_path=args.out_csv or spec.get("out_csv"),
    )
    print(json.dumps(rows, indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    problem = LpProblem.from_text(args.problem)
    with open(args.solution, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise InvalidParameterError(f"solution JSON must be an object, got {type(payload).__name__}")
    if "values" in payload:
        sol = FractionalSolution.from_json_dict(payload)
        values = {v.name: x for v, x in zip(sol.var_ids, sol.values)}
    else:
        values = {str(k): as_number(v, f"solution value {k!r}") for k, v in payload.items()}
    report = verify_solution(problem, values, tol=args.tol)
    print(report.summary())
    for v in report.violations[:20]:
        print(f"  {v}")
    return EXIT_OK if report.ok else EXIT_CERTIFICATE


# -------------------------------------------------------------------- main


COMMANDS = ("solve", "round", "exact", "baseline", "generate", "compare", "verify")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when ``command`` names one, of
    that subcommand's arguments only: argparse sets up a help formatter for
    each argument added (``-h`` too), most of a command's parse time.  The
    other subcommands are still listed, bare, so the top-level help and its
    errors stay the same."""
    parser = argparse.ArgumentParser(
        prog="motifcc",
        description="Motif correlation clustering: LP relaxations solved by row "
        "generation on HiGHS, region-growing rounding, and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, text: str, func) -> argparse.ArgumentParser | None:
        """The subparser ``name``, if its arguments are to be added."""
        full = command in (None, name) or command not in COMMANDS
        p = sub.add_parser(name, help=text, add_help=full)
        p.set_defaults(func=func)
        return p if full else None

    if p := subcommand("solve", "run the full pipeline (or solve an LP dump)", _cmd_solve):
        _add_instance_args(p)
        _add_weight_args(p)
        p.add_argument("--relaxation", default="auto", choices=["auto", "LP1", "LP2", "LP3"])
        p.add_argument("--alpha", type=float, help="rounding radius parameter")
        p.add_argument("--beta", type=float, help="pair-score threshold parameter")
        p.add_argument("--pivot-rule", default="lowest", choices=["lowest", "random"])
        p.add_argument("--leftover", default="together", choices=["together", "singletons"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-7, help="solver tolerance")
        p.add_argument("--max-iterations", type=int, default=200_000)
        p.add_argument("--out", help="write the run report JSON here")
        p.add_argument("--trace", help="write the rounding trace (JSON lines) here")
        p.add_argument("--lp-dump", help="solve this problem dump instead of building one")
        p.add_argument("--solution-out", help="with --lp-dump: write the solution JSON here")

    if p := subcommand("round", "round a saved fractional solution", _cmd_round):
        p.add_argument("--solution", required=True, help="fractional solution JSON")
        p.add_argument("--n", type=int, required=True, help="number of vertices")
        p.add_argument("--k", type=int, required=True, help="motif size")
        p.add_argument("--algorithm", default="alg2", choices=["alg1", "alg2"])
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--pivot-rule", default="lowest", choices=["lowest", "random"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        p.add_argument("--trace")

    if p := subcommand("exact", "exhaustive minimum-disagreement clustering", _cmd_exact):
        _add_instance_args(p)
        _add_weight_args(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cap", type=int, default=10, help="refuse instances with n above this")
        p.add_argument("--out")

    if p := subcommand("baseline", "randomized pivot heuristics", _cmd_baseline):
        _add_instance_args(p)
        _add_weight_args(p)
        p.add_argument("--kind", required=True, choices=["vertex", "edge"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--num-seeds", type=int, default=1, help="run seeds seed..seed+n-1")
        p.add_argument("--first-edge", metavar="U,V", help="force the first pivot edge")
        p.add_argument("--out")

    if p := subcommand("generate", "write a named instance to a directory", _cmd_generate):
        p.add_argument("--name", required=True, choices=sorted(GENERATORS))
        p.add_argument(
            "--generator-arg",
            action="append",
            default=[],
            type=_parse_generator_arg,
            metavar="KEY=VALUE",
        )
        p.add_argument("--out-dir", default=".")

    if p := subcommand("compare", "run several configs on one instance", _cmd_compare):
        p.add_argument("--config", required=True, help="JSON file with 'runs' (list of run configs)")
        p.add_argument("--out-json")
        p.add_argument("--out-csv")

    if p := subcommand("verify", "check a solution against a problem dump", _cmd_verify):
        p.add_argument("--problem", required=True, help="problem dump written by to_text()")
        p.add_argument("--solution", required=True, help="solution JSON (or name->value map)")
        p.add_argument("--tol", type=float, default=1e-6)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except CertificateViolationError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (MotifccError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
