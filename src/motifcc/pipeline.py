"""End-to-end runs: load/generate -> weights -> LP -> solve -> check -> round -> certify.

``RunConfig`` is the single source of truth for one run and is echoed
verbatim into the Report, which serializes deterministically (timings are
quarantined under one key so reports are byte-identical across repeats of
the same config and seed).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import ClusteringReport
from .errors import (
    CertificateViolationError,
    InvalidParameterError,
    MotifccError,
    SolverFailureError,
    StageError,
)
from .graph import (
    DirectedGraph,
    Partition,
    load_edge_list,
    misassigned_vertices,
    rand_index,
)
from .lpmodel import (
    LpProblem,
    build_lp1,
    build_lp2,
    build_lp3,
    evaluate_objective,
    induced_point,
    per_class_breakdown,
)
from .motifs import MixedWeights, build_table1_weights, weights_from_config
from .generators import (
    GENERATORS,
    anomaly_weights,
    fig2_weights,
    layered_flow_weights,
)
from .rounding import (
    Recommendation,
    RoundingParams,
    certify,
    recommended_params,
    round_alg1,
    round_alg2,
)
from .simplex import SolverConfig, solve, verify_solution

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    input: str | None = None
    generator: str | None = None
    generator_args: dict = field(default_factory=dict)
    undirected: bool = False
    zero_based: bool = False
    weights: object = None  # "table1" | "fig2" | "anomaly[:w]" | "layered-flow[:w]" | dict | *.json path
    method: str | None = None  # CC | MCC | MMCC (with weights="table1")
    relaxation: str = "auto"  # LP1 | LP2 | LP3 | auto
    alpha: float | None = None
    beta: float | None = None
    pivot_rule: str = "lowest"
    leftover: str = "together"
    seed: int = 0
    tol: float = 1e-7
    certificate_tol: float = 1e-6
    max_iterations: int = 200_000
    engine: str = "simplex"
    warm_start: bool = True
    out: str | None = None
    trace: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise InvalidParameterError(f"unknown config keys: {sorted(bad)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    config: dict
    relaxation: str
    n: int
    instance_digest: str
    lp_value: float
    cost: float
    certified_ratio: float
    empirical_ratio: float | None
    clusters: list[list[int]]
    params: dict
    breakdown: dict
    solver: dict
    timings: dict
    schema_version: int = SCHEMA_VERSION

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self, *, with_timings: bool = True) -> str:
        d = self.to_json_dict()
        if not with_timings:
            d.pop("timings")
        return json.dumps(d, sort_keys=True, indent=1)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @property
    def partition(self) -> Partition:
        return Partition.from_cluster_list(self.clusters, n=self.n)


_PASSTHROUGH = (StageError, SolverFailureError, CertificateViolationError)


@contextlib.contextmanager
def stage(name: str, timings: dict):
    """Time one pipeline stage into ``timings[name]`` and wrap its toolkit
    errors (other than the pass-through kinds) in a StageError."""
    t0 = time.perf_counter()
    try:
        yield
    except _PASSTHROUGH:
        raise
    except MotifccError as exc:
        raise StageError(name, str(exc)) from exc
    finally:
        timings[name] = time.perf_counter() - t0


def load_instance(config: RunConfig) -> tuple[DirectedGraph, dict]:
    if (config.input is None) == (config.generator is None):
        raise InvalidParameterError("exactly one of input path or generator must be given")
    if config.input is not None:
        graph = load_edge_list(
            config.input, undirected=config.undirected, zero_based=config.zero_based
        )
        return graph, {"input": config.input}
    if config.generator not in GENERATORS:
        raise InvalidParameterError(
            f"unknown generator {config.generator!r}; have {sorted(GENERATORS)}"
        )
    fx = GENERATORS[config.generator](**config.generator_args)
    return fx.graph, fx.manifest


def resolve_weights(config: RunConfig, graph: DirectedGraph) -> MixedWeights:
    spec = config.weights
    if spec is None and config.method is not None:
        spec = "table1"
    if spec is None:
        raise InvalidParameterError("no weights specified (need weights or method)")
    if isinstance(spec, MixedWeights):
        return spec
    if isinstance(spec, dict):
        return weights_from_config(spec, graph)
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        if name == "table1":
            if config.method is None:
                raise InvalidParameterError("weights=table1 needs method (CC, MCC, or MMCC)")
            return build_table1_weights(config.method, graph)
        if name == "fig2":
            return fig2_weights(graph)
        if name == "anomaly":
            return anomaly_weights(graph, float(arg)) if arg else anomaly_weights(graph)
        if name == "layered-flow":
            return (
                layered_flow_weights(graph, float(arg), seed=config.seed)
                if arg
                else layered_flow_weights(graph, seed=config.seed)
            )
        if name.endswith(".json"):
            return weights_from_config(spec, graph)
        raise InvalidParameterError(f"unrecognized weights spec {spec!r}")
    raise InvalidParameterError(f"unrecognized weights spec {spec!r}")


def pick_relaxation(config: RunConfig, mixed: MixedWeights) -> str:
    rel = config.relaxation.upper() if config.relaxation else "AUTO"
    single = len(mixed) == 1
    if rel == "AUTO":
        if single and mixed.k_star >= 3:
            return "LP2"
        return "LP3"
    if rel == "LP1":
        if not single:
            raise InvalidParameterError("LP1 is defined for a single motif layer")
        return "LP1"
    if rel == "LP2":
        if not single:
            raise InvalidParameterError("LP2 is defined for a single motif layer; use LP3")
        return "LP2"
    if rel == "LP3":
        return "LP3"
    raise InvalidParameterError(f"unknown relaxation {config.relaxation!r}")


def build_relaxation(relaxation: str, mixed: MixedWeights, n: int) -> LpProblem:
    if relaxation == "LP1":
        return build_lp1(mixed.layers[0].weights, n)
    if relaxation == "LP2":
        return build_lp2(mixed.layers[0].weights, n)
    return build_lp3(mixed, n)


def choose_params(config: RunConfig, mixed: MixedWeights, relaxation: str, n: int) -> Recommendation:
    """Explicit alpha/beta win; otherwise the certified recommendation for
    the relaxation and layer structure."""
    k = mixed.k_star
    if relaxation == "LP1":
        rec = recommended_params(k, "mcc-lp1")
    elif len(mixed) == 2 and mixed.layers[0].k == 2 and mixed.layers[0].lam > 0:
        lam = mixed.layers[1].lam / mixed.layers[0].lam
        rec = recommended_params(k, "mmcc-edge-motif", lam=lam, n=n)
    elif relaxation == "LP2" and len(mixed) == 1:
        rec = recommended_params(k, "mcc-lp2")
    else:
        rec = recommended_params(k, "mmcc")
    if config.alpha is None and config.beta is None:
        return rec
    alpha = rec.params.alpha if config.alpha is None else float(config.alpha)
    beta = rec.params.beta if config.beta is None else float(config.beta)
    if rec.algorithm == "alg1":
        ratio = 2.0 / alpha
        params = RoundingParams(alpha)
    else:
        if beta is None:
            raise InvalidParameterError("beta required for pair-variable rounding")
        ratio = 1.0 / (alpha * beta)
        params = RoundingParams(alpha, beta)
    return Recommendation(params, ratio, rec.algorithm, beta_bound=rec.beta_bound, r0=rec.r0, mode="manual")


def greedy_partition(mixed: MixedWeights, n: int, *, max_passes: int = 25) -> Partition:
    """Deterministic local search (single-vertex best moves from
    singletons); used to warm-start the solver at a decent vertex."""
    labels = list(range(n))  # vertex v -> cluster label
    current = evaluate_objective(Partition.from_assignment({v + 1: labels[v] for v in range(n)}, n=n), mixed)
    for _ in range(max_passes):
        improved = False
        for v in range(n):
            old = labels[v]
            cands = sorted(set(labels)) + [max(labels) + 1]
            best_lab, best_cost = old, current
            for lab in cands:
                if lab == old:
                    continue
                labels[v] = lab
                cost = evaluate_objective(
                    Partition.from_assignment({u + 1: labels[u] for u in range(n)}, n=n), mixed
                )
                if cost < best_cost - 1e-12:
                    best_lab, best_cost = lab, cost
                labels[v] = old
            if best_lab != old:
                labels[v] = best_lab
                current = best_cost
                improved = True
        if not improved:
            break
    return Partition.from_assignment({v + 1: labels[v] for v in range(n)}, n=n)


def _instance_digest(graph: DirectedGraph) -> str:
    h = hashlib.sha256()
    h.update(str(graph.n).encode())
    for arc in sorted(graph.arcs):
        h.update(f"{arc[0]},{arc[1]};".encode())
    return h.hexdigest()[:16]


def run(config: RunConfig) -> Report:
    """Execute the full pipeline for one config; see module docstring."""
    timings: dict[str, float] = {}
    with stage("load", timings):
        graph, manifest = load_instance(config)
    n = graph.n
    with stage("weights", timings):
        mixed = resolve_weights(config, graph)
        relaxation = pick_relaxation(config, mixed)
    with stage("build", timings):
        problem = build_relaxation(relaxation, mixed, n)
    solver_cfg = SolverConfig(tol=config.tol, max_iterations=config.max_iterations, engine=config.engine)
    start = None
    # only the in-repo simplex takes a starting point
    if config.warm_start and solver_cfg.engine == "simplex":
        with stage("warm_start", timings):
            start = induced_point(greedy_partition(mixed, n), problem).values
    with stage("solve", timings):
        result = solve(problem, solver_cfg, start_values=start)
        if result.status != "optimal":
            raise SolverFailureError(f"solver returned status {result.status}")
    with stage("check", timings):
        # round only a point that satisfies every row and bound
        check = verify_solution(problem, result.solution, tol=config.certificate_tol)
        if not check.ok:
            raise SolverFailureError(f"LP point infeasible: {check.summary()}")
    with stage("round", timings):
        rec = choose_params(config, mixed, relaxation, n)
        if rec.algorithm == "alg1":
            partition, trace = round_alg1(
                result.solution,
                n,
                mixed.k_star,
                rec.params,
                pivot_rule=config.pivot_rule,
                seed=config.seed,
                leftover=config.leftover,
            )
        else:
            partition, trace = round_alg2(
                result.solution,
                n,
                mixed.k_star,
                rec.params,
                beta_bound=rec.beta_bound,
                pivot_rule=config.pivot_rule,
                seed=config.seed,
                leftover=config.leftover,
            )
        if config.trace:
            trace.write_jsonl(config.trace)
    with stage("certify", timings):
        cert = certify(
            partition, result.solution.objective_value, mixed, rec.ratio, tol=config.certificate_tol
        )
    with stage("breakdown", timings):
        breakdown = per_class_breakdown(partition, mixed)
    report = Report(
        config=config.to_dict(),
        relaxation=relaxation,
        n=n,
        instance_digest=_instance_digest(graph),
        lp_value=result.solution.objective_value,
        cost=cert.cost,
        certified_ratio=rec.ratio,
        empirical_ratio=cert.empirical_ratio,
        clusters=[sorted(c) for c in partition.clusters],
        params={
            "alpha": rec.params.alpha,
            "beta": rec.params.beta,
            "mode": rec.mode,
            "algorithm": rec.algorithm,
            "r0": rec.r0,
        },
        breakdown=breakdown,
        solver={
            "engine": config.engine,
            "status": result.status,
            "iterations": result.iterations,
            "pivots": result.pivots,
            "bound_flips": result.bound_flips,
            "warm_start": start is not None,
        },
        timings={**timings, "solver_wall": result.wall_time},
    )
    if config.out:
        report.write(config.out)
    return report


# ------------------------------------------------------------------ compare


def compare(
    configs: list[RunConfig | dict],
    *,
    reference: Partition | list | None = None,
    labels: list[str] | None = None,
) -> list[dict]:
    """Run several configs on one shared instance and tabulate them.

    Errors out if the configs load different instances.  ``reference`` (a
    Partition or cluster list) adds Rand-index and misassignment columns.
    """
    rows = []
    digest = None
    for i, cfg in enumerate(configs):
        if isinstance(cfg, dict):
            cfg = RunConfig.from_dict(cfg)
        rep = run(cfg)
        if digest is None:
            digest = rep.instance_digest
        elif rep.instance_digest != digest:
            raise InvalidParameterError(
                f"config {i} loads a different instance ({rep.instance_digest} != {digest})"
            )
        label = labels[i] if labels else (cfg.method or f"run{i}")
        row = {
            "label": label,
            "method": cfg.method,
            "relaxation": rep.relaxation,
            "cost": rep.cost,
            "lp_value": rep.lp_value,
            "certified_ratio": rep.certified_ratio,
            "empirical_ratio": rep.empirical_ratio,
            "num_clusters": len(rep.clusters),
        }
        if reference is not None:
            ref = (
                reference
                if isinstance(reference, Partition)
                else Partition.from_cluster_list(reference, n=rep.n)
            )
            part = rep.partition
            row["rand_index"] = rand_index(part, ref)
            errs = misassigned_vertices(part, ref)
            row["errors_vs_reference"] = len(errs)
            row["misassigned"] = errs
        rows.append(row)
    return rows


def write_comparison(rows: list[dict], json_path=None, csv_path=None) -> None:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if csv_path:
        cols: list[str] = []
        for row in rows:
            cols.extend(c for c in row if c not in cols)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in rows:
                writer.writerow({c: row.get(c, "") for c in cols})


def baseline_report(kind: str, graph: DirectedGraph, mixed: MixedWeights, seed: int = 0,
                    first_edge=None) -> ClusteringReport:
    from .baselines import pivot_edge_baseline, pivot_vertex_baseline

    if kind == "vertex":
        return pivot_vertex_baseline(graph, graph.n, seed, mixed=mixed)
    if kind == "edge":
        return pivot_edge_baseline(graph, graph.n, seed, mixed=mixed, first_edge=first_edge)
    raise InvalidParameterError(f"unknown baseline kind {kind!r}; expected vertex or edge")
