"""End-to-end runs: load/generate -> weights -> LP -> solve -> check -> round -> certify.

The weights stage builds every layer's tuple table.  Every relaxation is
built without one row family: LP1 without its Θ(n^{2k-1}) Upsilon rows,
LP2 and LP3 without their 3·C(n,3) triangle rows (``omitted_rows`` names
the family).  LP2 and LP3 are also built without the tuple columns of
objective coefficient exactly 0 and their own rows (the triangle rows
imply them; ``drop_zero_cost_tuples``), and their ``lift`` brings those
columns back from z at the end.  The solve stage solves that core LP on
HiGHS, adds the rows of the family the optimum violates (the family's
``separate`` at the solver tolerance) and solves again, until no omitted
row is violated; that optimum is then optimal for the full LP.  One HiGHS
instance serves all rounds: each later round passes it only the added
rows, and HiGHS re-optimizes from its last basis.  The check stage
verifies the lifted point against the last LP solved and, on arrays,
against the left-out tuple rows, and separates once more at the
certificate tolerance, so every row of the full LP is checked.

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
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .baselines import ClusteringReport
from .errors import (
    CertificateViolationError,
    InvalidParameterError,
    MotifccError,
    SolverFailureError,
    StageError,
    as_number,
)
from .graph import (
    DirectedGraph,
    Partition,
    load_edge_list,
    misassigned_vertices,
    rand_index,
)
from .lpmodel import (
    FractionalSolution,
    LpProblem,
    add_triangle_rows,
    add_upsilon_rows,
    build_lp1_core,
    build_lp3_core,
    evaluate_objective,  # noqa: F401 -- perfbench/tracer.py wraps pipeline.evaluate_objective
    first_rows,
    induced_point,  # noqa: F401 -- perfbench/tracer.py wraps pipeline.induced_point
    per_class_breakdown,
    separate_triangles,
    separate_upsilon,
    triangle_row_name,
    upsilon_row_name,
)
from .motifs import MixedWeights, build_table1_weights, weights_from_config
from .generators import (
    anomaly_weights,
    fig2_weights,
    layered_flow_weights,
    make_fixture,
)
from .rounding import (
    Recommendation,
    RoundingParams,
    certify,
    recommended_params,
    round_alg1,
    round_alg2,
)
from .simplex import HighsModel, SolverConfig, SolverResult, check_tolerance, solve, verify_solution

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    input: str | None = None
    generator: str | None = None
    generator_args: dict = field(default_factory=dict)
    undirected: bool = False
    zero_based: bool = False
    num_vertices: int | None = None  # vertex count of an --input edge list (default: top label)
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
    out: str | None = None
    trace: str | None = None

    def __post_init__(self):
        check_seed(self.seed)
        SolverConfig(tol=self.tol, max_iterations=self.max_iterations)
        check_tolerance("certificate_tol", self.certificate_tol)
        # the ratio divides by both, so a run without a usable one stops here
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if value is not None and not 0 < as_number(value, name) < np.inf:
                raise InvalidParameterError(f"{name} must be positive and finite, got {value}")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise InvalidParameterError(f"unknown config keys: {sorted(bad)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)


def check_seed(seed) -> None:
    """Reject a seed numpy's generators refuse: only integers >= 0 seed them."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")


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
        # every field holds plain JSON values already: no deep copy
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self, *, with_timings: bool = True) -> str:
        d = self.to_json_dict()
        if not with_timings:
            d.pop("timings")
        return json.dumps(d, sort_keys=True, indent=1)

    @cached_property
    def text(self) -> str:
        """``to_json()``, formatted once: ``write`` and ``motifcc solve`` emit this text."""
        return self.to_json()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text + "\n")

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
            config.input,
            n=config.num_vertices,
            undirected=config.undirected,
            zero_based=config.zero_based,
        )
        return graph, {"input": config.input}
    if config.num_vertices is not None:
        raise InvalidParameterError("num_vertices applies to an input edge list, not a generator")
    fx = make_fixture(config.generator, config.generator_args)
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
        if name in ("anomaly", "layered-flow"):
            kw = {"other_weight": as_number(arg, f"weights spec {spec!r} argument")} if arg else {}
            if name == "anomaly":
                return anomaly_weights(graph, **kw)
            return layered_flow_weights(graph, seed=config.seed, **kw)
        if name.endswith(".json"):
            return weights_from_config(spec, graph)
        raise InvalidParameterError(f"unrecognized weights spec {spec!r}")
    raise InvalidParameterError(f"unrecognized weights spec {spec!r}")


def pick_relaxation(config: RunConfig, mixed: MixedWeights) -> str:
    rel = config.relaxation.upper() if config.relaxation else "AUTO"
    single = len(mixed) == 1
    if rel == "AUTO":
        return "LP2" if single and mixed.k_star >= 3 else "LP3"
    if rel in ("LP1", "LP2") and not single:
        hint = "; use LP3" if rel == "LP2" else ""
        raise InvalidParameterError(f"{rel} is defined for a single motif layer{hint}")
    if rel in ("LP1", "LP2", "LP3"):
        return rel
    raise InvalidParameterError(f"unknown relaxation {config.relaxation!r}")


def build_relaxation(relaxation: str, mixed: MixedWeights, n: int) -> LpProblem:
    """LP1 without Upsilon rows, LP2/LP3 without triangle rows
    (``solve_relaxation`` adds those it needs) and without their zero-cost
    tuple columns (``build_lp3_core``'s ``drop_zero_cost``)."""
    if relaxation == "LP1":
        return build_lp1_core(mixed.layers[0].weights, n)
    if relaxation == "LP2":
        mixed = MixedWeights.single(mixed.layers[0].weights)
    return build_lp3_core(mixed, n, drop_zero_cost=True)


@dataclass(frozen=True)
class RowFamily:
    """A family of rows x_a <= x_b + x_c that an LP is built without and a
    solve adds as its points violate them.  A row is an int array of
    width 4: ``separate`` lists the rows a point violates, ``add``
    appends rows to an LP and ``name`` gives a row's name."""

    label: str
    separate: Callable[[LpProblem, np.ndarray, float], np.ndarray]
    add: Callable[[LpProblem, np.ndarray], LpProblem]
    name: Callable[..., str]


def omitted_rows(problem: LpProblem) -> RowFamily:
    """The family ``problem`` leaves to separation: LP1's Upsilon rows
    (its census has "upsilon"), else LP2/LP3's triangle rows."""
    if "upsilon" in problem.census:
        return RowFamily("Upsilon", separate_upsilon, add_upsilon_rows, upsilon_row_name)
    return RowFamily("triangle", separate_triangles, add_triangle_rows, triangle_row_name)


@dataclass
class RelaxationSolve:
    """What ``solve_relaxation`` hands to the check stage."""

    solution: FractionalSolution  # optimal point, lifted onto the full columns
    solved: LpProblem  # the last LP the solver saw: the core given plus the active omitted rows
    rounds: list[SolverResult]


def solve_relaxation(core: LpProblem, config: SolverConfig) -> RelaxationSolve:
    """Solve ``core``, add the rows of its omitted family
    (``omitted_rows``) that its optimum violates beyond ``config.tol`` and
    solve again, until a round adds no row.  The last optimum is optimal
    for the full LP; a core built without its zero-cost tuple columns
    lifts it back onto the full columns (``core.lift``).

    Every round solves in one ``HighsModel``: the rows a round adds go
    after the rows already there, and HiGHS re-optimizes from the previous
    optimal basis.  A failed round raises SolverFailureError naming the
    round.
    """
    family = omitted_rows(core)
    model = HighsModel()
    problem = core
    active = np.empty((0, 4), dtype=np.int64)
    rounds: list[SolverResult] = []
    while True:
        try:
            result = solve(problem, config, model=model)
        except SolverFailureError as exc:
            raise SolverFailureError(f"{exc} in round {len(rounds) + 1}") from exc
        rounds.append(result)
        if result.status != "optimal":
            raise SolverFailureError(f"solver returned status {result.status} in round {len(rounds)}")
        violated = family.separate(problem, result.solution.values, config.tol)
        # a row already in the LP can show up again within rounding of tol
        both = np.concatenate([active, violated])
        first = first_rows(both)
        added = both[np.sort(first[first >= len(active)])]
        if not len(added):
            return RelaxationSolve(result.solution if core.lift is None else core.lift(result.solution), problem, rounds)
        active = np.concatenate([active, added])
        problem = family.add(problem, added)


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


def greedy_partition(*args, **kwargs):
    """The retired LP1 warm start, kept only as a name that the
    benchmark's tracer (perfbench/tracer.py) wraps (ROADMAP item 1);
    nothing calls it."""
    raise NotImplementedError("the greedy warm start went with the in-repo simplex")


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
        for layer in mixed:
            layer.weights.tuple_table()
    with stage("build", timings):
        problem = build_relaxation(relaxation, mixed, n)
    solver_cfg = SolverConfig(tol=config.tol, max_iterations=config.max_iterations)
    with stage("solve", timings):
        relaxed = solve_relaxation(problem, solver_cfg)
        problem, solution, rounds = relaxed.solved, relaxed.solution, relaxed.rounds
    with stage("check", timings):
        # round only a point that satisfies every row and bound, including
        # the tuple, triangle and Upsilon rows the solve left out
        check = verify_solution(problem, solution, tol=config.certificate_tol, lift=problem.lift)
        if not check.ok:
            raise SolverFailureError(f"LP point infeasible: {check.summary()}, first {check.violations[0]}")
        family = omitted_rows(problem)
        point = solution.values if problem.lift is None else solution.values[problem.lift.kept]
        missed = family.separate(problem, point, config.certificate_tol)
        if len(missed):
            raise SolverFailureError(
                f"LP point violates {len(missed)} omitted {family.label} rows "
                f"(first {family.name(*missed[0].tolist())}) at tol {config.certificate_tol:g}"
            )
    with stage("round", timings):
        rec = choose_params(config, mixed, relaxation, n)
        if rec.algorithm == "alg1":
            partition, trace = round_alg1(
                solution,
                n,
                mixed.k_star,
                rec.params,
                pivot_rule=config.pivot_rule,
                seed=config.seed,
                leftover=config.leftover,
            )
        else:
            partition, trace = round_alg2(
                solution,
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
            partition, solution.objective_value, mixed, rec.ratio, tol=config.certificate_tol
        )
    with stage("breakdown", timings):
        breakdown = per_class_breakdown(partition, mixed)
    report = Report(
        config=config.to_dict(),
        relaxation=relaxation,
        n=n,
        instance_digest=_instance_digest(graph),
        lp_value=solution.objective_value,
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
            "engine": solver_cfg.engine,
            "status": rounds[-1].status,
            "iterations": sum(r.iterations for r in rounds),
            "row_rounds": len(rounds),
            "round_iterations": [r.iterations for r in rounds],
            "rows_in_lp": problem.num_rows,
            "vars_in_lp": problem.num_vars,
        },
        timings={**timings, "solver_wall": sum(r.wall_time for r in rounds)},
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
