"""Workload definitions: the instances each workload generates and the
``motifcc`` commands it runs on them.

Every instance reaches the program the way a user's own graph does: an
edge-list file (plus a weight-JSON file where the workload needs one) that
is handed to ``motifcc`` on its command line.  Only the workload seed and
the fixed constants below decide what is generated.

karate-cc     Table-1 CC on the packaged karate graph.  LP3 with only the
              edge layer: 561 pair variables and 17,952 rows, all of them
              triangle (metric) rows, so the solve is nearly all of the
              time.  Mechanism workload for solver, kernel and lazy
              triangle-row changes; bypass workload for tuple-table changes.
              The instance does not depend on the seed.
planted-mmcc  Table-1 MMCC (edge layer, lambda 1, plus triple layer, lambda
              0.2) on a planted-partition ladder n = 16, 20, 22 (4 blocks,
              p_in 0.7, p_out 0.1).  Tuple variables outnumber pair
              variables 10:1, so the tuple-row families and the C(n,3)-sized
              consumers (greedy warm start, induced point, breakdown) grow
              with n.  The ladder is drawn once from LADDER_SEED, not from
              the run seed: between planted draws of one size the simplex
              iteration count varies with a coefficient of variation near
              0.3, which no run short enough to repeat can average out.
small-exact   A batch of 48 n = 10 instances drawn from the run seed: half
              undirected planted graphs with per-tuple range-drawn triple
              weights, half directed ER(0.25) graphs with jittered
              directed-3-cycle weights.  Each instance runs the default
              solve (LP2, alg2), an LP1 solve (alg1), the exact search and
              both pivot baselines.  The layers other than the solve do most
              of the work here, and it is the only workload whose optimum is
              known.

Known defect, deliberately left visible in small-exact: ``motifcc`` reads
the vertex count of an ``--input`` edge list as its largest label, so an
instance whose top vertex is isolated is solved on n-1 vertices.  The
output gate counts every such command as failed.  Instances are not
re-drawn, relabelled or padded to avoid it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LADDER_SEED = 0
LADDER = (16, 20, 22)
PLANTED_BLOCKS = 4
PLANTED_P_IN = 0.7
PLANTED_P_OUT = 0.1

SMALL_N = 10
# Half undirected planted, half directed ER.  One instance's five commands
# take 0.3-1.1 s (coefficient of variation about 0.3 between instances,
# mostly from the LP1 solve; the vertex-count defect below shrinks some
# instances further), so the batch holds 48 instances to keep that
# variation from dominating a run.
SMALL_INSTANCES = 48
DIRECTED_P = 0.25
BASELINE_SEEDS = 50

KARATE_ARGS = ["--generator", "karate", "--weights", "table1", "--method", "CC"]

UNDIRECTED_TRIPLE_RULES = {
    "TriangleK3": [0.8, 1.0],
    "PathP3": [0.45, 0.75],
    "OtherTriple": [0.2, 0.5],
}
DIRECTED_CYCLE_RULES = {
    "DirectedThreeCycle": 1.0,
    "DirectedThreeCycleWithBidirectional": [0.35, 0.55],
    "FeedForward": [0.35, 0.55],
    "OtherTriple": [0.35, 0.55],
}


@dataclass
class Command:
    """One ``motifcc`` invocation; ``argv`` excludes the program name."""

    cid: str
    kind: str  # solve | exact | baseline
    argv: list[str]


@dataclass
class Instance:
    """A generated graph and the commands run on it.

    ``arcs`` holds the arc set the program should read back (both
    directions for an undirected edge list); ``weights`` is the weight spec
    exactly as passed to the program, for the gate's own cost check.
    """

    iid: str
    n: int
    arcs: frozenset
    weights: str  # "table1" (with method) or a weight-JSON path
    method: str | None
    commands: list[Command] = field(default_factory=list)


@dataclass
class Workload:
    instances: list[Instance]

    @property
    def commands(self) -> list[tuple[Instance, Command]]:
        return [(inst, cmd) for inst in self.instances for cmd in inst.commands]


def planted_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Undirected planted partition on 1..n: shuffled near-equal blocks,
    each pair joined with p_in inside a block and p_out across."""
    blocks = np.arange(n) % PLANTED_BLOCKS
    rng.shuffle(blocks)
    draws = rng.random((n, n))
    return [
        (u + 1, v + 1)
        for u in range(n)
        for v in range(u + 1, n)
        if draws[u, v] < (PLANTED_P_IN if blocks[u] == blocks[v] else PLANTED_P_OUT)
    ]


def directed_er_arcs(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Directed Erdos-Renyi graph on 1..n: each ordered pair is an arc with
    probability DIRECTED_P."""
    draws = rng.random((n, n))
    return [
        (u + 1, v + 1) for u in range(n) for v in range(n) if u != v and draws[u, v] < DIRECTED_P
    ]


def _write_edges(path: Path, edges) -> None:
    path.write_text("".join(f"{u}\t{v}\n" for u, v in edges), encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _karate_arcs() -> frozenset:
    from motifcc.generators import karate

    return karate().graph.arcs


def _out(workdir: Path, cid: str) -> list[str]:
    return ["--out", str(workdir / "reports" / f"{cid}.json")]


def karate_cc(seed: int, workdir: Path) -> Workload:
    inst = Instance("karate", 34, _karate_arcs(), "table1", "CC")
    inst.commands.append(Command("karate.solve", "solve", ["solve", *KARATE_ARGS, *_out(workdir, "karate.solve")]))
    return Workload([inst])


def planted_mmcc(seed: int, workdir: Path) -> Workload:
    instances = []
    for n in LADDER:
        rng = np.random.default_rng([LADDER_SEED, n])
        edges = planted_edges(n, rng)
        path = workdir / f"planted_n{n}.txt"
        _write_edges(path, edges)
        arcs = frozenset(edges) | frozenset((v, u) for u, v in edges)
        inst = Instance(f"planted{n}", n, arcs, "table1", "MMCC")
        cid = f"planted{n}.solve"
        inst.commands.append(
            Command(cid, "solve", ["solve", "--input", str(path), "--undirected", "--method", "MMCC", *_out(workdir, cid)])
        )
        instances.append(inst)
    return Workload(instances)


def small_exact(seed: int, workdir: Path) -> Workload:
    instances = []
    for i in range(SMALL_INSTANCES):
        rng = np.random.default_rng([seed, i])
        undirected = i % 2 == 0
        if undirected:
            edges = planted_edges(SMALL_N, rng)
            arcs = frozenset(edges) | frozenset((v, u) for u, v in edges)
            layer = {"k": 3, "rules": UNDIRECTED_TRIPLE_RULES, "seed": int(rng.integers(2**31))}
            flags = ["--undirected"]
        else:
            edges = directed_er_arcs(SMALL_N, rng)
            arcs = frozenset(edges)
            layer = {"k": 3, "rules": DIRECTED_CYCLE_RULES, "directed": True, "seed": int(rng.integers(2**31))}
            flags = []
        iid = f"small{i}"
        epath, wpath = workdir / f"{iid}_edges.txt", workdir / f"{iid}_weights.json"
        _write_edges(epath, edges)
        _write_json(wpath, {"layers": [layer]})
        inst = Instance(iid, SMALL_N, arcs, str(wpath), None)
        common = ["--input", str(epath), *flags, "--weights", str(wpath)]
        specs = [
            ("solve", "solve", ["solve", *common]),
            ("solve_lp1", "solve", ["solve", *common, "--relaxation", "LP1"]),
            ("exact", "exact", ["exact", *common]),
            ("pivot_vertex", "baseline", ["baseline", *common, "--kind", "vertex", "--num-seeds", str(BASELINE_SEEDS)]),
            ("pivot_edge", "baseline", ["baseline", *common, "--kind", "edge", "--num-seeds", str(BASELINE_SEEDS)]),
        ]
        for name, kind, argv in specs:
            cid = f"{iid}.{name}"
            inst.commands.append(Command(cid, kind, [*argv, *_out(workdir, cid)]))
        instances.append(inst)
    return Workload(instances)


WORKLOADS = {"karate-cc": karate_cc, "planted-mmcc": planted_mmcc, "small-exact": small_exact}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's input files under ``workdir`` and return it."""
    (workdir / "reports").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
