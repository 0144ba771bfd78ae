"""Output gate: decides, per command, whether ``motifcc`` answered.

A command passes only if it exits 0 and its answer is for the instance the
workload generated and is correct for it.  Failures come in two kinds:

* ``failed``: no valid answer for the generated instance.  The command
  exited non-zero, or it answered for another instance (its ``n`` or arc
  digest, or the vertex set its clusters cover, differs from the
  generated graph).  Such a command counts against ``failed``.
* ``wrong``: an answer for the right instance that is wrong: clusters that
  do not partition 1..n, a reported cost that is not the cost of the
  clusters, a broken certificate ``cost <= ratio * LP + tol``, an LP value
  above the exact optimum or an optimum above a returned cost, an LP point
  that is infeasible or whose value disagrees with an independent HiGHS
  solve, or a report that changed between repeats.  Such a command counts
  against ``failed`` and also makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from workloads import Command, Instance

REL_TOL = 1e-6


@dataclass
class Outcome:
    """What one command returned: exit code, captured output, and its wall
    and process CPU seconds."""

    command: Command
    code: int
    stdout: str
    stderr: str = ""
    wall: float = 0.0
    cpu: float = 0.0
    lp_point: object = None  # (LpProblem, SolverResult) captured in a traced run


@dataclass
class Verdict:
    cid: str
    kind: str  # ok | failed | wrong
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.kind == "ok"


def instance_digest(n: int, arcs) -> str:
    """The digest ``motifcc`` reports for an instance: sha256 over n and the
    sorted arcs, first 16 hex digits."""
    h = hashlib.sha256()
    h.update(str(n).encode())
    for u, v in sorted(arcs):
        h.update(f"{u},{v};".encode())
    return h.hexdigest()[:16]


def close(a: float, b: float) -> bool:
    """Equal within REL_TOL, relative to the larger magnitude (or 1)."""
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _answer(command: Command, payload: dict) -> tuple[list, float]:
    """Clusters and cost of a command's answer."""
    if command.kind == "baseline":
        payload = payload["best"]
    return payload["clusters"], float(payload["cost"])


def partition_problem(clusters, n: int) -> str:
    """Empty string if ``clusters`` partition 1..n, else what is wrong."""
    seen: set[int] = set()
    for c in clusters:
        if not c:
            return "empty cluster"
        for v in c:
            if not isinstance(v, int) or not 1 <= v <= n:
                return f"vertex {v!r} outside 1..{n}"
            if v in seen:
                return f"vertex {v} in two clusters"
            seen.add(v)
    if len(seen) != n:
        return f"clusters cover {len(seen)} of {n} vertices"
    return ""


def strip_timings(stdout: str) -> str:
    """Report text without its timing fields, which vary between repeats."""
    payload = json.loads(stdout)
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True)


class Gate:
    """Checks the outcomes of one batch of a workload.

    ``cost_of(instance, clusters)`` recomputes a partition's cost from
    weights built on the generated graph.  The optimum for the sandwich
    check comes from the instance's own exact command, when it passed.
    """

    def __init__(self, cost_of, check_lp=None):
        self.cost_of = cost_of
        self.check_lp = check_lp  # traced runs: (problem, result, lp_value) -> reason
        self.reference: dict[str, str] = {}
        self.answers: dict[str, tuple] = {}  # of the last batch: clusters, cost, LP value

    def check_batch(self, batch: list[tuple[Instance, Outcome]]) -> list[Verdict]:
        verdicts: dict[str, Verdict] = {}
        answers: dict[str, tuple] = {}
        for inst, out in batch:
            verdict, answer = self._check_one(inst, out)
            verdicts[out.command.cid] = verdict
            if answer is not None:
                answers[out.command.cid] = answer
        # optimum sandwich: lp <= opt + tol <= cost + tol on the same instance
        for inst, out in batch:
            cmd = out.command
            if not verdicts[cmd.cid].passed or cmd.kind == "exact":
                continue
            exact = next((c for c in inst.commands if c.kind == "exact"), None)
            if exact is None or exact.cid not in answers or not verdicts[exact.cid].passed:
                continue
            opt = answers[exact.cid][1]
            lp, cost = answers[cmd.cid][2], answers[cmd.cid][1]
            tol = REL_TOL * max(1.0, abs(opt))
            if lp is not None and lp > opt + tol:
                verdicts[cmd.cid] = Verdict(cmd.cid, "wrong", f"LP value {lp!r} above optimum {opt!r}")
            elif cost < opt - tol:
                verdicts[cmd.cid] = Verdict(cmd.cid, "wrong", f"cost {cost!r} below optimum {opt!r}")
        self.answers = {cid: a for cid, a in answers.items() if verdicts[cid].passed}
        return [verdicts[out.command.cid] for _, out in batch]

    def _check_one(self, inst: Instance, out: Outcome) -> tuple[Verdict, tuple | None]:
        cmd = out.command
        if out.code != 0:
            return Verdict(cmd.cid, "failed", f"exit code {out.code}: {out.stderr.strip()[:200]}"), None
        try:
            payload = json.loads(out.stdout)
            clusters, cost = _answer(cmd, payload)
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(cmd.cid, "wrong", f"unreadable output: {exc}"), None
        if cmd.kind == "solve":
            if payload.get("n") != inst.n:
                return Verdict(cmd.cid, "failed", f"report n={payload.get('n')} for a graph with n={inst.n}"), None
            if payload.get("instance_digest") != instance_digest(inst.n, inst.arcs):
                return Verdict(cmd.cid, "failed", "report arc digest differs from the generated graph"), None
        else:
            covered = {v for c in clusters for v in c if isinstance(v, int)}
            if covered and covered == set(range(1, max(covered) + 1)) and max(covered) != inst.n:
                return Verdict(cmd.cid, "failed", f"answer covers 1..{max(covered)} for a graph with n={inst.n}"), None
        problem = partition_problem(clusters, inst.n)
        if problem:
            return Verdict(cmd.cid, "wrong", f"clusters: {problem}"), None
        recomputed = self.cost_of(inst, clusters)
        if not close(recomputed, cost):
            return Verdict(cmd.cid, "wrong", f"reported cost {cost!r}, clusters cost {recomputed!r}"), None
        lp = None
        if cmd.kind == "solve":
            lp = float(payload["lp_value"])
            ratio = float(payload["certified_ratio"])
            tol = float(payload["config"]["certificate_tol"])
            if not (math.isfinite(lp) and cost <= ratio * lp + tol):
                return Verdict(cmd.cid, "wrong", f"certificate: cost {cost!r} > {ratio!r} * LP {lp!r} + {tol!r}"), None
            if self.check_lp is not None:
                if out.lp_point is None:
                    return Verdict(cmd.cid, "wrong", "no LP point captured"), None
                reason = self.check_lp(*out.lp_point, lp)
                if reason:
                    return Verdict(cmd.cid, "wrong", reason), None
        text = strip_timings(out.stdout)
        if self.reference.setdefault(cmd.cid, text) != text:
            return Verdict(cmd.cid, "wrong", "report differs from the first repeat"), None
        return Verdict(cmd.cid, "ok"), (clusters, cost, lp)
