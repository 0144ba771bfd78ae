"""Self-test of the benchmark's output gate: real ``motifcc`` answers pass,
corrupted ones are counted as failed, and the ``--input`` vertex-count
defect is counted as failed rather than as a wrong answer.

    PYTHONPATH=src python -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from gate import Gate
from run import GateChecks, run_batch
from tracer import Tracer
from workloads import Command, Instance, Workload

# two triangles joined by one edge; vertex 6 is the top label
EDGES = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)]
WEIGHTS = {"layers": [{"k": 3, "rules": {"TriangleK3": [0.8, 1.0], "PathP3": 0.6, "OtherTriple": 0.3}, "seed": 5}]}


def _workload(tmp_path, edges, n) -> Workload:
    epath, wpath = tmp_path / "edges.txt", tmp_path / "weights.json"
    epath.write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    wpath.write_text(json.dumps(WEIGHTS))
    arcs = frozenset(edges) | frozenset((v, u) for u, v in edges)
    common = ["--input", str(epath), "--undirected", "--weights", str(wpath)]
    inst = Instance("tiny", n, arcs, str(wpath), None)
    inst.commands = [
        Command("tiny.solve", "solve", ["solve", *common]),
        Command("tiny.exact", "exact", ["exact", *common]),
        Command("tiny.pivot", "baseline", ["baseline", *common, "--kind", "vertex", "--num-seeds", "3"]),
    ]
    return Workload([inst])


def _edit(outcome, **changes):
    payload = json.loads(outcome.stdout)
    payload.update(changes)
    return replace(outcome, stdout=json.dumps(payload))


def _kinds(gate, batch) -> dict[str, str]:
    return {v.cid: v.kind for v in gate.check_batch(batch)}


@pytest.fixture
def batch(tmp_path):
    outcomes = run_batch(_workload(tmp_path, EDGES, 6))
    return outcomes


def test_real_answers_pass(batch):
    assert set(_kinds(Gate(GateChecks().cost_of), batch).values()) == {"ok"}


def test_perturbed_lp_value_counts_as_failed(batch):
    (inst, solve), rest = batch[0], batch[1:]
    opt = json.loads(rest[0][1].stdout)["cost"]
    # below the certificate, and above the exact optimum
    for lp in (-1.0, opt + 0.5):
        kinds = _kinds(Gate(GateChecks().cost_of), [(inst, _edit(solve, lp_value=lp)), *rest])
        assert kinds["tiny.solve"] == "wrong", lp


def test_non_partition_clusters_count_as_failed(batch):
    inst, solve = batch[0]
    clusters = json.loads(solve.stdout)["clusters"]
    for bad in ([[1, 2, 3], [3, 4, 5, 6]], [[1, 2, 3], [4, 5]], [*clusters, [7]]):
        kinds = _kinds(Gate(GateChecks().cost_of), [(inst, _edit(solve, clusters=bad)), *batch[1:]])
        assert kinds["tiny.solve"] == "wrong", bad


def test_misreported_cost_counts_as_failed(batch):
    inst, exact = batch[1]
    cost = json.loads(exact.stdout)["cost"]
    kinds = _kinds(Gate(GateChecks().cost_of), [batch[0], (inst, _edit(exact, cost=cost - 0.25)), batch[2]])
    assert kinds["tiny.exact"] == "wrong"


def test_isolated_top_vertex_is_counted_as_failed(tmp_path):
    # the edge list never mentions vertex 7, so motifcc reads n = 6
    outcomes = run_batch(_workload(tmp_path, EDGES, 7))
    kinds = _kinds(Gate(GateChecks().cost_of), outcomes)
    assert kinds == {"tiny.solve": "failed", "tiny.exact": "failed", "tiny.pivot": "failed"}


def test_traced_batch_checks_the_lp_point(tmp_path):
    checks = GateChecks()
    with Tracer() as tracer:
        outcomes = run_batch(_workload(tmp_path, EDGES, 6), tracer)
    assert tracer.counts["simplex.iterations"] > 0
    assert set(_kinds(Gate(checks.cost_of, checks.check_lp), outcomes).values()) == {"ok"}

    inst, solve = outcomes[0]
    problem, result = solve.lp_point
    values = result.solution.values.copy()
    values[0] = 1.5  # outside the [0, 1] bound
    broken = replace(solve, lp_point=(problem, replace(result, solution=replace(result.solution, values=values))))
    kinds = _kinds(Gate(checks.cost_of, checks.check_lp), [(inst, broken), *outcomes[1:]])
    assert kinds["tiny.solve"] == "wrong"
