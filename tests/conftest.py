"""Shared fixtures and independent reference helpers for the test suite.

The reference implementations here are deliberately written from first
principles (brute force, exhaustive enumeration) and kept independent of
the package internals they check.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np
import pytest

from motifcc import DirectedGraph, FractionalSolution, InvalidParameterError, Partition, classify, kernels
from motifcc.rounding import _tuple_arrays


def all_partitions(n: int):
    """Exhaustive partition generator independent of the package: assigns
    vertex i the lowest unused label compatible with earlier choices."""

    def rec(i, labels, next_label):
        if i > n:
            yield dict(labels)
            return
        for lab in range(next_label + 1):
            labels[i] = lab
            yield from rec(i + 1, labels, max(next_label, lab + 1))
        del labels[i]

    yield from rec(1, {}, 0)


def partitions_blocks(n: int) -> Iterator[list[list[int]]]:
    """Independent enumerator: grow block lists vertex by vertex.

    Yields each partition of [1..n] exactly once as sorted block lists;
    used to cross-check partitions_rgs.
    """

    def rec(v: int, blocks: list[list[int]]) -> Iterator[list[list[int]]]:
        if v > n:
            yield [list(b) for b in blocks]
            return
        for blk in blocks:
            blk.append(v)
            yield from rec(v + 1, blocks)
            blk.pop()
        blocks.append([v])
        yield from rec(v + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def edge_scores_alg1(x, S, v: int, *, k: int | None = None) -> dict[int, float]:
    """y_vu = min over k-tuples K within S containing v and u of x_K, the
    score ``round_alg1`` grows regions by, read through the same kernel.

    ``x`` is a FractionalSolution or {ktuple: value}; ``k`` defaults to the
    tuple size found in x.  Requires |S| >= k and v in S.
    """
    if isinstance(x, FractionalSolution):
        sizes = {len(vid.key) for vid in x.var_ids if vid.kind == "tuple"}
        if k is None:
            if len(sizes) != 1:
                raise InvalidParameterError(f"ambiguous tuple size {sizes}; pass k")
            k = sizes.pop()
    elif k is None:
        k = len(next(iter(x)))
    S = set(S)
    if len(S) < k:
        raise InvalidParameterError(f"|S|={len(S)} below tuple size k={k}")
    if v not in S:
        raise InvalidParameterError(f"pivot {v} not in S")
    tuples, vals, nmax = _tuple_arrays(x, k)
    active = np.zeros(max(nmax, max(S)) + 1, dtype=bool)
    active[list(S)] = True
    y = kernels.pair_min_scores(tuples, vals, active, v)
    return {u: float(y[u]) for u in sorted(S) if u != v}


def brute_force_cost(labels: dict, tuples_with_weights) -> float:
    """Disagreement cost of a labeling: w+ if the tuple is split, w- if
    it sits inside one cluster.  ``tuples_with_weights`` yields
    (tuple, w_plus, w_minus, lam)."""
    total = 0.0
    for tup, wp, wm, lam in tuples_with_weights:
        labs = {labels[v] for v in tup}
        total += lam * (wm if len(labs) == 1 else wp)
    return total


def ref_tuple_weight(weights, tup) -> tuple[str, float]:
    """(class tag, w+) of one tuple, resolved on its own: the override if
    there is one, else the class rule, a range drawn from a SeedSequence
    spawned on the tuple itself."""
    tag = classify(weights.graph, tup, directed=weights.directed)
    if tup in weights.overrides:
        return tag, weights.overrides[tup]
    raw = weights.rule.values[tag]
    if isinstance(raw, tuple):
        lo, hi = raw
        rng = np.random.default_rng(np.random.SeedSequence(weights.seed, spawn_key=tup))
        return tag, lo + (hi - lo) * rng.random()
    return tag, raw


def ref_classify_triple_directed(arcset, tri) -> str:
    """Independent directed 3-tuple classifier used as the test oracle."""
    a, b, c = sorted(tri)
    pairs = [(a, b), (a, c), (b, c)]
    bidi = any((u, v) in arcset and (v, u) in arcset for u, v in pairs)
    cycle = ((a, b) in arcset and (b, c) in arcset and (c, a) in arcset) or (
        (a, c) in arcset and (c, b) in arcset and (b, a) in arcset
    )
    adj = all((u, v) in arcset or (v, u) in arcset for u, v in pairs)
    narcs = sum(1 for u, v in itertools.permutations((a, b, c), 2) if (u, v) in arcset)
    if cycle and not bidi:
        return "DirectedThreeCycle"
    if cycle and bidi:
        return "DirectedThreeCycleWithBidirectional"
    if adj and not bidi and narcs == 3:
        return "FeedForward"
    return "OtherTriple"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion at the end of the
    run so the outcome of each criterion is visible even when per-test
    output is captured."""
    entries = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                tail = nodeid.split("test_criterion_", 1)[1]
                num = int(tail.split("_", 1)[0])
                entries.append((num, rep.passed))
    if not entries:
        return
    try:
        import test_acceptance

        details = dict(test_acceptance.DETAILS)
    except Exception:
        details = {}
    terminalreporter.section("acceptance criteria")
    for num, passed in sorted(entries):
        status = "PASS" if passed else "FAIL"
        detail = details.get(num, "")
        suffix = f" - {detail}" if detail else ""
        terminalreporter.write_line(f"ACCEPTANCE CRITERION {num:2d}: {status}{suffix}")


@pytest.fixture
def two_triangle_graph():
    """Undirected: triangles {1,2,3} and {4,5,6} joined by edge 1-4."""
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4)]
    arcs = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    return DirectedGraph.from_arcs(6, arcs)


@pytest.fixture
def path_graph():
    """Undirected path 1-2-3-4."""
    edges = [(1, 2), (2, 3), (3, 4)]
    arcs = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    return DirectedGraph.from_arcs(4, arcs)
