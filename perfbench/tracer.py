"""Outside-in tracing of ``motifcc``: wraps the public functions the
program looks up at call time, records spans and counts, and restores the
originals on exit.  No file of the program changes.

A span is ``[command id, name, start, end, parent index]``; spans of one
command share its id.  Counts are summed per key.  Both stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import motifcc.cli
import motifcc.kernels
import motifcc.pipeline
import motifcc.simplex
from motifcc.exact import bell_number
from motifcc.motifs import MotifWeights

# Kernels the pipeline calls (split_mask has no caller outside the tests).
KERNELS = ("partition_cost", "partition_costs_batch", "pair_min_scores", "ftran_etas", "btran_etas")

PIPELINE_STAGES = (
    "resolve_weights",
    "build_relaxation",
    "greedy_partition",
    "induced_point",
    "solve",
    "round_alg1",
    "round_alg2",
    "certify",
    "per_class_breakdown",
    "evaluate_objective",
)


class Tracer:
    """Context manager: while active, calls into the wrapped layers are
    recorded against ``self.command``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.lp_points: dict[str, tuple] = {}
        self.command: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [self.command, name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = orig(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, out)
            return out

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, traced)

    # ------------------------------------------------------------ counters

    def _weights(self, args, mixed) -> None:
        self.counts["motifs.tuples"] += sum(math.comb(mixed.graph.n, layer.k) for layer in mixed)

    def _problem(self, args, problem) -> None:
        self.counts["lpmodel.rows"] += problem.num_rows
        self.counts["lpmodel.vars"] += problem.num_vars
        self.counts["lpmodel.nnz"] += problem.A.nnz
        self.counts["lpmodel.row_name_bytes"] += sum(len(name.encode()) for name in problem.row_names)

    def _solved(self, args, result) -> None:
        self.lp_points[self.command] = (args[0], result)
        for field in ("iterations", "pivots", "bound_flips", "phase1_iterations"):
            self.counts[f"simplex.{field}"] += getattr(result, field)

    def _searched(self, args, report) -> None:
        self.counts["exact.partitions"] += bell_number(report.partition.n)

    def _kernel(self, name: str):
        def after(args, out) -> None:
            self.counts[f"kernels.{name}.bytes"] += sum(a.nbytes for a in args if isinstance(a, np.ndarray))

        return after

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Tracer":
        hooks = {"resolve_weights": self._weights, "build_relaxation": self._problem, "solve": self._solved}
        for stage in PIPELINE_STAGES:
            self._wrap(motifcc.pipeline, stage, f"pipeline.{stage}", hooks.get(stage))
        # exact and baseline commands reach their layers through the cli module
        self._wrap(motifcc.cli, "resolve_weights", "pipeline.resolve_weights", self._weights)
        self._wrap(motifcc.cli, "run", "pipeline.run")
        self._wrap(motifcc.cli, "exact_min_disagree", "exact.search", self._searched)
        self._wrap(motifcc.cli, "baseline_report", "baselines.pivot")
        self._wrap(MotifWeights, "tuple_table", "motifs.tuple_table")
        self._wrap(MotifWeights, "classify", "motifs.classify")
        self._wrap(motifcc.simplex, "splu", "simplex.splu")
        for name in KERNELS:
            self._wrap(motifcc.kernels, name, f"kernels.{name}", self._kernel(name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        self.command = None

    # ------------------------------------------------------------ summaries

    def totals(self) -> tuple[dict[str, float], Counter]:
        """Inclusive seconds and call count per span name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _, name, start, end, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, own):
            out[span[1]] += t
        return out
