"""Motif correlation clustering.

Cluster the vertices of a (di)graph so that k-tuples carrying a motif tend
to stay inside one cluster while motif-free tuples are split, minimizing
total weighted disagreement.  The toolkit builds linear-programming
relaxations over tuple and pair variables, solves them with scipy's
bundled HiGHS (LP2/LP3) or a bounded-variable revised simplex (LP1),
rounds the fractional solution
with region-growing procedures, and certifies the resulting approximation
ratio.  Exact enumeration and classical pivot heuristics are included for
ground truth and comparison at small scale.
"""

from .errors import (
    CertificateViolationError,
    InvalidParameterError,
    InvalidVertexError,
    MalformedPartitionError,
    MotifccError,
    SizeLimitError,
    SolverFailureError,
    StageError,
    UnsupportedMotifSizeError,
)
from .graph import (
    DirectedGraph,
    Partition,
    canonical_tuple,
    enumerate_ktuples,
    load_edge_list,
    misassigned_vertices,
    rand_index,
    write_edge_list,
)
from .motifs import (
    Layer,
    MixedWeights,
    MotifClass,
    MotifWeights,
    WeightRule,
    build_table1_weights,
    classify,
    classify_pair,
    classify_triple,
    directed_cycle_rule,
    weights_from_config,
    weights_to_config,
)
from .lpmodel import (
    FractionalSolution,
    LinearConstraint,
    LpProblem,
    VarId,
    build_lp1,
    build_lp2,
    build_lp3,
    count_upsilon,
    evaluate_objective,
    induced_point,
    per_class_breakdown,
)
from .simplex import SolverConfig, SolverResult, solve, verify_solution
from .rounding import (
    ApproximationCertificate,
    Recommendation,
    RoundingParams,
    RoundingTrace,
    certify,
    edge_scores_alg1,
    recommended_params,
    round_alg1,
    round_alg2,
)
from .exact import (
    ClusteringReport,
    agreement,
    bell_number,
    exact_min_disagree,
    maxagree_2approx,
    partitions_blocks,
    partitions_rgs,
    total_weight,
)
from .baselines import pivot_edge_baseline, pivot_vertex_baseline
from .generators import (
    GENERATORS,
    karate,
    karate_factions,
    make_anomaly,
    make_fig2a,
    make_fig2b,
    make_layered_flow,
)
from .pipeline import Report, RunConfig, compare, run

__version__ = "0.1.0"

__all__ = [
    "ApproximationCertificate",
    "CertificateViolationError",
    "ClusteringReport",
    "DirectedGraph",
    "FractionalSolution",
    "GENERATORS",
    "InvalidParameterError",
    "InvalidVertexError",
    "Layer",
    "LinearConstraint",
    "LpProblem",
    "MalformedPartitionError",
    "MixedWeights",
    "MotifClass",
    "MotifWeights",
    "MotifccError",
    "Partition",
    "Recommendation",
    "Report",
    "RoundingParams",
    "RoundingTrace",
    "RunConfig",
    "SizeLimitError",
    "SolverConfig",
    "SolverFailureError",
    "SolverResult",
    "StageError",
    "UnsupportedMotifSizeError",
    "VarId",
    "WeightRule",
    "agreement",
    "bell_number",
    "build_lp1",
    "build_lp2",
    "build_lp3",
    "build_table1_weights",
    "canonical_tuple",
    "certify",
    "classify",
    "classify_pair",
    "classify_triple",
    "compare",
    "count_upsilon",
    "directed_cycle_rule",
    "edge_scores_alg1",
    "enumerate_ktuples",
    "evaluate_objective",
    "exact_min_disagree",
    "induced_point",
    "karate",
    "karate_factions",
    "load_edge_list",
    "make_anomaly",
    "make_fig2a",
    "make_fig2b",
    "make_layered_flow",
    "maxagree_2approx",
    "misassigned_vertices",
    "partitions_blocks",
    "partitions_rgs",
    "per_class_breakdown",
    "pivot_edge_baseline",
    "pivot_vertex_baseline",
    "rand_index",
    "recommended_params",
    "round_alg1",
    "round_alg2",
    "run",
    "solve",
    "total_weight",
    "verify_solution",
    "weights_from_config",
    "weights_to_config",
    "write_edge_list",
]
