"""Single-node PageRank estimation on undirected graphs.

Estimate one node's PageRank without touching the whole graph: a
randomized set-push over hop-indexed residues, forward and reverse
Monte-Carlo walks, and a deterministic backward push, all checked
against an exact dense oracle and instrumented with machine-independent
cost counters.
"""
from .errors import (
    CapacityError,
    ConfigError,
    ContractViolationError,
    ParseError,
    PushrankError,
    ValidationError,
)
from .estimators import (
    Estimate,
    EstimatorConfig,
    amplified,
    compute_threshold,
    forward_mc,
    local_push,
    reverse_mc,
    setpush,
)
from .graph import Graph, GraphStats, dump_edge_list, generate, load_edge_list
from .sampling import RngStream, median_of_means, skip_sample

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConfigError",
    "ContractViolationError",
    "ParseError",
    "PushrankError",
    "ValidationError",
    "Estimate",
    "EstimatorConfig",
    "amplified",
    "compute_threshold",
    "forward_mc",
    "local_push",
    "reverse_mc",
    "setpush",
    "Graph",
    "GraphStats",
    "dump_edge_list",
    "generate",
    "load_edge_list",
    "RngStream",
    "median_of_means",
    "skip_sample",
    "__version__",
]
