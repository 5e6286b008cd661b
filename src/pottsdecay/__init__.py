"""Correlation-decay approximation of anti-ferromagnetic Potts marginals.

The package computes deterministic estimates of Gibbs marginals on sparse
graphs by recursing over minimal permissive blocks, telescopes those
estimates into partition function approximations, and samples configurations
from the estimated conditionals. Exact brute-force oracles and random-graph
property verifiers back every estimate.
"""

from .blocks import (
    Block,
    feasible_tuples,
    first_feasible_tuple,
    minimal_permissive_block,
    verify_locally_sparse,
)
from .counting import PartitionEstimate, estimate_partition, find_feasible_config
from .decay import (
    MargDiagnostics,
    RecursionLimits,
    default_depth,
    error_bound,
    escape_paths,
    marg,
    marg_block,
    marg_coloring,
    marginal_distribution,
    marginal_vector,
)
from .errors import BudgetError, InfeasibleError, ParseError, PottsError
from .exact import (
    exact_block_marginal,
    exact_gibbs_table,
    exact_marginal_vector,
    exact_partition,
    is_feasible,
)
from .graph import (
    Graph,
    generate,
    generate_caterpillar,
    generate_complete,
    generate_cycle,
    generate_gnp,
    generate_path,
    generate_star,
    load_graph,
    serialize_graph,
)
from .model import (
    Configuration,
    Instance,
    PottsParams,
    monochromatic_edges,
    parse_activity,
    weight,
)
from .randstats import (
    GrowthProcessReport,
    expected_contraction,
    simulate_block_growth,
    verify_gnp_properties,
)
from .sampling import SampleBatch, empirical_tv, sample_batch
from .saw import (
    e_delta_profile,
    enumerate_saws,
    verify_contraction,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BudgetError",
    "Configuration",
    "Graph",
    "GrowthProcessReport",
    "InfeasibleError",
    "Instance",
    "MargDiagnostics",
    "ParseError",
    "PartitionEstimate",
    "PottsError",
    "PottsParams",
    "RecursionLimits",
    "SampleBatch",
    "default_depth",
    "e_delta_profile",
    "empirical_tv",
    "enumerate_saws",
    "error_bound",
    "escape_paths",
    "estimate_partition",
    "exact_block_marginal",
    "exact_gibbs_table",
    "exact_marginal_vector",
    "exact_partition",
    "expected_contraction",
    "feasible_tuples",
    "find_feasible_config",
    "first_feasible_tuple",
    "generate",
    "generate_caterpillar",
    "generate_complete",
    "generate_cycle",
    "generate_gnp",
    "generate_path",
    "generate_star",
    "is_feasible",
    "load_graph",
    "marg",
    "marg_block",
    "marg_coloring",
    "marginal_distribution",
    "marginal_vector",
    "minimal_permissive_block",
    "monochromatic_edges",
    "parse_activity",
    "sample_batch",
    "serialize_graph",
    "simulate_block_growth",
    "verify_contraction",
    "verify_gnp_properties",
    "verify_locally_sparse",
    "weight",
]
