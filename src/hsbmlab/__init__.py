"""hsbmlab: a laboratory for exact community recovery in heterogeneous
planted-partition (stochastic block model) graphs.

The package covers the full experimental loop: model configuration and
seeded graph sampling, recoverability-regime classification from exact
finite-n condition formulas, three recovery algorithms (convex relaxation,
exhaustive search, counting thresholds) plus a local-search baseline,
spectral-norm concentration benchmarks, and a deterministic Monte Carlo
harness with CSV/JSON persistence and a CLI.
"""

from .convex import (
    ConvexRecovery,
    RoundingFailure,
    SolverResult,
    project_box_sum,
    project_nuclear_ball,
    recover_convex,
    round_solution,
    solve_convex,
)
from .counting import (
    CountingFailure,
    CountingRecovery,
    isolated_threshold,
    pair_threshold,
    recover_counting,
)
from .exhaustive import (
    MAX_EXHAUSTIVE_N,
    ExhaustiveResult,
    LocalSearchResult,
    enumerate_partitions,
    local_search,
    objective,
    partition_count,
    solve_exhaustive,
)
from .generate import (
    Adjacency,
    ObservedMatrix,
    UNOBSERVED,
    expected_adjacency,
    sample_adjacency,
    sample_observed,
    stream_rng,
)
from .graphio import (
    GraphFormatError,
    read_adjacency,
    read_graph,
    read_observed,
    write_adjacency,
    write_observed,
)
from .harness import (
    ALGORITHMS,
    ExperimentSpec,
    MonteCarloResult,
    ResultRow,
    run_monte_carlo,
    run_table1,
    run_trial,
    wilson_interval,
    write_results,
    write_table1,
)
from .model import (
    Cluster,
    ConfigError,
    DerivedStats,
    ModelConfig,
    Partition,
    chi_square_div,
    clustering_matrix,
    derived_stats,
    partitions_equal,
)
from .presets import EXAMPLE_IDS, example6_reference_constants, example_config
from .regimes import (
    ConditionReport,
    RegimeCheck,
    RegimeReport,
    check_easy_clusterwise,
    check_easy_global,
    check_hard,
    check_impossible,
    check_simple,
    classify,
)
from .spectral import (
    ConcentrationStats,
    block_split_bound,
    concentration_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
