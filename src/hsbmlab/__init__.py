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
    SolverResult,
    project_box_sum,
    project_nuclear_ball,
    recover_convex,
    round_solution,
    solve_convex,
)
from .counting import (
    isolated_threshold,
    pair_threshold,
    recover_counting,
)
from .exhaustive import (
    MAX_EXHAUSTIVE_N,
    ExhaustiveResult,
    LocalSearchResult,
    local_search,
    objective,
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
from .graphio import GraphFormatError, read_graph, write_graph
from .harness import (
    ALGORITHMS,
    ConcentrationStats,
    ExperimentSpec,
    MonteCarloResult,
    ResultRow,
    concentration_experiment,
    run_monte_carlo,
    run_table1,
    run_trial,
    wilson_interval,
    write_results,
    write_table1,
)
from .model import (
    ConfigError,
    DerivedStats,
    ModelConfig,
    Partition,
    Recovery,
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
from .spectral import block_split_bound

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
