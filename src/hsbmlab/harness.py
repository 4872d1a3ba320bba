"""Experiment harness: seeded Monte Carlo recovery runs, the
concentration bench and the classification trend table.

Every experiment measures the same thing: the seeded draw of a config
(``draw_graph``), read under the gamma-collapsed model that a method
solves (``collapse``).  Both live here and nowhere else.

Determinism contract: every emitted artifact is a pure function of the
experiment specification (config, algorithms, trials, base seed, options).
Trial i draws its graph from seed base_seed + i, trials are computed
independently, and rows are sorted by (config id, algorithm, trial) before
emission, so worker count cannot change any output byte.  Trials run on
one BLAS thread at every worker count (see one_blas_thread).  Wall-clock
timings are recorded on each row but excluded from files unless explicitly
requested, keeping file bytes run-invariant.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._openblas import thread_calls as openblas_thread_calls
from .convex import MAX_ITER, check_max_iter, recover_convex
from .counting import recover_counting
from .exhaustive import (RESTARTS, check_exhaustive_size, check_restarts,
                         local_search, solve_exhaustive)
from .generate import (UNOBSERVED, Adjacency, ObservedMatrix, expected_adjacency,
                       sample_adjacency, sample_observed)
from .graphio import table_text, write_text
from .model import FAILURE_KINDS, ConfigError, ModelConfig, Recovery, partitions_equal
from .presets import (EXAMPLE_IDS, check_example_id, example6_reference_constants,
                      example_config)
from .regimes import DEFAULT_C, DEFAULT_ETA, _require_positive, classify
from .spectral import block_split_bound

ALGORITHMS = ("convex", "exhaustive", "counting", "local-search")
# Standard normal quantile at 0.975: Wilson intervals are 95% intervals.
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo experiment: a configuration, the algorithms to run
    on it, each named once, and the trial/seed/options bookkeeping.
    max_iter applies to convex only, restarts to local search only."""

    config: ModelConfig
    algorithms: tuple[str, ...]
    trials: int
    base_seed: int = 0
    config_id: str = "config"
    max_iter: int = MAX_ITER
    restarts: int = RESTARTS

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ConfigError(f"unknown algorithms {bad}; known: {list(ALGORITHMS)}")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ConfigError(f"repeated algorithms {repeated}; give each once")
        if "convex" in self.algorithms:
            check_max_iter(self.max_iter)
        if "exhaustive" in self.algorithms:
            check_exhaustive_size(self.config)
        if "local-search" in self.algorithms:
            check_restarts(self.restarts)


def collapse(graph, config: ModelConfig) -> tuple[Adjacency, ModelConfig]:
    """A graph of a config as a method reads it: an Adjacency, with an
    ObservedMatrix's unobserved pairs mapped to 0, and the config's
    collapsed form (``ModelConfig.collapsed``, the config itself at
    gamma = 1).  An ObservedMatrix with unobserved pairs under a gamma = 1
    configuration is refused, since that model would read them as
    non-edges."""
    if isinstance(graph, ObservedMatrix):
        unobserved = int((graph.values == UNOBSERVED).sum()) // 2
        if unobserved and config.gamma >= 1.0:
            raise ConfigError(
                f"the graph has {unobserved} unobserved pairs but the config "
                f"has gamma = {config.gamma:g}; give the observation rate "
                f"gamma < 1 to recover from a partially observed graph")
        graph = graph.to_adjacency(unobserved_as=0)
    return graph, config.collapsed()


def recover(algorithm: str, graph, config: ModelConfig, max_iter: int = MAX_ITER,
            seed: int = 0, restarts: int = RESTARTS) -> Recovery:
    """Run one algorithm on an Adjacency or ObservedMatrix, which it solves
    under the collapsed model (see ``collapse``).  max_iter applies to
    convex only, seed and restarts to local search only.
    """
    graph, config = collapse(graph, config)
    if algorithm == "convex":
        # max_iter goes third, by position: the benchmark's wrapper of
        # recover_convex forwards its third argument positionally.
        return recover_convex(graph, config, max_iter)
    if algorithm == "exhaustive":
        res = solve_exhaustive(graph, config)
        if res.tie_count > 1:
            return Recovery(res.partition, "tie", f"tie: {res.tie_count} maximizers",
                            float(res.objective))
        return Recovery(res.partition, "none", "", float(res.objective))
    if algorithm == "counting":
        return recover_counting(graph, config)
    if algorithm == "local-search":
        res = local_search(graph, config, seed=seed, restarts=restarts)
        return Recovery(res.partition, "none", "", float(res.objective))
    raise ConfigError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class ResultRow:
    """One (algorithm, trial) outcome.  success means the output partition
    equals the planted one (for the exhaustive scan, additionally that the
    maximizer is unique); failure_kind explains structural failures."""

    config_id: str
    algorithm: str
    trial: int
    seed: int
    success: bool
    failure_kind: str
    objective: float
    wall_time: float


def draw_graph(config: ModelConfig, planted, seed: int):
    """The seeded draw of a config: an ObservedMatrix when gamma < 1, else an
    Adjacency, from the samplers bound in this module (the benchmark's taps)."""
    return (sample_observed if config.gamma < 1.0 else sample_adjacency)(config, planted, seed)


def run_trial(spec: ExperimentSpec, algorithm: str, trial: int) -> ResultRow:
    """Run one algorithm on one seeded draw, timing only the recovery.
    With gamma < 1 the draw is an ObservedMatrix, handed as it is to
    recover, which collapses it."""
    config = spec.config
    seed = spec.base_seed + trial
    planted = config.planted_partition()
    graph = draw_graph(config, planted, seed)

    start = time.perf_counter()
    rec = recover(algorithm, graph, config, spec.max_iter, seed, spec.restarts)
    wall = time.perf_counter() - start
    return ResultRow(
        config_id=spec.config_id,
        algorithm=algorithm,
        trial=trial,
        seed=seed,
        success=rec.failure_kind == "none" and partitions_equal(rec.partition, planted),
        failure_kind=rec.failure_kind,
        objective=rec.objective,
        wall_time=wall,
    )


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    rows: tuple[ResultRow, ...]
    summary: dict


_blas_lock = threading.Lock()
_blas_pins = 0
_blas_saved = 0


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore its count.

    Worker threads supply the parallelism; each BLAS call fanning out as
    well would oversubscribe the cores.  One worker is pinned too, since
    the last bits of eigh, dsytrd and dormtr depend on the BLAS thread
    count.  Overlapping uses share one pin: the first in saves the count
    and the last out restores it.  A no-op where numpy is not linked to
    OpenBLAS.
    """
    global _blas_pins, _blas_saved
    get, set_ = openblas_thread_calls() or (lambda: 0, lambda count: None)
    with _blas_lock:
        if _blas_pins == 0:
            _blas_saved = get()
            set_(1)
        _blas_pins += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins -= 1
            if _blas_pins == 0:
                set_(_blas_saved)


def run_monte_carlo(spec: ExperimentSpec, workers: int = 1) -> MonteCarloResult:
    """Run all (algorithm, trial) pairs, optionally across worker threads,
    each on one BLAS thread (see one_blas_thread).

    Output is bit-identical for any worker count: each trial depends only
    on its own seed and rows are sorted before aggregation.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    tasks = [(alg, t) for alg in spec.algorithms for t in range(spec.trials)]
    with one_blas_thread():
        if workers == 1:
            rows = [run_trial(spec, alg, t) for alg, t in tasks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(lambda at: run_trial(spec, *at), tasks))
    rows.sort(key=lambda row: (row.config_id, row.algorithm, row.trial))
    summary: dict = {}
    for alg in spec.algorithms:
        alg_rows = [row for row in rows if row.algorithm == alg]
        successes = sum(row.success for row in alg_rows)
        low, high = wilson_interval(successes, len(alg_rows))
        failure_counts = {kind: 0 for kind in FAILURE_KINDS}
        for row in alg_rows:
            failure_counts[row.failure_kind] += 1
        summary[alg] = {
            "trials": len(alg_rows),
            "successes": int(successes),
            "success_rate": successes / len(alg_rows),
            "ci_low": low,
            "ci_high": high,
            "failure_counts": failure_counts,
        }
    return MonteCarloResult(rows=tuple(rows), summary=summary)


# -- concentration bench --------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConcentrationStats:
    """Empirical ||A - E[A]|| / bound ratios over seeded trials."""

    trials: int
    bound: float
    norms: np.ndarray
    ratios: np.ndarray
    min_ratio: float
    mean_ratio: float
    max_ratio: float

    def rows(self) -> list[dict]:
        """Per-trial records for CSV emission."""
        return [
            {"trial": i, "norm": float(self.norms[i]), "bound": self.bound,
             "ratio": float(self.ratios[i])}
            for i in range(self.trials)
        ]


def concentration_experiment(config: ModelConfig, trials: int,
                             seed: int) -> ConcentrationStats:
    """Sample centered adjacencies and report spectral-norm-to-bound ratios,
    each norm the largest |eigenvalue| from one dense ``eigvalsh``.

    Trial i is the graph that ``generate``, ``recover`` and ``montecarlo``
    read for seed + i: ``collapse(draw_graph(config, planted, seed + i),
    config)``.  Its expectation and ``spectral.block_split_bound`` are those
    of the collapsed config, the model of that matrix.  The experiment is
    reproducible and order-independent.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    planted = config.planted_partition()
    expected = expected_adjacency(config, planted)
    bound = block_split_bound(config.collapsed())
    norms = np.empty(trials)
    for i in range(trials):
        adj, _ = collapse(draw_graph(config, planted, seed + i), config)
        centered = adj.matrix.astype(float) - expected
        norms[i] = np.abs(np.linalg.eigvalsh(centered)).max()
    ratios = norms / bound
    return ConcentrationStats(trials=trials, bound=bound, norms=norms, ratios=ratios,
                              min_ratio=float(ratios.min()), mean_ratio=float(ratios.mean()),
                              max_ratio=float(ratios.max()))


# -- classification trend table -------------------------------------------

TABLE_CHECKS = (
    ("easy_clusterwise", "clusterwise"),
    ("easy_global", "global"),
    ("hard", "search"),
)

TABLE_COLUMNS = ["example", "n", "feasible", "regime"]
for _name, _short in TABLE_CHECKS:
    TABLE_COLUMNS += [f"{_short}_satisfied", f"{_short}_margin", f"{_short}_trend"]
TABLE_COLUMNS.append("note")


def run_table1(
    n_grid,
    C: float = DEFAULT_C,
    eta: float = DEFAULT_ETA,
    example_ids=EXAMPLE_IDS,
) -> list[dict]:
    """Classify each preset at each n and tabulate per-check margins.

    The trend column holds the ratio of a check's binding margin to its
    value at the previous feasible n of the same preset, making the
    asymptotic satisfied/violated pattern visible as margins drifting above
    or below 1.  Family 6 uses its reference constants.
    Infeasible (example, n) pairs yield a feasible=False row with a note;
    an unknown example id, or a C or eta that is not positive and finite,
    is a ConfigError, raised before any row.
    """
    for ex in example_ids:
        check_example_id(ex)
    _require_positive("C", C)
    _require_positive("eta", eta)
    rows: list[dict] = []
    for ex in example_ids:
        prev_margins: dict[str, float] = {}
        for n in n_grid:
            row: dict = {"example": ex, "n": int(n), "feasible": True,
                         "regime": "", "note": ""}
            for _, short in TABLE_CHECKS:
                row[f"{short}_satisfied"] = ""
                row[f"{short}_margin"] = math.nan
                row[f"{short}_trend"] = math.nan
            try:
                constants = example6_reference_constants(int(n)) if ex == 6 else None
                config = example_config(ex, int(n), constants)
            except ConfigError as exc:
                row["feasible"] = False
                row["note"] = str(exc)
                rows.append(row)
                continue
            report = classify(config, C=C, eta=eta)
            row["regime"] = report.regime
            for name, short in TABLE_CHECKS:
                check = report.checks[name]
                margin = check.binding_margin
                row[f"{short}_satisfied"] = str(check.satisfied).lower()
                row[f"{short}_margin"] = margin
                if name in prev_margins and math.isfinite(prev_margins[name]) \
                        and prev_margins[name] != 0.0:
                    row[f"{short}_trend"] = margin / prev_margins[name]
                prev_margins[name] = margin
            rows.append(row)
    return rows


# -- persistence -----------------------------------------------------------

RESULT_COLUMNS = ["config_id", "algorithm", "trial", "seed", "success",
                  "failure_kind", "objective"]


def write_results(rows, path, fmt: str = "csv", include_timings: bool = False) -> None:
    """Persist Monte Carlo rows, as CSV with CRLF line endings or as JSON;
    timings are opt-in so that files are byte-identical across reruns."""
    columns = RESULT_COLUMNS + (["wall_time"] if include_timings else [])
    dicts = [{col: getattr(row, col) for col in columns} for row in rows]
    write_text(path, table_text(dicts, columns, fmt, "\r\n"))


def write_table1(rows: list[dict], path, fmt: str = "csv") -> None:
    write_text(path, table_text(rows, TABLE_COLUMNS, fmt, "\r\n"))
