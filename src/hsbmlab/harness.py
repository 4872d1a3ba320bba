"""Experiment harness: seeded Monte Carlo recovery runs and the
classification trend table.

Determinism contract: every emitted artifact is a pure function of the
experiment specification (config, algorithms, trials, base seed, options).
Trial i draws its graph from seed base_seed + i, trials are computed
independently, and rows are sorted by (config id, algorithm, trial) before
emission, so worker count cannot change any output byte.  Wall-clock
timings are recorded on each row but excluded from files unless explicitly
requested, keeping file bytes run-invariant.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .convex import SolverOptions, recover_convex
from .counting import recover_counting
from .exhaustive import (
    MAX_EXHAUSTIVE_N,
    local_search,
    objective as partition_objective,
    solve_exhaustive,
)
from .generate import UNOBSERVED, ObservedMatrix, sample_adjacency, sample_observed
from .model import ConfigError, ModelConfig, Partition, partitions_equal
from .presets import EXAMPLE_IDS, example6_reference_constants, example_config
from .regimes import classify

ALGORITHMS = ("convex", "exhaustive", "counting", "local-search")
# Standard normal quantile at 0.975: Wilson intervals are 95% intervals.
WILSON_Z = 1.959963984540054
FAILURE_KINDS = ("none", "rounding", "nonconvergence", "counting", "tie")


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo experiment: a configuration, the algorithms to run
    on it, and the trial/seed/options bookkeeping."""

    config: ModelConfig
    algorithms: tuple[str, ...]
    trials: int
    base_seed: int = 0
    config_id: str = "config"
    solver_options: SolverOptions | None = None
    restarts: int = 10

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ConfigError(f"unknown algorithms {bad}; known: {list(ALGORITHMS)}")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if "local-search" in self.algorithms and self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if "exhaustive" in self.algorithms and self.config.n > MAX_EXHAUSTIVE_N:
            raise ConfigError(
                f"exhaustive search allowed only for n <= {MAX_EXHAUSTIVE_N}, "
                f"got n = {self.config.n}"
            )


@dataclass(frozen=True, eq=False)
class Recovery:
    """One algorithm's outcome on one graph: the partition it output (None
    when it could not produce one), a failure_kind from FAILURE_KINDS, a
    one-line detail for any failure kind but "none", and the objective
    (NaN for a counting failure)."""

    partition: Partition | None
    failure_kind: str
    detail: str
    objective: float


def recover(algorithm: str, graph, config: ModelConfig,
            solver_options: SolverOptions | None = None,
            seed: int = 0, restarts: int = 10) -> Recovery:
    """Run one algorithm on an Adjacency or ObservedMatrix.

    Partial observation: an ObservedMatrix is collapsed with unobserved
    pairs mapped to 0, and a configuration with gamma < 1 is replaced by its
    gamma-collapsed form.  An ObservedMatrix with unobserved pairs under a
    gamma = 1 configuration is refused, since that model would read them as
    non-edges.  seed and restarts apply to local search only.
    """
    if isinstance(graph, ObservedMatrix):
        unobserved = int((graph.values == UNOBSERVED).sum()) // 2
        if unobserved and config.gamma >= 1.0:
            raise ConfigError(
                f"the graph has {unobserved} unobserved pairs but the config "
                f"has gamma = {config.gamma:g}; give the observation rate "
                f"gamma < 1 to recover from a partially observed graph")
        graph = graph.to_adjacency(unobserved_as=0)
    if config.gamma < 1.0:
        config = config.collapsed()
    if algorithm == "convex":
        rec = recover_convex(graph, config, solver_options)
        if rec.failure is None:
            return Recovery(rec.partition, "none", "", rec.solver.objective)
        kind = "nonconvergence" if rec.failure.kind == "nonconvergence" else "rounding"
        return Recovery(None, kind, f"{rec.failure.kind}: {rec.failure.detail}",
                        rec.solver.objective)
    if algorithm == "exhaustive":
        res = solve_exhaustive(graph, config)
        if res.tie_count > 1:
            return Recovery(res.partition, "tie", f"tie: {res.tie_count} maximizers",
                            float(res.objective))
        return Recovery(res.partition, "none", "", float(res.objective))
    if algorithm == "counting":
        rec = recover_counting(graph, config)
        if rec.failure is not None:
            return Recovery(None, "counting", f"{rec.failure.kind}: {rec.failure.detail}",
                            math.nan)
        return Recovery(rec.partition, "none", "",
                        float(partition_objective(graph, rec.partition)))
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


def run_trial(spec: ExperimentSpec, algorithm: str, trial: int) -> ResultRow:
    """Run one algorithm on one seeded draw, timing only the recovery.
    With gamma < 1 the graph is partially observed (see recover)."""
    config = spec.config
    seed = spec.base_seed + trial
    planted = config.planted_partition()
    if config.gamma < 1.0:
        graph = sample_observed(config, planted, seed).to_adjacency(unobserved_as=0)
    else:
        graph = sample_adjacency(config, planted, seed)

    start = time.perf_counter()
    rec = recover(algorithm, graph, config, spec.solver_options, seed, spec.restarts)
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

    def success_rate(self, algorithm: str) -> float:
        return self.summary[algorithm]["success_rate"]


def run_monte_carlo(spec: ExperimentSpec, workers: int = 1) -> MonteCarloResult:
    """Run all (algorithm, trial) pairs, optionally across worker threads.

    Output is bit-identical for any worker count: each trial depends only
    on its own seed and rows are sorted before aggregation.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    tasks = [(alg, t) for alg in spec.algorithms for t in range(spec.trials)]
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
    C: float = 1.0,
    eta: float = 2.0,
    example_ids=EXAMPLE_IDS,
    constants: dict[int, dict] | None = None,
) -> list[dict]:
    """Classify each preset at each n and tabulate per-check margins.

    The trend column holds the ratio of a check's binding margin to its
    value at the previous feasible n of the same preset, making the
    asymptotic satisfied/violated pattern visible as margins drifting above
    or below 1.  Family 6 uses its reference constants unless overridden.
    Infeasible (example, n) pairs yield a feasible=False row with a note.
    """
    constants = dict(constants or {})
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
            over = constants.get(ex)
            try:
                if over is None and ex == 6:
                    over = example6_reference_constants(int(n))
                config = example_config(ex, int(n), over)
            except ConfigError as exc:
                row["feasible"] = False
                row["note"] = str(exc)
                rows.append(row)
                continue
            report = classify(config, C=C, eta=eta, config_id=f"example{ex}")
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


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_dicts(rows, include_timings: bool = False) -> list[dict]:
    out = []
    for row in rows:
        d = {col: getattr(row, col) for col in RESULT_COLUMNS}
        if include_timings:
            d["wall_time"] = row.wall_time
        out.append(d)
    return out


def write_dicts(dicts: list[dict], path, fmt: str, columns: list[str]) -> None:
    """Write dicts as csv (the given columns, in order) or as json."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for d in dicts:
                writer.writerow([_cell(d.get(col, "")) for col in columns])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(dicts, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def write_results(rows, path, fmt: str = "csv", include_timings: bool = False) -> None:
    """Persist Monte Carlo rows; timings are opt-in so that files are
    byte-identical across reruns."""
    columns = RESULT_COLUMNS + (["wall_time"] if include_timings else [])
    write_dicts(rows_to_dicts(rows, include_timings), path, fmt, columns)


def write_table1(rows: list[dict], path, fmt: str = "csv") -> None:
    write_dicts(rows, path, fmt, TABLE_COLUMNS)
