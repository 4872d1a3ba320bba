"""Tests for the Monte Carlo harness: experiment specs, per-trial rows,
Wilson intervals, aggregation across worker threads, the classification
trend table, and byte-deterministic persistence."""

import csv
import json
import math

import numpy as np
import pytest

from hsbmlab import (
    ALGORITHMS,
    Adjacency,
    ConfigError,
    ExperimentSpec,
    ModelConfig,
    SolverOptions,
    UNOBSERVED,
    classify,
    example_config,
    example6_reference_constants,
    objective,
    partitions_equal,
    recover_convex,
    run_monte_carlo,
    run_table1,
    run_trial,
    sample_adjacency,
    sample_observed,
    wilson_interval,
    write_adjacency,
    write_results,
    write_table1,
)
from hsbmlab import cli, harness
from hsbmlab.harness import FAILURE_KINDS, RESULT_COLUMNS, TABLE_COLUMNS, recover

SMALL = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)

# Near-complete graph on four nodes: every draw is (almost surely) K4, whose
# maximum-objective balanced pair partition is never unique.
TIE = ModelConfig(4, [(2, 0.999), (2, 0.999)], 0.998)


def row_key(row):
    """All persisted fields, i.e. everything except the wall time."""
    return tuple(getattr(row, col) for col in RESULT_COLUMNS)


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec(SMALL, ("convex",), trials=2)
        assert spec.base_seed == 0
        assert spec.config_id == "config"
        assert spec.solver_options is None
        assert spec.restarts == 10

    def test_trials_below_one_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentSpec(SMALL, ("convex",), trials=0)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="unknown algorithms"):
            ExperimentSpec(SMALL, ("convex", "oracle"), trials=1)

    def test_empty_algorithms_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            ExperimentSpec(SMALL, (), trials=1)

    def test_exhaustive_blocked_above_size_limit(self):
        big = ModelConfig(16, [(8, 0.9), (8, 0.9)], 0.05)
        with pytest.raises(ConfigError, match="n <= 14"):
            ExperimentSpec(big, ("exhaustive",), trials=1)
        # Other algorithms are not size-limited.
        ExperimentSpec(big, ("convex", "counting", "local-search"), trials=1)

    def test_spec_is_immutable(self):
        spec = ExperimentSpec(SMALL, ("convex",), trials=1)
        with pytest.raises(AttributeError):
            spec.trials = 5


class TestRunTrial:
    def test_seed_is_base_seed_plus_trial(self):
        spec = ExperimentSpec(SMALL, ("local-search",), trials=10,
                              base_seed=100, config_id="layout")
        row = run_trial(spec, "local-search", 3)
        assert row.seed == 103
        assert row.trial == 3
        assert row.config_id == "layout"
        assert row.algorithm == "local-search"

    def test_convex_success(self):
        spec = ExperimentSpec(SMALL, ("convex",), trials=1)
        row = run_trial(spec, "convex", 0)
        assert row.success is True
        assert row.failure_kind == "none"
        assert math.isfinite(row.objective)

    def test_convex_rounding_failure(self):
        # Seed 34 is a draw whose relaxation optimum (about 43.0) exceeds
        # the combinatorial maximum plus the diagonal (42), so the iterate
        # rounds to a non-clique pattern.
        spec = ExperimentSpec(SMALL, ("convex",), trials=3)
        row = run_trial(spec, "convex", 34)
        assert row.success is False
        assert row.failure_kind == "rounding"
        assert math.isfinite(row.objective)

    def test_convex_nonconvergence(self):
        # Seed 36 has a fractional relaxation optimum: no certificate can
        # stop the solver within one iteration.
        spec = ExperimentSpec(SMALL, ("convex",), trials=1, base_seed=36,
                              solver_options=SolverOptions(max_iter=1))
        row = run_trial(spec, "convex", 0)
        assert row.success is False
        assert row.failure_kind == "nonconvergence"

    def test_exhaustive_success(self):
        spec = ExperimentSpec(SMALL, ("exhaustive",), trials=1)
        row = run_trial(spec, "exhaustive", 0)
        assert row.success is True
        assert row.failure_kind == "none"
        assert row.objective == float(int(row.objective))

    def test_exhaustive_tie(self):
        spec = ExperimentSpec(TIE, ("exhaustive",), trials=1)
        row = run_trial(spec, "exhaustive", 0)
        assert row.success is False
        assert row.failure_kind == "tie"
        # K4: any balanced pair partition keeps 4 ordered within-block pairs.
        assert row.objective == 4.0

    def test_counting_success_objective_matches_planted(self):
        config = ModelConfig(420, [(200, 0.95), (200, 0.95)], 0.005)
        spec = ExperimentSpec(config, ("counting",), trials=1)
        row = run_trial(spec, "counting", 0)
        assert row.success is True
        assert row.failure_kind == "none"
        adjacency = sample_adjacency(config, config.planted_partition(), seed=0)
        assert row.objective == float(
            objective(adjacency, config.planted_partition())
        )

    def test_counting_failure_keeps_nan_objective(self):
        # At n = 10 the trial-2 draw violates the count separation.
        spec = ExperimentSpec(SMALL, ("counting",), trials=3)
        row = run_trial(spec, "counting", 2)
        assert row.success is False
        assert row.failure_kind == "counting"
        assert math.isnan(row.objective)

    def test_local_search_success(self):
        spec = ExperimentSpec(SMALL, ("local-search",), trials=1)
        row = run_trial(spec, "local-search", 0)
        assert row.success is True
        assert row.failure_kind == "none"

    def test_partial_observation_uses_zero_fill_and_collapsed_config(self):
        config = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05, gamma=0.6)
        spec = ExperimentSpec(config, ("convex",), trials=1)
        row = run_trial(spec, "convex", 0)
        planted = config.planted_partition()
        observed = sample_observed(config, planted, seed=0)
        rec = recover_convex(observed.to_adjacency(unobserved_as=0),
                             config.collapsed())
        assert row.success == (rec.succeeded
                               and partitions_equal(rec.partition, planted))
        assert row.objective == rec.solver.objective

    def test_unknown_algorithm_at_run_time(self):
        spec = ExperimentSpec(SMALL, ("convex",), trials=1)
        with pytest.raises(ConfigError, match="unknown algorithm"):
            run_trial(spec, "oracle", 0)

    def test_rows_deterministic_up_to_wall_time(self):
        spec = ExperimentSpec(SMALL, ("convex",), trials=1, base_seed=7)
        assert row_key(run_trial(spec, "convex", 0)) == row_key(
            run_trial(spec, "convex", 0)
        )


def write_inputs(tmp_path, config, seed):
    """Config file and fully observed graph file of one draw, for the CLI."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    graph_path = tmp_path / "graph.txt"
    write_adjacency(graph_path,
                    sample_adjacency(config, config.planted_partition(), seed))
    return str(config_path), str(graph_path)


class TestRecover:
    # kind -> (config, seed, algorithm, solver options, CLI flags, detail
    # prefix, CLI exit code).
    CASES = {
        "none": (SMALL, 0, "convex", None, [], "", 0),
        "rounding": (SMALL, 34, "convex", None, [], "not_clique: ", 2),
        "nonconvergence": (SMALL, 36, "convex", SolverOptions(max_iter=1),
                           ["--max-iter", "1"], "nonconvergence: ", 3),
        "counting": (SMALL, 2, "counting", None, [], "not_clique: ", 2),
        "tie": (TIE, 0, "exhaustive", None, [], "tie: ", 0),
    }

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_failure_kind_detail_and_exit_code(self, kind, tmp_path, capsys):
        config, seed, algorithm, options, flags, prefix, code = self.CASES[kind]
        graph = sample_adjacency(config, config.planted_partition(), seed)
        rec = recover(algorithm, graph, config, options)
        assert rec.failure_kind == kind
        assert rec.detail.startswith(prefix)
        assert (rec.detail == "") == (kind == "none")
        assert (rec.partition is None) == (kind in ("rounding", "nonconvergence",
                                                    "counting"))
        assert math.isnan(rec.objective) == (kind == "counting")

        config_path, graph_path = write_inputs(tmp_path, config, seed)
        assert cli.main(["recover", "--config", config_path, "--adjacency",
                         graph_path, "--algorithm", algorithm] + flags) == code
        captured = capsys.readouterr()
        assert captured.err == (rec.detail + "\n" if rec.detail else "")
        assert captured.out.startswith("node,label") == (rec.partition is not None)

    def test_unknown_algorithm(self):
        graph = sample_adjacency(SMALL, SMALL.planted_partition(), 0)
        with pytest.raises(ConfigError, match="unknown algorithm"):
            recover("oracle", graph, SMALL)

    def test_observed_graph_needs_partial_config(self):
        partial = ModelConfig(60, [(30, 0.95), (30, 0.95)], 0.01, gamma=0.8)
        full = ModelConfig(60, [(30, 0.95), (30, 0.95)], 0.01)
        graph = sample_observed(partial, partial.planted_partition(), 0)
        unobserved = int((graph.values == UNOBSERVED).sum()) // 2
        assert unobserved > 0
        with pytest.raises(ConfigError) as err:
            recover("counting", graph, full)
        assert f"{unobserved} unobserved pairs" in str(err.value)
        assert "gamma = 1" in str(err.value)
        assert recover("counting", graph, partial).failure_kind in FAILURE_KINDS
        # Every pair observed: the graph is fully observed and accepted.
        observed = sample_observed(full, full.planted_partition(), 0)
        rec = recover("counting", observed, full)
        direct = recover("counting", observed.to_adjacency(), full)
        assert rec.failure_kind == direct.failure_kind == "none"
        assert np.array_equal(rec.partition.labels, direct.partition.labels)

    def test_convex_solver_reached_through_harness_global(self, monkeypatch,
                                                          tmp_path, capsys):
        # The benchmark taps every convex solve by replacing
        # harness.recover_convex; both the harness and the CLI must look
        # the solver up there and hand it an Adjacency.
        seen = []
        original = harness.recover_convex

        def spy(adjacency, config, options=None):
            seen.append(adjacency)
            return original(adjacency, config, options)

        monkeypatch.setattr(harness, "recover_convex", spy)
        expected = sample_adjacency(SMALL, SMALL.planted_partition(), 0).matrix
        run_trial(ExperimentSpec(SMALL, ("convex",), trials=1), "convex", 0)
        config_path, graph_path = write_inputs(tmp_path, SMALL, 0)
        assert cli.main(["recover", "--config", config_path, "--adjacency",
                         graph_path, "--algorithm", "convex"]) == 0
        capsys.readouterr()
        assert len(seen) == 2
        for adjacency in seen:
            assert isinstance(adjacency, Adjacency)
            assert np.array_equal(adjacency.matrix, expected)


class TestWilsonInterval:
    Z = 1.959963984540054

    def test_matches_closed_form(self):
        for successes, trials in [(8, 10), (1, 7), (30, 50)]:
            p_hat = successes / trials
            denom = 1.0 + self.Z**2 / trials
            center = (p_hat + self.Z**2 / (2 * trials)) / denom
            half = self.Z * math.sqrt(
                p_hat * (1 - p_hat) / trials + self.Z**2 / (4 * trials**2)
            ) / denom
            low, high = wilson_interval(successes, trials)
            assert low == pytest.approx(center - half, rel=1e-12)
            assert high == pytest.approx(center + half, rel=1e-12)

    def test_extremes_clamped_to_unit_interval(self):
        low, high = wilson_interval(0, 12)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < high < 0.5
        low, high = wilson_interval(12, 12)
        assert high == pytest.approx(1.0)
        assert 0.7 < low < 1.0

    @pytest.mark.parametrize("successes", range(11))
    def test_contains_point_estimate(self, successes):
        low, high = wilson_interval(successes, 10)
        p_hat = successes / 10
        assert 0.0 <= low <= p_hat + 1e-12
        assert p_hat - 1e-12 <= high <= 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            wilson_interval(0, 0)


class TestRunMonteCarlo:
    def test_rows_sorted_and_complete(self):
        spec = ExperimentSpec(
            SMALL, ("local-search", "convex", "exhaustive"), trials=3,
            config_id="sorted",
        )
        result = run_monte_carlo(spec)
        keys = [(r.config_id, r.algorithm, r.trial) for r in result.rows]
        assert keys == sorted(keys)
        assert keys == [("sorted", alg, t)
                        for alg in ("convex", "exhaustive", "local-search")
                        for t in range(3)]

    def test_worker_count_does_not_change_results(self):
        spec = ExperimentSpec(SMALL, ALGORITHMS, trials=3)
        serial = run_monte_carlo(spec, workers=1)
        threaded = run_monte_carlo(spec, workers=4)
        assert [row_key(r) for r in serial.rows] == [
            row_key(r) for r in threaded.rows
        ]
        assert serial.summary == threaded.summary

    def test_summary_statistics(self):
        # Trials 0 and 1 succeed, trial 2 fails the count separation.
        spec = ExperimentSpec(SMALL, ("counting",), trials=3)
        result = run_monte_carlo(spec)
        stats = result.summary["counting"]
        assert stats["trials"] == 3
        assert stats["successes"] == 2
        assert stats["success_rate"] == pytest.approx(2 / 3)
        low, high = wilson_interval(2, 3)
        assert stats["ci_low"] == low
        assert stats["ci_high"] == high
        assert set(stats["failure_counts"]) == set(FAILURE_KINDS)
        assert stats["failure_counts"]["none"] == 2
        assert stats["failure_counts"]["counting"] == 1
        assert sum(stats["failure_counts"].values()) == 3
        assert result.success_rate("counting") == stats["success_rate"]

    def test_rejects_zero_workers(self):
        spec = ExperimentSpec(SMALL, ("convex",), trials=1)
        with pytest.raises(ValueError, match="workers"):
            run_monte_carlo(spec, workers=0)


class TestRunTable1:
    def test_columns_and_trend_ratio(self):
        rows = run_table1((10**4, 10**5), example_ids=(1,))
        assert len(rows) == 2
        for row in rows:
            assert set(row) == set(TABLE_COLUMNS)
            assert row["example"] == 1
            assert row["feasible"] is True
            for short in ("clusterwise", "global", "search"):
                assert row[f"{short}_satisfied"] in ("true", "false")
                assert math.isfinite(row[f"{short}_margin"])
        first, second = rows
        for short in ("clusterwise", "global", "search"):
            assert math.isnan(first[f"{short}_trend"])
            assert second[f"{short}_trend"] == pytest.approx(
                second[f"{short}_margin"] / first[f"{short}_margin"], rel=1e-12
            )

    def test_regime_matches_classifier(self):
        row = run_table1((10**4,), example_ids=(1,))[0]
        report = classify(example_config(1, 10**4), C=1.0, eta=2.0)
        assert row["regime"] == report.regime

    def test_family6_gets_reference_constants_automatically(self):
        row = run_table1((10**4,), example_ids=(6,))[0]
        assert row["feasible"] is True
        config = example_config(6, 10**4, example6_reference_constants(10**4))
        assert row["regime"] == classify(config, C=1.0, eta=2.0).regime

    def test_infeasible_rows_and_trend_reset(self):
        # Family 6's reference constants are infeasible at n = 100, so the
        # first feasible row starts a fresh trend baseline.
        rows = run_table1((100, 10**4, 10**5), example_ids=(6,))
        assert rows[0]["feasible"] is False
        assert rows[0]["note"] != ""
        assert rows[0]["regime"] == ""
        for short in ("clusterwise", "global", "search"):
            assert rows[0][f"{short}_satisfied"] == ""
            assert math.isnan(rows[0][f"{short}_margin"])
            assert math.isnan(rows[1][f"{short}_trend"])
            assert math.isfinite(rows[2][f"{short}_trend"])

    def test_small_n_rows_infeasible_for_every_preset(self):
        # Family 6's reference constants take log n, so they too must
        # refuse n < 2 with the note the other presets give.
        rows = run_table1((-5, 0, 1), example_ids=(1, 6))
        assert [(r["example"], r["feasible"], r["note"]) for r in rows] == [
            (ex, False, f"n must be >= 2, got {n}") for ex in (1, 6) for n in (-5, 0, 1)
        ]

    def test_constant_overrides_change_margins(self):
        base = run_table1((10**5,), example_ids=(2,))[0]
        boosted = run_table1((10**5,), example_ids=(2,),
                             constants={2: {"c": 3.0}})[0]
        assert boosted["clusterwise_margin"] != base["clusterwise_margin"]


class TestPersistence:
    @pytest.fixture()
    def rows(self):
        spec = ExperimentSpec(SMALL, ("counting", "local-search"), trials=2,
                              config_id="io")
        return run_monte_carlo(spec).rows

    def test_csv_layout(self, rows, tmp_path):
        path = tmp_path / "results.csv"
        write_results(rows, path)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == RESULT_COLUMNS
        assert len(records) == 1 + len(rows)
        first = dict(zip(records[0], records[1]))
        assert first["config_id"] == "io"
        assert first["success"] in ("true", "false")
        assert first["objective"] == repr(rows[0].objective)
        assert "wall_time" not in records[0]

    def test_csv_timings_opt_in(self, rows, tmp_path):
        path = tmp_path / "timed.csv"
        write_results(rows, path, include_timings=True)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == RESULT_COLUMNS + ["wall_time"]

    def test_json_layout(self, rows, tmp_path):
        path = tmp_path / "results.json"
        write_results(rows, path, fmt="json")
        text = path.read_text()
        assert text.endswith("\n")
        dicts = [{col: getattr(row, col) for col in RESULT_COLUMNS}
                 for row in rows]
        assert text == json.dumps(dicts, indent=2, sort_keys=True) + "\n"

    def test_files_byte_identical_across_runs_and_workers(self, tmp_path):
        spec = ExperimentSpec(SMALL, ("counting", "local-search"), trials=2)
        paths = []
        for name, workers in [("a.csv", 1), ("b.csv", 4)]:
            path = tmp_path / name
            write_results(run_monte_carlo(spec, workers=workers).rows, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_write_table1_formats(self, tmp_path):
        rows = run_table1((10**4,), example_ids=(1, 6))
        csv_path = tmp_path / "table.csv"
        write_table1(rows, csv_path)
        with open(csv_path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == TABLE_COLUMNS
        assert len(records) == 3
        assert records[1][records[0].index("feasible")] == "true"
        json_path = tmp_path / "table.json"
        write_table1(rows, json_path, fmt="json")
        assert json.loads(json_path.read_text()) == json.loads(
            json.dumps(rows)
        )

    def test_unknown_format_rejected(self, rows, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_results(rows, tmp_path / "x.yaml", fmt="yaml")
        with pytest.raises(ValueError, match="format"):
            write_table1([], tmp_path / "y.yaml", fmt="yaml")
