"""Tests for the Monte Carlo harness: experiment specs, per-trial rows,
Wilson intervals, aggregation across worker threads, the one-BLAS-thread
pin, the classification trend table, and byte-deterministic persistence."""

import csv
import json
import math
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

from hsbmlab import (
    ALGORITHMS,
    Adjacency,
    ConfigError,
    ExperimentSpec,
    ModelConfig,
    ObservedMatrix,
    UNOBSERVED,
    classify,
    concentration_experiment,
    example_config,
    example6_reference_constants,
    expected_adjacency,
    objective,
    partitions_equal,
    read_graph,
    recover_convex,
    run_monte_carlo,
    run_table1,
    run_trial,
    sample_adjacency,
    sample_observed,
    wilson_interval,
    write_graph,
    write_results,
    write_table1,
)
from hsbmlab import cli, harness
from hsbmlab.convex import MAX_ITER, SolverResult
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
        assert spec.max_iter == MAX_ITER
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

    def test_repeated_algorithm_rejected(self):
        # Each trial would run twice and the summary count it twice.
        with pytest.raises(ConfigError, match=r"repeated algorithms \['counting'\]"):
            ExperimentSpec(SMALL, ("counting", "convex", "counting"), trials=2)

    def test_exhaustive_blocked_above_size_limit(self):
        big = ModelConfig(16, [(8, 0.9), (8, 0.9)], 0.05)
        # The scan's own message, with its partition-count estimate.
        with pytest.raises(ConfigError, match=r"n <= 14, got n = 16 \(around 10\^"):
            ExperimentSpec(big, ("exhaustive",), trials=1)
        # Other algorithms are not size-limited.
        ExperimentSpec(big, ("convex", "counting", "local-search"), trials=1)

    def test_zero_max_iter_rejected_when_built(self):
        with pytest.raises(ConfigError, match="max_iter must be >= 1"):
            ExperimentSpec(SMALL, ("convex",), trials=1, max_iter=0)

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
                              max_iter=1)
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
        assert row.success == (rec.failure_kind == "none"
                               and partitions_equal(rec.partition, planted))
        assert row.objective == rec.solver.objective

    def test_partial_draw_reaches_recover_uncollapsed(self, monkeypatch):
        # recover is the one place a partial graph is collapsed: run_trial
        # hands it the observed draw itself, inside the timed region.
        config = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05, gamma=0.6)
        seen = []

        def spy(algorithm, graph, *args):
            seen.append(graph)
            return recover(algorithm, graph, *args)

        monkeypatch.setattr(harness, "recover", spy)
        run_trial(ExperimentSpec(config, ("counting",), trials=1), "counting", 0)
        drawn = sample_observed(config, config.planted_partition(), 0)
        assert len(seen) == 1 and isinstance(seen[0], ObservedMatrix)
        assert np.array_equal(seen[0].values, drawn.values)

    @pytest.mark.parametrize("gamma", [1.0, 0.6])
    def test_generate_writes_the_trial_draw(self, monkeypatch, tmp_path, gamma):
        # generate and run_trial draw through harness's samplers, the
        # benchmark's trace points, so a spy on them sees both draws, and
        # the file holds the graph that trial 2 at base seed 5 recovers.
        calls = []
        for name in ("sample_adjacency", "sample_observed"):
            def spy(config, planted, seed, _name=name, _sample=getattr(harness, name)):
                calls.append((_name, seed, _sample(config, planted, seed)))
                return calls[-1][2]
            monkeypatch.setattr(harness, name, spy)
        config = ModelConfig.from_runs(SMALL.n, *SMALL.runs, SMALL.q, gamma)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "graph.txt"
        assert cli.main(["generate", "--config", str(config_path), "--seed", "7",
                         "--out", str(out)]) == 0
        run_trial(ExperimentSpec(config, ("counting",), trials=3, base_seed=5),
                  "counting", 2)
        sampler = "sample_observed" if gamma < 1.0 else "sample_adjacency"
        assert [call[:2] for call in calls] == [(sampler, 7), (sampler, 7)]
        written, drawn = read_graph(out, SMALL.n), calls[1][2]
        assert type(written) is type(drawn)
        cells = (lambda g: g.values) if gamma < 1.0 else (lambda g: g.matrix)
        assert np.array_equal(cells(written), cells(drawn))

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
    write_graph(graph_path,
                sample_adjacency(config, config.planted_partition(), seed))
    return str(config_path), str(graph_path)


class TestRecover:
    # kind -> (config, seed, algorithm, max_iter, CLI flags, detail
    # prefix, CLI exit code).
    CASES = {
        "none": (SMALL, 0, "convex", MAX_ITER, [], "", 0),
        "rounding": (SMALL, 34, "convex", MAX_ITER, [], "not_clique: ", 2),
        "nonconvergence": (SMALL, 36, "convex", 1,
                           ["--max-iter", "1"], "nonconvergence: ", 3),
        "counting": (SMALL, 2, "counting", MAX_ITER, [], "not_clique: ", 2),
        "tie": (TIE, 0, "exhaustive", MAX_ITER, [], "tie: ", 0),
    }

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_failure_kind_detail_and_exit_code(self, kind, tmp_path, capsys):
        config, seed, algorithm, max_iter, flags, prefix, code = self.CASES[kind]
        graph = sample_adjacency(config, config.planted_partition(), seed)
        rec = recover(algorithm, graph, config, max_iter)
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

    @pytest.mark.parametrize("seed, max_iter, kind", [
        (0, MAX_ITER, "none"), (34, MAX_ITER, "rounding"), (36, 1, "nonconvergence"),
    ])
    def test_convex_record_carries_its_solver_result(self, seed, max_iter, kind):
        graph = sample_adjacency(SMALL, SMALL.planted_partition(), seed)
        rec = recover("convex", graph, SMALL, max_iter)
        assert rec.failure_kind == kind
        assert isinstance(rec.solver, SolverResult)
        assert rec.solver.converged == (kind != "nonconvergence")
        assert rec.objective == rec.solver.objective
        if kind == "nonconvergence":
            assert rec.solver.iterations == 1
        for algorithm in ("exhaustive", "counting", "local-search"):
            assert recover(algorithm, graph, SMALL).solver is None

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


class TestConcentrationDraw:
    """The concentration bench reads each trial as recover does: the
    harness's draw of the config, collapsed."""

    CLUSTERS = [(30, 0.5), (30, 0.5)]

    @pytest.mark.parametrize("gamma, full, partial", [(1.0, 3, 0), (0.5, 0, 3)])
    def test_bench_draws_through_draw_graph(self, gamma, full, partial):
        cfg = ModelConfig(60, self.CLUSTERS, 0.05, gamma=gamma)
        with mock.patch.object(harness, "sample_adjacency",
                               wraps=harness.sample_adjacency) as adjacency, \
                mock.patch.object(harness, "sample_observed",
                                  wraps=harness.sample_observed) as observed:
            concentration_experiment(cfg, trials=3, seed=2)
        assert (adjacency.call_count, observed.call_count) == (full, partial)

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_trial_is_the_collapsed_draw(self, gamma):
        cfg = ModelConfig(60, self.CLUSTERS, 0.05, gamma=gamma)
        planted = cfg.planted_partition()
        stats = concentration_experiment(cfg, trials=2, seed=9)
        for i in range(2):
            adj, model = harness.collapse(harness.draw_graph(cfg, planted, 9 + i), cfg)
            assert model == cfg.collapsed()
            centered = adj.matrix.astype(float) - expected_adjacency(model, planted)
            assert stats.norms[i] == np.abs(np.linalg.eigvalsh(centered)).max()

    def test_collapse_maps_unobserved_to_zero(self):
        cfg = ModelConfig(60, self.CLUSTERS, 0.05, gamma=0.5)
        observed = sample_observed(cfg, cfg.planted_partition(), 4)
        adj, model = harness.collapse(observed, cfg)
        assert np.array_equal(adj.matrix, observed.to_adjacency(unobserved_as=0).matrix)
        assert model == cfg.collapsed() and model.gamma == 1.0


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

    def test_rejects_zero_workers(self):
        spec = ExperimentSpec(SMALL, ("convex",), trials=1)
        with pytest.raises(ValueError, match="workers"):
            run_monte_carlo(spec, workers=0)


BLAS_CALLS = harness.openblas_thread_calls()


@pytest.mark.skipif(BLAS_CALLS is None,
                    reason="numpy.linalg is not linked to OpenBLAS")
class TestBlasThreads:
    """run_monte_carlo runs trials on one BLAS thread and restores the
    count it found, after a raise and under overlapping calls too."""

    SPEC = ExperimentSpec(SMALL, ("counting",), trials=4)

    @pytest.fixture(autouse=True)
    def three_threads(self):
        # A count that is neither 1 nor a likely default shows a restore.
        get, set_ = BLAS_CALLS
        before = get()
        set_(3)
        yield
        set_(before)

    @staticmethod
    def fake_recovery(*args, **kwargs):
        return harness.Recovery(None, "counting", "stub", math.nan)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_see_one_thread(self, monkeypatch, workers):
        get, _ = BLAS_CALLS
        seen = []

        def recover(*args, **kwargs):
            seen.append(get())
            return self.fake_recovery()

        monkeypatch.setattr(harness, "recover", recover)
        run_monte_carlo(self.SPEC, workers=workers)
        assert seen == [1] * self.SPEC.trials
        assert get() == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_when_a_trial_raises(self, monkeypatch, workers):
        def recover(*args, **kwargs):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(harness, "recover", recover)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_monte_carlo(self.SPEC, workers=workers)
        assert BLAS_CALLS[0]() == 3

    def test_overlapping_calls_restore_once(self, monkeypatch):
        # Both calls enter before either leaves; the first to leave must
        # not restore the count under the second.
        get, _ = BLAS_CALLS
        both_inside = threading.Barrier(2, timeout=30)
        first_done = threading.Event()
        seen_after_first = []

        def recover(algorithm, graph, config, max_iter, seed, restarts):
            both_inside.wait()
            if seed == 100:
                assert first_done.wait(timeout=30)
                seen_after_first.append(get())
            return self.fake_recovery()

        def call(base_seed):
            spec = ExperimentSpec(SMALL, ("counting",), trials=1,
                                  base_seed=base_seed)
            run_monte_carlo(spec, workers=1)
            if base_seed == 0:
                first_done.set()

        monkeypatch.setattr(harness, "recover", recover)
        threads = [threading.Thread(target=call, args=(s,)) for s in (0, 100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert seen_after_first == [1]
        assert get() == 3


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

    def test_unknown_example_id_refused(self):
        with pytest.raises(ConfigError, match="example_id must be one of"):
            run_table1((10**4,), example_ids=(1, 7))

    def test_small_n_rows_infeasible_for_every_preset(self):
        # Family 6's reference constants take log n, so they too must
        # refuse n < 2 with the note the other presets give.
        rows = run_table1((-5, 0, 1), example_ids=(1, 6))
        assert [(r["example"], r["feasible"], r["note"]) for r in rows] == [
            (ex, False, f"n must be >= 2, got {n}") for ex in (1, 6) for n in (-5, 0, 1)
        ]

    def test_n_beyond_int64_gives_infeasible_rows(self):
        # Cluster sizes of 2**63 or more once raised OverflowError (n = 1e20)
        # or wrapped to negative sizes with a RuntimeWarning (n = 1e19).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_table1((10**19, 10**20), example_ids=(1,))
        assert [r["feasible"] for r in rows] == [False, False]
        for row in rows:
            assert "cluster sizes must lie in the int64 range" in row["note"]
        with pytest.raises(ConfigError, match="int64 range"):
            example_config(1, 10**20)


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
