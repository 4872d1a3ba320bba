"""Degree/common-neighbor counting recovery."""

import math
import time

import numpy as np
import pytest

from hsbmlab import (
    ConfigError,
    CountingFailure,
    ModelConfig,
    isolated_threshold,
    pair_threshold,
    partitions_equal,
    recover_counting,
    sample_adjacency,
)
from hsbmlab.model import cross_pair_peak

REL = 1e-12


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def pair_threshold_mean_midpoint(config: ModelConfig) -> float:
    """Oracle for pair_threshold: the same cutoff expressed as the midpoint
    between the smallest same-cluster and the largest cross-cluster
    expected common-neighbor counts.  Requires r >= 2."""
    if config.r < 2:
        raise ConfigError("midpoint form needs at least two clusters")
    n = config.n
    q = config.q
    sizes = config.sizes.astype(float)
    intra_mean_floor = float(
        np.min((sizes - 2.0) * config.probs**2 + (n - sizes) * q**2)
    )
    cross_mean_peak = q * cross_pair_peak(config) + n * q**2
    return (intra_mean_floor + cross_mean_peak) / 2.0


class TestThresholds:
    def test_isolated_threshold_value(self):
        cfg = ModelConfig(400, [(200, 0.9), (200, 0.9)], 0.01)
        expect = 199.0 * 0.89 / 2.0 + 399.0 * 0.01
        assert close(isolated_threshold(cfg), expect)  # 92.545

    def test_pair_threshold_value(self):
        cfg = ModelConfig(400, [(200, 0.9), (200, 0.9)], 0.01)
        intra = 198.0 * 0.81 - 200.0 * 0.0001
        b = 199.0 * 0.9 - 200.0 * 0.01
        expect = 400.0 * 0.0001 + (intra + 0.01 * 2.0 * b) / 2.0
        assert close(pair_threshold(cfg), expect)  # 81.991

    def test_heterogeneous_minima(self):
        cfg = ModelConfig(150, [(50, 0.9), (100, 0.3)], 0.05)
        # worst degree gap comes from the sparse cluster
        expect_iso = 99.0 * 0.25 / 2.0 + 149.0 * 0.05
        assert close(isolated_threshold(cfg), expect_iso)
        intra = min(48.0 * 0.81 - 50.0 * 0.0025, 98.0 * 0.09 - 100.0 * 0.0025)
        b1 = 49.0 * 0.9 - 50.0 * 0.05
        b2 = 99.0 * 0.3 - 100.0 * 0.05
        expect_pair = 150.0 * 0.0025 + (intra + 0.05 * (b1 + b2)) / 2.0
        assert close(pair_threshold(cfg), expect_pair)

    def test_noise_free_forms(self):
        cfg = ModelConfig(12, [(4, 0.8), (4, 0.6)], 0.0)
        assert close(isolated_threshold(cfg), 3.0 * 0.6 / 2.0)
        assert close(pair_threshold(cfg), 2.0 * 0.36 / 2.0)

    def test_midpoint_form_identical(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            r = int(rng.integers(2, 6))
            sizes = rng.integers(2, 80, size=r).tolist()
            q = float(rng.uniform(0.001, 0.4))
            probs = rng.uniform(q + 0.01, 0.99, size=r).tolist()
            n = int(sum(sizes) + rng.integers(0, 20))
            cfg = ModelConfig(n, list(zip(sizes, probs)), q)
            a = pair_threshold(cfg)
            b = pair_threshold_mean_midpoint(cfg)
            assert close(a, b)

    def test_midpoint_needs_two_clusters(self):
        with pytest.raises(ConfigError):
            pair_threshold_mean_midpoint(ModelConfig(10, [(5, 0.9)], 0.05))


class TestRecovery:
    def test_in_regime_with_isolated_nodes(self):
        cfg = ModelConfig(420, [(200, 0.95), (200, 0.95)], 0.005)
        part = cfg.planted_partition()
        for seed in range(5):
            A = sample_adjacency(cfg, part, seed=seed)
            rec = recover_counting(A, cfg)
            assert rec.succeeded
            assert rec.failure is None
            assert partitions_equal(rec.partition, part)

    def test_thresholds_recorded(self):
        cfg = ModelConfig(420, [(200, 0.95), (200, 0.95)], 0.005)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=0)
        rec = recover_counting(A, cfg)
        assert close(rec.iso_threshold, isolated_threshold(cfg))
        assert close(rec.link_threshold, pair_threshold(cfg))

    def test_bridged_triangles_not_clique(self):
        # Two perfect triangles joined by one edge: the bridge endpoints
        # donate common neighbors across the cut, so the link graph merges
        # the triangles into one non-clique component.
        cfg = ModelConfig(6, [(3, 0.9), (3, 0.9)], 0.01)
        A = np.zeros((6, 6), dtype=np.int8)
        for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]:
            A[i, j] = A[j, i] = 1
        rec = recover_counting(A, cfg)
        assert not rec.succeeded
        assert isinstance(rec.failure, CountingFailure)
        assert rec.failure.kind == "not_clique"
        assert "missing" in rec.failure.detail

    def test_wrong_component_sizes(self):
        # A triangle plus an isolated node against a {2,2} configuration.
        cfg = ModelConfig(4, [(2, 0.9), (2, 0.9)], 0.01)
        A = np.zeros((4, 4), dtype=np.int8)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            A[i, j] = A[j, i] = 1
        rec = recover_counting(A, cfg)
        assert not rec.succeeded
        assert rec.failure.kind == "size_mismatch"
        assert "[3]" in rec.failure.detail

    def test_link_threshold_is_strict(self):
        # Disjoint 2-cliques have zero common neighbors, exactly the q = 0
        # link threshold; the strict comparison must leave them unlinked,
        # which surfaces as a size mismatch (four clustered singletons).
        cfg = ModelConfig(4, [(2, 1.0), (2, 1.0)], 0.0)
        A = np.zeros((4, 4), dtype=np.int8)
        A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = 1
        assert pair_threshold(cfg) == 0.0
        rec = recover_counting(A, cfg)
        assert not rec.succeeded
        assert rec.failure.kind == "size_mismatch"

    def test_far_outside_regime_always_fails(self):
        cfg = ModelConfig(400, [(200, 0.06), (200, 0.06)], 0.05)
        part = cfg.planted_partition()
        for seed in range(5):
            rec = recover_counting(sample_adjacency(cfg, part, seed=seed), cfg)
            assert not rec.succeeded
            assert rec.failure.kind == "not_clique"

    def test_shape_mismatch(self):
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        with pytest.raises(ConfigError):
            recover_counting(np.zeros((6, 6)), cfg)


class TestScaling:
    def test_doubling_n_at_fixed_density_stays_cubic(self):
        # Common-neighbor counting is one dense matrix product plus O(n^2)
        # bookkeeping: doubling n at fixed (p, q) must scale by <= 8x.
        def best_time(n, reps=7):
            cfg = ModelConfig(n, [(n // 2, 0.95), (n // 2, 0.95)], 0.005)
            A = sample_adjacency(cfg, cfg.planted_partition(), seed=0)
            best = math.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                rec = recover_counting(A, cfg)
                best = min(best, time.perf_counter() - t0)
            assert rec.succeeded
            return best

        ratios = []
        for _ in range(3):
            ratios.append(best_time(600) / best_time(300))
            if ratios[-1] <= 8.0:
                break
        assert min(ratios) <= 8.0, f"doubling ratios {ratios}"
