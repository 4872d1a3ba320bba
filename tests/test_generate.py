"""Graph sampling: determinism, structure, and distributional checks."""

import numpy as np
import pytest

from hsbmlab import (
    Adjacency,
    ConfigError,
    ModelConfig,
    ObservedMatrix,
    UNOBSERVED,
    clustering_matrix,
    expected_adjacency,
    sample_adjacency,
    sample_observed,
)
from hsbmlab.generate import (
    STREAM_ALGORITHM,
    STREAM_EDGES,
    STREAM_OBSERVATION,
    stream_rng,
)


def planted(cfg):
    return cfg.planted_partition()


class TestStreamRng:
    def test_reproducible(self):
        a = stream_rng(42, STREAM_EDGES).random(5)
        b = stream_rng(42, STREAM_EDGES).random(5)
        assert np.array_equal(a, b)

    def test_streams_decorrelated(self):
        a = stream_rng(42, STREAM_EDGES).random(5)
        b = stream_rng(42, STREAM_OBSERVATION).random(5)
        c = stream_rng(42, STREAM_ALGORITHM).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(b, c)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            stream_rng(-1, STREAM_EDGES)


class TestStructure:
    def test_symmetric_zero_diagonal_binary(self):
        cfg = ModelConfig(30, [(12, 0.7), (10, 0.5)], 0.1)
        A = sample_adjacency(cfg, planted(cfg), seed=0).matrix
        assert np.array_equal(A, A.T)
        assert (np.diag(A) == 0).all()
        assert np.isin(A, (0, 1)).all()

    def test_noiseless_matches_clustering_matrix(self):
        cfg = ModelConfig(9, [(4, 1.0), (3, 1.0)], 0.0)
        part = planted(cfg)
        A = sample_adjacency(cfg, part, seed=5).matrix
        expect = clustering_matrix(part).astype(np.int8)
        np.fill_diagonal(expect, 0)
        assert np.array_equal(A, expect)

    def test_singleton_cluster_empty_graph(self):
        cfg = ModelConfig(4, [(1, 0.9)], 0.0)
        A = sample_adjacency(cfg, planted(cfg), seed=3).matrix
        assert A.sum() == 0

    def test_determinism_and_seed_sensitivity(self):
        cfg = ModelConfig(25, [(12, 0.6), (8, 0.4)], 0.1)
        part = planted(cfg)
        a = sample_adjacency(cfg, part, seed=7).matrix
        b = sample_adjacency(cfg, part, seed=7).matrix
        c = sample_adjacency(cfg, part, seed=8).matrix
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestObserved:
    def test_full_observation_equals_adjacency(self):
        cfg = ModelConfig(20, [(10, 0.8), (10, 0.6)], 0.1)
        part = planted(cfg)
        obs = sample_observed(cfg, part, seed=11)
        adj = sample_adjacency(cfg, part, seed=11)
        assert (obs.values != UNOBSERVED).all()
        assert np.array_equal(obs.to_adjacency(0).matrix, adj.matrix)

    def test_edges_coupled_across_gamma(self):
        # The edge stream is independent of the mask stream: observed entries
        # must agree with the fully observed draw at the same seed.
        full = ModelConfig(30, [(15, 0.7), (15, 0.5)], 0.1)
        partial = ModelConfig(30, [(15, 0.7), (15, 0.5)], 0.1, gamma=0.6)
        part = planted(full)
        A = sample_adjacency(full, part, seed=4).matrix
        obs = sample_observed(partial, part, seed=4)
        mask = obs.values != UNOBSERVED
        np.fill_diagonal(mask, False)
        assert np.array_equal(obs.values[mask], A[mask])

    def test_observed_fraction_near_gamma(self):
        cfg = ModelConfig(80, [(40, 0.7), (40, 0.5)], 0.1, gamma=0.3)
        part = planted(cfg)
        frac = []
        for seed in range(20):
            mask = sample_observed(cfg, part, seed=seed).values != UNOBSERVED
            iu = np.triu_indices(cfg.n, k=1)
            frac.append(mask[iu].mean())
        mean = np.mean(frac)
        pairs = 20 * cfg.n * (cfg.n - 1) // 2
        tol = 5 * np.sqrt(0.3 * 0.7 / pairs)
        assert abs(mean - 0.3) < tol

    def test_to_adjacency_fill_values(self):
        v = np.array(
            [[0, 1, UNOBSERVED], [1, 0, 0], [UNOBSERVED, 0, 0]], dtype=np.int8
        )
        obs = ObservedMatrix(v)
        assert obs.to_adjacency(0).matrix[0, 2] == 0
        assert obs.to_adjacency(1).matrix[0, 2] == 1
        with pytest.raises(ValueError):
            obs.to_adjacency(2)


class TestDensity:
    def test_intra_and_cross_rates(self):
        cfg = ModelConfig(140, [(60, 0.8), (60, 0.3)], 0.1)
        part = planted(cfg)
        labels = part.labels
        in1 = np.outer(labels == 1, labels == 1)
        in2 = np.outer(labels == 2, labels == 2)
        cross = ~(in1 | in2)
        np.fill_diagonal(in1, False)
        np.fill_diagonal(in2, False)
        np.fill_diagonal(cross, False)
        acc = np.zeros((cfg.n, cfg.n))
        trials = 30
        for seed in range(trials):
            acc += sample_adjacency(cfg, part, seed=seed).matrix
        rate = acc / trials

        def check(mask, p):
            count = mask.sum()
            tol = 5 * np.sqrt(p * (1 - p) / (trials * count)) + 1e-9
            assert abs(rate[mask].mean() - p) < max(tol, 5e-3)

        check(in1, 0.8)
        check(in2, 0.3)
        check(cross, 0.1)

    def test_empirical_mean_matches_expected(self):
        cfg = ModelConfig(30, [(12, 0.7), (10, 0.4)], 0.2, gamma=0.5)
        part = planted(cfg)
        expect = expected_adjacency(cfg, part)
        acc = np.zeros((cfg.n, cfg.n))
        trials = 400
        for seed in range(trials):
            acc += sample_observed(cfg, part, seed=seed).to_adjacency(0).matrix
        dev = np.abs(acc / trials - expect)
        assert dev.max() < 5 * 0.5 / np.sqrt(trials)


class TestExpectedAdjacency:
    def test_exact_entries(self):
        cfg = ModelConfig(8, [(3, 0.9), (2, 0.6)], 0.1, gamma=0.5)
        part = planted(cfg)  # labels 1,1,1,2,2,0,0,0
        E = expected_adjacency(cfg, part)
        assert np.array_equal(E, E.T)
        assert (np.diag(E) == 0).all()
        assert np.allclose(E[0, 1], 0.45, rtol=1e-12)
        assert np.allclose(E[3, 4], 0.30, rtol=1e-12)
        assert np.allclose(E[0, 3], 0.05, rtol=1e-12)  # cross-cluster
        assert np.allclose(E[0, 5], 0.05, rtol=1e-12)  # cluster-isolated
        assert np.allclose(E[5, 6], 0.05, rtol=1e-12)  # isolated-isolated


class TestValidation:
    def test_partition_length_mismatch(self):
        cfg = ModelConfig(10, [(5, 0.9)], 0.05)
        from hsbmlab import Partition

        with pytest.raises(ConfigError):
            sample_adjacency(cfg, Partition([1] * 5), seed=0)

    def test_partition_size_mismatch(self):
        cfg = ModelConfig(10, [(5, 0.9)], 0.05)
        from hsbmlab import Partition

        bad = Partition([1, 1, 1, 1, 2, 2, 2, 2, 0, 0])
        with pytest.raises(ConfigError):
            sample_adjacency(cfg, bad, seed=0)

    def test_adjacency_constructor_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            Adjacency(np.array([[0, 1], [0, 0]], dtype=np.int8))  # asymmetric
        with pytest.raises(ValueError):
            Adjacency(np.array([[1, 0], [0, 0]], dtype=np.int8))  # diagonal
        with pytest.raises(ValueError):
            Adjacency(np.array([[0, 2], [2, 0]], dtype=np.int8))  # not 0/1
        with pytest.raises(ValueError):
            Adjacency(np.zeros((2, 3), dtype=np.int8))  # not square

    def test_observed_constructor_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            ObservedMatrix(np.array([[0, 2], [2, 0]], dtype=np.int8))
        with pytest.raises(ValueError):
            ObservedMatrix(np.array([[UNOBSERVED, 0], [0, 0]], dtype=np.int8))
