"""Domain types and closed-form derived quantities."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbmlab import (
    ConfigError,
    ModelConfig,
    Partition,
    chi_square_div,
    clustering_matrix,
    derived_stats,
    example6_reference_constants,
    example_config,
    partitions_equal,
)
from hsbmlab.model import clique_components, cross_pair_peak

REL = 1e-12


def per_cluster(st, run_values):
    """A per-run statistic of derived_stats expanded to one value per cluster."""
    return np.repeat(run_values, st.counts)


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- ModelConfig construction and invariants --------------------------------


class TestModelConfig:
    def test_basic_fields(self):
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        assert cfg.n == 200
        assert cfg.r == 2
        assert cfg.sizes.tolist() == [100, 100]
        assert cfg.probs.tolist() == [0.5, 0.5]
        assert cfg.q == 0.05
        assert cfg.gamma == 1.0
        assert cfg.n_covered == 200
        assert cfg.n0 == 0

    def test_isolated_count(self):
        cfg = ModelConfig(10, [(3, 0.9), (4, 0.8)], 0.1)
        assert cfg.n0 == 3
        assert cfg.n_covered == 7

    def test_rejects_p_equal_q(self):
        with pytest.raises(ConfigError):
            ModelConfig(10, [(5, 0.5), (5, 0.5)], 0.5)

    def test_rejects_q_above_p(self):
        with pytest.raises(ConfigError):
            ModelConfig(10, [(5, 0.3)], 0.4)

    def test_rejects_oversized_clusters(self):
        with pytest.raises(ConfigError):
            ModelConfig(9, [(5, 0.9), (5, 0.9)], 0.05)

    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigError):
            ModelConfig(10, [(0, 0.9)], 0.05)

    def test_rejects_no_clusters(self):
        with pytest.raises(ConfigError):
            ModelConfig(10, [], 0.05)

    def test_rejects_bad_gamma(self):
        for gamma in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                ModelConfig(10, [(5, 0.9)], 0.05, gamma=gamma)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigError):
            ModelConfig(10, [(5, 1.2)], 0.05)
        with pytest.raises(ConfigError):
            ModelConfig(10, [(5, 0.9)], -0.1)
        # NaN fails every comparison, so it must not pass a range test.
        with pytest.raises(ConfigError, match=r"probabilities must be in \[0, 1\]"):
            ModelConfig(10, [(5, float("nan")), (5, 0.9)], 0.05)

    def test_immutable(self):
        cfg = ModelConfig(10, [(5, 0.9)], 0.05)
        with pytest.raises(AttributeError):
            cfg.n = 20
        with pytest.raises(ValueError):
            cfg.sizes[0] = 7

    def test_equality_and_hash(self):
        a = ModelConfig(10, [(5, 0.9), (5, 0.8)], 0.05)
        b = ModelConfig(10, [(5, 0.9), (5, 0.8)], 0.05)
        c = ModelConfig(10, [(5, 0.8), (5, 0.9)], 0.05)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_dict_round_trip(self):
        cfg = ModelConfig(12, [(5, 0.9), (4, 0.8)], 0.05, gamma=0.7)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_runs_with_unit_counts(self):
        cfg = ModelConfig.from_runs(
            10, np.array([5, 5]), np.array([0.9, 0.8]), np.array([1, 1]), 0.05
        )
        assert cfg == ModelConfig(10, [(5, 0.9), (5, 0.8)], 0.05)

    def test_collapsed_scales_probabilities(self):
        cfg = ModelConfig(10, [(5, 0.9)], 0.05, gamma=0.5)
        col = cfg.collapsed()
        assert col.gamma == 1.0
        assert close(float(col.probs[0]), 0.45)
        assert close(col.q, 0.025)

    def test_planted_partition(self):
        cfg = ModelConfig(9, [(3, 0.9), (4, 0.8)], 0.05)
        part = cfg.planted_partition()
        assert part.labels.tolist() == [1, 1, 1, 2, 2, 2, 2, 0, 0]


class TestRuns:
    """Clusters are stored as runs of equal consecutive clusters; every
    per-cluster view must read as if they were stored one by one."""

    # Digests of sizes, probs and to_dict() and the repr of each preset at
    # 10^4 and 10^5, recorded before clusters were stored as runs.
    FROZEN = json.loads(
        (Path(__file__).parent / "data" / "frozen_regimes.json").read_text()
    )["presets"]

    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_preset_views_unchanged(self, key):
        ex, n = (int(v) for v in key.split("@"))
        cfg = example_config(ex, n, example6_reference_constants(n) if ex == 6 else None)
        want = self.FROZEN[key]
        assert cfg.sizes.dtype == np.int64 and cfg.probs.dtype == np.float64
        assert sha256(cfg.sizes.tobytes()) == want["sizes"]
        assert sha256(cfg.probs.tobytes()) == want["probs"]
        assert sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()) == want["to_dict"]
        assert repr(cfg) == want["repr"]
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg and hash(again) == hash(cfg)
        assert cfg.r == len(cfg.sizes) and cfg.n_covered == int(cfg.sizes.sum())

    def test_equal_neighbours_merge(self):
        a = ModelConfig(12, [(5, 0.9), (5, 0.9)], 0.05)
        b = ModelConfig.from_runs(12, [5, 5], [0.9, 0.9], [1, 1], 0.05)
        c = ModelConfig.from_runs(12, [5], [0.9], [2], 0.05)
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        sizes, probs, counts = a.runs
        assert (sizes.tolist(), probs.tolist(), counts.tolist()) == ([5], [0.9], [2])
        assert a.r == 2 and a.sizes.tolist() == [5, 5] and a.probs.tolist() == [0.9, 0.9]
        assert a != ModelConfig(12, [(5, 0.9)], 0.05)
        assert a != ModelConfig(12, [(5, 0.9), (5, 0.8)], 0.05)

    def test_non_adjacent_equal_clusters_keep_order(self):
        cfg = ModelConfig(10, [(3, 0.9), (2, 0.8), (3, 0.9)], 0.05)
        assert cfg.runs[2].tolist() == [1, 1, 1]
        assert cfg.sizes.tolist() == [3, 2, 3]
        assert cfg.probs.tolist() == [0.9, 0.8, 0.9]
        assert cfg.planted_partition().labels.tolist() == [1, 1, 1, 2, 2, 3, 3, 3, 0, 0]
        assert cfg.to_dict()["clusters"] == [[3, 0.9], [2, 0.8], [3, 0.9]]
        assert cfg != ModelConfig(10, [(3, 0.9), (3, 0.9), (2, 0.8)], 0.05)

    def test_runs_and_views_read_only(self):
        cfg = ModelConfig.from_runs(30, [4, 3], [0.9, 0.8], [3, 2], 0.05)
        for arr in (*cfg.runs, cfg.sizes, cfg.probs):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_from_runs_drops_empty_runs_and_rejects_negative(self):
        cfg = ModelConfig.from_runs(20, [4, 3, 4], [0.9, 0.8, 0.9], [2, 0, 1], 0.05)
        assert cfg == ModelConfig(20, [(4, 0.9)] * 3, 0.05)
        with pytest.raises(ConfigError):
            ModelConfig.from_runs(20, [4], [0.9], [-1], 0.05)
        with pytest.raises(ConfigError):
            ModelConfig.from_runs(20, [4], [0.9], [0], 0.05)
        with pytest.raises(ConfigError):
            ModelConfig.from_runs(20, [4], [0.9], [1.5], 0.05)
        with pytest.raises(ConfigError):
            ModelConfig.from_runs(20, [4], [0.9], [6], 0.05)

    def test_collapsed_keeps_runs(self):
        cfg = ModelConfig.from_runs(30, [4, 3], [0.9, 0.8], [3, 2], 0.05, gamma=0.5)
        col = cfg.collapsed()
        assert col.runs[2].tolist() == [3, 2]
        assert col.probs.tolist() == (0.5 * cfg.probs).tolist()

    def test_stats_expand_per_cluster(self):
        cfg = example_config(5, 10**4)
        st = derived_stats(cfg)
        sizes = cfg.sizes.astype(float)
        rho = per_cluster(st, st.run_rho)
        assert np.array_equal(rho, sizes * (cfg.probs - cfg.q))
        assert np.array_equal(per_cluster(st, st.run_sigma_sq),
                              sizes * cfg.probs * (1.0 - cfg.probs))
        assert st.rho_min == float(rho.min()) and st.n_min == int(cfg.sizes.min())

    @pytest.mark.parametrize("clusters", [
        [(5, 0.9), (5, 0.9)],
        [(5, 0.9), (5, 0.9), (3, 0.5)],
        [(3, 0.5), (5, 0.9), (4, 0.8)],
        [(6, 0.9), (3, 0.5), (3, 0.5), (3, 0.5)],
        [(3, 0.5), (6, 0.9), (3, 0.5)],
    ])
    def test_cross_pair_peak_matches_per_cluster_pairs(self, clusters):
        cfg = ModelConfig(30, clusters, 0.05)
        b = [(s - 1) * p - s * 0.05 for s, p in clusters]
        want = max(b[k] + b[l] for k in range(len(b)) for l in range(len(b)) if k != l)
        assert cross_pair_peak(cfg) == want

    def test_far_beyond_memory_per_cluster(self):
        # 10^12 clusters of size 2 would need terabytes one by one.
        cfg = ModelConfig.from_runs(3 * 10**12, [2, 1000], [0.9, 0.5],
                                    [10**12, 1], 1e-9)
        assert cfg.r == 10**12 + 1
        assert cfg.n_covered == 2 * 10**12 + 1000
        assert "<1000000000001 clusters, sizes 2..1000>" in repr(cfg)
        st = derived_stats(cfg)
        assert st.n_min == 2


class TestPartition:
    def test_cluster_sizes(self):
        p = Partition([1, 1, 2, 2, 2, 0])
        assert p.n == 6
        assert p.cluster_sizes() == {1: 2, 2: 3}
        assert p.size_multiset() == (2, 3)
        assert np.flatnonzero(p.labels == 2).tolist() == [2, 3, 4]

    def test_labels_read_only(self):
        p = Partition([1, 1, 0])
        with pytest.raises(ValueError):
            p.labels[0] = 2


# -- derived statistics -----------------------------------------------------


class TestDerivedStats:
    def test_two_equal_clusters(self):
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        st = derived_stats(cfg)
        assert np.allclose(per_cluster(st, st.run_rho), [45.0, 45.0], rtol=REL, atol=0)
        assert np.allclose(per_cluster(st, st.run_sigma_sq), [25.0, 25.0],
                           rtol=REL, atol=0)
        assert close(st.sigma0_sq, 9.5)
        assert close(st.sigma_max_sq, 25.0)
        assert close(st.rho_min, 45.0)
        assert st.n_min == 100
        assert st.p_min == 0.5 and st.p_max == 0.5

    def test_heterogeneous(self):
        cfg = ModelConfig(20, [(8, 0.9), (5, 0.3)], 0.1)
        st = derived_stats(cfg)
        rho, sigma_sq = per_cluster(st, st.run_rho), per_cluster(st, st.run_sigma_sq)
        assert close(float(rho[0]), 8 * 0.8)
        assert close(float(rho[1]), 5 * 0.2)
        assert close(float(sigma_sq[0]), 8 * 0.9 * 0.1)
        assert close(float(sigma_sq[1]), 5 * 0.3 * 0.7)
        assert close(st.sigma0_sq, 20 * 0.1 * 0.9)
        assert close(st.rho_min, 1.0)
        assert st.p_min == 0.3 and st.p_max == 0.9
        assert st.n_min == 5

    def test_rho_positive_always(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = int(rng.integers(1, 6))
            sizes = rng.integers(1, 40, size=r)
            q = float(rng.uniform(0.0, 0.5))
            probs = rng.uniform(q + 1e-6, 1.0, size=r)
            n = int(sizes.sum() + rng.integers(0, 10))
            st = derived_stats(
                ModelConfig(n, list(zip(sizes.tolist(), probs.tolist())), q)
            )
            assert (st.run_rho > 0).all()

    def test_sum_rho_identity(self):
        # sum_k rho_k = sum_k p_k n_k - q * (covered node count)
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = int(rng.integers(1, 6))
            sizes = rng.integers(1, 40, size=r)
            q = float(rng.uniform(0.0, 0.5))
            probs = rng.uniform(q + 1e-6, 1.0, size=r)
            n = int(sizes.sum() + rng.integers(0, 10))
            cfg = ModelConfig(n, list(zip(sizes.tolist(), probs.tolist())), q)
            st = derived_stats(cfg)
            expect = float((cfg.probs * sizes).sum()) - q * cfg.n_covered
            assert close(float(per_cluster(st, st.run_rho).sum()), expect, rel=1e-10)


# -- divergences ------------------------------------------------------------


def kl_div(p, q):
    """Bernoulli Kullback-Leibler divergence KL(p || q).

    p log(p/q) + (1-p) log((1-p)/(1-q)), with the 0 log 0 = 0 convention.
    Requires q in (0, 1).  Always <= chi_square_div(p, q); the
    library only needs the chi-square form, so KL is the reference here.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise ValueError("q must lie strictly inside (0, 1)")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0.0, p * np.log(p / q), 0.0)
        t2 = np.where(p < 1.0, (1.0 - p) * np.log((1.0 - p) / (1.0 - q)), 0.0)
    out = t1 + t2
    return float(out) if out.ndim == 0 else out


class TestDivergences:
    def test_chi_square_value(self):
        assert close(chi_square_div(0.5, 0.25), 1.0 / 3.0)

    def test_chi_square_zero_at_equality(self):
        assert chi_square_div(0.3, 0.3) == 0.0

    def test_chi_square_domain(self):
        for q in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                chi_square_div(0.5, q)
        with pytest.raises(ValueError):
            chi_square_div(1.5, 0.5)

    def test_kl_value(self):
        expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert close(kl_div(0.5, 0.25), expect)

    def test_kl_zero_at_equality(self):
        assert kl_div(0.4, 0.4) == 0.0

    def test_kl_boundary_p(self):
        assert close(kl_div(0.0, 0.3), math.log(1.0 / 0.7))
        assert close(kl_div(1.0, 0.3), math.log(1.0 / 0.3))

    def test_kl_domain(self):
        for q in (0.0, 1.0):
            with pytest.raises(ValueError):
                kl_div(0.5, q)

    def test_vectorized(self):
        p = np.array([0.1, 0.5, 0.9])
        q = np.array([0.2, 0.25, 0.5])
        assert chi_square_div(p, q).shape == (3,)
        assert kl_div(p, q).shape == (3,)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    )
    @settings(max_examples=1000, deadline=None)
    def test_kl_below_chi_square(self, p, q):
        assert kl_div(p, q) <= chi_square_div(p, q) + 1e-15

    def test_reverse_divergence_identity(self):
        # chi_square_div(q, p) == p (1 - q/p)^2 / (1 - p) exactly
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.0, p))
            expect = p * (1.0 - q / p) ** 2 / (1.0 - p)
            assert close(chi_square_div(q, p), expect, rel=1e-12)

    def test_reverse_divergence_envelope(self):
        # For p <= 0.9 and q/p <= 0.9 the reverse divergence is within
        # [0.01 p, 10 p]; the lower constant is tight as p -> 0, q/p -> 0.9
        # (e.g. p=0.5, q=0.45 gives ratio 0.02, so no stronger constant holds).
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = float(rng.uniform(0.01, 0.9))
            q = float(rng.uniform(0.0, 0.9 * p))
            val = chi_square_div(q, p)
            assert 0.01 * p <= val + 1e-15
            assert val <= 10.0 * p + 1e-15


# -- clustering matrices ----------------------------------------------------


class TestClusteringMatrix:
    def test_two_blocks(self):
        Y = clustering_matrix(Partition([1, 1, 2, 2]))
        expect = np.zeros((4, 4), dtype=np.int8)
        expect[:2, :2] = 1
        expect[2:, 2:] = 1
        assert np.array_equal(Y, expect)

    def test_all_isolated(self):
        assert clustering_matrix(Partition([0, 0, 0])).sum() == 0

    def test_sum_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            labels = rng.integers(0, 4, size=n)
            Y = clustering_matrix(Partition(labels))
            sizes = [int((labels == k).sum()) for k in np.unique(labels) if k != 0]
            assert int(Y.sum()) == sum(s * s for s in sizes)

    def test_relabeling_invariance(self):
        a = clustering_matrix(Partition([1, 1, 2, 2, 0]))
        b = clustering_matrix(Partition([2, 2, 1, 1, 0]))
        assert np.array_equal(a, b)


class TestPartitionsEqual:
    def test_relabeling(self):
        assert partitions_equal(Partition([1, 1, 2, 2]), Partition([2, 2, 1, 1]))

    def test_different_grouping(self):
        assert not partitions_equal(Partition([1, 1, 2, 2]), Partition([1, 2, 1, 2]))

    def test_singleton_vs_isolated(self):
        assert not partitions_equal(Partition([1, 1, 0]), Partition([1, 1, 2]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partitions_equal(Partition([1, 1]), Partition([1, 1, 2]))

    def test_matches_matrix_definition(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = Partition(rng.integers(0, 4, size=n))
            b = Partition(rng.integers(0, 4, size=n))
            via_matrix = np.array_equal(clustering_matrix(a), clustering_matrix(b))
            assert partitions_equal(a, b) == via_matrix

    def test_equivalence_relation(self):
        parts = [
            Partition([1, 1, 2, 2, 0]),
            Partition([2, 2, 1, 1, 0]),
            Partition([3, 3, 1, 1, 0]),
            Partition([1, 2, 1, 2, 0]),
        ]
        for p in parts:
            assert partitions_equal(p, p)
        for p in parts:
            for r in parts:
                assert partitions_equal(p, r) == partitions_equal(r, p)
        # transitivity over the first three (all pairwise equal)
        assert partitions_equal(parts[0], parts[1])
        assert partitions_equal(parts[1], parts[2])
        assert partitions_equal(parts[0], parts[2])


class TestCliqueComponents:
    @staticmethod
    def link(n, pairs):
        m = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            m[i, j] = m[j, i] = True
        return m

    def test_singletons_dropped_unless_kept(self):
        # Triangle 0-1-2, singletons 3 and 4.
        link = self.link(5, [(0, 1), (1, 2), (0, 2)])
        labels, flaw = clique_components(link)
        assert flaw is None
        assert labels.tolist() == [1, 1, 1, 0, 0]
        keep = np.array([True, True, True, True, False])
        labels, flaw = clique_components(link, keep=keep)
        assert flaw is None
        assert labels.tolist() == [1, 1, 1, 2, 0]

    def test_first_non_clique_component_reported(self):
        # Path 0-1-2 (one missing pair), then path 3-4-5-6 (three missing).
        link = self.link(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        labels, flaw = clique_components(link)
        assert labels is None
        assert flaw == (3, 1)
        labels, flaw = clique_components(link[3:, 3:])
        assert labels is None
        assert flaw == (4, 3)
