"""Spectral-norm estimation and concentration bounds."""

import math

import numpy as np
import pytest

from hsbmlab import (
    ConfigError,
    ModelConfig,
    block_split_bound,
    concentration_experiment,
    derived_stats,
    expected_adjacency,
    sample_adjacency,
)

REL = 1e-12


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


# -- reference bounds -------------------------------------------------------
# Two textbook bounds that nothing in the library evaluates; kept here to
# cross-check block_split_bound and the constants of criterion 1.


def variance_profile_bound(
    config: ModelConfig,
    epsilon: float,
    t: float | None = None,
    c_eps: float = 1.0,
) -> float:
    """Variance-profile bound 4 (1+epsilon) max(sigma_max, sigma_0) + t.

    When t is omitted it is taken as sqrt(2 c_eps log n), the deviation
    level at which the bound's failure probability decays polynomially;
    c_eps is an unknown universal constant, defaulted to 1 and exposed so
    callers can report ratios rather than trust the absolute level.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5], got {epsilon}")
    if t is None:
        t = math.sqrt(2.0 * c_eps * math.log(config.n))
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    st = derived_stats(config)
    sigma_peak = max(math.sqrt(st.sigma_max_sq), math.sqrt(st.sigma0_sq))
    return 4.0 * (1.0 + epsilon) * sigma_peak + t


def bernstein_tail(t: float, variance: float, L: float) -> float:
    """Two-sided Bernstein tail bound 2 exp(-t^2/2 / (variance + L t / 3)),
    clipped to [0, 1]."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if variance < 0.0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    if L <= 0.0:
        raise ValueError(f"L must be positive, got {L}")
    value = 2.0 * math.exp(-(t * t) / 2.0 / (variance + L * t / 3.0))
    return float(min(1.0, value))


class TestBlockSplitBound:
    def test_value(self):
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        assert close(block_split_bound(cfg), 5.0 + math.sqrt(9.5))

    def test_log_floor_branch(self):
        # Sparse ambient: q(1-q)n < log n, the floor takes over.
        cfg = ModelConfig(10, [(4, 0.5), (4, 0.5)], 0.01)
        assert 0.01 * 0.99 * 10 < math.log(10)
        expect = math.sqrt(0.25 * 4.0) + math.sqrt(math.log(10))
        assert close(block_split_bound(cfg), expect)

    def test_worst_block_selected(self):
        cfg = ModelConfig(300, [(100, 0.5), (200, 0.1)], 0.05)
        block = max(math.sqrt(0.25 * 100), math.sqrt(0.09 * 200))
        assert close(block_split_bound(cfg), block + math.sqrt(0.0475 * 300))

    def test_monotone_in_p_below_half(self):
        prev = 0.0
        for p in (0.1, 0.2, 0.3, 0.4, 0.5):
            cfg = ModelConfig(200, [(100, p), (100, p)], 0.01)
            val = block_split_bound(cfg)
            assert val > prev
            prev = val


class TestVarianceProfileBound:
    def test_value_at_explicit_t(self):
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        # 4 * 1.5 * max(sigma_max, sigma_0) = 6 * max(5, sqrt(9.5)) = 30
        assert close(variance_profile_bound(cfg, 0.5, t=0.0), 30.0)

    def test_default_deviation_level(self):
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        expect = 30.0 + math.sqrt(2.0 * math.log(200))
        assert close(variance_profile_bound(cfg, 0.5), expect)
        expect4 = 30.0 + math.sqrt(8.0 * math.log(200))
        assert close(variance_profile_bound(cfg, 0.5, c_eps=4.0), expect4)

    def test_epsilon_validation(self):
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        for eps in (0.0, -0.1, 0.6):
            with pytest.raises(ValueError):
                variance_profile_bound(cfg, eps)
        with pytest.raises(ValueError):
            variance_profile_bound(cfg, 0.5, t=-1.0)

    def test_degenerate_noiseless_config(self):
        cfg = ModelConfig(100, [(50, 1.0), (50, 1.0)], 0.0)
        assert variance_profile_bound(cfg, 0.5, t=0.0) == 0.0
        assert block_split_bound(cfg) > 0.0  # keeps its log-n floor

    def test_ratio_family_frozen(self):
        # The profile bound should be the looser one by a moderate factor
        # across a deterministic family of mid-density configurations.
        rng = np.random.default_rng(12345)
        ratios = []
        for _ in range(20):
            r = int(rng.integers(1, 5))
            sizes = rng.integers(50, 201, size=r)
            q = float(rng.uniform(0.01, 0.1))
            probs = rng.uniform(0.3, 0.7, size=r)
            n = int(sizes.sum() + rng.integers(0, 50))
            cfg = ModelConfig(n, list(zip(sizes.tolist(), probs.tolist())), q)
            ratios.append(variance_profile_bound(cfg, 0.5) / block_split_bound(cfg))
        assert all(1.0 < x < 10.0 for x in ratios)
        assert min(ratios) == pytest.approx(3.442172610291892, rel=1e-9)
        assert max(ratios) == pytest.approx(4.686394725580175, rel=1e-9)


class TestBernsteinTail:
    def test_value(self):
        assert close(bernstein_tail(3.0, 1.0, 1.0), 2.0 * math.exp(-2.25))

    def test_capped_at_one(self):
        assert bernstein_tail(0.0, 1.0, 1.0) == 1.0

    def test_monotonicities(self):
        ts = [0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [bernstein_tail(t, 1.0, 1.0) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert bernstein_tail(3.0, 2.0, 1.0) > bernstein_tail(3.0, 1.0, 1.0)
        assert bernstein_tail(3.0, 1.0, 2.0) > bernstein_tail(3.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bernstein_tail(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bernstein_tail(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            bernstein_tail(1.0, 1.0, 0.0)


class TestConcentrationExperiment:
    CFG = ModelConfig(60, [(30, 0.5), (30, 0.5)], 0.05)

    def test_shapes_and_stats(self):
        stats = concentration_experiment(self.CFG, trials=5, seed=0)
        assert stats.trials == 5
        assert stats.norms.shape == (5,)
        assert np.allclose(stats.ratios, stats.norms / stats.bound, rtol=1e-12)
        assert stats.min_ratio <= stats.mean_ratio <= stats.max_ratio
        assert close(stats.bound, block_split_bound(self.CFG))

    def test_deterministic(self):
        a = concentration_experiment(self.CFG, trials=4, seed=3)
        b = concentration_experiment(self.CFG, trials=4, seed=3)
        assert np.array_equal(a.norms, b.norms)

    def test_seed_offsets_make_prefix_stable(self):
        # Trial i uses seed + i: a longer run extends a shorter one.
        short = concentration_experiment(self.CFG, trials=3, seed=5)
        long = concentration_experiment(self.CFG, trials=5, seed=5)
        assert np.array_equal(short.norms, long.norms[:3])

    def test_observation_rate_folded_into_bound(self):
        cfg = ModelConfig(60, [(30, 0.5), (30, 0.5)], 0.05, gamma=0.5)
        stats = concentration_experiment(cfg, trials=3, seed=0)
        assert close(stats.bound, block_split_bound(cfg.collapsed()))
        assert stats.bound < block_split_bound(cfg)

    def test_ratios_in_sane_band(self):
        stats = concentration_experiment(self.CFG, trials=10, seed=0)
        assert 0.2 < stats.min_ratio and stats.max_ratio < 4.0

    def test_rows_for_emission(self):
        stats = concentration_experiment(self.CFG, trials=3, seed=1)
        rows = stats.rows()
        assert [r["trial"] for r in rows] == [0, 1, 2]
        assert all(set(r) == {"trial", "norm", "bound", "ratio"} for r in rows)

    def test_norm_is_exact(self):
        # The SVD-based 2-norm is an oracle independent of eigvalsh.  This
        # draw stopped a power iteration 4.66e-4 below the true norm.
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        part = cfg.planted_partition()
        C = (sample_adjacency(cfg, part, 5).matrix.astype(float)
             - expected_adjacency(cfg, part))
        stats = concentration_experiment(cfg, trials=1, seed=5)
        assert close(stats.norms[0], np.linalg.norm(C, 2))

    def test_trials_validation(self):
        with pytest.raises(ConfigError):
            concentration_experiment(self.CFG, trials=0, seed=0)
