"""Scenario presets: formulas, feasibility edges, warnings, constants."""

import math

import numpy as np
import pytest

from hsbmlab import (
    ConfigError,
    EXAMPLE_IDS,
    example6_reference_constants,
    example_config,
    run_table1,
)
from hsbmlab.regimes import REGIMES

REL = 1e-12


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


class TestFamily1:
    def test_structure_at_1e6(self):
        n = 10**6
        cfg = example_config(1, n)
        assert cfg.n == n and cfg.r == 2 and cfg.n0 == 0
        assert cfg.sizes.tolist() == [n - 1000, 1000]
        assert close(float(cfg.probs[0]), n ** (-2.0 / 3.0))
        assert close(float(cfg.probs[1]), 1.0 / math.log(n))
        assert close(cfg.q, n ** (-2.0 / 3.0 - 0.01))

    def test_minimum_n(self):
        cfg = example_config(1, 9)
        assert cfg.sizes.tolist() == [6, 3]
        with pytest.raises(ConfigError):
            example_config(1, 8)

    def test_takes_no_constants(self):
        with pytest.raises(ConfigError):
            example_config(1, 100, {"c": 2.0})


class TestFamily2:
    def test_structure_at_1e6(self):
        n = 10**6
        cfg = example_config(2, n)
        assert cfg.sizes.tolist() == [n - 10 * 1000] + [1000] * 10
        assert close(float(cfg.probs[0]), n ** (-1.0 / 3.0 + 0.1))
        assert close(float(cfg.probs[1]), 1.0 / math.log(n))
        assert close(cfg.q, n ** (-2.0 / 3.0 + 0.3))

    def test_coefficient_override(self):
        n = 10**6
        cfg = example_config(2, n, {"c": 2.0})
        assert close(float(cfg.probs[1]), 2.0 / math.log(n))

    def test_eps_range(self):
        for eps in (0.0, 1.0 / 6.0, 0.5):
            with pytest.raises(ConfigError):
                example_config(2, 10**6, {"eps": eps})


class TestFamily3:
    def test_structure_at_1e4(self):
        n = 10**4
        cfg = example_config(3, n)
        log_n = math.log(n)
        s1 = math.ceil(math.sqrt(log_n))  # 4
        assert cfg.sizes.tolist()[:2] == [s1, s1]
        assert np.allclose(cfg.probs[:2], 0.95)
        medium = cfg.sizes.tolist()[2:]
        assert len(medium) == 100
        assert sum(medium) == n - 2 * s1
        assert max(medium) - min(medium) <= 1  # remainder spread evenly
        assert close(float(cfg.probs[2]), log_n / math.sqrt(n))
        assert close(cfg.q, log_n / n)
        assert cfg.n0 == 0

    def test_no_warning_for_small_m(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            example_config(3, 10**4)

    def test_crowding_warnings(self):
        with pytest.warns(UserWarning) as rec:
            example_config(3, 1000, {"m": 200})
        texts = [str(r.message) for r in rec]
        assert any("sqrt(log n)" in t for t in texts)
        assert any("polylogarithmic" in t for t in texts)
        assert len(rec) == 2

    def test_single_warning_band(self):
        with pytest.warns(UserWarning) as rec:
            example_config(3, 1000, {"m": 50})
        assert len(rec) == 1
        assert "polylogarithmic" in str(rec[0].message)


class TestFamily4:
    def test_structure_at_1e4(self):
        n = 10**4
        cfg = example_config(4, n)
        sizes = cfg.sizes.tolist()
        big = sizes[-1]
        small = sizes[:-1]
        assert big == 5000
        assert len(small) == round(n**0.6)
        assert sum(small) == n - 5000
        assert max(small) - min(small) <= 1
        assert close(float(cfg.probs[-1]), math.log(n) / n**0.3)
        assert close(cfg.q, math.log(n) / n**0.8)
        assert np.allclose(cfg.probs[:-1], 0.95)

    def test_region_warning(self):
        with pytest.warns(UserWarning, match="recoverability region"):
            example_config(4, 10**4, {"eps": 0.3, "alpha": 0.34, "beta": 0.9})

    def test_exponent_validation(self):
        with pytest.raises(ConfigError):
            example_config(4, 10**4, {"alpha": 0.9, "beta": 0.8})
        with pytest.raises(ConfigError):
            example_config(4, 10**4, {"eps": 0.0})


class TestFamily5:
    def test_structure_at_1e4(self):
        n = 10**4
        cfg = example_config(5, n)
        log_n = math.log(n)
        s_big = round(math.sqrt(n * log_n))  # 303
        sizes = cfg.sizes.tolist()
        assert sizes[-1] == s_big
        small = sizes[:-1]
        assert len(small) == round((n - s_big) / log_n)
        assert sum(small) == n - s_big
        assert max(small) - min(small) <= 1
        assert close(float(cfg.probs[-1]), math.sqrt(log_n / n))
        assert close(cfg.q, log_n / n)

    def test_multiple_big_clusters(self):
        s_big = round(math.sqrt(10**4 * math.log(10**4)))
        # --constant reads every value as a float, so a whole float counts.
        for m in (2, 2.0):
            cfg = example_config(5, 10**4, {"m": m})
            assert cfg.sizes.tolist().count(s_big) >= 2
        for m in (2.5, math.nan, math.inf):
            with pytest.raises(ConfigError, match="constant 'm' must be a whole number"):
                example_config(5, 10**4, {"m": m})

    def test_infeasible_when_big_clusters_eat_graph(self):
        with pytest.raises(ConfigError):
            example_config(5, 10, {"m": 3})


class TestFamily6:
    def test_reference_constants(self):
        n = 10**4
        c = example6_reference_constants(n)
        side = round(n**0.55)
        assert c["n_min"] == side and c["n3"] == side and c["k3"] == 1
        assert c["q"] == 0.3 and c["p2"] == 0.7 and c["p3"] == 0.7
        assert close(c["p_min"], 0.3 + (math.log(n) / n) ** 0.25)

    def test_instantiation(self):
        n = 10**4
        cfg = example_config(6, n, example6_reference_constants(n))
        side = round(n**0.55)
        assert cfg.sizes.tolist() == [n - 2 * side, side, side]
        assert close(float(cfg.probs[0]), 0.3 + (math.log(n) / n) ** 0.25)
        assert cfg.q == 0.3

    def test_reference_infeasible_at_small_n(self):
        # At n = 100 the shrinking-gap term pushes p_min above the
        # secondary level 0.7, so the template cannot be realized.
        with pytest.raises(ConfigError):
            example_config(6, 100, example6_reference_constants(100))

    def test_requires_all_constants(self):
        with pytest.raises(ConfigError, match="requires explicit"):
            example_config(6, 10**4)
        partial = example6_reference_constants(10**4)
        del partial["k3"]
        with pytest.raises(ConfigError, match="k3"):
            example_config(6, 10**4, partial)


class TestCommon:
    def test_known_ids(self):
        assert EXAMPLE_IDS == (1, 2, 3, 4, 5, 6)
        with pytest.raises(ConfigError):
            example_config(7, 100)
        with pytest.raises(ConfigError):
            example_config(0, 100)

    def test_minimum_n(self):
        with pytest.raises(ConfigError):
            example_config(2, 1)

    @pytest.mark.parametrize("n", [10.5, 1e4, True, "100"])
    def test_non_integer_n_rejected(self, n):
        # Refused rather than truncated: 10.5 once built n = 10.
        with pytest.raises(ConfigError) as info:
            example_config(1, n)
        assert str(info.value) == f"n must be an integer, got {n!r}"

    def test_numpy_integer_n_accepted(self):
        assert example_config(2, np.int64(10**6)) == example_config(2, 10**6)

    def test_unknown_constant_rejected(self):
        with pytest.raises(ConfigError, match="unknown constants"):
            example_config(2, 10**6, {"bogus": 1.0})

    def test_deterministic_and_pure(self):
        constants = {"eps": 0.12}
        a = example_config(2, 10**6, constants)
        b = example_config(2, 10**6, constants)
        assert a == b
        assert constants == {"eps": 0.12}  # caller dict untouched

    @pytest.mark.parametrize("example_id", [1, 2, 3, 4, 5])
    def test_exact_cover_no_isolated(self, example_id):
        for n in (10**4, 10**5):
            cfg = example_config(example_id, n)
            assert cfg.n == n
            assert cfg.n0 == 0
            assert cfg.q < float(cfg.probs.min())


class TestLargeN:
    def test_family5_at_1e12(self):
        # About 3.6e10 clusters: a per-cluster list would not fit in memory.
        n = 10**12
        cfg = example_config(5, n)
        log_n = math.log(n)
        s_big = round(math.sqrt(n * log_n))
        assert cfg.r == round((n - s_big) / log_n) + 1
        assert cfg.n_covered == n
        assert len(cfg.runs[0]) <= 3

    def test_table1_reaches_1e12(self):
        rows = run_table1((10**9, 10**12), example_ids=(5,))
        assert [row["n"] for row in rows] == [10**9, 10**12]
        for row in rows:
            assert row["feasible"] and row["regime"] in REGIMES
            assert math.isfinite(row["search_margin"])
