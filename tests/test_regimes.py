"""Regime checkers against independently evaluated closed forms.

Every numeric expectation below is recomputed inline with plain-float
arithmetic (no calls back into the module under test), so the checker
implementations are pinned against an independent rendering of the same
inequalities.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hsbmlab import (
    ConfigError,
    ModelConfig,
    check_easy_clusterwise,
    check_easy_global,
    check_hard,
    check_impossible,
    check_simple,
    classify,
    example6_reference_constants,
    example_config,
    run_table1,
)
from hsbmlab.regimes import csv_cells

REL = 1e-12


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def chi2(p, q):
    return (p - q) ** 2 / (q * (1.0 - q))


CFG_EASY = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
CFG_SIMPLE = ModelConfig(400, [(200, 0.95), (200, 0.95)], 0.005)
CFG_SIMPLE_MARGINAL = ModelConfig(400, [(200, 0.9), (200, 0.9)], 0.01)


class TestEasyClusterwise:
    def test_values(self):
        chk = check_easy_clusterwise(CFG_EASY)
        # rho_k = 100 * 0.45 = 45, sigma_k^2 = 100 * 0.25 = 25
        sig = chk.report("cluster_signal")
        assert close(sig.lhs, 45.0**2)
        assert close(sig.rhs, 25.0 * math.log(100))
        assert close(sig.margin, 2025.0 / (25.0 * math.log(100)))
        assert sig.satisfied
        assert "binding cluster" in sig.note

        sep = chk.report("separation")
        assert close(sep.lhs, chi2(0.5, 0.05))
        assert close(sep.rhs, math.log(100) / 100)
        assert sep.satisfied

        dens = chk.report("density_floor")
        assert close(dens.lhs, 45.0**2)
        assert close(dens.rhs, 25.0)  # max(sigma_max^2, sigma0^2, log n)
        assert dens.satisfied

        tail = chk.report("size_tail(alpha=2)")
        assert close(tail.lhs, 2.0 * 100.0**-2)
        assert tail.rhs == 0.1
        assert tail.satisfied

        assert chk.satisfied
        # binding score: cluster_signal is the smallest core ratio
        assert close(chk.binding_margin, 2025.0 / (25.0 * math.log(100)))

    def test_constant_scales_scores(self):
        base = check_easy_clusterwise(CFG_EASY, C=1.0)
        tight = check_easy_clusterwise(CFG_EASY, C=20.0)
        assert base.satisfied and not tight.satisfied
        sig_b = base.report("cluster_signal")
        sig_t = tight.report("cluster_signal")
        assert close(sig_t.score, sig_b.score / 20.0)
        assert close(sig_t.margin, sig_b.margin)  # raw ratio is C-free

    def test_binding_cluster_is_worst(self):
        cfg = ModelConfig(120, [(100, 0.5), (10, 0.4)], 0.05)
        chk = check_easy_clusterwise(cfg)
        sig = chk.report("cluster_signal")
        # cluster 2: rho = 3.5, sigma^2 = 2.4, log 10
        assert close(sig.lhs, 3.5**2)
        assert close(sig.rhs, 2.4 * math.log(10))
        assert "cluster 2 of 2" in sig.note

    def test_binding_cluster_counts_clusters_not_runs(self):
        # Runs (10, 0.9) x3, (5, 0.5) x2, (10, 0.9): the binding cluster is
        # the first cluster of the second run, cluster 4 of 6.
        clusters = [(10, 0.9)] * 3 + [(5, 0.5)] * 2 + [(10, 0.9)]
        cfg = ModelConfig(60, clusters, 0.05)
        scores = [(s * (p - 0.05)) ** 2 / (s * p * (1 - p) * math.log(s))
                  for s, p in clusters]
        assert scores.index(min(scores)) == 3
        sig = check_easy_clusterwise(cfg).report("cluster_signal")
        assert sig.note == "binding cluster 4 of 6"
        assert close(sig.lhs, (5 * 0.45) ** 2)
        assert close(sig.rhs, 5 * 0.25 * math.log(5))

    def test_degenerate_variance_scores_infinite(self):
        cfg = ModelConfig(10, [(5, 1.0)], 0.3)
        chk = check_easy_clusterwise(cfg)
        assert chk.report("cluster_signal").score == math.inf
        assert chk.satisfied

    def test_size_tail_requires_witness(self):
        # Many singleton-ish clusters: sum n_k^-alpha > 0.1 for every alpha
        cfg = ModelConfig(12, [(2, 0.9)] * 6, 0.05)
        chk = check_easy_clusterwise(cfg)
        tails = [r for r in chk.reports if r.condition_id.startswith("size_tail")]
        assert len(tails) == 4
        assert not any(r.satisfied for r in tails)
        assert not chk.satisfied


class TestEasyGlobal:
    def test_values(self):
        chk = check_easy_global(CFG_EASY)
        sig = chk.report("cluster_signal")
        assert close(sig.lhs, 2025.0)
        assert close(sig.rhs, 25.0 * math.log(200))
        sep = chk.report("separation")
        assert close(sep.rhs, math.log(200) / 100)
        dens = chk.report("density_floor")
        assert close(dens.rhs, 25.0)  # max(sigma_max^2, sigma0^2); no log n term
        assert chk.satisfied
        assert close(chk.binding_margin, 2025.0 / (25.0 * math.log(200)))

    def test_no_size_tail_condition(self):
        chk = check_easy_global(CFG_EASY)
        assert {r.condition_id for r in chk.reports} == {
            "cluster_signal", "separation", "density_floor",
        }

    @pytest.mark.parametrize("check", [check_easy_clusterwise, check_easy_global])
    @pytest.mark.parametrize("C", [0.0, -1.0, math.nan])
    def test_refuses_nonpositive_constant(self, check, C):
        with pytest.raises(ConfigError, match="C must be positive"):
            check(CFG_EASY, C=C)


class TestHard:
    def test_unsatisfied_values(self):
        cfg = ModelConfig(1000, [(500, 0.5), (500, 0.5)], 0.1)
        chk = check_hard(cfg, eta=1.0)
        rep = chk.report("min_density")
        nu = (0.5 * 0.5 + 0.1 * 0.9) / 0.4
        rhs = 4.0 * 18.0 * (1.0 / 3.0 + nu) * math.log(1000)
        assert close(rep.lhs, 200.0)  # rho_min = 500 * 0.4
        assert close(rep.rhs, rhs)
        assert not rep.satisfied and not chk.satisfied
        assert chk.extras["eta"] == 1.0
        assert close(chk.extras["failure_prob_bound"], 5.0 * 1000.0)

    def test_satisfied_values(self):
        cfg = ModelConfig(1000, [(500, 0.9), (500, 0.9)], 0.05)
        chk = check_hard(cfg, eta=1.0)
        rep = chk.report("min_density")
        nu = (0.9 * 0.1 + 0.05 * 0.95) / 0.85
        rhs = 72.0 * (1.0 / 3.0 + nu) * math.log(1000)
        assert close(rep.lhs, 425.0)
        assert close(rep.rhs, rhs)
        assert rep.satisfied and chk.satisfied
        assert close(chk.binding_margin, 425.0 / rhs)

    def test_eta_controls_failure_bound(self):
        cfg = ModelConfig(1000, [(500, 0.9), (500, 0.9)], 0.05)
        bound2 = check_hard(cfg, eta=2.0).extras["failure_prob_bound"]
        assert close(bound2, 5.0)  # n^(2-2) = 1
        with pytest.raises(ValueError):
            check_hard(cfg, eta=0.0)
        with pytest.raises(ValueError):
            check_hard(cfg, eta=-1.0)
        with pytest.raises(ConfigError, match="eta must be positive, got nan"):
            check_hard(cfg, eta=math.nan)

    def test_inapplicable_below_hypotheses(self):
        for cfg in (
            ModelConfig(10, [(1, 0.9)], 0.05),   # n_min < 2
            ModelConfig(7, [(3, 0.9)], 0.05),    # n < 8
        ):
            chk = check_hard(cfg)
            assert not chk.applicable and not chk.satisfied
            assert not chk.report("min_density").applicable
            assert math.isnan(chk.binding_margin)


class TestImpossible:
    def test_pair_information_fires(self):
        cfg = ModelConfig(128, [(64, 0.06), (64, 0.06)], 0.05)
        chk = check_impossible(cfg)
        rep = chk.report("pair_information")
        lhs = 64.0 * (chi2(0.06, 0.05) + (0.06 - 0.05) ** 2 / (0.06 * 0.94))
        assert close(rep.lhs, lhs)
        assert close(rep.rhs, math.log(64) / 12.0)
        assert rep.satisfied and chk.satisfied
        # size window fails (64 > 128/e): budget conditions inapplicable
        assert not chk.report("divergence_budget").applicable
        assert not chk.report("likelihood_budget").applicable

    def test_divergence_budget_fires(self):
        cfg = ModelConfig(100, [(30, 0.06), (30, 0.06)], 0.05)
        chk = check_impossible(cfg)
        rep = chk.report("divergence_budget")
        lhs = 4.0 * 2.0 * 900.0 * chi2(0.06, 0.05)
        rhs = 0.5 * (2.0 * 30.0 * math.log(100.0 / 30.0)) - 2.0 - 2.0
        assert close(rep.lhs, lhs)
        assert close(rep.rhs, rhs)
        assert rep.satisfied and chk.satisfied
        # n < 128: pair condition inapplicable
        assert not chk.report("pair_information").applicable

    def test_likelihood_budget_values(self):
        cfg = ModelConfig(100, [(30, 0.06), (30, 0.06)], 0.05)
        rep = check_impossible(cfg).report("likelihood_budget")
        s2p = 2.0 * 900.0 * 0.06
        lhs = 0.5 * 2.0 + math.log(0.94 / 0.94) + 1.0 + s2p
        rhs = (25.0 - s2p) * math.log(100) + 2.0 * (30.0 * 0.06 - 0.25) * 30.0 * math.log(30)
        assert close(rep.lhs, lhs)
        assert close(rep.rhs, rhs)
        assert not rep.satisfied  # rhs is negative here

    def test_not_impossible_dense(self):
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        chk = check_impossible(cfg)
        rep = chk.report("pair_information")
        lhs = 100.0 * (chi2(0.5, 0.05) + 0.45**2 / 0.25)
        assert close(rep.lhs, lhs)
        assert close(rep.rhs, math.log(100) / 12.0)
        assert not rep.satisfied and not chk.satisfied

    def test_saturated_probability_guard(self):
        # p_max = 1 with p_min < 1: likelihood budget cannot fire
        cfg = ModelConfig(100, [(30, 1.0), (30, 0.5)], 0.05)
        rep = check_impossible(cfg).report("likelihood_budget")
        assert rep.lhs == math.inf and not rep.satisfied
        # p_min = p_max = 1: log-ratio term collapses to 0
        cfg2 = ModelConfig(100, [(30, 1.0), (30, 1.0)], 0.05)
        rep2 = check_impossible(cfg2).report("likelihood_budget")
        s2p = 2.0 * 900.0
        assert close(rep2.lhs, 1.0 + 1.0 + s2p)

    def test_single_cluster_pair_inapplicable(self):
        cfg = ModelConfig(200, [(60, 0.5)], 0.05)
        chk = check_impossible(cfg)
        assert not chk.report("pair_information").applicable
        assert chk.report("divergence_budget").applicable  # 60 <= 200/e


class TestSimple:
    def test_satisfied_values(self):
        chk = check_simple(CFG_SIMPLE)
        iso = chk.report("isolation_gap")
        lhs_iso = (199.0 * 0.945) ** 2
        rhs_iso = 19.0 * 0.995 * (200.0 * 0.95 + 400.0 * 0.005) * math.log(400)
        assert close(iso.lhs, lhs_iso)
        assert close(iso.rhs, rhs_iso)
        assert iso.satisfied

        pair = chk.report("common_neighbor_gap")
        intra = 198.0 * 0.95**2 + 200.0 * 0.005**2
        b = 199.0 * 0.95 - 200.0 * 0.005
        cross = 0.005 * (2.0 * b + 400.0 * 0.005)
        bracket = intra - cross
        rhs_pair = 26.0 * (1.0 - 0.005**2) * (200.0 * 0.95**2 + 400.0 * 0.005**2) * math.log(400)
        assert close(pair.lhs, bracket**2)
        assert close(pair.rhs, rhs_pair)
        assert pair.satisfied

        assert chk.satisfied
        assert close(chk.binding_margin, min(lhs_iso / rhs_iso, bracket**2 / rhs_pair))

    def test_marginal_failure(self):
        # Isolation holds but the common-neighbor gap falls just short.
        chk = check_simple(CFG_SIMPLE_MARGINAL)
        iso = chk.report("isolation_gap")
        assert close(iso.lhs, (199.0 * 0.89) ** 2)  # 31367.9521
        assert iso.satisfied
        pair = chk.report("common_neighbor_gap")
        intra = 198.0 * 0.81 + 200.0 * 0.0001
        cross = 0.01 * (2.0 * (199.0 * 0.9 - 2.0) + 400.0 * 0.01)
        assert close(pair.lhs, (intra - cross) ** 2)
        assert not pair.satisfied and not chk.satisfied

    def test_negative_gap_scores_zero(self):
        cfg = ModelConfig(6, [(3, 0.5), (3, 0.5)], 0.45)
        pair = check_simple(cfg).report("common_neighbor_gap")
        assert pair.score == 0.0 and not pair.satisfied
        assert "negative" in pair.note

    def test_single_cluster_pair_inapplicable(self):
        cfg = ModelConfig(500, [(400, 0.9)], 0.01)
        chk = check_simple(cfg)
        pair = chk.report("common_neighbor_gap")
        assert not pair.applicable
        assert chk.satisfied == chk.report("isolation_gap").satisfied


class TestClassify:
    def test_easy(self):
        rep = classify(CFG_EASY, config_id="easy-demo")
        assert rep.regime == "easy"
        assert not rep.contradiction
        assert rep.config_id == "easy-demo"
        assert rep.params["C"] == 1.0

    def test_simple_beats_easy(self):
        rep = classify(CFG_SIMPLE)
        assert rep.checks["simple"].satisfied
        assert rep.regime == "simple"

    def test_impossible(self):
        rep = classify(ModelConfig(128, [(64, 0.06), (64, 0.06)], 0.05))
        assert rep.regime == "impossible"
        assert not rep.contradiction

    def test_hard_label_needs_tight_constant(self):
        cfg = ModelConfig(10**6, [(500000, 0.015), (500000, 0.015)], 0.0075)
        base = classify(cfg)
        tight = classify(cfg, C=1000.0)
        assert base.checks["hard"].satisfied
        assert tight.regime == "hard"
        assert not tight.checks["easy_clusterwise"].satisfied
        assert not tight.checks["easy_global"].satisfied
        assert not tight.checks["simple"].satisfied

    def test_unknown(self):
        rep = classify(ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.45))
        assert rep.regime == "unknown"
        assert not any(c.satisfied for c in rep.checks.values())

    def test_contradiction_flag(self):
        # Tiny planted cliques in a huge sparse ambient: a positive convex
        # guarantee co-fires with the (conservative) likelihood budget.
        cfg = ModelConfig(10**6, [(8, 0.9), (8, 0.9)], 1e-6)
        rep = classify(cfg)
        assert rep.checks["easy_clusterwise"].satisfied
        assert rep.checks["impossible"].satisfied
        assert rep.regime == "impossible"
        assert rep.contradiction

    def test_score_satisfaction_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            r = int(rng.integers(1, 5))
            sizes = rng.integers(2, 60, size=r).tolist()
            q = float(rng.uniform(0.001, 0.4))
            probs = rng.uniform(q + 0.01, 0.99, size=r).tolist()
            n = int(sum(sizes) + rng.integers(0, 30))
            rep = classify(ModelConfig(n, list(zip(sizes, probs)), q))
            for chk in rep.checks.values():
                for cond in chk.reports:
                    if cond.applicable:
                        assert cond.satisfied == (cond.score >= 1.0), (
                            chk.name, cond.condition_id, cond.score, cond.satisfied,
                        )

    def test_partial_observation_classifies_collapsed_model(self):
        # At gamma = 1 this config is easy with margins above 15; the model
        # recovery solves at gamma = 0.05 is not.
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05, gamma=0.05)
        rep, collapsed = classify(cfg), classify(cfg.collapsed())
        assert rep.regime == collapsed.regime == "unknown"
        assert rep.config == cfg
        for name, chk in rep.checks.items():
            assert chk.binding_margin == collapsed.checks[name].binding_margin
            assert [c.margin for c in chk.reports] == \
                [c.margin for c in collapsed.checks[name].reports]

    def test_report_lookup_keyerror(self):
        chk = check_easy_global(CFG_EASY)
        with pytest.raises(KeyError):
            chk.report("nonexistent")


class TestExampleFamilyAtScale:
    def test_first_family_separation_fails_at_1e6(self):
        # The small-cluster/sparse family: clusterwise conditions fail at
        # n = 10^6 because the divergence term is far below log(n_min)/n_min.
        cfg = example_config(1, 10**6)
        chk = check_easy_clusterwise(cfg)
        sep = chk.report("separation")
        assert sep.margin < 1e-2
        assert not sep.satisfied
        assert not chk.satisfied
        assert check_hard(cfg).applicable  # hypotheses hold even when unmet


class TestEmission:
    def test_json_round_trip(self):
        rep = classify(CFG_EASY, config_id="c1")
        data = json.loads(rep.to_json())
        assert data["regime"] == "easy"
        assert data["config_id"] == "c1"
        assert data["config"]["n"] == 200
        assert set(data["checks"]) == {"easy_clusterwise", "easy_global", "hard",
                                       "impossible", "simple"}
        sig = data["checks"]["easy_clusterwise"]["reports"][0]
        assert sig["condition_id"] == "cluster_signal"
        assert close(sig["lhs"], 2025.0)

    def test_csv_row_matches_header(self):
        rep = classify(CFG_EASY, config_id="c1")
        header, row = zip(*csv_cells(rep))
        assert len(header) == len(row)
        assert header[0] == "config_id" and row[0] == "c1"
        assert header[1] == "regime" and row[1] == "easy"
        # flattened names carry check and condition ids
        assert "easy_clusterwise.cluster_signal.margin" in header
        assert "impossible.pair_information.satisfied" in header
        # float cells survive a repr -> float round trip exactly
        idx = header.index("easy_clusterwise.cluster_signal.lhs")
        assert float(row[idx]) == 2025.0

    def test_csv_booleans_lowercase(self):
        rep = classify(CFG_EASY)
        for col, val in csv_cells(rep):
            if col.endswith(".satisfied") or col == "contradiction":
                assert val in ("true", "false"), (col, val)


# -- frozen outputs -----------------------------------------------------------

# Recorded from the per-cluster implementation, before clusters were stored
# as runs: run_table1 over the six presets on GRID, and classify on each of
# those configs.  Labels, flags, notes, cluster counts and covered-node counts
# must match exactly; every float to FROZEN_REL, since a sum over clusters
# now weights each run by its count and may move by an ulp.
FROZEN = json.loads((Path(__file__).parent / "data" / "frozen_regimes.json").read_text())
GRID = (10**4, 10**5, 10**6, 10**7, 10**8)
FROZEN_REL = 1e-12


def assert_frozen(got, want, where=""):
    if isinstance(want, dict):
        assert set(got) == set(want), where
        for key in want:
            assert_frozen(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_frozen(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert (math.isnan(got) and math.isnan(want)) or got == want \
            or math.isclose(got, want, rel_tol=FROZEN_REL, abs_tol=0.0), (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


class TestFrozenOutputs:
    def test_table1(self):
        assert_frozen(run_table1(GRID), FROZEN["table1"])

    @pytest.mark.parametrize("key", sorted(FROZEN["classify"]))
    def test_classify(self, key):
        ex, n = (int(v) for v in key.split("@"))
        cfg = example_config(ex, n, example6_reference_constants(n) if ex == 6 else None)
        report = classify(cfg)
        got = {
            "checks": {name: chk.to_dict() for name, chk in report.checks.items()},
            "contradiction": report.contradiction,
            "n_covered": cfg.n_covered,
            "params": report.params,
            "r": cfg.r,
            "regime": report.regime,
        }
        assert_frozen(got, FROZEN["classify"][key], key)
