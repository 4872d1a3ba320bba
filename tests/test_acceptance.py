"""Acceptance suite: eleven end-to-end criteria, one test per criterion.

Each test records exactly one ``CRITERION k: PASS/FAIL - detail`` line
(echoed by the conftest hook in the terminal summary of every run) and
then asserts on it.  Criterion 8 is expected to fail: its line states the
measured margins, and the README gives the reason for each red cell.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from test_convex import (bisection_box_sum_projection, oracle_box_sum_projection,
                         oracle_nuclear_projection)
from test_model import kl_div
from test_spectral import bernstein_tail

from hsbmlab import (
    ExperimentSpec,
    ModelConfig,
    block_split_bound,
    check_easy_clusterwise,
    check_easy_global,
    check_hard,
    check_impossible,
    check_simple,
    chi_square_div,
    classify,
    concentration_experiment,
    derived_stats,
    example_config,
    isolated_threshold,
    objective,
    pair_threshold,
    project_box_sum,
    project_nuclear_ball,
    recover_convex,
    run_monte_carlo,
    sample_adjacency,
    solve_exhaustive,
)
from hsbmlab.cli import main as cli_main
from hsbmlab.harness import TABLE_CHECKS

REF = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
SIMPLE400 = ModelConfig(400, [(200, 0.95), (200, 0.95)], 0.005)
THRESH_REF = ModelConfig(400, [(200, 0.9), (200, 0.9)], 0.01)
IMPOSSIBLE128 = ModelConfig(128, [(64, 0.06), (64, 0.06)], 0.05)
SMALL10 = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
HARD12 = ModelConfig(12, [(6, 0.06), (6, 0.06)], 0.05)


RESULTS: list[str] = []


def report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_formula_fidelity():
    start = time.perf_counter()
    bad: list[str] = []

    def expect(label: str, actual: float, target: float) -> None:
        if actual != pytest.approx(target, rel=1e-12, abs=1e-15):
            bad.append(f"{label}: {actual!r} != {target!r}")

    def expect_true(label: str, flag: bool) -> None:
        if not flag:
            bad.append(f"{label}: expected satisfied")

    expect("chi_square(0.5,0.25)", chi_square_div(0.5, 0.25), 1.0 / 3.0)
    expect("chi_square(p,p)", chi_square_div(0.3, 0.3), 0.0)
    expect("kl(0.5,0.25)", kl_div(0.5, 0.25),
           0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0))
    expect("kl(p,p)", kl_div(0.3, 0.3), 0.0)

    st = derived_stats(REF)
    rho = np.repeat(st.run_rho, st.counts)
    expect("rho[0]", rho[0], 45.0)
    expect("rho[1]", rho[1], 45.0)
    expect("sigma_sq", np.repeat(st.run_sigma_sq, st.counts)[0], 25.0)
    expect("sigma0_sq", st.sigma0_sq, 9.5)

    easy_c = check_easy_clusterwise(REF, C=1.0)
    expect_true("easy-clusterwise satisfied", easy_c.satisfied)
    expect("easy-clusterwise signal lhs", easy_c.report("cluster_signal").lhs,
           2025.0)
    expect("easy-clusterwise floor rhs", easy_c.report("density_floor").rhs,
           25.0)
    expect("easy separation lhs", easy_c.report("separation").lhs,
           0.2025 / 0.0475)

    easy_g = check_easy_global(REF, C=1.0)
    expect_true("easy-global satisfied", easy_g.satisfied)
    expect("easy-global signal lhs", easy_g.report("cluster_signal").lhs,
           2025.0)
    expect("easy-global signal rhs", easy_g.report("cluster_signal").rhs,
           25.0 * math.log(200.0))

    hard_no = check_hard(ModelConfig(1000, [(500, 0.5), (500, 0.5)], 0.1),
                         eta=1.0)
    expect("search lhs (dense 0.5)", hard_no.report("min_density").lhs, 200.0)
    expect("search rhs (dense 0.5)", hard_no.report("min_density").rhs,
           72.0 * (1.0 / 3.0 + 0.34 / 0.4) * math.log(1000.0))
    expect_true("search unsatisfied (dense 0.5)",
                not hard_no.report("min_density").satisfied)
    hard_yes = check_hard(ModelConfig(1000, [(500, 0.9), (500, 0.9)], 0.05),
                          eta=1.0)
    expect("search lhs (dense 0.9)", hard_yes.report("min_density").lhs, 425.0)
    expect("search rhs (dense 0.9)", hard_yes.report("min_density").rhs,
           72.0 * (1.0 / 3.0 + (0.09 + 0.0475) / 0.85) * math.log(1000.0))
    expect_true("search satisfied (dense 0.9)", hard_yes.satisfied)
    expect("search failure bound", hard_yes.extras["failure_prob_bound"],
           5000.0)

    imp = check_impossible(IMPOSSIBLE128)
    pair_info = imp.report("pair_information")
    expect("impossible pair lhs", pair_info.lhs,
           64.0 * (0.0001 / (0.05 * 0.95) + 0.0001 / (0.06 * 0.94)))
    expect("impossible pair rhs", pair_info.rhs, math.log(64.0) / 12.0)
    expect_true("impossible satisfied", imp.satisfied)

    simple = check_simple(THRESH_REF)
    expect("simple isolation lhs", simple.report("isolation_gap").lhs,
           (199.0 * 0.89) ** 2)
    expect("simple isolation rhs", simple.report("isolation_gap").rhs,
           19.0 * 0.99 * (180.0 + 4.0) * math.log(400.0))
    expect_true("simple isolation satisfied",
                simple.report("isolation_gap").satisfied)
    bracket = (198.0 * 0.81 + 200.0 * 0.0001) - 0.01 * (2.0 * 199.0 * 0.9)
    expect("simple pair lhs", simple.report("common_neighbor_gap").lhs,
           bracket**2)
    expect("simple pair rhs", simple.report("common_neighbor_gap").rhs,
           26.0 * (1.0 - 0.0001) * (162.0 + 0.04) * math.log(400.0))
    expect_true("simple pair marginally fails",
                not simple.report("common_neighbor_gap").satisfied)

    expect("isolated threshold", isolated_threshold(THRESH_REF),
           199.0 * 0.89 / 2.0 + 399.0 * 0.01)
    expect("pair threshold", pair_threshold(THRESH_REF),
           400.0 * 1e-4
           + 0.5 * (198.0 * 0.81 - 200.0 * 1e-4
                    + 0.01 * (2.0 * (200.0 * 0.89 - 0.9))))
    expect("block-split bound", block_split_bound(REF), 5.0 + math.sqrt(9.5))
    expect("bernstein(3;1,1)", bernstein_tail(3.0, 1.0, 1.0),
           2.0 * math.exp(-2.25))
    expect("bernstein(0)", bernstein_tail(0.0, 1.0, 1.0), 1.0)

    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    detail = (f"28 hand-evaluated values reproduced at 1e-12 in {elapsed:.2f}s"
              if not bad else f"mismatches: {'; '.join(bad)}")
    report(1, ok, detail)


def test_criterion_02_divergence_inequality():
    rng = np.random.default_rng(20260825)
    p = rng.uniform(0.0, 1.0, 100_000)
    q = rng.uniform(1e-9, 1.0 - 1e-9, 100_000)
    violations = int(np.sum(kl_div(p, q) > chi_square_div(p, q) + 1e-15))
    report(2, violations == 0,
           f"{violations} violations of KL <= chi-square on 100000 random pairs")


def test_criterion_03_projection_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_nuc = worst_box = worst_bisect = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        G = rng.normal(scale=2.0, size=(n, n))
        M = (G + G.T) / 2.0
        radius = float(rng.uniform(0.1, 1.5 * n))
        total = float(rng.uniform(0.0, n * n))
        worst_nuc = max(worst_nuc, float(np.linalg.norm(
            project_nuclear_ball(M, radius) - oracle_nuclear_projection(M, radius)
        )))
        P = project_box_sum(M, total)
        worst_box = max(worst_box, float(np.linalg.norm(
            P - oracle_box_sum_projection(M, total))))
        worst_bisect = max(worst_bisect, float(np.linalg.norm(
            P - bisection_box_sum_projection(M, total))))

    worst_idem = worst_exp = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        G1, G2 = rng.normal(scale=2.0, size=(2, n, n))
        M1, M2 = (G1 + G1.T) / 2.0, (G2 + G2.T) / 2.0
        radius = float(rng.uniform(0.1, 1.5 * n))
        total = float(rng.uniform(0.0, n * n))
        for proj in (lambda A: project_nuclear_ball(A, radius),
                     lambda A: project_box_sum(A, total)):
            P1, P2 = proj(M1), proj(M2)
            worst_idem = max(worst_idem, float(np.linalg.norm(proj(P1) - P1)))
            worst_exp = max(worst_exp, float(
                np.linalg.norm(P1 - P2) - np.linalg.norm(M1 - M2)
            ))
    elapsed = time.perf_counter() - start
    ok = (worst_nuc <= 1e-8 and worst_box <= 1e-8 and worst_bisect <= 1e-8
          and worst_idem <= 1e-8 and worst_exp <= 1e-10 and elapsed < 30.0)
    report(3, ok,
           f"oracle gap nuclear {worst_nuc:.1e} / box-sum {worst_box:.1e} "
           f"/ box-sum bisection {worst_bisect:.1e} (tol 1e-8, 100 instances); "
           f"idempotence {worst_idem:.1e}, expansiveness excess {worst_exp:.1e} "
           f"on 1000 pairs; {elapsed:.1f}s")


def test_criterion_04_exhaustive_oracle_equivalence():
    start = time.perf_counter()
    planted = SMALL10.planted_partition()
    rounded = equal = loose = 0
    for seed in range(100):
        A = sample_adjacency(SMALL10, planted, seed)
        rec = recover_convex(A, SMALL10)
        best = solve_exhaustive(A, SMALL10)
        # The solver maximizes <A + I, Y>; on a partition with the
        # configured sizes that is objective(A, P) + sum_k n_k.
        combinatorial_max = float(best.objective) + sum(SMALL10.sizes)
        if rec.partition is not None:
            rounded += 1
            if float(objective(A, rec.partition)) == pytest.approx(
                float(best.objective), abs=1e-9
            ):
                equal += 1
        elif (rec.detail.startswith("not_clique: ")
              and rec.solver.objective > combinatorial_max + 1e-2):
            loose += 1
    elapsed = time.perf_counter() - start
    ok = equal == rounded and rounded >= 90 and elapsed < 300.0
    report(4, ok,
           f"objective equality {equal}/{rounded} on rounded successes; "
           f"rounded-success rate {rounded}/100 (need >= 90); "
           f"{loose} of {100 - rounded} failures have a fractional optimum "
           f"strictly above the combinatorial maximum, so rounding cannot "
           f"succeed there; {elapsed:.0f}s")


def test_criterion_05_easy_regime_convex_recovery():
    start = time.perf_counter()
    premise = check_easy_global(REF, C=1.0).satisfied
    spec = ExperimentSpec(REF, ("convex",), trials=50, config_id="easy")
    successes = run_monte_carlo(spec, workers=4).summary["convex"]["successes"]
    elapsed = time.perf_counter() - start
    ok = premise and successes >= 47 and elapsed < 1200.0
    report(5, ok,
           f"convex-program conditions hold at C=1: {premise}; "
           f"{successes}/50 exact recoveries (need >= 47); {elapsed:.0f}s")


def test_criterion_06_simple_regime_counting_recovery():
    start = time.perf_counter()
    premise = check_simple(SIMPLE400).satisfied
    spec = ExperimentSpec(SIMPLE400, ("counting",), trials=200,
                          config_id="simple")
    rate = run_monte_carlo(spec, workers=4).summary["counting"]["success_rate"]
    elapsed = time.perf_counter() - start
    ok = premise and rate >= 0.99 and elapsed < 120.0
    report(6, ok,
           f"counting conditions verified exactly: {premise}; recovery rate "
           f"{rate:.3f} over 200 trials (need >= 0.99); {elapsed:.0f}s")


def test_criterion_07_impossibility_sanity():
    pair_info = check_impossible(IMPOSSIBLE128).report("pair_information")
    eval_ok = (pair_info.satisfied
               and pair_info.lhs == pytest.approx(0.2482, abs=1e-4)
               and pair_info.rhs == pytest.approx(0.3465, abs=1e-4))
    # Scaled analog: the same pair-information ratio, evaluated directly,
    # stays below 1 at n=12 with sizes {6,6}, p=0.06, q=0.05.
    lhs12 = 6.0 * (chi_square_div(0.06, 0.05) + 0.01**2 / (0.06 * 0.94))
    ratio12 = lhs12 / (math.log(6.0) / 12.0)
    spec = ExperimentSpec(HARD12, ("exhaustive",), trials=200,
                          config_id="scaled-impossible")
    rate = run_monte_carlo(spec, workers=4).summary["exhaustive"]["success_rate"]
    ok = eval_ok and ratio12 < 1.0 and rate <= 0.7
    report(7, ok,
           f"direct evaluation {pair_info.lhs:.4f} <= {pair_info.rhs:.4f}; "
           f"scaled ratio {ratio12:.3f} < 1; measured exhaustive-ML rate "
           f"{rate:.3f} over 200 trials (soft ceiling 0.7)")


def test_criterion_08_margin_trend_table():
    start = time.perf_counter()
    grid = (10**4, 10**5, 10**6, 10**7)
    constants = {2: {"c": 3.0}, 5: {"c2": 1.2}}
    expected = {
        1: {"clusterwise": False, "global": False, "search": True},
        2: {"clusterwise": True, "global": True, "search": True},
        3: {"clusterwise": True, "global": False, "search": False},
        5: {"clusterwise": False, "global": True, "search": True},
    }
    # The trend table's margins, with the criterion's constants for
    # examples 2 and 5.
    margins: dict[tuple[int, str], list[float]] = {}
    for ex in expected:
        for n in grid:
            checks = classify(example_config(ex, n, constants.get(ex)),
                              C=1.0, eta=2.0).checks
            for name, short in TABLE_CHECKS:
                margins.setdefault((ex, short), []).append(
                    checks[name].binding_margin
                )
    bad: list[str] = []
    for (ex, short), ms in margins.items():
        rising = all(b >= a * (1.0 - 1e-12) for a, b in zip(ms, ms[1:]))
        falling = all(b <= a * (1.0 + 1e-12) for a, b in zip(ms, ms[1:]))
        if expected[ex][short]:
            if not (rising and ms[-1] >= 1.0):
                bad.append(f"example {ex} {short} margin {ms[-1]:.2e} at "
                           f"n=1e7 (rising={rising})")
        elif not (falling or ms[-1] < 1.0):
            bad.append(f"example {ex} {short} margin {ms[-1]:.2e} neither "
                       f"falling nor < 1")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    detail = (f"all 12 margin-trend cells match the expected pattern; "
              f"{elapsed:.2f}s" if not bad else
              f"{len(bad)} satisfied-cell(s) below margin 1 at n=1e7 "
              f"(explicit search-condition constant 68+ forces this): "
              + "; ".join(bad))
    report(8, ok, detail)


def test_criterion_09_concentration_bench():
    start = time.perf_counter()
    max_ratios: dict[int, float] = {}
    mean_ratios: dict[int, float] = {}
    for n in (100, 200, 400):
        cfg = ModelConfig(n, [(n // 2, 0.5), (n // 2, 0.5)], 0.05)
        stats = concentration_experiment(cfg, trials=50, seed=0)
        max_ratios[n] = stats.max_ratio
        mean_ratios[n] = stats.mean_ratio
    slope = float(np.polyfit(
        np.log([100.0, 200.0, 400.0]),
        np.log([mean_ratios[n] for n in (100, 200, 400)]), 1
    )[0])
    elapsed = time.perf_counter() - start
    ok = (max(max_ratios.values()) <= 4.0 and -0.2 <= slope <= 0.2
          and elapsed < 300.0)
    report(9, ok,
           f"max norm/bound ratio {max_ratios[200]:.3f} at n=200 "
           f"(overall {max(max_ratios.values()):.3f} <= 4); log-ratio slope "
           f"{slope:+.4f} in [-0.2, 0.2]; {elapsed:.0f}s")


def test_criterion_10_partial_observations():
    start = time.perf_counter()
    config = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05, gamma=0.6)
    premise = check_easy_global(config.collapsed(), C=1.0).satisfied
    spec = ExperimentSpec(config, ("convex",), trials=50, config_id="partial")
    successes = run_monte_carlo(spec, workers=4).summary["convex"]["successes"]
    elapsed = time.perf_counter() - start
    ok = premise and successes >= 45 and elapsed < 1200.0
    report(10, ok,
           f"collapsed model passes convex-program conditions at C=1: "
           f"{premise}; {successes}/50 recoveries from unobserved->0 inputs "
           f"(need >= 45); {elapsed:.0f}s")


def test_criterion_11_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"n": 10, "q": 0.05, "clusters": [[5, 0.9], [5, 0.9]]}
    ))
    partial_path = tmp_path / "partial.json"
    partial_path.write_text(json.dumps(
        {"n": 10, "q": 0.05, "clusters": [[5, 0.9], [5, 0.9]], "gamma": 0.6}
    ))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "config": {"n": 10, "q": 0.05, "clusters": [[5, 0.9], [5, 0.9]]},
        "algorithms": ["convex", "exhaustive", "counting", "local-search"],
        "trials": 2,
        "config_id": "det",
    }))
    # Seed 0 gives a draw on which every recovery algorithm succeeds.
    graph_path = tmp_path / "graph.txt"
    assert cli_main(["generate", "--config", str(config_path), "--seed", "0",
                     "--out", str(graph_path)]) == 0

    runs = {
        "generate": ["generate", "--config", str(config_path), "--seed", "7"],
        "generate-partial": ["generate", "--config", str(partial_path),
                             "--seed", "7"],
        "classify": ["classify", "--config", str(config_path),
                     "--format", "json"],
        "recover": ["recover", "--config", str(config_path),
                    "--adjacency", str(graph_path)],
        "bench-spectral": ["bench-spectral", "--config", str(config_path),
                           "--trials", "4"],
        "montecarlo": ["montecarlo", "--spec", str(spec_path)],
        "table1": ["table1", "--n-grid", "1e4,1e5", "--examples", "1,5"],
    }
    unstable: list[str] = []
    for name, argv in runs.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            unstable.append(name)
    worker_files = []
    for workers in ("1", "4"):
        out = tmp_path / f"mc-w{workers}"
        assert cli_main(["montecarlo", "--spec", str(spec_path),
                         "--workers", workers, "--out", str(out)]) == 0
        worker_files.append(out.read_bytes())
    if worker_files[0] != worker_files[1]:
        unstable.append("montecarlo-workers")
    ok = not unstable
    report(11, ok,
           "all subcommand outputs byte-identical across reruns and worker "
           "counts {1, 4}" if ok else f"unstable outputs: {unstable}")
