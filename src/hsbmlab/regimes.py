"""Recoverability regime classification.

Five checkers map a configuration onto the regime taxonomy:

* ``check_easy_clusterwise`` / ``check_easy_global`` — two sufficient
  condition sets for exact recovery by the convex relaxation (the first uses
  per-cluster log factors and tolerates very small clusters via a size-tail
  condition, the second uses global log n factors).  Their ``>=``-type
  conditions carry one global proportionality constant C.
* ``check_hard`` — explicit-constant sufficient condition for exact recovery
  by exhaustive combinatorial search.
* ``check_impossible`` — three explicit-constant conditions under any one of
  which exact recovery is impossible for every estimator.
* ``check_simple`` — explicit-constant sufficient conditions for the
  degree/common-neighbor counting recovery rule.

``classify`` combines them: impossible overrides everything (a contradiction
with a positive checker is flagged), otherwise simple > easy > hard >
unknown, the order of ``REGIMES``.

Scores vs margins: every condition reports the raw ratio ``margin =
lhs/rhs`` and a normalized ``score`` that is >= 1 exactly when the condition
is satisfied (for ``>=``-type conditions score = lhs/(C*rhs); for
``<=``-type conditions score = rhs/lhs).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .graphio import csv_cell, json_text
from .model import (
    ConfigError,
    DerivedStats,
    ModelConfig,
    chi_square_div,
    cross_pair_peak,
    derived_stats,
)

ALPHA_GRID = (0.25, 0.5, 1.0, 2.0)
O1_THRESHOLD = 0.1
# The checker constants C and eta where a caller gives none.
DEFAULT_C = 1.0
DEFAULT_ETA = 2.0

REGIMES = ("impossible", "simple", "easy", "hard", "unknown")


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return math.inf
    return lhs / rhs


def _require_positive(name: str, value: float) -> None:
    """A checker constant must be a positive, finite number (not NaN)."""
    if not value > 0.0:
        raise ConfigError(f"{name} must be positive, got {value}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ConditionReport:
    """One inequality: lhs vs rhs, its raw ratio, and a normalized score
    (>= 1 iff satisfied)."""

    condition_id: str
    lhs: float
    rhs: float
    margin: float
    score: float
    satisfied: bool
    applicable: bool = True
    note: str = ""

    @classmethod
    def _of(cls, condition_id: str, lhs: float, rhs: float, score: float,
            satisfied: bool, note: str) -> "ConditionReport":
        return cls(condition_id, float(lhs), float(rhs), _ratio(lhs, rhs),
                   float(score), bool(satisfied), note=note)

    @classmethod
    def ge(cls, condition_id: str, lhs: float, rhs: float, constant: float = 1.0,
           note: str = "") -> "ConditionReport":
        """lhs >= constant * rhs."""
        return cls._of(condition_id, lhs, rhs, _ratio(lhs, constant * rhs),
                       lhs >= constant * rhs, note)

    @classmethod
    def le(cls, condition_id: str, lhs: float, rhs: float, note: str = "") -> "ConditionReport":
        """lhs <= rhs."""
        return cls._of(condition_id, lhs, rhs, _ratio(rhs, lhs), lhs <= rhs, note)

    @classmethod
    def inapplicable(cls, condition_id: str, note: str) -> "ConditionReport":
        return cls(condition_id, math.nan, math.nan, math.nan, math.nan,
                   satisfied=False, applicable=False, note=note)


@dataclass(frozen=True)
class RegimeCheck:
    """Outcome of one checker: its condition reports, overall satisfaction,
    and the binding (smallest decisive) score."""

    name: str
    reports: tuple[ConditionReport, ...]
    satisfied: bool
    applicable: bool = True
    binding_margin: float = math.nan
    extras: dict = field(default_factory=dict)

    def report(self, condition_id: str) -> ConditionReport:
        for rep in self.reports:
            if rep.condition_id == condition_id:
                return rep
        raise KeyError(condition_id)

    def to_dict(self) -> dict:
        return asdict(self)


def _binding_from(core: list[ConditionReport], tail_scores: list[float] | None = None) -> float:
    """Min over core condition scores; a size-tail group contributes its best
    alpha's score (the condition asks for one witness exponent)."""
    scores = [r.score for r in core if r.applicable]
    if tail_scores:
        scores.append(max(tail_scores))
    return float(min(scores)) if scores else math.nan


def _cluster_sum(counts: np.ndarray, per_run: np.ndarray) -> float:
    """Sum over clusters of a per-run quantity: each run counts its clusters."""
    return float(np.sum(counts * per_run))


def _cluster_signal(config: ModelConfig, st: DerivedStats, log_factor,
                    C: float) -> ConditionReport:
    """rho_k^2 >= C sigma_k^2 log_factor_k for all k, reported at the
    binding (lowest-score) cluster: the first cluster of the first run with
    the lowest score.  log_factor is a scalar or one value per run."""
    rhs = st.run_sigma_sq * log_factor
    scores = np.where(rhs > 0, st.run_rho**2 / np.where(rhs > 0, C * rhs, 1.0), math.inf)
    k = int(np.argmin(scores))
    first = int(st.counts[:k].sum())
    return ConditionReport.ge(
        "cluster_signal", float(st.run_rho[k] ** 2), float(rhs[k]), C,
        note=f"binding cluster {first + 1} of {config.r}",
    )


def check_easy_clusterwise(config: ModelConfig, C: float = DEFAULT_C) -> RegimeCheck:
    """Convex-recovery conditions with per-cluster log factors.

    (i) rho_k^2 >= C sigma_k^2 log n_k for all k; (ii) the chi-square
    divergence of (p_min, q) dominates log(n_min)/n_min; (iii) rho_min^2
    dominates max(sigma_max^2, n q(1-q), log n); (iv) sum_k n_k^-alpha is
    at most O1_THRESHOLD for some alpha in ALPHA_GRID (vanishing-size-tail
    surrogate).
    """
    _require_positive("C", C)
    st = derived_stats(config)
    sizes, _, counts = config.runs
    sizes = sizes.astype(float)
    rep_i = _cluster_signal(config, st, np.log(sizes), C)
    rep_ii = ConditionReport.ge(
        "separation", chi_square_div(st.p_min, config.q),
        math.log(st.n_min) / st.n_min, C,
    )
    rep_iii = ConditionReport.ge(
        "density_floor", st.rho_min**2,
        max(st.sigma_max_sq, st.sigma0_sq, math.log(config.n)), C,
    )
    tail_reports = [
        ConditionReport.le(
            f"size_tail(alpha={alpha:g})", _cluster_sum(counts, sizes**-alpha),
            O1_THRESHOLD,
        )
        for alpha in ALPHA_GRID
    ]
    core = [rep_i, rep_ii, rep_iii]
    satisfied = all(r.satisfied for r in core) and any(r.satisfied for r in tail_reports)
    return RegimeCheck(
        name="easy_clusterwise",
        reports=tuple(core + tail_reports),
        satisfied=satisfied,
        binding_margin=_binding_from(core, [r.score for r in tail_reports]),
    )


def check_easy_global(config: ModelConfig, C: float = DEFAULT_C) -> RegimeCheck:
    """Convex-recovery conditions with global log n factors (no size-tail
    condition; suited to comparable cluster sizes)."""
    _require_positive("C", C)
    st = derived_stats(config)
    log_n = math.log(config.n)
    rep_i = _cluster_signal(config, st, log_n, C)
    rep_ii = ConditionReport.ge(
        "separation", chi_square_div(st.p_min, config.q), log_n / st.n_min, C,
    )
    rep_iii = ConditionReport.ge(
        "density_floor", st.rho_min**2, max(st.sigma_max_sq, st.sigma0_sq), C,
    )
    core = [rep_i, rep_ii, rep_iii]
    return RegimeCheck(
        name="easy_global",
        reports=tuple(core),
        satisfied=all(r.satisfied for r in core),
        binding_margin=_binding_from(core),
    )


def check_hard(config: ModelConfig, eta: float = DEFAULT_ETA) -> RegimeCheck:
    """Exhaustive-search recovery condition (explicit constants).

    Requires n_min >= 2 and n >= 8; then rho_min must exceed
    4(17+eta)(1/3 + (p_min(1-p_min)+q(1-q))/(p_min-q)) log n.  The reported
    failure probability bound is 5 (p_max-q)/(p_min-q) n^(2-eta).
    """
    _require_positive("eta", eta)
    st = derived_stats(config)
    if st.n_min < 2 or config.n < 8:
        rep = ConditionReport.inapplicable(
            "min_density", f"hypotheses need n_min >= 2 and n >= 8 "
                           f"(n_min = {st.n_min}, n = {config.n})",
        )
        return RegimeCheck("hard", (rep,), satisfied=False, applicable=False,
                           binding_margin=math.nan)
    q = config.q
    noise = (st.p_min * (1.0 - st.p_min) + q * (1.0 - q)) / (st.p_min - q)
    rhs = 4.0 * (17.0 + eta) * (1.0 / 3.0 + noise) * math.log(config.n)
    rep = ConditionReport.ge("min_density", st.rho_min, rhs)
    failure_bound = 5.0 * (st.p_max - q) / (st.p_min - q) * config.n ** (2.0 - eta)
    return RegimeCheck(
        name="hard",
        reports=(rep,),
        satisfied=rep.satisfied,
        binding_margin=rep.score,
        extras={"eta": eta, "failure_prob_bound": failure_bound},
    )


def check_impossible(config: ModelConfig) -> RegimeCheck:
    """Impossibility conditions; any one satisfied means no estimator can
    exactly recover the planted partition with vanishing error."""
    st = derived_stats(config)
    n = config.n
    sizes, probs, counts = config.runs
    sizes = sizes.astype(float)
    q = config.q
    r = config.r
    in_window = bool(np.all((sizes >= 2) & (sizes <= n / math.e)))

    reports: list[ConditionReport] = []
    if in_window:
        lhs1 = 4.0 * _cluster_sum(counts, sizes**2 * chi_square_div(probs, q))
        rhs1 = 0.5 * _cluster_sum(counts, sizes * np.log(n / sizes)) - r - 2.0
        reports.append(ConditionReport.le("divergence_budget", lhs1, rhs1))
        if st.p_max >= 1.0:
            ratio_term = 0.0 if st.p_min >= 1.0 else math.inf
        else:
            ratio_term = math.log((1.0 - st.p_min) / (1.0 - st.p_max))
        mass = _cluster_sum(counts, sizes**2 * probs)
        lhs2 = 0.5 * r + ratio_term + 1.0 + mass
        rhs2 = (n / 4.0 - mass) * math.log(n) + _cluster_sum(
            counts, (sizes * probs - 0.25) * sizes * np.log(sizes)
        )
        reports.append(ConditionReport.le("likelihood_budget", lhs2, rhs2))
    else:
        note = "size-window 2 <= n_k <= n/e fails"
        reports.append(ConditionReport.inapplicable("divergence_budget", note))
        reports.append(ConditionReport.inapplicable("likelihood_budget", note))

    if n >= 128 and r >= 2:
        with np.errstate(divide="ignore"):
            rev = np.where(
                (probs > 0) & (probs < 1),
                (probs - q) ** 2 / np.where((probs > 0) & (probs < 1), probs * (1 - probs), 1.0),
                math.inf,
            )
        lhs3 = float(np.max(sizes * (chi_square_div(probs, q) + rev)))
        rhs3 = math.log(n - st.n_min) / 12.0
        reports.append(ConditionReport.le("pair_information", lhs3, rhs3))
    else:
        reports.append(ConditionReport.inapplicable(
            "pair_information", f"needs n >= 128 and r >= 2 (n = {n}, r = {r})",
        ))

    applicable = [rep for rep in reports if rep.applicable]
    satisfied = any(rep.satisfied for rep in applicable)
    binding = max((rep.score for rep in applicable), default=math.nan)
    return RegimeCheck(
        name="impossible",
        reports=tuple(reports),
        satisfied=satisfied,
        applicable=bool(applicable),
        binding_margin=float(binding),
    )


def check_simple(config: ModelConfig) -> RegimeCheck:
    """Counting-recovery conditions (explicit constants).

    Isolation: the worst cluster's degree gap (n_k-1)^2 (p_k-q)^2 must beat
    19(1-q)(max_k n_k p_k + n q) log n.  Pair separation (r >= 2): the gap
    between the smallest intra-pair and largest cross-pair common-neighbor
    means must be nonnegative and its square must beat
    26(1-q^2)(max_k n_k p_k^2 + n q^2) log n.
    """
    n = config.n
    q = config.q
    sizes, probs, _ = config.runs
    sizes = sizes.astype(float)
    log_n = math.log(n)

    lhs_iso = float(np.min((sizes - 1.0) ** 2 * (probs - q) ** 2))
    rhs_iso = 19.0 * (1.0 - q) * (float(np.max(sizes * probs)) + n * q) * log_n
    rep_iso = ConditionReport.ge("isolation_gap", lhs_iso, rhs_iso)

    if config.r >= 2:
        intra_floor = float(np.min((sizes - 2.0) * probs**2 + (n - sizes) * q**2))
        cross_peak = q * (cross_pair_peak(config) + n * q)
        bracket = intra_floor - cross_peak
        rhs_pair = 26.0 * (1.0 - q**2) * (float(np.max(sizes * probs**2)) + n * q**2) * log_n
        rep_pair = ConditionReport.ge(
            "common_neighbor_gap", bracket**2, rhs_pair, note=f"gap = {bracket!r}",
        )
        if bracket < 0.0:  # its square says nothing then: the condition fails
            rep_pair = replace(rep_pair, score=0.0, satisfied=False,
                               note=f"{rep_pair.note} is negative")
        reports = (rep_iso, rep_pair)
    else:
        reports = (rep_iso, ConditionReport.inapplicable(
            "common_neighbor_gap", "single cluster: no cross pairs"))

    satisfied = all(rep.satisfied for rep in reports if rep.applicable)
    return RegimeCheck(
        name="simple",
        reports=reports,
        satisfied=satisfied,
        binding_margin=_binding_from([rep for rep in reports if rep.applicable]),
    )


@dataclass(frozen=True)
class RegimeReport:
    """Classification of one configuration: all checks plus the regime label.

    ``contradiction`` is set when an impossibility condition co-fires with a
    positive recovery guarantee — a sign the chosen constants are too
    optimistic somewhere.
    """

    config: ModelConfig
    checks: dict[str, RegimeCheck]
    regime: str
    contradiction: bool
    params: dict
    config_id: str = ""

    def to_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "config": self.config.to_dict(),
            "params": dict(self.params),
            "regime": self.regime,
            "contradiction": self.contradiction,
            "checks": {name: chk.to_dict() for name, chk in self.checks.items()},
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


def classify(
    config: ModelConfig,
    C: float = DEFAULT_C,
    eta: float = DEFAULT_ETA,
    config_id: str = "",
) -> RegimeReport:
    """Run all five checkers and resolve the regime label.

    The checks read the config's collapsed form (``ModelConfig.collapsed``),
    the model that recovery solves; the report keeps the config as given.
    The checks dict's order is the order of the CSV columns."""
    model = config.collapsed()
    checks = {
        "easy_clusterwise": check_easy_clusterwise(model, C),
        "easy_global": check_easy_global(model, C),
        "hard": check_hard(model, eta),
        "impossible": check_impossible(model),
        "simple": check_simple(model),
    }
    # The regimes whose check is satisfied; either easy_* check grants "easy".
    granted = {name.partition("_")[0] for name, chk in checks.items() if chk.satisfied}
    return RegimeReport(
        config=config,
        checks=checks,
        regime=next((regime for regime in REGIMES if regime in granted), "unknown"),
        contradiction="impossible" in granted and len(granted) > 1,
        params={
            "C": C,
            "eta": eta,
            "alpha_grid": list(ALPHA_GRID),
            "o1_threshold": O1_THRESHOLD,
        },
        config_id=config_id,
    )


def csv_cells(report: RegimeReport) -> list[tuple[str, str]]:
    """The report's CSV line as (column, cell) pairs: the report's labels,
    then each check's verdict, binding margin and conditions, in the
    checks' order."""
    cells = [("config_id", report.config_id), ("regime", report.regime),
             ("contradiction", report.contradiction)]
    for name, chk in report.checks.items():
        cells += [(f"{name}.satisfied", chk.satisfied),
                  (f"{name}.binding_margin", chk.binding_margin)]
        for rep in chk.reports:
            base = f"{name}.{rep.condition_id}"
            cells += [(f"{base}.{key}", getattr(rep, key))
                      for key in ("lhs", "rhs", "margin", "satisfied")]
    return [(column, csv_cell(value)) for column, value in cells]
