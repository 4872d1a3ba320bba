"""Parametric preset configurations (scenario families 1-6).

Each preset instantiates, at a concrete n, one of six asymptotic scenario
templates that probe different corners of the recoverability landscape:

1. A giant sparse cluster plus one sqrt(n)-sized denser cluster, with the
   ambient rate just below the giant's density — worst-case (p_min, n_min)
   summaries are useless here, yet the search estimator works.
2. A giant mildly sparse cluster plus n^(1/6) clusters of size sqrt(n) —
   comfortably recoverable by the convex program.
3. A handful of very small ultra-dense clusters plus ~sqrt(n) clusters of
   size ~sqrt(n) — exercises the per-cluster (clusterwise) conditions.
4. Many dense clusters of size ~n^eps/2 plus one cluster holding half the
   graph — a three-exponent family (eps, alpha, beta) with a known
   feasibility region.
5. Many dense clusters of size ~log n plus m clusters of size
   ~sqrt(n log n) at the edge of connectivity — exercises the global
   conditions with a wide size spread.
6. All probabilities of constant order with p_min - q shrinking — fully
   schematic; every quantity must be supplied explicitly.

The overridable named constants are the probability and ambient-rate
levels (p1, c, c2, c_q), the exponents of families 2 and 4 (eps, alpha,
beta) and the cluster counts m of families 3 and 5; family 6 takes every
quantity as a constant.  The other size and count coefficients are fixed
at 1: family 1 takes no constants at all; family 2's n^(1/6) count and
sqrt(n) size, family 3's ceil(sqrt(log n)) tiny-cluster size and sqrt(n)
medium-cluster count, family 4's n/2 giant size and n^(1-eps) small-cluster
count, and family 5's log n small-cluster size and sqrt(n log n)
large-cluster size have none.  Unspecified coefficient levels default to
1.0, except probability-valued O(1) levels which default to 0.95 so that
variances stay nonzero.  Fractional sizes are
resolved by spreading the remainder over equal-size groups (sizes differ by
at most one), keeping the total exactly n.  Presets build their clusters as
(size, p, count) runs, so building and classifying one costs the same at
n = 10^12 as at 10^4, however many clusters it has.
"""

from __future__ import annotations

import math
import warnings

from .model import ConfigError, ModelConfig

EXAMPLE_IDS = (1, 2, 3, 4, 5, 6)


def _spread(total: int, parts: int) -> list[tuple[int, int]]:
    """Split total into `parts` integer sizes differing by at most one, as
    two (size, count) runs, larger size first; the first count may be 0."""
    if parts < 1 or total < parts:
        raise ConfigError(f"cannot spread {total} nodes over {parts} clusters")
    base, extra = divmod(total, parts)
    return [(base + 1, extra), (base, parts - extra)]


def _take(constants: dict, defaults: dict, example_id: int) -> dict:
    unknown = set(constants) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown constants {sorted(unknown)} for example {example_id}; "
            f"known: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(constants)
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise ConfigError(
            f"example {example_id} requires explicit constants {sorted(missing)}"
        )
    return merged


def _build(example_id: int, n: int, runs, q: float) -> ModelConfig:
    """Config from (size, p, count) runs, in cluster order."""
    try:
        sizes, probs, counts = zip(*runs)
        return ModelConfig.from_runs(n, sizes, probs, counts, q)
    except ConfigError as exc:
        raise ConfigError(f"example {example_id} infeasible at n = {n}: {exc}") from exc


def _example1(n: int, constants: dict) -> ModelConfig:
    _take(constants, {}, 1)
    if n < 9:
        raise ConfigError(f"example 1 needs n >= 9, got {n}")
    s2 = round(math.sqrt(n))
    p1 = n ** (-2.0 / 3.0)
    p2 = 1.0 / math.log(n)
    q = n ** (-2.0 / 3.0 - 0.01)
    return _build(1, n, [(n - s2, p1, 1), (s2, p2, 1)], q)


def _example2(n: int, constants: dict) -> ModelConfig:
    c = _take(constants, {"eps": 0.1, "c": 1.0}, 2)
    eps = c["eps"]
    if not 0.0 < eps < 1.0 / 6.0:
        raise ConfigError(f"example 2 needs eps in (0, 1/6), got {eps}")
    k2 = round(n ** (1.0 / 6.0))
    s2 = round(math.sqrt(n))
    n1 = n - k2 * s2
    p1 = n ** (-1.0 / 3.0 + eps)
    p2 = c["c"] / math.log(n)
    q = n ** (-2.0 / 3.0 + 3.0 * eps)
    if n1 < 1:
        raise ConfigError(f"example 2 infeasible at n = {n}: giant cluster empty")
    return _build(2, n, [(n1, p1, 1), (s2, p2, k2)], q)


def _example3(n: int, constants: dict) -> ModelConfig:
    c = _take(constants, {"m": 2, "p1": 0.95, "c2": 1.0, "c_q": 1.0}, 3)
    m = int(c["m"])
    if m < 1:
        raise ConfigError(f"example 3 needs m >= 1, got {m}")
    log_n = math.log(n)
    if m > n / (2.0 * math.sqrt(log_n)):
        warnings.warn(
            f"example 3: m = {m} exceeds n/(2 sqrt(log n)); the medium "
            "clusters shrink below sqrt(n)/2 and the template degrades"
        )
    if m > log_n**2:
        warnings.warn(
            f"example 3: m = {m} is not polylogarithmic-small for n = {n}; "
            "the tiny clusters are only recoverable when there are few of them"
        )
    s1 = math.ceil(math.sqrt(log_n))
    k2 = round(math.sqrt(n))
    p2 = c["c2"] * log_n / math.sqrt(n)
    q = c["c_q"] * log_n / n
    medium = _spread(n - m * s1, k2)
    return _build(3, n, [(s1, c["p1"], m)] + [(s, p2, k) for s, k in medium], q)


def _example4(n: int, constants: dict) -> ModelConfig:
    c = _take(constants, {"eps": 0.4, "alpha": 0.3, "beta": 0.8,
                          "p1": 0.95, "c_q": 1.0}, 4)
    eps, alpha, beta = c["eps"], c["alpha"], c["beta"]
    if not (0.0 < eps < 1.0 and 0.0 < alpha < beta < 1.0):
        raise ConfigError(
            f"example 4 needs 0 < eps < 1 and 0 < alpha < beta < 1, got "
            f"eps={eps}, alpha={alpha}, beta={beta}"
        )
    if not (0.5 * (1.0 - alpha) < eps < 2.0 * (1.0 - alpha) and eps > 2.0 * alpha - beta):
        warnings.warn(
            f"example 4: (eps, alpha, beta) = ({eps}, {alpha}, {beta}) lies "
            "outside the recoverability region (1-alpha)/2 < eps < 2(1-alpha), "
            "eps > 2 alpha - beta; the convex conditions will eventually fail"
        )
    n_big = round(n / 2.0)
    k_small = round(n ** (1.0 - eps))
    p_big = math.log(n) / n**alpha
    q = c["c_q"] * math.log(n) / n**beta
    small = _spread(n - n_big, k_small)
    return _build(4, n, [(s, c["p1"], k) for s, k in small] + [(n_big, p_big, 1)], q)


def _example5(n: int, constants: dict) -> ModelConfig:
    c = _take(constants, {"m": 1, "p1": 0.95, "c2": 1.0, "c_q": 1.0}, 5)
    m = int(c["m"])
    if m < 1:
        raise ConfigError(f"example 5 needs m >= 1, got {m}")
    log_n = math.log(n)
    s_big = round(math.sqrt(n * log_n))
    rest = n - m * s_big
    k1 = round(rest / log_n)
    p_big = c["c2"] * math.sqrt(log_n / n)
    q = c["c_q"] * log_n / n
    if rest < k1 or k1 < 1:
        raise ConfigError(f"example 5 infeasible at n = {n}")
    small = _spread(rest, k1)
    return _build(5, n, [(s, c["p1"], k) for s, k in small] + [(s_big, p_big, m)], q)


def _example6(n: int, constants: dict) -> ModelConfig:
    required = {"q": None, "p_min": None, "p2": None, "p3": None,
                "n_min": None, "n3": None, "k3": None}
    c = _take(constants, required, 6)
    n_min, n3, k3 = int(c["n_min"]), int(c["n3"]), int(c["k3"])
    p_min, p2, p3, q = c["p_min"], c["p2"], c["p3"], c["q"]
    if p_min > min(p2, p3):
        raise ConfigError(
            f"example 6 needs p_min <= min(p2, p3), got {p_min} vs ({p2}, {p3})"
        )
    n1 = n - n_min - k3 * n3
    if n1 < n_min:
        raise ConfigError(
            f"example 6 needs the leading cluster to dominate: n1 = {n1} < "
            f"n_min = {n_min}"
        )
    return _build(6, n, [(n1, p_min, 1), (n_min, p2, 1), (n3, p3, k3)], q)


def example6_reference_constants(n: int) -> dict:
    """One concrete instantiation of the schematic family 6: ambient 0.3,
    two secondary clusters of size ~n^0.55 at 0.7, and the leading cluster
    at p_min = 0.3 + (log n / n)^(1/4) — inside the regime where both the
    search and (eventually) the convex conditions activate."""
    if n < 2:
        raise ConfigError(f"n must be >= 2, got {n}")
    side = round(n**0.55)
    f = (math.log(n) / n) ** 0.25
    return {"q": 0.3, "p_min": 0.3 + f, "p2": 0.7, "p3": 0.7,
            "n_min": side, "n3": side, "k3": 1}


_BUILDERS = {1: _example1, 2: _example2, 3: _example3,
             4: _example4, 5: _example5, 6: _example6}


def example_config(example_id: int, n: int, constants: dict | None = None) -> ModelConfig:
    """Instantiate scenario preset `example_id` (1-6) at n nodes.

    `constants` overrides the preset's named coefficients; family 6 is fully
    schematic and requires all of them (see example6_reference_constants for
    a ready-made choice).  Raises ConfigError when the requested n cannot
    realize the template (probabilities outside [0, 1], empty clusters,
    ambient rate not below every cluster's rate).
    """
    if example_id not in _BUILDERS:
        raise ConfigError(f"example_id must be one of {EXAMPLE_IDS}, got {example_id}")
    if n < 2:
        raise ConfigError(f"n must be >= 2, got {n}")
    return _BUILDERS[example_id](int(n), dict(constants or {}))
