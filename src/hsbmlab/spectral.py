"""Spectral-norm estimation and concentration bounds for centered
adjacency matrices.

``block_split_bound`` bounds ||A - E[A]|| by treating the diagonal cluster
blocks and the ambient remainder separately:
max_i sqrt(p_i (1-p_i) n_i) + sqrt(max(q (1-q) n, log n)).  The bench
samples centered adjacencies and reports the empirical norm-to-bound
ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generate import (
    STREAM_ALGORITHM,
    expected_adjacency,
    sample_adjacency,
    stream_rng,
)
from .model import ConfigError, ModelConfig

BENCH_REL_TOL = 1e-8


class SpectralNormError(RuntimeError):
    """Power iteration did not stabilize; carries the best estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def spectral_norm(
    M: np.ndarray,
    rel_tol: float = 1e-10,
    seed: int = 0,
    max_iter: int = 5000,
) -> float:
    """Largest |eigenvalue| of a symmetric matrix by power iteration.

    Tracks the magnitude ||M x|| of the normalized iterate, which converges
    to the spectral norm even when the extreme eigenvalues come in +/-
    pairs; stops once the relative change stays below rel_tol for three
    consecutive iterations.  Deterministic under seed.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.array_equal(M, M.T):
        raise ValueError("matrix must be exactly symmetric")
    if not np.isfinite(M).all():
        raise ValueError("matrix must be finite")
    n = M.shape[0]
    rng = stream_rng(seed, STREAM_ALGORITHM)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    estimate = 0.0
    stable = 0
    for _ in range(max_iter):
        y = M @ x
        new_estimate = float(np.linalg.norm(y))
        if new_estimate == 0.0:
            return 0.0
        if abs(new_estimate - estimate) <= rel_tol * new_estimate:
            stable += 1
            if stable >= 3:
                return new_estimate
        else:
            stable = 0
        estimate = new_estimate
        x = y / new_estimate
    raise SpectralNormError(
        f"no convergence to rel_tol {rel_tol} within {max_iter} iterations",
        estimate,
    )


def block_split_bound(config: ModelConfig) -> float:
    """Cluster-blocks-plus-ambient bound on ||A - E[A]||:
    max_i sqrt(p_i (1-p_i) n_i) + sqrt(max(q (1-q) n, log n))."""
    sizes = config.sizes.astype(float)
    probs = config.probs
    q = config.q
    block_term = float(np.sqrt(probs * (1.0 - probs) * sizes).max())
    ambient = max(q * (1.0 - q) * config.n, math.log(config.n))
    return block_term + math.sqrt(ambient)


@dataclass(frozen=True, eq=False)
class ConcentrationStats:
    """Empirical ||A - E[A]|| / bound ratios over seeded trials."""

    trials: int
    bound: float
    norms: np.ndarray
    ratios: np.ndarray
    min_ratio: float
    mean_ratio: float
    max_ratio: float

    def rows(self) -> list[dict]:
        """Per-trial records for CSV emission."""
        return [
            {"trial": i, "norm": float(self.norms[i]), "bound": self.bound,
             "ratio": float(self.ratios[i])}
            for i in range(self.trials)
        ]


def concentration_experiment(
    config: ModelConfig,
    trials: int,
    seed: int,
) -> ConcentrationStats:
    """Sample centered adjacencies and report spectral-norm-to-bound ratios.

    The observation rate is folded in first (p -> gamma p, q -> gamma q),
    matching estimators that map unobserved entries to zero.  Trial i uses
    seed + i, so the experiment is reproducible and order-independent.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    collapsed = config.collapsed()
    partition = collapsed.planted_partition()
    expected = expected_adjacency(collapsed, partition)
    bound = block_split_bound(collapsed)
    norms = np.empty(trials)
    for i in range(trials):
        adj = sample_adjacency(collapsed, partition, seed + i)
        centered = adj.matrix.astype(float) - expected
        norms[i] = spectral_norm(centered, rel_tol=BENCH_REL_TOL, seed=seed + i)
    ratios = norms / bound
    return ConcentrationStats(
        trials=trials,
        bound=bound,
        norms=norms,
        ratios=ratios,
        min_ratio=float(ratios.min()),
        mean_ratio=float(ratios.mean()),
        max_ratio=float(ratios.max()),
    )
