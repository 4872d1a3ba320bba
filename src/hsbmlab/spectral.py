"""Spectral norms and concentration bounds for centered adjacency
matrices.

``block_split_bound`` bounds ||A - E[A]|| by treating the diagonal cluster
blocks and the ambient remainder separately:
max_i sqrt(p_i (1-p_i) n_i) + sqrt(max(q (1-q) n, log n)).  The bench
samples centered adjacencies and reports the empirical norm-to-bound
ratios, each norm the largest |eigenvalue| from one dense ``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generate import expected_adjacency, sample_observed
from .model import ConfigError, ModelConfig


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

    Trial i is the graph that ``generate``, ``recover`` and ``montecarlo``
    draw for seed + i: ``sample_observed`` with unobserved pairs mapped to
    zero.  Its expectation and the bound are those of the collapsed config
    (p -> gamma p, q -> gamma q), the model of that matrix.  The experiment
    is reproducible and order-independent.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    collapsed = config.collapsed()
    partition = collapsed.planted_partition()
    expected = expected_adjacency(collapsed, partition)
    bound = block_split_bound(collapsed)
    norms = np.empty(trials)
    for i in range(trials):
        adj = sample_observed(config, partition, seed + i).to_adjacency(unobserved_as=0)
        centered = adj.matrix.astype(float) - expected
        norms[i] = np.abs(np.linalg.eigvalsh(centered)).max()
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
