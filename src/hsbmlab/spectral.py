"""Concentration bound for centered adjacency matrices.

``block_split_bound`` bounds ||A - E[A]|| by treating the diagonal cluster
blocks and the ambient remainder separately:
max_i sqrt(p_i (1-p_i) n_i) + sqrt(max(q (1-q) n, log n)).  The bench that
compares it with the norms of seeded draws,
``harness.concentration_experiment``, lives with the one draw of a config.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelConfig


def block_split_bound(config: ModelConfig) -> float:
    """Cluster-blocks-plus-ambient bound on ||A - E[A]||:
    max_i sqrt(p_i (1-p_i) n_i) + sqrt(max(q (1-q) n, log n))."""
    sizes, probs, _ = config.runs
    q = config.q
    block_term = float(np.sqrt(probs * (1.0 - probs) * sizes).max())
    ambient = max(q * (1.0 - q) * config.n, math.log(config.n))
    return block_term + math.sqrt(ambient)
