"""Counting-based recovery: classify nodes by degree, link them by
common-neighbor counts.

In the densest ("simple") regime two elementary statistics separate
cleanly: an isolated node's degree concentrates near (n-1) q while a
clustered node's degree gains at least (n_min - 1)(p - q) on top, so a
threshold halfway up the worst-case gap classifies nodes; and for two
non-isolated nodes the number of common neighbors (entry of A^2)
concentrates near different means for same-cluster and cross-cluster
pairs, so the midpoint threshold links exactly the same-cluster pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .exhaustive import objective
from .generate import Adjacency, config_matrix
from .model import (
    ModelConfig,
    Partition,
    Recovery,
    clique_components,
    cross_pair_peak,
    size_mismatch,
)


def isolated_threshold(config: ModelConfig) -> float:
    """Degree cutoff between isolated and clustered nodes:
    min_k (n_k - 1)(p_k - q) / 2 + (n - 1) q.  Nodes with degree strictly
    below are declared isolated."""
    sizes = config.sizes.astype(float)
    gap = float(np.min((sizes - 1.0) * (config.probs - config.q)))
    return gap / 2.0 + (config.n - 1.0) * config.q


def pair_threshold(config: ModelConfig) -> float:
    """Common-neighbor cutoff between same-cluster and cross-cluster pairs:

        n q^2 + (min_k ((n_k - 2) p_k^2 - n_k q^2)
                 + q max_{k != l} (b_k + b_l)) / 2

    with b_k = rho_k - p_k.  For a single cluster there are no cross pairs
    and the cross term is dropped.  Pairs with strictly more common
    neighbors are linked.
    """
    n = config.n
    q = config.q
    sizes = config.sizes.astype(float)
    intra_floor = float(np.min((sizes - 2.0) * config.probs**2 - sizes * q**2))
    cross = q * cross_pair_peak(config) if config.r >= 2 else 0.0
    return n * q**2 + (intra_floor + cross) / 2.0


def recover_counting(A: Adjacency, config: ModelConfig) -> Recovery:
    """Classify nodes by degree, link surviving pairs by common-neighbor
    count, read clusters off the link graph.

    The link relation restricted to non-isolated nodes must consist of
    disjoint cliques whose sizes match the configuration; otherwise the
    Recovery is a "counting" failure, its detail starting "not_clique: " or
    "size_mismatch: ", with a NaN objective.  On success the objective is
    the partition's within-cluster edge mass.
    """
    # float64 holds 0/1 sums and common-neighbor counts (< 2^53) exactly,
    # and keeps the matrix product on the fast dense path.
    m = config_matrix(A, config).astype(np.float64)
    n = m.shape[0]
    clustered = m.sum(axis=1) >= isolated_threshold(config)
    # Neither n x n float array outlives the link matrix, so that reading
    # the components does not hold them too.
    link = (m @ m > pair_threshold(config)) & clustered[:, None] & clustered[None, :]
    del m
    link &= ~np.eye(n, dtype=bool)

    labels, flaw = clique_components(link, keep=clustered)
    if flaw is not None:
        size, missing = flaw
        return Recovery(None, "counting", f"not_clique: component of {size} "
                        f"nodes is missing {missing} links", math.nan)
    partition = Partition(labels)
    mismatch = size_mismatch(partition, config)
    if mismatch:
        return Recovery(None, "counting", mismatch, math.nan)
    return Recovery(partition, "none", "", float(objective(A, partition)))
