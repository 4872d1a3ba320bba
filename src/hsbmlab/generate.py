"""Seeded sampling of adjacency and partially observed matrices.

Randomness discipline
---------------------
All sampling uses the counter-based Philox generator keyed by
``(seed, stream)``: the key is the 128-bit integer ``seed + stream * 2**64``.
Stream 0 drives edge indicators, stream 1 drives observation indicators, and
stream 2 is reserved for algorithmic randomness (e.g. local-search restarts).
Within a stream, draw m is consumed by upper-triangle pair index m (row-major
order of pairs (i, j) with i < j), so every entry is a pure function of
(seed, stream, pair index).  This makes sampling bit-reproducible regardless
of how work is later split across processes, and couples the adjacency and
its observation mask: ``sample_observed(cfg, part, s)`` masks exactly the
matrix returned by ``sample_adjacency(cfg, part, s)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ModelConfig, Partition

STREAM_EDGES = 0
STREAM_OBSERVATION = 1
STREAM_ALGORITHM = 2


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for the given (seed, stream) key."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    key = int(seed) + (int(stream) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _upper_triangle_uniforms(n: int, seed: int, stream: int) -> np.ndarray:
    return stream_rng(seed, stream).random(n * (n - 1) // 2)


def _pair_probabilities(config: ModelConfig, partition: Partition) -> np.ndarray:
    """Upper-triangle vector of edge probabilities (p_k within cluster k, q
    elsewhere), without the observation rate."""
    labels = partition.labels
    p_of_label = np.full(max(int(labels.max()) if labels.size else 0, config.r) + 1,
                         config.q)
    p_of_label[1 : config.r + 1] = config.probs
    iu = np.triu_indices(config.n, k=1)
    li, lj = labels[iu[0]], labels[iu[1]]
    probs = np.where((li == lj) & (li != 0), p_of_label[li], config.q)
    return probs


def _check_partition(config: ModelConfig, partition: Partition) -> None:
    if partition.n != config.n:
        raise ConfigError(
            f"partition covers {partition.n} nodes but config has n = {config.n}"
        )
    got = partition.cluster_sizes()
    want: dict[int, int] = {k: int(s) for k, s in enumerate(config.sizes, start=1)}
    if got != want:
        raise ConfigError(
            f"partition cluster sizes {got} do not match config sizes {want}"
        )
    if int(partition.labels.max(initial=0)) > config.r:
        raise ConfigError("partition uses labels beyond the config's clusters")


def _symmetrize_from_upper(n: int, upper: np.ndarray, dtype=np.int8) -> np.ndarray:
    m = np.zeros((n, n), dtype=dtype)
    iu = np.triu_indices(n, k=1)
    m[iu] = upper
    m += m.T
    return m


@dataclass(frozen=True, eq=False)
class Adjacency:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(m) != 0):
            raise ValueError("adjacency must have zero diagonal")
        if not np.isin(m, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def as_matrix(A: Adjacency | np.ndarray) -> np.ndarray:
    """The matrix of an Adjacency, or the array itself, uncast."""
    return A.matrix if isinstance(A, Adjacency) else np.asarray(A)


UNOBSERVED = -1


@dataclass(frozen=True, eq=False)
class ObservedMatrix:
    """Symmetric ternary matrix: 1 observed-edge, 0 observed-nonedge,
    -1 unobserved. Diagonal is zero."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"observed matrix must be square, got shape {v.shape}")
        if not np.array_equal(v, v.T):
            raise ValueError("observed matrix must be symmetric")
        if np.any(np.diag(v) != 0):
            raise ValueError("observed matrix must have zero diagonal")
        if not np.isin(v, (UNOBSERVED, 0, 1)).all():
            raise ValueError("observed entries must be -1, 0 or 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_adjacency(self, unobserved_as: int = 0) -> Adjacency:
        """Collapse to a 0/1 adjacency, mapping unobserved pairs to 0 or 1."""
        if unobserved_as not in (0, 1):
            raise ValueError("unobserved_as must be 0 or 1")
        m = np.where(self.values == UNOBSERVED, unobserved_as, self.values)
        np.fill_diagonal(m, 0)
        return Adjacency(m.astype(np.int8))


def sample_adjacency(config: ModelConfig, partition: Partition, seed: int) -> Adjacency:
    """Draw one fully observed adjacency matrix (the observation rate is
    ignored here; see sample_observed)."""
    _check_partition(config, partition)
    probs = _pair_probabilities(config, partition)
    u = _upper_triangle_uniforms(config.n, seed, STREAM_EDGES)
    edges = (u < probs).astype(np.int8)
    return Adjacency(_symmetrize_from_upper(config.n, edges))


def sample_observed(config: ModelConfig, partition: Partition, seed: int) -> ObservedMatrix:
    """Draw the (adjacency, mask) coupled pair: stream 0 decides edges exactly
    as sample_adjacency does, stream 1 reveals each pair with probability
    gamma."""
    _check_partition(config, partition)
    probs = _pair_probabilities(config, partition)
    u_edge = _upper_triangle_uniforms(config.n, seed, STREAM_EDGES)
    edges = (u_edge < probs).astype(np.int8)
    if config.gamma >= 1.0:
        observed = np.ones_like(edges, dtype=bool)
    else:
        u_obs = _upper_triangle_uniforms(config.n, seed, STREAM_OBSERVATION)
        observed = u_obs < config.gamma
    upper = np.where(observed, edges, np.int8(UNOBSERVED))
    return ObservedMatrix(_symmetrize_from_upper(config.n, upper))


def expected_adjacency(config: ModelConfig, partition: Partition) -> np.ndarray:
    """Mean of the collapsed (unobserved -> 0) matrix: gamma*p_k within
    cluster k, gamma*q elsewhere, zero diagonal."""
    _check_partition(config, partition)
    probs = config.gamma * _pair_probabilities(config, partition)
    return _symmetrize_from_upper(config.n, probs, dtype=float)
