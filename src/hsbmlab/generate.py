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
    """Philox generator for the given (seed, stream) key.  A seed outside
    [0, 2**64) is a ConfigError: it would spill into the stream's bits, so
    seed 2**64 would draw stream 1 of seed 0."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed}")
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


def _check_graph_matrix(m: np.ndarray, name: str, allowed: tuple[int, ...],
                        entries_message: str) -> None:
    """Refuse a matrix that is not square, symmetric and zero on the
    diagonal with entries in `allowed`."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError(f"{name} must be symmetric")
    if np.any(np.diag(m) != 0):
        raise ValueError(f"{name} must have zero diagonal")
    if not np.isin(m, allowed).all():
        raise ValueError(entries_message)


@dataclass(frozen=True, eq=False)
class Adjacency:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_graph_matrix(self.matrix, "adjacency", (0, 1),
                            "adjacency entries must be 0 or 1")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def check_node_count(nodes: int, n: int) -> None:
    """Refuse a graph of the given node count for a config of n nodes."""
    if nodes != n:
        raise ConfigError(f"adjacency has {nodes} nodes but config has n = {n}")


def config_matrix(A: Adjacency, config: ModelConfig) -> np.ndarray:
    """A's matrix, refusing a graph whose node count is not config.n."""
    check_node_count(A.n, config.n)
    return A.matrix


UNOBSERVED = -1


@dataclass(frozen=True, eq=False)
class ObservedMatrix:
    """Symmetric ternary matrix: 1 observed-edge, 0 observed-nonedge,
    -1 unobserved. Diagonal is zero."""

    values: np.ndarray

    def __post_init__(self) -> None:
        _check_graph_matrix(self.values, "observed matrix", (UNOBSERVED, 0, 1),
                            "observed entries must be -1, 0 or 1")

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


def _sample_edges(config: ModelConfig, partition: Partition, seed: int) -> np.ndarray:
    """Upper-triangle 0/1 edge indicators drawn from stream 0."""
    _check_partition(config, partition)
    u = _upper_triangle_uniforms(config.n, seed, STREAM_EDGES)
    return (u < _pair_probabilities(config, partition)).astype(np.int8)


def sample_adjacency(config: ModelConfig, partition: Partition, seed: int) -> Adjacency:
    """Draw one fully observed adjacency matrix (the observation rate is
    ignored here; see sample_observed)."""
    edges = _sample_edges(config, partition, seed)
    return Adjacency(_symmetrize_from_upper(config.n, edges))


def sample_observed(config: ModelConfig, partition: Partition, seed: int) -> ObservedMatrix:
    """Draw the (adjacency, mask) coupled pair: stream 0 decides edges exactly
    as sample_adjacency does, stream 1 reveals each pair with probability
    gamma (every pair at gamma = 1, since each uniform is below 1)."""
    edges = _sample_edges(config, partition, seed)
    observed = _upper_triangle_uniforms(config.n, seed, STREAM_OBSERVATION) < config.gamma
    upper = np.where(observed, edges, np.int8(UNOBSERVED))
    return ObservedMatrix(_symmetrize_from_upper(config.n, upper))


def expected_adjacency(config: ModelConfig, partition: Partition) -> np.ndarray:
    """Mean of the collapsed (unobserved -> 0) matrix: gamma*p_k within
    cluster k, gamma*q elsewhere, zero diagonal."""
    _check_partition(config, partition)
    probs = config.gamma * _pair_probabilities(config, partition)
    return _symmetrize_from_upper(config.n, probs, dtype=float)
