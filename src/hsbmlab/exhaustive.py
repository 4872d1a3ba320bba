"""Exhaustive combinatorial recovery and a label-swap local search.

The combinatorial estimator scans every partition of the node set into
clusters of the prescribed sizes (plus the leftover isolated set) and keeps
the one maximizing the within-cluster edge mass.  The search space explodes
combinatorially, so enumeration is guarded to n <= MAX_EXHAUSTIVE_N; the
local search scales further but only guarantees a local optimum.

Clusters of equal size are interchangeable for the edge-mass objective, so
enumeration emits one canonical representative per unordered choice: among
equal-size clusters, labels are assigned in increasing order of each
cluster's smallest member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .generate import STREAM_ALGORITHM, Adjacency, as_matrix, stream_rng
from .model import ConfigError, ModelConfig, Partition

MAX_EXHAUSTIVE_N = 14


def partition_count(config: ModelConfig) -> int:
    """Number of distinct ways to place the prescribed clusters in [n]:
    n! / ((n - n_bar)! * prod_k n_k!) divided by prod over repeated sizes
    (equal-size clusters are unordered)."""
    total = math.factorial(config.n)
    total //= math.factorial(config.n0)
    mult: dict[int, int] = {}
    for s in config.sizes.tolist():
        total //= math.factorial(s)
        mult[s] = mult.get(s, 0) + 1
    for count in mult.values():
        total //= math.factorial(count)
    return total


def _log10_partition_count(config: ModelConfig) -> float:
    """log10 of partition_count via lgamma, safe for astronomically large n."""
    total = math.lgamma(config.n + 1) - math.lgamma(config.n0 + 1)
    mult: dict[int, int] = {}
    for s in config.sizes.tolist():
        total -= math.lgamma(s + 1)
        mult[s] = mult.get(s, 0) + 1
    for count in mult.values():
        total -= math.lgamma(count + 1)
    return total / math.log(10.0)


def enumerate_partitions(config: ModelConfig):
    """Yield every admissible partition exactly once, canonically ordered.

    Guarded to n <= MAX_EXHAUSTIVE_N.  Labels follow the configuration's
    cluster order; among equal-size clusters the smallest members increase
    with the label, which deduplicates exchangeable assignments.
    """
    n = config.n
    if n > MAX_EXHAUSTIVE_N:
        raise ConfigError(
            f"exhaustive enumeration is limited to n <= {MAX_EXHAUSTIVE_N}, "
            f"got n = {n} (around 10^{_log10_partition_count(config):.1f} "
            f"admissible partitions)"
        )
    sizes = config.sizes.tolist()
    labels = np.zeros(n, dtype=np.int32)

    def place(remaining: tuple[int, ...], k: int, prev_size: int, prev_min: int):
        if k == len(sizes):
            yield labels.copy()
            return
        size = sizes[k]
        for members in itertools.combinations(remaining, size):
            if size == prev_size and members[0] <= prev_min:
                continue
            labels[list(members)] = k + 1
            rest = tuple(x for x in remaining if x not in members)
            yield from place(rest, k + 1, size, members[0])
            labels[list(members)] = 0

    for lab in place(tuple(range(n)), 0, -1, -1):
        yield Partition(lab)


def objective(A: Adjacency | np.ndarray, partition: Partition) -> int:
    """Within-cluster edge mass: sum over clusters of the ordered-pair
    adjacency total (twice the number of within-cluster edges)."""
    m = as_matrix(A)
    labels = partition.labels
    total = 0
    for label in np.unique(labels):
        if label == 0:
            continue
        members = np.flatnonzero(labels == label)
        total += int(m[np.ix_(members, members)].sum())
    return total


def log_likelihood(A: Adjacency | np.ndarray, partition: Partition,
                   config: ModelConfig) -> float:
    """Exact Bernoulli log-likelihood of the adjacency matrix under the
    partition: within cluster k each pair is Bernoulli(p_k), every other
    pair (cross-cluster or touching an isolated node) is Bernoulli(q).

    Returns -inf when an observed pattern has probability zero (e.g. a
    missing edge inside a p_k = 1 cluster).  Requires 0 < q < 1.
    """
    if not 0.0 < config.q < 1.0:
        raise ValueError(f"log-likelihood needs q in (0, 1), got {config.q}")
    m = as_matrix(A)
    n = m.shape[0]
    labels = partition.labels
    pair_total = n * (n - 1) // 2
    edge_total = int(m.sum()) // 2

    def term(edges: int, pairs: int, p: float) -> float:
        out = 0.0
        if edges:
            if p == 0.0:
                return -math.inf
            out += edges * math.log(p)
        holes = pairs - edges
        if holes:
            if p == 1.0:
                return -math.inf
            out += holes * math.log(1.0 - p)
        return out

    ll = 0.0
    within_edges = 0
    within_pairs = 0
    for k in range(1, config.r + 1):
        members = np.flatnonzero(labels == k)
        e_k = int(m[np.ix_(members, members)].sum()) // 2
        pairs_k = len(members) * (len(members) - 1) // 2
        ll += term(e_k, pairs_k, float(config.probs[k - 1]))
        within_edges += e_k
        within_pairs += pairs_k
    ll += term(edge_total - within_edges, pair_total - within_pairs, config.q)
    return ll


@dataclass(frozen=True, eq=False)
class ExhaustiveResult:
    """Outcome of the full scan: the canonical-first maximizer, the number
    of tied maximizers (with up to tie_cap of them kept), and the search
    size."""

    partition: Partition
    objective: int
    tie_count: int
    ties: tuple[Partition, ...]
    tie_cap: int
    partitions_examined: int

    @property
    def unique(self) -> bool:
        return self.tie_count == 1


def solve_exhaustive(
    A: Adjacency | np.ndarray,
    config: ModelConfig,
    tie_cap: int = 64,
) -> ExhaustiveResult:
    """Scan all admissible partitions for the maximal within-cluster edge
    mass.  Deterministic: the returned partition is the first maximizer in
    canonical enumeration order."""
    m = as_matrix(A)
    if m.shape[0] != config.n:
        raise ConfigError(
            f"adjacency has {m.shape[0]} nodes but config has n = {config.n}"
        )
    best_val = -1
    ties: list[Partition] = []
    tie_count = 0
    examined = 0
    for part in enumerate_partitions(config):
        examined += 1
        val = objective(m, part)
        if val > best_val:
            best_val = val
            ties = [part]
            tie_count = 1
        elif val == best_val:
            tie_count += 1
            if len(ties) < tie_cap:
                ties.append(part)
    return ExhaustiveResult(
        partition=ties[0],
        objective=int(best_val),
        tie_count=tie_count,
        ties=tuple(ties),
        tie_cap=tie_cap,
        partitions_examined=examined,
    )


@dataclass(frozen=True, eq=False)
class LocalSearchResult:
    partition: Partition
    objective: int
    restarts: int
    best_restart: int
    swaps: int


def _hill_climb(m: np.ndarray, labels: np.ndarray, r: int) -> tuple[np.ndarray, int]:
    """Best-improvement label-swap ascent on the within-cluster edge mass.

    D[x, g] caches node x's adjacency mass into label group g; swapping the
    labels of u and v changes the (unordered) mass by
    (D[v,a] - D[u,a] - A_uv)[a>0] + (D[u,b] - D[v,b] - A_uv)[b>0].
    """
    n = m.shape[0]
    onehot = np.zeros((n, r + 1))
    onehot[np.arange(n), labels] = 1.0
    D = m @ onehot
    swaps = 0
    while True:
        best_gain = 0.0
        best_pair = None
        for u in range(n):
            a = labels[u]
            for v in range(u + 1, n):
                b = labels[v]
                if a == b:
                    continue
                gain = 0.0
                if a != 0:
                    gain += D[v, a] - D[u, a] - m[u, v]
                if b != 0:
                    gain += D[u, b] - D[v, b] - m[u, v]
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_pair = (u, v)
        if best_pair is None:
            return labels, swaps
        u, v = best_pair
        a, b = labels[u], labels[v]
        labels[u], labels[v] = b, a
        D[:, a] += m[:, v] - m[:, u]
        D[:, b] += m[:, u] - m[:, v]
        swaps += 1


def local_search(
    A: Adjacency | np.ndarray,
    config: ModelConfig,
    seed: int,
    restarts: int = 10,
) -> LocalSearchResult:
    """Randomly seeded best-improvement swap search; keeps the best local
    optimum over the given number of restarts.  Deterministic under seed."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    m = as_matrix(A).astype(float)
    n = m.shape[0]
    if n != config.n:
        raise ConfigError(f"adjacency has {n} nodes but config has n = {config.n}")
    rng = stream_rng(seed, STREAM_ALGORITHM)
    template = np.zeros(n, dtype=np.int64)
    pos = 0
    for k, s in enumerate(config.sizes.tolist(), start=1):
        template[pos : pos + s] = k
        pos += s
    best_labels = None
    best_val = -1
    best_restart = 0
    total_swaps = 0
    for restart in range(restarts):
        labels = template[rng.permutation(n)].copy()
        labels, swaps = _hill_climb(m, labels, config.r)
        total_swaps += swaps
        val = objective(m, Partition(labels))
        if val > best_val:
            best_val = val
            best_labels = labels
            best_restart = restart
    return LocalSearchResult(
        partition=Partition(best_labels),
        objective=int(best_val),
        restarts=restarts,
        best_restart=best_restart,
        swaps=total_swaps,
    )
