"""Exhaustive combinatorial recovery and a label-swap local search.

The combinatorial estimator scans every partition of the node set into
clusters of the prescribed sizes (plus the leftover isolated set) and keeps
the one maximizing the within-cluster edge mass.  The search space explodes
combinatorially, so enumeration is guarded to n <= MAX_EXHAUSTIVE_N; the
local search scales further but only guarantees a local optimum.

Clusters of equal size are interchangeable for the edge-mass objective, so
enumeration emits one canonical representative per unordered choice: among
equal-size clusters, labels are assigned in increasing order of each
cluster's smallest member.  Canonical order is lexicographic in the first
cluster's member set, then in the second's, and so on.

Partitions are produced in batches: the leading clusters are placed one
placement at a time, and every canonical placement of the trailing
clusters (at least the last one) on the nodes left over forms one index
array, in canonical order.  The scan scores a whole batch with one gather
per trailing cluster, and the local search scores every candidate swap of
a step in one array expression.  On a 0/1 (or any integer-valued)
adjacency that arithmetic is exact, so the winners are those of a
one-partition-at-a-time, one-pair-at-a-time scan: the first maximum in
canonical order, and the first maximal swap in row-major order, taken only
when it improves the mass by more than 1e-12.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .generate import (STREAM_ALGORITHM, Adjacency, as_matrix, config_matrix,
                       stream_rng)
from .model import ConfigError, ModelConfig, Partition

MAX_EXHAUSTIVE_N = 14
# The scan scores the placements of its trailing clusters as one batch:
# as many trailing clusters as have at most this many placements, and
# always the last cluster (at most C(14, 7) = 3432 choices).
_BATCH_ROWS = 4096


def partition_count(config: ModelConfig) -> int:
    """Number of distinct ways to place the prescribed clusters in [n]:
    n! / ((n - n_bar)! * prod_k n_k!) divided by prod over repeated sizes
    (equal-size clusters are unordered)."""
    return _placement_count(config.n, config.sizes.tolist())


def _placement_count(n: int, sizes: list[int]) -> int:
    """partition_count for clusters of the given sizes on n nodes."""
    total = math.factorial(n)
    total //= math.factorial(n - sum(sizes))
    mult: dict[int, int] = {}
    for s in sizes:
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


def _placements(nodes: tuple[int, ...], sizes: list[int], prev_size: int = -1,
                prev_min: int = -1):
    """Yield every canonical placement of clusters of the given sizes on the
    sorted nodes, as a tuple of member tuples, in canonical order: the first
    cluster's member sets in lexicographic order, and for each the
    placements of the rest.  prev_size and prev_min describe a cluster
    placed before these, whose equal-size successor must start later."""
    if not sizes:
        yield ()
        return
    size = sizes[0]
    for members in itertools.combinations(nodes, size):
        if size == prev_size and members[0] <= prev_min:
            continue
        rest = tuple(x for x in nodes if x not in members)
        for others in _placements(rest, sizes[1:], size, members[0]):
            yield (members,) + others


def _canonical_batches(config: ModelConfig):
    """Yield (labels, head, tail) batches that together hold every
    canonical partition once, in canonical order.

    The clusters split into a head, placed one placement at a time, and a
    tail of trailing clusters (at least the last one), all of whose
    placements on the nodes the head leaves over are one batch.  The tail is
    the longest whose placements number at most _BATCH_ROWS.  head is a
    tuple of member tuples; labels marks them with labels 1..len(head), 0
    elsewhere, and is reused between yields.  tail is an int array with one
    row per canonical placement of the tail clusters, in canonical order,
    each row the members of cluster len(head) + 1, then of the next, and so
    on; it may have no rows.
    """
    n = config.n
    if n > MAX_EXHAUSTIVE_N:
        raise ConfigError(
            f"exhaustive enumeration is limited to n <= {MAX_EXHAUSTIVE_N}, "
            f"got n = {n} (around 10^{_log10_partition_count(config):.1f} "
            f"admissible partitions)"
        )
    sizes = config.sizes.tolist()
    k = len(sizes) - 1
    while (k > 0 and _placement_count(n - sum(sizes[:k - 1]), sizes[k - 1:])
           <= _BATCH_ROWS):
        k -= 1
    # The tail's placements as positions into the nodes left over; they map
    # onto the nodes in increasing order, so canonical order carries over.
    left = tuple(range(n - sum(sizes[:k])))
    table = np.array([sum(p, ()) for p in _placements(left, sizes[k:])],
                     dtype=np.intp).reshape(-1, sum(sizes[k:]))
    labels = np.zeros(n, dtype=np.int32)
    for head in _placements(tuple(range(n)), sizes[:k]):
        for label, members in enumerate(head, start=1):
            labels[list(members)] = label
        tail = np.flatnonzero(labels == 0)[table]
        if k and sizes[k] == sizes[k - 1]:
            tail = tail[tail[:, 0] > head[-1][0]]
        yield labels, head, tail
        labels[:] = 0


def _tail_labels(config: ModelConfig, heads: int) -> np.ndarray:
    """Label of each column of a tail row after a head of that many clusters."""
    return np.repeat(np.arange(heads + 1, config.r + 1, dtype=np.int32),
                     config.sizes[heads:])


def _complete(labels: np.ndarray, tail_labels: np.ndarray, row: np.ndarray) -> Partition:
    """The partition that adds one tail placement to the head's labels."""
    labels[row] = tail_labels
    part = Partition(labels)
    labels[row] = 0
    return part


def enumerate_partitions(config: ModelConfig):
    """Yield every admissible partition exactly once, canonically ordered.

    Guarded to n <= MAX_EXHAUSTIVE_N.  Labels follow the configuration's
    cluster order; among equal-size clusters the smallest members increase
    with the label, which deduplicates exchangeable assignments.  This is
    the batched enumeration of the scan, expanded one partition at a time.
    """
    for labels, head, tail in _canonical_batches(config):
        tail_labels = _tail_labels(config, len(head))
        for row in tail:
            yield _complete(labels, tail_labels, row)


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
    mass.

    Each batch of the canonical enumeration is scored at once: the leading
    clusters' mass plus each trailing cluster's mass, gathered for every
    row of the batch, with each cluster's mass truncated to an integer as
    ``objective`` does.  Deterministic: the returned partition is the first
    maximizer in canonical order, and the stored ties (the first one always,
    then up to tie_cap in all) are the maximizers in that order.
    """
    m = config_matrix(A, config)
    best_val = -1
    ties: list[Partition] = []
    tie_count = 0
    examined = 0
    sizes = config.sizes.tolist()
    for labels, head, tail in _canonical_batches(config):
        if not len(tail):
            continue
        examined += len(tail)
        scores = sum(int(m[np.ix_(c, c)].sum()) for c in head)
        start = 0
        for size in sizes[len(head):]:
            c = tail[:, start:start + size]
            block = m[c[:, :, None], c[:, None, :]]
            scores = scores + block.sum(axis=(1, 2)).astype(np.int64)
            start += size
        top = int(scores.max())
        if top > best_val:
            best_val, ties, tie_count = top, [], 0
        if top == best_val:
            hits = np.flatnonzero(scores == top)
            tie_count += len(hits)
            room = max(tie_cap - len(ties), 0 if ties else 1)
            tail_labels = _tail_labels(config, len(head))
            ties += [_complete(labels, tail_labels, tail[i]) for i in hits[:room]]
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
    labels a of u and b of v changes the (unordered) mass by
    (D[v,a] - D[u,a] - A_uv)[a>0] + (D[u,b] - D[v,b] - A_uv)[b>0].
    Each step evaluates that gain for every pair u < v with a != b as one
    array expression and takes the first maximum in row-major order; the
    swap is made only if its gain exceeds 1e-12.  Swaps stop when none does.
    """
    n = m.shape[0]
    onehot = np.zeros((n, r + 1))
    onehot[np.arange(n), labels] = 1.0
    D = m @ onehot
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    swaps = 0
    while True:
        into = D[:, labels]  # into[x, y] = D[x, label of y]
        own = np.diagonal(into)
        clustered = labels != 0
        gain = (into.T - own[:, None] - m) * clustered[:, None]
        gain += (into - own[None, :] - m) * clustered[None, :]
        gain[~upper | (labels[:, None] == labels[None, :])] = -np.inf
        u, v = divmod(int(np.argmax(gain)), n)
        if not gain[u, v] > 1e-12:
            return labels, swaps
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
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    m = config_matrix(A, config).astype(float)
    n = m.shape[0]
    rng = stream_rng(seed, STREAM_ALGORITHM)
    template = config.planted_partition().labels
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
