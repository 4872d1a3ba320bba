"""Exhaustive combinatorial recovery and a label-swap local search.

The combinatorial estimator scans every partition of the node set into
clusters of the prescribed sizes (plus the leftover isolated set) and keeps
the one maximizing the within-cluster edge mass.  The search space explodes
combinatorially, so enumeration is guarded to n <= MAX_EXHAUSTIVE_N; the
local search scales further but only guarantees a local optimum.

Clusters of equal size are interchangeable for the edge-mass objective, so
enumeration emits one canonical representative per unordered choice: among
equal-size clusters, adjacent in the configuration or not, labels are
assigned in increasing order of each cluster's smallest member.  Canonical
order is lexicographic in the first cluster's member set, then in the
second's, and so on.

The scan reads every score from one table: the within-set mass of each of
the 2^n node subsets, indexed by bitmask.  It places the clusters level by
level, partial partitions as rows of per-cluster bitmasks, a bounded chunk
of rows at a time in canonical order, and scores a completion as its
parent row's table sum plus the last cluster's entry.  The local search
keeps each node's mass into each label group, which gives each step's
swap gains as one symmetric matrix and the climb's final mass.  Both
methods take the observed graph as a 0/1 ``Adjacency``: the table sums in
int64, and the search climbs in int16, or in int32 when int16 cannot hold
the gain bound 2 (max degree + 1), which only a max degree above 16,382
needs.  Both scores are exact, so the winners are those of a
one-partition-at-a-time, one-pair-at-a-time scan: the first maximum in
canonical order, and the first maximal swap in row-major order, taken only
when it improves the mass.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .generate import STREAM_ALGORITHM, Adjacency, config_matrix, stream_rng
from .model import ConfigError, ModelConfig, Partition, clustering_matrix

MAX_EXHAUSTIVE_N = 14
# Local-search restarts when an experiment does not give its own.
RESTARTS = 10
# The scan expands canonical placements a chunk of rows at a time, at most
# about this many rows per level (or one parent's placements, at most
# C(14, 7) = 3432), so its memory does not grow with the partition count.
_BATCH_ROWS = 4096


def _log10_partition_count(config: ModelConfig) -> float:
    """log10 of the number of admissible partitions,
    n! / ((n - n_bar)! * prod_k n_k!) divided by prod over repeated sizes
    (equal-size clusters are unordered), via lgamma over the runs, safe for
    astronomically large n and cluster counts."""
    total = math.lgamma(config.n + 1) - math.lgamma(config.n0 + 1)
    mult: dict[int, int] = {}
    sizes, _, counts = config.runs
    for s, count in zip(sizes.tolist(), counts.tolist()):
        total -= math.lgamma(s + 1) * count
        mult[s] = mult.get(s, 0) + count
    for count in mult.values():
        total -= math.lgamma(count + 1)
    return total / math.log(10.0)


def check_exhaustive_size(config: ModelConfig) -> None:
    """Refuse a configuration beyond the scan's n <= MAX_EXHAUSTIVE_N."""
    if config.n > MAX_EXHAUSTIVE_N:
        raise ConfigError(
            f"exhaustive enumeration is limited to n <= {MAX_EXHAUSTIVE_N}, "
            f"got n = {config.n} (around 10^{_log10_partition_count(config):.1f} "
            f"admissible partitions)"
        )


def check_restarts(restarts: int) -> None:
    """Refuse a local search with fewer than one restart."""
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")


@functools.cache
def _choices(left: int, size: int) -> np.ndarray:
    """Every size-subset of range(left) as a read-only row, in lexicographic
    order.  The scan's levels take their member sets from these tables, as
    positions into a row's free nodes.  Cached, because building them from
    Python tuples on every scan churns the small-object heap; with
    left <= MAX_EXHAUSTIVE_N the cache holds at most about 2 MB."""
    table = np.array(list(itertools.combinations(range(left), size)),
                     dtype=np.intp).reshape(-1, size)
    table.flags.writeable = False
    return table


def _canonical_rows(config: ModelConfig):
    """Return an iterator over (parents, masks, keep) batches holding every
    canonical partition once, in canonical order (row-major in parent i,
    completion c within a batch): column k of a parent row is the bitmask
    (bit i for node i) of cluster k + 1's members, masks[i, c] the last
    cluster's, and keep False where canonical order skips the completion.
    The first batch keeps its first completion.

    Level k places cluster k + 1 on each row's free nodes, every member set
    in lexicographic order, skipping a set whose smallest member does not
    exceed that of the nearest earlier cluster of the same size.  A chunk
    of rows is expanded and its children placed depth-first, so rows come
    out in canonical order and no level holds much more than _BATCH_ROWS of
    them.
    """
    check_exhaustive_size(config)
    n = config.n
    sizes = config.sizes.tolist()
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    choices = [_choices(n - sum(sizes[:k]), s) for k, s in enumerate(sizes)]
    # Column of the nearest earlier cluster of each level's size, or None.
    twin = [max((j for j in range(k) if sizes[j] == s), default=None)
            for k, s in enumerate(sizes)]
    return _expand(np.zeros((1, 0), dtype=np.int64), bit, choices, twin)


def _expand(rows: np.ndarray, bit: np.ndarray, choices: list, twin: list):
    """The batches of ``_canonical_rows`` below rows placing its first
    clusters.  Module-level: a nested function calling itself is a cycle."""
    level = rows.shape[1]
    pos = choices[level]
    j = twin[level]
    step = max(1, _BATCH_ROWS // len(pos))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        used = np.bitwise_or.reduce(chunk, axis=1)
        free = bit[np.nonzero(bit & ~used[:, None])[1]].reshape(len(chunk), -1)
        first = free[:, pos[:, 0]]
        mask = first.copy()
        for column in pos.T[1:]:
            mask += free[:, column]
        # Bit of the twin's smallest member, or 0, which every set exceeds.
        low = 0 if j is None else chunk[:, j:j + 1] & -chunk[:, j:j + 1]
        keep = first > low
        if level + 1 == len(choices):
            yield chunk, mask, keep
            continue
        child = np.concatenate([np.repeat(chunk, len(pos), axis=0),
                                mask.reshape(-1, 1)], axis=1)
        yield from _expand(child[keep.ravel()], bit, choices, twin)


def _labels(rows: np.ndarray, n: int) -> np.ndarray:
    """Label array of each row of cluster bitmasks: cluster k + 1's members
    (column k) get label k + 1, the other nodes 0."""
    bits = (rows[:, :, None] >> np.arange(n)) & 1
    return (bits * np.arange(1, rows.shape[1] + 1)[:, None]).sum(axis=1)


def objective(A: Adjacency, partition: Partition) -> int:
    """Within-cluster edge mass: the adjacency total over the pairs that
    share a cluster, as ``clustering_matrix`` marks them (twice the number
    of within-cluster edges)."""
    return int(A.matrix[clustering_matrix(partition).view(bool)].sum())


def _mass_table(m: np.ndarray) -> np.ndarray:
    """Within-set mass of every node subset of the 0/1 adjacency matrix m,
    indexed by its bitmask, in int64.

    The subsets whose top node is h are those below h with h added, which
    adds 2 m[h, j] for each member j (m is symmetric, zero on the
    diagonal)."""
    weight = 2 * m.astype(np.int64)
    table = np.zeros(1, dtype=np.int64)
    for h in range(m.shape[0]):
        link = np.zeros(1, dtype=np.int64)
        for j in range(h):
            link = np.concatenate([link, link + weight[h, j]])
        table = np.concatenate([table, table + link])
    return table


@dataclass(frozen=True, eq=False)
class ExhaustiveResult:
    """Outcome of the full scan: the canonical-first maximizer, the number
    of tied maximizers, and the search size."""

    partition: Partition
    objective: int
    tie_count: int
    partitions_examined: int


def solve_exhaustive(
    A: Adjacency,
    config: ModelConfig,
) -> ExhaustiveResult:
    """Scan all admissible partitions for the maximal within-cluster edge
    mass.

    Each batch of the canonical enumeration is scored at once from the
    subset-mass table: a completion's score is its parent's entries summed
    once, plus its own entry.
    Deterministic: the returned partition is the first maximizer in
    canonical order.
    """
    m = config_matrix(A, config)
    batches = _canonical_rows(config)  # refuses n > MAX_EXHAUSTIVE_N first
    mass = _mass_table(m)
    best_val = -1
    best_row = None
    tie_count = 0
    examined = 0
    for parents, masks, keep in batches:
        # A skipped completion scores -1, below every mass: never a
        # maximizer, nor a tie once the first batch has set best_val.
        scores = np.where(keep, mass[masks] + mass[parents].sum(axis=1)[:, None], -1)
        examined += int(np.count_nonzero(keep))
        top = int(scores.max())
        if top > best_val:
            i, c = divmod(int(np.argmax(scores)), scores.shape[1])
            best_val, best_row, tie_count = top, np.append(parents[i], masks[i, c]), 0
        if top == best_val:
            tie_count += int(np.count_nonzero(scores == top))
    return ExhaustiveResult(
        partition=Partition(_labels(best_row[None], config.n)[0]),
        objective=int(best_val),
        tie_count=tie_count,
        partitions_examined=examined,
    )


@dataclass(frozen=True, eq=False)
class LocalSearchResult:
    partition: Partition
    objective: int
    swaps: int


def _climb_matrix(m: np.ndarray) -> np.ndarray:
    """The 0/1 adjacency matrix m cast to int16, or to int32 where int16
    cannot hold its gain bound 2 (max degree + 1), which bounds the
    absolute value of every mass and gain of ``_hill_climb``."""
    bound = 2 * (int(m.sum(axis=1).max()) + 1)
    return m.astype(np.int16 if bound <= np.iinfo(np.int16).max else np.int32)


def _hill_climb(m: np.ndarray, labels: np.ndarray, r: int) -> tuple[np.ndarray, int, int]:
    """Best-improvement label-swap ascent on the within-cluster edge mass,
    in the integer dtype of m: int16 or int32, as ``_climb_matrix`` chose
    for the 0/1 adjacency.  Returns the final labels, their mass (their
    ``objective``, read off D) and the number of swaps.

    D[x, g] caches node x's adjacency mass into label group g > 0, and
    D[x, 0] = 0.  With R[x, g] = D[x, g] - D[x, label x] and
    H[u, v] = R[u, label v] - [v clustered] m[u, v], swapping the labels
    of u and v changes the (unordered) mass by G[u, v] = H[u, v] + H[v, u].
    D lies in [0, max row sum], R and H in [-(max row sum + max entry),
    max row sum], and so G within 2 (max row sum + max entry), which is
    the gain bound 2 (max degree + 1) of a 0/1 graph: no step overflows.
    G is symmetric, and on a symmetric m >= 0 its diagonal and same-label
    entries are <= 0, so a positive first maximum of all of G in row-major
    order is the first maximal swap u < v of different labels.  The swap is
    made only then; swaps stop when the maximum is not positive.

    D and R are held transposed, one row per label group, so that H^T is
    a gather of whole rows.
    """
    n = m.shape[0]
    nodes = np.arange(n)
    # float64 products (BLAS) are exact below 2**53, which holds every
    # int16 and int32 bound.
    onehot = np.zeros((r + 1, n))
    onehot[labels, nodes] = labels != 0  # row 0 stays zero
    DT = (onehot @ m).astype(m.dtype)  # = (m @ onehot^T)^T, m being symmetric
    # m with the rows of isolated nodes zeroed, so that
    # H^T = R^T[labels] - m_clustered.
    m_clustered = m * (labels != 0)[:, None]
    swaps = 0
    while True:
        own = DT[labels, nodes]
        HT = (DT - own)[labels]
        HT -= m_clustered
        gain = HT + HT.T
        u, v = divmod(int(np.argmax(gain)), n)
        if not gain[u, v] > 0:
            return labels, int(own.sum()), swaps
        a, b = labels[u], labels[v]
        labels[u], labels[v] = b, a
        d = m[v] - m[u]
        DT[a] += d
        DT[b] -= d
        if not (a and b):
            DT[0] = 0
            m_clustered[u] = m[u] if b else 0
            m_clustered[v] = m[v] if a else 0
        swaps += 1


def local_search(
    A: Adjacency,
    config: ModelConfig,
    seed: int,
    restarts: int = RESTARTS,
) -> LocalSearchResult:
    """Randomly seeded best-improvement swap search; keeps the best local
    optimum over the given number of restarts, each scored by the mass its
    climb ends on.  Deterministic under seed."""
    check_restarts(restarts)
    m = _climb_matrix(config_matrix(A, config))
    n = m.shape[0]
    rng = stream_rng(seed, STREAM_ALGORITHM)
    template = config.planted_partition().labels
    best_labels = None
    best_val = -1
    total_swaps = 0
    for _ in range(restarts):
        labels = template[rng.permutation(n)]
        labels, val, swaps = _hill_climb(m, labels, config.r)
        total_swaps += swaps
        if val > best_val:
            best_val = val
            best_labels = labels
    return LocalSearchResult(
        partition=Partition(best_labels),
        objective=int(best_val),
        swaps=total_swaps,
    )
