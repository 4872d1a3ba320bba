"""Correctness checks for the benchmark's outputs, computed apart from hsbmlab.

Every check here is either an oracle the benchmark computes with its own
numpy, or a property the method must have.  None compares against a stored
copy of earlier output.  Each check returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REGIMES = ("impossible", "simple", "easy", "hard", "unknown")
TABLE_CHECKS = ("clusterwise", "global", "search")
# A converged solve stops at a relative change of 1e-7 (SolverOptions'
# tol_change); its objective may fall short of the optimum by about that.
OBJECTIVE_REL_TOL = 1e-6


def planted_labels(n: int, sizes) -> np.ndarray:
    """Cluster k (1-based) on a contiguous block of nodes, in order; the
    nodes after the last block are isolated (label 0)."""
    labels = np.zeros(n, dtype=np.int64)
    start = 0
    for k, size in enumerate(sizes, start=1):
        labels[start:start + size] = k
        start += size
    return labels


def same_clustering(a, b) -> bool:
    """True when two labellings give the same clusters up to renaming the
    nonzero labels; the isolated set (label 0) must match exactly."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or not np.array_equal(a == 0, b == 0):
        return False
    keep = a != 0
    pairs = np.unique(np.stack([a[keep], b[keep]]), axis=1)
    return pairs.shape[1] == np.unique(a[keep]).size == np.unique(b[keep]).size


def same_cluster_matrix(labels) -> np.ndarray:
    """Boolean Y with Y_ij true iff i and j carry the same nonzero label;
    the diagonal is true exactly on clustered nodes."""
    labels = np.asarray(labels)
    return (labels[:, None] == labels[None, :]) & (labels[:, None] != 0)


def within_mass(M: np.ndarray, labels) -> float:
    """<M, Y> for the clustering matrix Y of the labelling."""
    return float(M[same_cluster_matrix(labels)].sum())


def sizes_match(labels, sizes) -> bool:
    labels = np.asarray(labels)
    found = np.bincount(labels[labels != 0])
    return sorted(int(c) for c in found if c) == sorted(int(s) for s in sizes)


# -- convex relaxation ------------------------------------------------------

def check_convex_trial(A: np.ndarray, sizes, failure_kind: str, objective: float,
                       labels) -> list[str]:
    """One Monte Carlo row of the convex relaxation, on its re-derived graph.

    The relaxation max <A + I, Y> contains the planted clustering matrix,
    so a converged solve can report no less than <A + I, Y_planted>, up to
    the solver's tolerance.  Both workloads sit in the paper's easy regime,
    so every converged solve must also round to the planted partition.
    Rows that stop unconverged are counted as failed operations elsewhere.
    """
    if failure_kind == "nonconvergence":
        return []
    n = A.shape[0]
    planted = planted_labels(n, sizes)
    errors = []
    if failure_kind != "none":
        errors.append(f"converged solve failed with {failure_kind!r}")
    bound = within_mass(A.astype(float) + np.eye(n), planted)
    if not objective >= bound - OBJECTIVE_REL_TOL * abs(bound):
        errors.append(f"objective {objective!r} below the planted value {bound!r}")
    if labels is None or not same_clustering(labels, planted):
        errors.append("recovered partition differs from the planted one")
    return errors


# -- exhaustive scan --------------------------------------------------------

def closed_form_count(n: int, sizes) -> int:
    """n! / ((n - n_bar)! * prod_k n_k! * prod_s m_s!), m_s the number of
    clusters of size s: the placements of unordered equal-size clusters."""
    total = math.factorial(n) // math.factorial(n - sum(sizes))
    for size in sizes:
        total //= math.factorial(size)
    for size in set(sizes):
        total //= math.factorial(list(sizes).count(size))
    return total


def exhaustive_max(A: np.ndarray, sizes) -> tuple[int, int]:
    """Maximum within-cluster mass over all placements of two clusters of
    the given sizes, and the number of placements scanned.

    Every subset of each size is scored once; disjoint pairs are then
    scored together as one array expression, so no partition is built.
    """
    if len(sizes) != 2:
        raise ValueError("the oracle places exactly two clusters")
    n = A.shape[0]
    M = np.asarray(A, dtype=np.int64)
    scored = []
    for size in sizes:
        subsets = np.array(list(itertools.combinations(range(n), size)))
        mass = M[subsets[:, :, None], subsets[:, None, :]].sum(axis=(1, 2))
        bits = (np.int64(1) << subsets).sum(axis=1)
        scored.append((mass, bits))
    (mass1, bits1), (mass2, bits2) = scored
    disjoint = (bits1[:, None] & bits2[None, :]) == 0
    best = int((mass1[:, None] + mass2[None, :])[disjoint].max())
    count = int(disjoint.sum())
    if sizes[0] == sizes[1]:
        count //= 2
    return best, count


def check_exhaustive(A: np.ndarray, sizes, objective: int, partitions_examined: int,
                     labels) -> list[str]:
    """The scan's maximum equals the benchmark's own enumeration, it looked
    at every placement, and the partition it returns attains its maximum."""
    errors = []
    best, _ = exhaustive_max(A, sizes)
    if objective != best:
        errors.append(f"objective {objective} != enumerated maximum {best}")
    expected = closed_form_count(A.shape[0], sizes)
    if partitions_examined != expected:
        errors.append(f"examined {partitions_examined} partitions, closed form {expected}")
    if not sizes_match(labels, sizes):
        errors.append("partition does not have the configured sizes")
    elif within_mass(np.asarray(A, dtype=np.int64), labels) != objective:
        errors.append("partition's mass differs from the reported objective")
    return errors


# -- local search -----------------------------------------------------------

def swap_gains(A: np.ndarray, labels) -> np.ndarray:
    """G[u, v] = change of the within-cluster mass <A, Y> when nodes u and v
    exchange labels, for every pair with different labels (else -inf).

    With D[x, g] the mass from x into label group g, moving u out of group
    a = label(u) and v into it changes a's unordered mass by
    D[v, a] - A_uv - D[u, a]; group b = label(v) changes symmetrically.
    Label 0 (isolated) carries no mass.  <A, Y> counts ordered pairs, so
    the change is twice the unordered one.
    """
    labels = np.asarray(labels)
    M = np.asarray(A, dtype=float)
    n = M.shape[0]
    onehot = np.zeros((n, int(labels.max()) + 1))
    onehot[np.arange(n), labels] = 1.0
    D = M @ onehot
    cross = D[:, labels]                 # cross[x, y] = D[x, label(y)]
    own = D[np.arange(n), labels]        # own[x] = D[x, label(x)]
    clustered = labels != 0
    leave = (cross.T - M - own[:, None]) * clustered[:, None]
    enter = (cross - M - own[None, :]) * clustered[None, :]
    gains = 2.0 * (leave + enter)
    gains[labels[:, None] == labels[None, :]] = -np.inf
    return gains


def check_local_search(A: np.ndarray, sizes, objective: int, labels) -> list[str]:
    """The partition has the configured sizes, its mass recomputes to the
    reported objective, and no single swap of two nodes raises it."""
    if not sizes_match(labels, sizes):
        return ["partition does not have the configured sizes"]
    errors = []
    mass = within_mass(np.asarray(A, dtype=np.int64), labels)
    if mass != objective:
        errors.append(f"objective {objective} != recomputed mass {mass}")
    best = float(swap_gains(A, labels).max())
    if best > 0.5:
        errors.append(f"a single swap raises the mass by {best:g}")
    return errors


# -- counting ---------------------------------------------------------------

def check_counting(n: int, sizes, labels) -> list[str]:
    """Counting runs in the simple regime, where it must return the planted
    partition up to relabelling."""
    if labels is None:
        return ["counting returned no partition"]
    if not same_clustering(labels, planted_labels(n, sizes)):
        return ["counting partition differs from the planted one"]
    return []


# -- classification table ---------------------------------------------------

def expected_clusters(example: int, n: int) -> int:
    """Cluster count of each preset template at its default constants
    (example 6 at its reference constants)."""
    log_n = math.log(n)
    if example == 1:
        return 2                                        # giant + one sqrt(n)
    if example == 2:
        return 1 + round(n ** (1.0 / 6.0))              # giant + n^(1/6)
    if example == 3:
        return 2 + round(math.sqrt(n))                  # m = 2 tiny + ~sqrt(n)
    if example == 4:
        return round(n ** (1.0 - 0.4)) + 1              # n^(1-eps) small + half
    if example == 5:
        s_big = round(math.sqrt(n * log_n))
        return round((n - s_big) / log_n) + 1           # ~n/log n small + m = 1
    if example == 6:
        return 3                                        # n1, n_min, k3 = 1
    raise ValueError(f"no template for example {example}")


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_table1(rows: list[dict], shapes: dict) -> list[str]:
    """Rows of run_table1 against the configs they were computed from.

    shapes maps (example, n) to (cluster count, sum of sizes) of the
    config that example_config returned for that row.
    """
    errors = []
    previous: dict[tuple[int, str], float] = {}
    for row in rows:
        ex, n = row["example"], row["n"]
        where = f"example {ex} n={n}"
        if not row["feasible"]:
            if row["regime"] or not row["note"]:
                errors.append(f"{where}: infeasible row with a regime or without a note")
            continue
        if (ex, n) not in shapes:
            errors.append(f"{where}: no config was built for this row")
        else:
            clusters, covered = shapes[(ex, n)]
            if covered > n:
                errors.append(f"{where}: sizes sum to {covered} > n")
            want = expected_clusters(ex, n)
            if clusters != want:
                errors.append(f"{where}: {clusters} clusters, template gives {want}")
        if row["regime"] not in REGIMES:
            errors.append(f"{where}: regime {row['regime']!r} is not a label")
        for short in TABLE_CHECKS:
            margin = row[f"{short}_margin"]
            trend = row[f"{short}_trend"]
            prev = previous.get((ex, short))
            if prev is not None and math.isfinite(prev) and prev != 0.0:
                if not _same_float(trend, margin / prev):
                    errors.append(f"{where}: {short} trend {trend!r} != "
                                  f"{margin!r} / {prev!r}")
            elif not math.isnan(trend):
                errors.append(f"{where}: {short} trend {trend!r} without a previous margin")
            previous[(ex, short)] = margin
    return errors
