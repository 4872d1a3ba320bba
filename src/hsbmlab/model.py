"""Core model types for the heterogeneous planted-partition model.

A configuration describes n nodes, r disjoint planted clusters with sizes
n_1..n_r and intra-cluster edge probability p_k each, an ambient edge
probability q < min_k p_k for every other pair, and an observation rate
gamma in (0, 1] (each pair's status is revealed independently with
probability gamma).  Nodes outside all clusters are "isolated": all their
pairs are ambient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components


class ConfigError(ValueError):
    """Raised for structurally invalid model configurations."""


@dataclass(frozen=True)
class Cluster:
    """One planted cluster: its size and intra-connection probability."""

    size: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.size, (int, np.integer)) or isinstance(self.size, bool):
            raise ConfigError(f"cluster size must be an integer, got {self.size!r}")
        if self.size < 1:
            raise ConfigError(f"cluster size must be >= 1, got {self.size}")
        if not (0.0 <= self.p <= 1.0):
            raise ConfigError(f"cluster probability must be in [0, 1], got {self.p}")


def _integers(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        if not np.all(arr == np.floor(arr)):
            raise ConfigError(f"cluster {what} must be integers")
    return arr.astype(np.int64)


def _expand(per_run: np.ndarray, counts: np.ndarray) -> np.ndarray:
    out = np.repeat(per_run, counts)
    out.flags.writeable = False
    return out


class ModelConfig:
    """Immutable description of a heterogeneous planted-partition model.

    Parameters
    ----------
    n : total number of nodes.
    clusters : sequence of (size, p) pairs or Cluster objects.
    q : ambient edge probability, must satisfy q < min_k p_k.
    gamma : observation rate in (0, 1].

    Clusters are held as runs: parallel read-only arrays of sizes,
    probabilities and counts (``runs``), with consecutive clusters of equal
    (size, p) merged into one run.  A preset with millions of clusters of a
    few distinct sizes is then a few runs, and every reduction over clusters
    costs O(runs).  ``sizes`` and ``probs`` expand the runs to one entry per
    cluster on each access.
    """

    __slots__ = ("n", "q", "gamma", "_sizes", "_probs", "_counts")

    def __init__(
        self,
        n: int,
        clusters: Iterable[Cluster | Sequence],
        q: float,
        gamma: float = 1.0,
    ) -> None:
        raw_sizes = []
        raw_probs = []
        for c in clusters:
            size, p = (c.size, c.p) if isinstance(c, Cluster) else (c[0], c[1])
            if not isinstance(size, (int, np.integer)) or isinstance(size, bool):
                raise ConfigError(f"cluster size must be an integer, got {size!r}")
            raw_sizes.append(int(size))
            raw_probs.append(float(p))
        self._init_from_runs(n, raw_sizes, raw_probs, [1] * len(raw_sizes), q, gamma)

    @classmethod
    def from_runs(cls, n: int, sizes, probs, counts, q: float,
                  gamma: float = 1.0) -> "ModelConfig":
        """Bulk constructor from runs: ``counts[i]`` consecutive clusters of
        size ``sizes[i]`` and probability ``probs[i]``.  Runs with count 0
        are dropped."""
        self = cls.__new__(cls)
        self._init_from_runs(n, sizes, probs, counts, q, gamma)
        return self

    def _init_from_runs(self, n, sizes, probs, counts, q, gamma) -> None:
        sizes = _integers(sizes, "sizes")
        counts = _integers(counts, "counts")
        probs = np.asarray(probs, dtype=np.float64)
        if not (sizes.ndim == 1 and sizes.shape == probs.shape == counts.shape):
            raise ConfigError("cluster sizes and probabilities must be parallel 1-D")
        if np.any(counts < 0):
            raise ConfigError("cluster counts must be >= 0")
        keep = counts > 0
        sizes, probs, counts = sizes[keep], probs[keep], counts[keep]
        if sizes.size:
            new_run = np.ones(sizes.size, dtype=bool)
            new_run[1:] = (sizes[1:] != sizes[:-1]) | (probs[1:] != probs[:-1])
            starts = np.flatnonzero(new_run)
            sizes, probs = sizes[starts], probs[starts]
            counts = np.add.reduceat(counts, starts)
        for arr in (sizes, probs, counts):
            arr.flags.writeable = False
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "q", float(q))
        object.__setattr__(self, "gamma", float(gamma))
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_counts", counts)
        self._validate()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ModelConfig is immutable")

    def _validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self._sizes.size == 0:
            raise ConfigError("at least one cluster is required")
        if self._sizes.min() < 1:
            raise ConfigError(f"cluster sizes must be >= 1, got {self._sizes.min()}")
        if np.any((self._probs < 0.0) | (self._probs > 1.0)):
            raise ConfigError("cluster probabilities must be in [0, 1]")
        total = self.n_covered
        if total > self.n:
            raise ConfigError(f"cluster sizes sum to {total} > n = {self.n}")
        if not (0.0 <= self.q <= 1.0):
            raise ConfigError(f"q must be in [0, 1], got {self.q}")
        p_min = float(self._probs.min())
        if self.q >= p_min:
            raise ConfigError(
                f"q = {self.q} must be strictly below min cluster probability {p_min}"
            )
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")

    # -- convenience views -------------------------------------------------

    @property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sizes, probs, counts): one read-only entry per run of equal
        consecutive clusters."""
        return self._sizes, self._probs, self._counts

    @property
    def r(self) -> int:
        """Number of planted clusters."""
        return int(self._counts.sum())

    @property
    def sizes(self) -> np.ndarray:
        """Cluster sizes as a read-only int array, one entry per cluster."""
        return _expand(self._sizes, self._counts)

    @property
    def probs(self) -> np.ndarray:
        """Cluster probabilities as a read-only float array, one entry per
        cluster."""
        return _expand(self._probs, self._counts)

    @property
    def n_covered(self) -> int:
        """Number of nodes inside planted clusters (n-bar)."""
        return int((self._sizes * self._counts).sum())

    @property
    def n0(self) -> int:
        """Number of isolated nodes."""
        return self.n - self.n_covered

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelConfig):
            return NotImplemented
        return (
            self.n == other.n
            and self.q == other.q
            and self.gamma == other.gamma
            and all(np.array_equal(a, b) for a, b in zip(self.runs, other.runs))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.gamma,
                     *(arr.tobytes() for arr in self.runs)))

    def __repr__(self) -> str:
        if self.r <= 6:
            body = ", ".join(f"({s}, {p:g})"
                             for s, p in zip(self.sizes.tolist(), self.probs.tolist()))
        else:
            body = f"<{self.r} clusters, sizes {self._sizes.min()}..{self._sizes.max()}>"
        return (f"ModelConfig(n={self.n}, clusters=[{body}], q={self.q:g}, "
                f"gamma={self.gamma:g})")

    def collapsed(self) -> "ModelConfig":
        """Fold the observation rate into the probabilities.

        Mapping unobserved pairs to 0 turns the partially observed model into
        the fully observed one with p_k -> gamma*p_k and q -> gamma*q.
        """
        return ModelConfig.from_runs(
            self.n, self._sizes, self.gamma * self._probs, self._counts,
            self.gamma * self.q, 1.0,
        )

    def planted_partition(self) -> "Partition":
        """Canonical planted partition: cluster k occupies a contiguous block
        of node indices, isolated nodes come last."""
        labels = np.zeros(self.n, dtype=np.int32)
        covered = self.n_covered
        labels[:covered] = np.repeat(
            np.arange(1, self.r + 1, dtype=np.int32), self.sizes
        )
        return Partition(labels)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "clusters": [[int(s), float(p)]
                         for s, p in zip(self.sizes.tolist(), self.probs.tolist())],
            "q": self.q,
            "gamma": self.gamma,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        try:
            return cls(
                n=d["n"],
                clusters=d["clusters"],
                q=d["q"],
                gamma=d.get("gamma", 1.0),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ConfigError(f"malformed config dict: {exc}") from exc


class Partition:
    """Node labelling: 0 marks isolated nodes, 1..r mark clusters.

    The labels array is stored read-only; equality of the induced clusterings
    (up to label permutation) is tested with :func:`partitions_equal`.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Sequence[int] | np.ndarray) -> None:
        arr = np.asarray(labels, dtype=np.int32).copy()
        if arr.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
        if arr.size and arr.min() < 0:
            raise ValueError("labels must be non-negative (0 = isolated)")
        arr.flags.writeable = False
        self.labels = arr

    @property
    def n(self) -> int:
        return int(self.labels.size)

    def cluster_sizes(self) -> dict[int, int]:
        """Map of nonzero label -> node count."""
        vals, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts) if v != 0}

    def size_multiset(self) -> tuple[int, ...]:
        """Sorted multiset of cluster sizes (labels ignored)."""
        return tuple(sorted(self.cluster_sizes().values()))

    def __repr__(self) -> str:
        return f"Partition({self.labels.tolist()})"


def size_mismatch(partition: Partition, config: ModelConfig) -> str:
    """The failure detail when the partition's cluster sizes are not the
    configured ones, as a multiset; "" when they are."""
    found = list(partition.size_multiset())
    want = sorted(config.sizes.tolist())
    return "" if found == want else f"component sizes {found} != configured {want}"


def clique_components(link: np.ndarray, keep: np.ndarray | None = None):
    """Read clusters off a symmetric boolean link matrix as its connected
    components, each of which must be a clique.

    Components are labelled 1, 2, ... in component order; a singleton
    component becomes an isolated node (label 0) unless ``keep`` marks it.
    Returns ``(labels, None)``, or ``(None, (size, missing))`` for the first
    component that is not a clique: its node count and its unlinked pairs.
    """
    n_comp, comp = connected_components(link, directed=False)
    labels = np.zeros(link.shape[0], dtype=np.int32)
    next_label = 1
    for c in range(n_comp):
        members = np.flatnonzero(comp == c)
        if len(members) == 1 and (keep is None or not keep[members[0]]):
            continue
        sub = link[np.ix_(members, members)]
        np.fill_diagonal(sub, True)
        if not sub.all():
            missing = int(len(members) * (len(members) - 1) // 2
                          - np.triu(sub, 1).sum())
            return None, (len(members), missing)
        labels[members] = next_label
        next_label += 1
    return labels, None


@dataclass(frozen=True)
class DerivedStats:
    """Per-cluster signal and noise scales, held per run of equal clusters.

    rho_k = n_k (p_k - q) is the relative density of cluster k;
    sigma_k^2 = n_k p_k (1 - p_k) its degree variance scale;
    sigma0^2 = n q (1 - q) the ambient variance scale.
    ``run_rho`` and ``run_sigma_sq`` hold one value per run of
    ``config.runs`` (``counts`` clusters each); ``rho`` and ``sigma_sq``
    expand them to one value per cluster.
    """

    run_rho: np.ndarray
    run_sigma_sq: np.ndarray
    counts: np.ndarray
    sigma0_sq: float
    sigma_max_sq: float
    rho_min: float
    p_min: float
    p_max: float
    n_min: int
    n_max: int

    @property
    def rho(self) -> np.ndarray:
        return _expand(self.run_rho, self.counts)

    @property
    def sigma_sq(self) -> np.ndarray:
        return _expand(self.run_sigma_sq, self.counts)


def derived_stats(config: ModelConfig) -> DerivedStats:
    sizes, probs, counts = config.runs
    sizes = sizes.astype(float)
    rho = sizes * (probs - config.q)
    sigma_sq = sizes * probs * (1.0 - probs)
    return DerivedStats(
        run_rho=rho,
        run_sigma_sq=sigma_sq,
        counts=counts,
        sigma0_sq=config.n * config.q * (1.0 - config.q),
        sigma_max_sq=float(sigma_sq.max()),
        rho_min=float(rho.min()),
        p_min=float(probs.min()),
        p_max=float(probs.max()),
        n_min=int(sizes.min()),
        n_max=int(sizes.max()),
    )


def cross_pair_peak(config: ModelConfig) -> float:
    """max over cluster pairs k != l of b_k + b_l (requires r >= 2), with
    b_k = (n_k - 1) p_k - n_k q = rho_k - p_k, the amount by which a
    cluster-k member's expected adjacency mass into its own cluster exceeds
    the ambient level.  Each run contributes at most two clusters, enough
    for the top pair."""
    sizes, probs, counts = config.runs
    sizes = sizes.astype(float)
    b = np.repeat((sizes - 1.0) * probs - sizes * config.q, np.minimum(counts, 2))
    return float(np.partition(b, b.size - 2)[-2:].sum())


def chi_square_div(p, q):
    """Chi-square style divergence (p - q)^2 / (q (1 - q)).

    Requires q in (0, 1); p may touch the endpoints.  Accepts scalars or
    numpy arrays (elementwise).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise ValueError("q must lie strictly inside (0, 1)")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p must lie in [0, 1]")
    out = (p - q) ** 2 / (q * (1.0 - q))
    return float(out) if out.ndim == 0 else out


def kl_div(p, q):
    """Bernoulli Kullback-Leibler divergence KL(p || q).

    p log(p/q) + (1-p) log((1-p)/(1-q)), with the 0 log 0 = 0 convention.
    Requires q in (0, 1).  Always <= chi_square_div(p, q).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise ValueError("q must lie strictly inside (0, 1)")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0.0, p * np.log(p / q), 0.0)
        t2 = np.where(p < 1.0, (1.0 - p) * np.log((1.0 - p) / (1.0 - q)), 0.0)
    out = t1 + t2
    return float(out) if out.ndim == 0 else out


def clustering_matrix(partition: Partition) -> np.ndarray:
    """0/1 matrix with Y_ij = 1 iff i and j share a nonzero label.

    Diagonal entries are 1 for clustered nodes and 0 for isolated nodes, so
    the total sum equals sum_k n_k^2.
    """
    labels = partition.labels
    same = (labels[:, None] == labels[None, :]) & (labels[:, None] != 0)
    return same.astype(np.int8)


def partitions_equal(a: Partition, b: Partition) -> bool:
    """True iff the two labellings induce the same clustering matrix.

    Label names are irrelevant; the isolated set (label 0) must match exactly,
    and nonzero labels must correspond one-to-one.
    """
    la, lb = a.labels, b.labels
    if la.size != lb.size:
        raise ValueError(f"partitions have different sizes: {la.size} vs {lb.size}")
    if not np.array_equal(la == 0, lb == 0):
        return False
    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}
    for x, y in zip(la.tolist(), lb.tolist()):
        if x == 0:
            continue
        if fwd.setdefault(x, y) != y or rev.setdefault(y, x) != x:
            return False
    return True
