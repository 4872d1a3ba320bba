"""Exhaustive combinatorial recovery, likelihood, and local search."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from hsbmlab import (
    ConfigError,
    MAX_EXHAUSTIVE_N,
    ModelConfig,
    Partition,
    clustering_matrix,
    enumerate_partitions,
    local_search,
    objective,
    partition_count,
    partitions_equal,
    sample_adjacency,
    solve_exhaustive,
)
from hsbmlab.generate import Adjacency, as_matrix

REL = 1e-12


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


def key(partition):
    return clustering_matrix(partition).tobytes()


def digest(labels):
    """Short hash of a label array (or of concatenated label arrays)."""
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()[:16]


BENCH200 = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
ISO60 = ModelConfig(60, [(20, 0.5), (15, 0.6), (10, 0.7)], 0.1)
TIE8 = ModelConfig(8, [(2, 0.3), (2, 0.3), (2, 0.3)], 0.2)
THREE10 = ModelConfig(10, [(3, 0.9), (3, 0.9), (3, 0.9)], 0.1)
SPARSE9 = ModelConfig(9, [(3, 0.2), (3, 0.2)], 0.1)
SCAN14 = ModelConfig(14, [(5, 0.9), (5, 0.9)], 0.05)
# Enough partitions that the scan places leading clusters one at a time
# and scores several trailing equal-size clusters per batch.
FOUR12 = ModelConfig(12, [(3, 0.6)] * 4, 0.1)
PAIRS13 = ModelConfig(13, [(2, 0.5)] * 6, 0.1)


class TestPartitionCount:
    @pytest.mark.parametrize(
        "n,clusters,expect",
        [
            (4, [(2, 0.9), (2, 0.9)], 3),
            (4, [(2, 0.9), (1, 0.8), (1, 0.7)], 6),
            (6, [(3, 0.9), (2, 0.8)], 60),
            (6, [(2, 0.9), (2, 0.9), (2, 0.9)], 15),
            (3, [(3, 0.9)], 1),
        ],
    )
    def test_closed_form(self, n, clusters, expect):
        assert partition_count(ModelConfig(n, clusters, 0.05)) == expect

    def test_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            sizes = []
            left = n
            while left >= 2 and len(sizes) < 3 and rng.random() < 0.8:
                s = int(rng.integers(1, left + 1))
                sizes.append(s)
                left -= s
            if not sizes:
                sizes = [n]
            cfg = ModelConfig(n, [(s, 0.9) for s in sizes], 0.05)
            parts = list(enumerate_partitions(cfg))
            assert len(parts) == partition_count(cfg)
            # canonical enumeration emits each unordered grouping once
            assert len({key(p) for p in parts}) == len(parts)

    def test_first_partition_is_template(self):
        cfg = ModelConfig(5, [(2, 0.9), (2, 0.8)], 0.05)
        first = next(iter(enumerate_partitions(cfg)))
        assert first.labels.tolist() == [1, 1, 2, 2, 0]

    def test_enumeration_guard_reports_scale(self):
        cfg = ModelConfig(15, [(7, 0.9), (7, 0.9)], 0.05)
        with pytest.raises(ConfigError) as err:
            list(enumerate_partitions(cfg))
        msg = str(err.value)
        assert f"n <= {MAX_EXHAUSTIVE_N}" in msg
        assert "10^" in msg  # admissible-partition count estimate


class TestObjective:
    def test_complete_graph(self):
        A = np.ones((4, 4)) - np.eye(4)
        assert objective(A, Partition([1, 1, 2, 2])) == 4

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            M = (rng.random((n, n)) < 0.4).astype(int)
            M = np.triu(M, 1)
            M = M + M.T
            labels = rng.integers(0, 3, size=n)
            expect = 0
            for i in range(n):
                for j in range(n):
                    if i != j and labels[i] == labels[j] and labels[i] != 0:
                        expect += int(M[i, j])
            assert objective(M, Partition(labels)) == expect

    def test_isolated_nodes_ignored(self):
        A = np.ones((3, 3)) - np.eye(3)
        assert objective(A, Partition([0, 0, 0])) == 0


class TestLogLikelihood:
    CFG2 = ModelConfig(2, [(2, 0.6)], 0.3)

    def test_single_pair_edge(self):
        A = np.array([[0, 1], [1, 0]])
        ll = log_likelihood(A, Partition([1, 1]), self.CFG2)
        assert math.isclose(ll, math.log(0.6), rel_tol=REL)

    def test_single_pair_hole(self):
        A = np.zeros((2, 2), dtype=int)
        ll = log_likelihood(A, Partition([1, 1]), self.CFG2)
        assert math.isclose(ll, math.log(0.4), rel_tol=REL)

    def test_mixed_instance(self):
        cfg = ModelConfig(3, [(2, 0.6)], 0.3)
        A = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        ll = log_likelihood(A, Partition([1, 1, 0]), cfg)
        expect = math.log(0.6) + math.log(0.3) + math.log(0.7)
        assert math.isclose(ll, expect, rel_tol=REL)

    def test_edge_toggle_deltas(self):
        cfg = ModelConfig(8, [(4, 0.7), (4, 0.7)], 0.2)
        part = cfg.planted_partition()
        A = sample_adjacency(cfg, part, seed=2).matrix.astype(int)
        base = log_likelihood(A, part, cfg)
        # toggle a within-cluster pair
        B = A.copy()
        delta = 1 - 2 * B[0, 1]
        B[0, 1] += delta
        B[1, 0] += delta
        got = log_likelihood(B, part, cfg) - base
        assert math.isclose(got, delta * math.log(0.7 / 0.3), rel_tol=1e-10)
        # toggle a cross-cluster pair
        C = A.copy()
        delta = 1 - 2 * C[0, 5]
        C[0, 5] += delta
        C[5, 0] += delta
        got = log_likelihood(C, part, cfg) - base
        assert math.isclose(got, delta * math.log(0.2 / 0.8), rel_tol=1e-10)

    def test_relabeling_invariance(self):
        cfg = ModelConfig(8, [(4, 0.7), (4, 0.7)], 0.2)
        part = cfg.planted_partition()
        A = sample_adjacency(cfg, part, seed=3)
        swapped = Partition(np.where(part.labels == 1, 2,
                                     np.where(part.labels == 2, 1, 0)))
        assert log_likelihood(A, part, cfg) == log_likelihood(A, swapped, cfg)

    def test_zero_probability_pattern(self):
        cfg = ModelConfig(3, [(3, 1.0)], 0.5)
        A = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # hole in a p=1 block
        assert log_likelihood(A, Partition([1, 1, 1]), cfg) == -math.inf

    def test_requires_interior_q(self):
        cfg = ModelConfig(4, [(2, 1.0), (2, 1.0)], 0.0)
        A = np.zeros((4, 4), dtype=int)
        with pytest.raises(ValueError):
            log_likelihood(A, cfg.planted_partition(), cfg)

    def test_homogeneous_argmax_matches_edge_mass(self):
        # With one shared within-probability p > q the likelihood is affine
        # increasing in the within-cluster edge mass, so the maximizer sets
        # coincide.
        cfg = ModelConfig(8, [(4, 0.7), (4, 0.7)], 0.2)
        part = cfg.planted_partition()
        for seed in range(5):
            A = sample_adjacency(cfg, part, seed=seed)
            parts = list(enumerate_partitions(cfg))
            lls = [log_likelihood(A, p, cfg) for p in parts]
            objs = [objective(A, p) for p in parts]
            best_ll = {key(p) for p, v in zip(parts, lls) if v == max(lls)}
            best_obj = {key(p) for p, v in zip(parts, objs) if v == max(objs)}
            assert best_ll == best_obj


class TestSolveExhaustive:
    CFG = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)

    def test_planted_recovery(self):
        part = self.CFG.planted_partition()
        A = sample_adjacency(self.CFG, part, seed=0)
        res = solve_exhaustive(A, self.CFG)
        assert partitions_equal(res.partition, part)
        assert res.unique and res.tie_count == 1
        assert res.partitions_examined == partition_count(self.CFG) == 126

    def test_independent_enumeration_oracle(self):
        # Re-derive the maximum by a from-scratch scan: all 5-subsets
        # containing node 0 define the unordered {5,5} splits.
        part = self.CFG.planted_partition()
        for seed in range(3):
            A = sample_adjacency(self.CFG, part, seed=seed).matrix
            best = -1
            count = 0
            for rest in itertools.combinations(range(1, 10), 4):
                block = (0,) + rest
                labels = np.full(10, 2)
                labels[list(block)] = 1
                count += 1
                val = 0
                for i in range(10):
                    for j in range(10):
                        if i != j and labels[i] == labels[j]:
                            val += int(A[i, j])
                best = max(best, val)
            assert count == 126
            res = solve_exhaustive(A, self.CFG)
            assert res.objective == best

    def test_tie_detection_complete_graph(self):
        A = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
        cfg = ModelConfig(4, [(2, 0.9), (2, 0.9)], 0.05)
        res = solve_exhaustive(A, cfg)
        assert res.objective == 4
        assert res.tie_count == 3
        assert len(res.ties) == 3
        assert not res.unique

    def test_tie_cap_limits_stored_ties(self):
        A = np.zeros((6, 6), dtype=int)
        cfg = ModelConfig(6, [(3, 0.1), (3, 0.1)], 0.05)
        res = solve_exhaustive(A, cfg, tie_cap=4)
        assert res.tie_count == 10  # all partitions tie at mass 0
        assert len(res.ties) == 4
        assert res.tie_cap == 4

    @pytest.mark.parametrize("config,seed", [
        (TIE8, 0), (THREE10, 1), (SPARSE9, 0),
        (ModelConfig(9, [(4, 0.8), (2, 0.8)], 0.1), 3),
        (ModelConfig(7, [(3, 0.6)], 0.2), 4), (FOUR12, 0),
    ])
    def test_matches_enumeration_reference(self, config, seed):
        # The reference scores each enumerated partition with objective()
        # and keeps the first tie_cap maximizers in enumeration order.
        A = sample_adjacency(config, config.planted_partition(), seed=seed)
        parts = list(enumerate_partitions(config))
        values = [objective(A, p) for p in parts]
        best = max(values)
        maximizers = [p.labels.tolist() for p, v in zip(parts, values) if v == best]
        for tie_cap in (64, 2):
            res = solve_exhaustive(A, config, tie_cap=tie_cap)
            assert res.objective == best
            assert res.tie_count == len(maximizers)
            assert res.partitions_examined == len(parts)
            assert [t.labels.tolist() for t in res.ties] == maximizers[:tie_cap]

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            solve_exhaustive(np.zeros((4, 4)), self.CFG)


class TestLocalSearch:
    def test_noiseless_planted_recovery(self):
        cfg = ModelConfig(30, [(10, 1.0), (10, 1.0), (10, 1.0)], 0.0)
        part = cfg.planted_partition()
        A = sample_adjacency(cfg, part, seed=0)
        for seed in range(20):
            res = local_search(A, cfg, seed=seed)
            assert res.objective == 270  # 3 clusters x 10*9 ordered pairs
            assert partitions_equal(res.partition, part)

    def test_matches_exhaustive_on_small_instances(self):
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        part = cfg.planted_partition()
        for seed in range(20):
            A = sample_adjacency(cfg, part, seed=seed)
            ls = local_search(A, cfg, seed=seed)
            ex = solve_exhaustive(A, cfg)
            assert ls.objective == ex.objective

    def test_deterministic_under_seed(self):
        cfg = ModelConfig(12, [(6, 0.8), (6, 0.8)], 0.1)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=1)
        a = local_search(A, cfg, seed=9)
        b = local_search(A, cfg, seed=9)
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.objective == b.objective and a.swaps == b.swaps

    def test_result_fields(self):
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=0)
        res = local_search(A, cfg, seed=0, restarts=4)
        assert res.restarts == 4
        assert 0 <= res.best_restart < 4
        assert res.swaps >= 0

    def test_validation(self):
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=0)
        with pytest.raises(ValueError):
            local_search(A, cfg, seed=0, restarts=0)
        with pytest.raises(ConfigError):
            local_search(np.zeros((4, 4)), cfg, seed=0)


class TestFrozenOutputs:
    """Outputs recorded from the one-pair-at-a-time swap search and the
    one-partition-at-a-time scan.  Any change in swap order, scan order or
    tie bookkeeping changes one of these values."""

    # (config, seed) -> (labels digest, objective, best_restart, swaps),
    # with the graph drawn from seed and local_search(seed=seed, restarts=10).
    SEARCH = [
        (BENCH200, 0, ("dee32dde3334b62a", 10016, 0, 479)),
        (BENCH200, 1, ("dee32dde3334b62a", 9866, 0, 461)),
        (BENCH200, 2, ("de627fa4116d5e80", 9984, 0, 478)),
        (ISO60, 0, ("0b87e388bc3f476a", 368, 0, 261)),
        (ISO60, 1, ("9aca1c2d204dbbac", 364, 1, 232)),
    ]

    @pytest.mark.parametrize("config,seed,expect", SEARCH)
    def test_local_search(self, config, seed, expect):
        A = sample_adjacency(config, config.planted_partition(), seed=seed)
        res = local_search(A, config, seed=seed, restarts=10)
        got = (digest(res.partition.labels), res.objective, res.best_restart,
               res.swaps)
        assert got == expect

    # (config, seed) -> (objective, tie_count, partitions_examined, the
    # first three ties, digest of all ties kept at tie_cap=64).
    SCAN = [
        (TIE8, 0, (6, 4, 420, [[1, 1, 2, 3, 0, 0, 3, 2], [1, 2, 3, 1, 2, 0, 0, 3],
                               [1, 2, 3, 1, 0, 0, 2, 3]], "65c97b4fb24c6774")),
        (THREE10, 1, (16, 3, 2800, [[1, 1, 1, 2, 2, 2, 3, 3, 3, 0],
                                    [1, 1, 1, 2, 2, 2, 3, 3, 0, 3],
                                    [1, 1, 1, 2, 2, 2, 0, 3, 3, 3]],
                      "9583cf6ea9a7c43b")),
        (SPARSE9, 0, (4, 20, 840, [[1, 1, 1, 2, 2, 2, 0, 0, 0],
                                   [1, 1, 1, 2, 2, 0, 2, 0, 0],
                                   [1, 1, 1, 2, 2, 0, 0, 2, 0]],
                      "318db2394bf4a572")),
        (SCAN14, 0, (40, 1, 126126, [[1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 0, 0, 0, 0]],
                     "b690305ed138fc5a")),
        (FOUR12, 0, (16, 4, 15400, [[1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4],
                                    [1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 3, 4],
                                    [1, 1, 1, 2, 2, 2, 3, 4, 4, 3, 3, 4]],
                     "f3e156183d152ffe")),
        (PAIRS13, 0, (10, 9, 135135, [[1, 1, 2, 2, 3, 4, 3, 5, 6, 6, 4, 5, 0],
                                      [1, 1, 2, 3, 4, 2, 4, 5, 6, 3, 6, 5, 0],
                                      [1, 1, 2, 3, 4, 5, 4, 6, 2, 3, 5, 6, 0]],
                      "9c67570c5cbcb913")),
    ]

    @pytest.mark.parametrize("config,seed,expect", SCAN)
    def test_solve_exhaustive(self, config, seed, expect):
        best, tie_count, examined, first_ties, all_ties = expect
        A = sample_adjacency(config, config.planted_partition(), seed=seed)
        results = {cap: solve_exhaustive(A, config, tie_cap=cap) for cap in (64, 3)}
        for cap, res in results.items():
            assert (res.objective, res.tie_count, res.partitions_examined) == (
                best, tie_count, examined)
            assert res.partition.labels.tolist() == first_ties[0]
            assert len(res.ties) == min(cap, tie_count)
        assert [t.labels.tolist() for t in results[3].ties] == first_ties
        assert digest(np.concatenate([t.labels for t in results[64].ties])) == all_ties
