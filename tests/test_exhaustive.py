"""Exhaustive combinatorial recovery, likelihood, and local search."""

import gc
import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hsbmlab import (
    ConfigError,
    MAX_EXHAUSTIVE_N,
    ModelConfig,
    Partition,
    clustering_matrix,
    local_search,
    objective,
    partitions_equal,
    sample_adjacency,
    solve_exhaustive,
)
from hsbmlab.exhaustive import (_canonical_rows, _climb_matrix, _hill_climb, _labels,
                                _mass_table)
from hsbmlab.generate import Adjacency

REL = 1e-12


def log_likelihood(A: Adjacency, partition: Partition,
                   config: ModelConfig) -> float:
    """Exact Bernoulli log-likelihood of the adjacency matrix under the
    partition: within cluster k each pair is Bernoulli(p_k), every other
    pair (cross-cluster or touching an isolated node) is Bernoulli(q).

    Returns -inf when an observed pattern has probability zero (e.g. a
    missing edge inside a p_k = 1 cluster).  Requires 0 < q < 1.
    """
    if not 0.0 < config.q < 1.0:
        raise ValueError(f"log-likelihood needs q in (0, 1), got {config.q}")
    m = A.matrix
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


# -- oracles ----------------------------------------------------------------
# The scan and the swap search as the library ran them before it scored from
# the subset-mass table and the symmetric gain matrix: placements as member
# tuples, batches of trailing clusters scored by gathering their blocks, and
# every swap gain computed and masked to the upper triangle of different
# labels.  The library must give exactly their results.

ORACLE_BATCH_ROWS = 4096


def oracle_placement_count(n, sizes):
    total = math.factorial(n) // math.factorial(n - sum(sizes))
    mult = {}
    for s in sizes:
        total //= math.factorial(s)
        mult[s] = mult.get(s, 0) + 1
    for count in mult.values():
        total //= math.factorial(count)
    return total


def partition_count(config):
    """Number of admissible partitions of the config, in closed form:
    n! / ((n - n_bar)! * prod_k n_k!) divided by prod over repeated sizes
    (equal-size clusters are unordered)."""
    return oracle_placement_count(config.n, config.sizes.tolist())


def enumerate_partitions(config):
    """Every admissible partition once, in canonical order: the scan's
    enumeration, guarded to n <= MAX_EXHAUSTIVE_N, expanded one partition
    at a time."""
    for parents, masks, keep in _canonical_rows(config):
        rows = np.concatenate([np.repeat(parents, masks.shape[1], axis=0),
                               masks.reshape(-1, 1)], axis=1)
        for labels in _labels(rows[keep.ravel()], config.n):
            yield Partition(labels)


def oracle_twin_min(placed, size):
    """Smallest member of the last placed cluster of the given size, or -1."""
    same = [members for members in placed if len(members) == size]
    return same[-1][0] if same else -1


def oracle_placements(nodes, sizes, placed=()):
    """Every canonical placement of the clusters on the sorted nodes, as
    member tuples: the first cluster's member sets in lexicographic order,
    each cluster starting after the nearest earlier cluster of its size."""
    if not sizes:
        yield ()
        return
    size = sizes[0]
    for members in itertools.combinations(nodes, size):
        if members[0] <= oracle_twin_min(placed, size):
            continue
        rest = tuple(x for x in nodes if x not in members)
        for others in oracle_placements(rest, sizes[1:], placed + (members,)):
            yield (members,) + others


def oracle_batches(config):
    """(labels, head, tail) batches: leading clusters placed one placement
    at a time, every placement of the trailing ones as rows of tail."""
    n = config.n
    sizes = config.sizes.tolist()
    k = len(sizes) - 1
    while (k > 0 and oracle_placement_count(n - sum(sizes[:k - 1]), sizes[k - 1:])
           <= ORACLE_BATCH_ROWS):
        k -= 1
    left = tuple(range(n - sum(sizes[:k])))
    table = np.array([sum(p, ()) for p in oracle_placements(left, sizes[k:])],
                     dtype=np.intp).reshape(-1, sum(sizes[k:]))
    labels = np.zeros(n, dtype=np.int32)
    for head in oracle_placements(tuple(range(n)), sizes[:k]):
        for label, members in enumerate(head, start=1):
            labels[list(members)] = label
        tail = np.flatnonzero(labels == 0)[table]
        start = 0
        for size in sizes[k:]:
            tail = tail[tail[:, start] > oracle_twin_min(head, size)]
            start += size
        yield labels, head, tail
        labels[:] = 0


def oracle_complete(labels, config, heads, row):
    labels[row] = np.repeat(np.arange(heads + 1, config.r + 1), config.sizes[heads:])
    out = labels.tolist()
    labels[row] = 0
    return out


def oracle_partitions(config):
    """Every canonical partition's labels, in canonical order."""
    for labels, head, tail in oracle_batches(config):
        for row in tail:
            yield oracle_complete(labels, config, len(head), row)


def oracle_scan(m, config):
    """(objective, tie_count, first maximizer's labels, partitions_examined)
    of the batched scan."""
    best_val, first, tie_count, examined = -1, None, 0, 0
    sizes = config.sizes.tolist()
    for labels, head, tail in oracle_batches(config):
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
            best_val, tie_count = top, 0
            first = oracle_complete(labels, config, len(head),
                                    tail[np.argmax(scores)])
        if top == best_val:
            tie_count += int(np.count_nonzero(scores == top))
    return best_val, tie_count, first, examined


def oracle_hill_climb(m, labels, r):
    """Swap ascent with every gain of a step computed, masked to pairs
    u < v of different labels, and the first maximum taken if it exceeds
    1e-12.  Returns the final labels and the number of swaps."""
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


def random_sizes(rng, n, r_max):
    """Cluster sizes for n nodes: up to r_max clusters, often with runs of
    equal sizes, sometimes shuffled so that equal sizes are not adjacent,
    sometimes with nodes left isolated."""
    sizes = []
    while len(sizes) < r_max and sum(sizes) < n:
        if sizes and rng.random() < 0.4:
            size = sizes[-1]
        else:
            size = int(rng.integers(1, max(1, (n - sum(sizes)) // 3) + 2))
        if sum(sizes) + size > n:
            break
        sizes.append(size)
        if rng.random() < 0.15:
            break
    if rng.random() < 0.3:
        rng.shuffle(sizes)
    return sizes or [n]


def random_graph(rng, config):
    """A graph drawn from the config with random within-cluster
    probabilities, so that some draws tie and some do not."""
    probs = rng.uniform(0.1, 1.0, size=config.r)
    cfg = ModelConfig(config.n, list(zip(config.sizes.tolist(), probs)),
                      float(rng.uniform(0.0, probs.min())))
    return sample_adjacency(cfg, cfg.planted_partition(),
                            int(rng.integers(1 << 30))).matrix


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
        A = Adjacency(np.ones((4, 4)) - np.eye(4))
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
            assert objective(Adjacency(M), Partition(labels)) == expect

    def test_isolated_nodes_ignored(self):
        A = Adjacency(np.ones((3, 3)) - np.eye(3))
        assert objective(A, Partition([0, 0, 0])) == 0


class TestLogLikelihood:
    CFG2 = ModelConfig(2, [(2, 0.6)], 0.3)

    def test_single_pair_edge(self):
        A = Adjacency(np.array([[0, 1], [1, 0]]))
        ll = log_likelihood(A, Partition([1, 1]), self.CFG2)
        assert math.isclose(ll, math.log(0.6), rel_tol=REL)

    def test_single_pair_hole(self):
        A = Adjacency(np.zeros((2, 2), dtype=int))
        ll = log_likelihood(A, Partition([1, 1]), self.CFG2)
        assert math.isclose(ll, math.log(0.4), rel_tol=REL)

    def test_mixed_instance(self):
        cfg = ModelConfig(3, [(2, 0.6)], 0.3)
        A = Adjacency(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))
        ll = log_likelihood(A, Partition([1, 1, 0]), cfg)
        expect = math.log(0.6) + math.log(0.3) + math.log(0.7)
        assert math.isclose(ll, expect, rel_tol=REL)

    def test_edge_toggle_deltas(self):
        cfg = ModelConfig(8, [(4, 0.7), (4, 0.7)], 0.2)
        part = cfg.planted_partition()
        A = sample_adjacency(cfg, part, seed=2)
        base = log_likelihood(A, part, cfg)
        # toggle a within-cluster pair
        B = A.matrix.copy()
        delta = 1 - 2 * B[0, 1]
        B[0, 1] += delta
        B[1, 0] += delta
        got = log_likelihood(Adjacency(B), part, cfg) - base
        assert math.isclose(got, delta * math.log(0.7 / 0.3), rel_tol=1e-10)
        # toggle a cross-cluster pair
        C = A.matrix.copy()
        delta = 1 - 2 * C[0, 5]
        C[0, 5] += delta
        C[5, 0] += delta
        got = log_likelihood(Adjacency(C), part, cfg) - base
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
        A = Adjacency(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))  # hole in a p=1 block
        assert log_likelihood(A, Partition([1, 1, 1]), cfg) == -math.inf

    def test_requires_interior_q(self):
        cfg = ModelConfig(4, [(2, 1.0), (2, 1.0)], 0.0)
        A = Adjacency(np.zeros((4, 4), dtype=int))
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
        assert res.tie_count == 1
        assert res.partitions_examined == partition_count(self.CFG) == 126

    def test_independent_enumeration_oracle(self):
        # Re-derive the maximum by a from-scratch scan: all 5-subsets
        # containing node 0 define the unordered {5,5} splits.
        part = self.CFG.planted_partition()
        for seed in range(3):
            A = sample_adjacency(self.CFG, part, seed=seed)
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
                            val += int(A.matrix[i, j])
                best = max(best, val)
            assert count == 126
            res = solve_exhaustive(A, self.CFG)
            assert res.objective == best

    def test_tie_detection_complete_graph(self):
        A = Adjacency(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
        cfg = ModelConfig(4, [(2, 0.9), (2, 0.9)], 0.05)
        res = solve_exhaustive(A, cfg)
        assert res.objective == 4
        assert res.tie_count == 3

    def test_empty_graph_ties_every_partition(self):
        A = Adjacency(np.zeros((6, 6), dtype=int))
        cfg = ModelConfig(6, [(3, 0.1), (3, 0.1)], 0.05)
        res = solve_exhaustive(A, cfg)
        assert res.tie_count == 10  # all partitions tie at mass 0
        assert res.partition.labels.tolist() == [1, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize("seed", range(4))
    def test_brute_force_non_adjacent_equal_sizes(self, seed):
        # Sizes 2, 3, 2: the two pairs are interchangeable although they are
        # not adjacent.  Every label assignment, deduplicated by its
        # clustering matrix, gives the distinct partitions.
        cfg = ModelConfig(7, [(2, 0.9), (3, 0.9), (2, 0.9)], 0.05)
        template = cfg.planted_partition().labels.tolist()
        distinct = {}
        for labels in set(itertools.permutations(template)):
            distinct.setdefault(key(Partition(labels)), Partition(labels))
        assert len(distinct) == partition_count(cfg) == 105
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=seed)
        values = {k: objective(A, p) for k, p in distinct.items()}
        best = max(values.values())
        res = solve_exhaustive(A, cfg)
        assert res.partitions_examined == 105
        assert res.objective == best
        assert res.tie_count == sum(v == best for v in values.values())
        assert values[key(res.partition)] == best

    @pytest.mark.parametrize("config,seed", [
        (TIE8, 0), (THREE10, 1), (SPARSE9, 0),
        (ModelConfig(9, [(4, 0.8), (2, 0.8)], 0.1), 3),
        (ModelConfig(7, [(3, 0.6)], 0.2), 4), (FOUR12, 0),
    ])
    def test_matches_enumeration_reference(self, config, seed):
        # The reference scores each enumerated partition with objective()
        # and takes the first maximizer in enumeration order.
        A = sample_adjacency(config, config.planted_partition(), seed=seed)
        parts = list(enumerate_partitions(config))
        values = [objective(A, p) for p in parts]
        best = max(values)
        maximizers = [p.labels.tolist() for p, v in zip(parts, values) if v == best]
        res = solve_exhaustive(A, config)
        assert res.objective == best
        assert res.tie_count == len(maximizers)
        assert res.partitions_examined == len(parts)
        assert res.partition.labels.tolist() == maximizers[0]

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            solve_exhaustive(Adjacency(np.zeros((4, 4))), self.CFG)

    def test_scan_leaves_no_cyclic_garbage(self):
        """A scan frees its arrays when it returns, not when the cyclic
        collector next runs: it leaves no reference cycle behind."""
        A = sample_adjacency(SCAN14, SCAN14.planted_partition(), seed=0)
        solve_exhaustive(A, SCAN14)  # fills the member-set cache
        gc.collect()
        gc.disable()
        try:
            solve_exhaustive(A, SCAN14)
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        assert res.swaps >= 0

    def test_validation(self):
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=0)
        with pytest.raises(ValueError):
            local_search(A, cfg, seed=0, restarts=0)
        with pytest.raises(ConfigError):
            local_search(Adjacency(np.zeros((4, 4))), cfg, seed=0)

    # The climb reads only the maximum of a symmetric gain matrix and runs in
    # integers, so it is exact only on a 0/1 graph; local_search takes an
    # Adjacency, whose constructor refuses these matrices before the climb.
    @pytest.mark.parametrize("pair", [(-1.0, -1.0), (0.0, 1.0)])
    def test_refuses_negative_or_asymmetric_matrix(self, pair):
        cfg = ModelConfig(4, [(2, 0.9), (2, 0.9)], 0.1)
        m = np.ones((4, 4)) - np.eye(4)
        m[0, 1], m[1, 0] = pair
        with pytest.raises(ValueError, match="must be symmetric|must be 0 or 1"):
            local_search(Adjacency(m), cfg, seed=0)

    @pytest.mark.parametrize("value", [0.5, np.nan, np.inf])
    def test_refuses_non_integer_matrix(self, value):
        cfg = ModelConfig(4, [(2, 0.9), (2, 0.9)], 0.1)
        m = np.ones((4, 4)) - np.eye(4)
        m[0, 1] = m[1, 0] = value
        # NaN != NaN, so a NaN entry already fails the symmetry test.
        with pytest.raises(ValueError, match="must be symmetric|must be 0 or 1"):
            local_search(Adjacency(m), cfg, seed=0)

    # (max degree, the climb's dtype): the gain bound 2 (max degree + 1)
    # fits int16 up to degree 16,382.  The bound reads only the row sums,
    # so one adjacency row of that degree stands for the graph.
    @pytest.mark.parametrize("degree,dtype", [
        (1, np.int16), (16382, np.int16), (16383, np.int32),
    ])
    def test_climb_dtype_follows_gain_bound(self, degree, dtype):
        m = np.ones((1, degree), dtype=np.int8)
        got = _climb_matrix(m)
        assert got.dtype == dtype and np.array_equal(got, m)

    def test_zero_one_graph_climbs_in_int16(self):
        cfg = ModelConfig(30, [(10, 1.0), (10, 1.0), (10, 1.0)], 0.0)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=0)
        assert _climb_matrix(A.matrix).dtype == np.int16


class TestAgainstOracles:
    """The table-scored scan and the symmetric-gain search give exactly the
    results of the batched scan and the masked search, on seeded random
    configurations with isolated nodes and runs of equal sizes."""

    @staticmethod
    def scan_case(seed):
        """A config of up to 6 clusters on at most 12 nodes with at most
        300,000 ordered placements, and a 0/1 graph for it."""
        rng = np.random.default_rng(1100 + seed)
        while True:
            n = int(rng.integers(2, 13))
            sizes = random_sizes(rng, n, 6)
            ordered = math.factorial(n) // math.factorial(n - sum(sizes))
            ordered //= math.prod(math.factorial(s) for s in sizes)
            if ordered <= 300_000:
                break
        config = ModelConfig(n, [(s, 0.5) for s in sizes], 0.1)
        return config, random_graph(rng, config)

    @pytest.mark.parametrize("seed", range(36))
    def test_scan(self, seed):
        config, m = self.scan_case(seed)
        res = solve_exhaustive(Adjacency(m), config)
        got = (res.objective, res.tie_count, res.partition.labels.tolist(),
               res.partitions_examined)
        assert got == oracle_scan(m, config)

    @pytest.mark.parametrize("seed", range(0, 36, 3))
    def test_enumeration_order(self, seed):
        config, _ = self.scan_case(seed)
        got = (p.labels.tolist() for p in enumerate_partitions(config))
        assert list(got) == list(oracle_partitions(config))

    @staticmethod
    def climb(m, climbed, config, rng):
        """The integer climb on `climbed`, m cast for it, and the float
        oracle on m, from two random starts.  The mass the climb returns is
        ``objective`` of its labels on m (read through the matrix alone, so
        that weights stand in for a graph too)."""
        template = config.planted_partition().labels
        for _ in range(2):
            start = template[rng.permutation(config.n)]
            labels, mass, swaps = _hill_climb(climbed, start.copy(), config.r)
            want_labels, want_swaps = oracle_hill_climb(m, start.copy(), config.r)
            assert (labels.tolist(), swaps) == (want_labels.tolist(), want_swaps)
            assert mass == objective(SimpleNamespace(matrix=m), Partition(labels))

    @pytest.mark.parametrize("seed", range(30))
    def test_hill_climb(self, seed):
        """On a 0/1 graph, which climbs in int16."""
        rng = np.random.default_rng(2100 + seed)
        n = int(rng.integers(20, 121))
        config = ModelConfig(n, [(s, 0.5) for s in random_sizes(rng, n, 4)], 0.1)
        m = random_graph(rng, config)
        climbed = _climb_matrix(m)
        assert climbed.dtype == np.int16
        self.climb(m, climbed, config, rng)

    @pytest.mark.parametrize("seed", range(2))
    def test_hill_climb_beyond_int16(self, seed):
        """The int32 climb, which a 0/1 graph reaches only at max degree
        above 16,382, on weights that stand in for such a graph: 280..300
        inside two planted halves of about 120 nodes and 0..10 elsewhere,
        as int64 or float64, cast to int32.  A node's loss on leaving its
        half nears -2 x 16,000, which int16 would wrap to a false positive
        gain."""
        rng = np.random.default_rng(2200 + seed)
        n = int(rng.integers(115, 131))
        config = ModelConfig(n, [(n // 2, 0.5), (n // 2, 0.5)], 0.1)
        planted = config.planted_partition().labels
        inside = (planted[:, None] == planted) & (planted[:, None] > 0)
        m = np.where(inside, rng.integers(280, 301, (n, n)), rng.integers(0, 11, (n, n)))
        m = np.triu(m, 1)
        m = (m + m.T).astype((np.int64, np.float64)[seed])
        self.climb(m, m.astype(np.int32), config, rng)

    def test_mass_table_matches_objective(self):
        rng = np.random.default_rng(41)
        for trial in range(24):
            n = int(rng.integers(1, 13))
            m = np.triu(rng.random((n, n)) < rng.random(), 1).astype(np.int8)
            A = Adjacency(m + m.T)
            table = _mass_table(A.matrix)
            assert table.shape == (2**n,) and table.dtype == np.int64
            for mask in rng.integers(0, 2**n, size=20).tolist():
                labels = [(mask >> i) & 1 for i in range(n)]
                assert table[mask] == objective(A, Partition(labels))


class TestFrozenOutputs:
    """Outputs recorded from the one-pair-at-a-time swap search and the
    one-partition-at-a-time scan.  Any change in swap order, scan order or
    tie bookkeeping changes one of these values."""

    # (config, seed) -> (labels digest, objective, swaps),
    # with the graph drawn from seed and local_search(seed=seed, restarts=10).
    SEARCH = [
        (BENCH200, 0, ("dee32dde3334b62a", 10016, 479)),
        (BENCH200, 1, ("dee32dde3334b62a", 9866, 461)),
        (BENCH200, 2, ("de627fa4116d5e80", 9984, 478)),
        (ISO60, 0, ("0b87e388bc3f476a", 368, 261)),
        (ISO60, 1, ("9aca1c2d204dbbac", 364, 232)),
    ]

    @pytest.mark.parametrize("config,seed,expect", SEARCH)
    def test_local_search(self, config, seed, expect):
        A = sample_adjacency(config, config.planted_partition(), seed=seed)
        res = local_search(A, config, seed=seed, restarts=10)
        got = (digest(res.partition.labels), res.objective, res.swaps)
        assert got == expect

    # (config, seed) -> (objective, tie_count, partitions_examined, the
    # first maximizer).
    SCAN = [
        (TIE8, 0, (6, 4, 420, [1, 1, 2, 3, 0, 0, 3, 2])),
        (THREE10, 1, (16, 3, 2800, [1, 1, 1, 2, 2, 2, 3, 3, 3, 0])),
        (SPARSE9, 0, (4, 20, 840, [1, 1, 1, 2, 2, 2, 0, 0, 0])),
        (SCAN14, 0, (40, 1, 126126, [1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 0, 0, 0, 0])),
        (FOUR12, 0, (16, 4, 15400, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4])),
        (PAIRS13, 0, (10, 9, 135135, [1, 1, 2, 2, 3, 4, 3, 5, 6, 6, 4, 5, 0])),
    ]

    @pytest.mark.parametrize("config,seed,expect", SCAN)
    def test_solve_exhaustive(self, config, seed, expect):
        A = sample_adjacency(config, config.planted_partition(), seed=seed)
        res = solve_exhaustive(A, config)
        assert (res.objective, res.tie_count, res.partitions_examined,
                res.partition.labels.tolist()) == expect
