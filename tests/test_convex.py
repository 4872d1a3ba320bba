"""Convex relaxation: projection oracles, solver behavior, rounding.

The two projection operators are checked against independent oracles built
on different algorithms from the library's (dual bisection for the nuclear
ball; bisection on the shift, a brute-force breakpoint scan and KKT
certificates for the box-with-sum polytope), then the end-to-end
pipeline is pinned with frozen success counts on a fixed seed range.  The
duality-gap stop is checked against an eigensolver-based bound and the
exhaustive oracle, and its iteration counts are pinned.  The parity step
of the certificate is checked by enumerating clustering matrices, and the
kept-eigenpair rebuild of the nuclear projection against the full one, on
both of its routes: LAPACK's kept eigenvectors and the eigh fallback.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbmlab import (
    Adjacency,
    ConfigError,
    ModelConfig,
    Partition,
    partitions_equal,
    project_box_sum,
    project_nuclear_ball,
    recover_convex,
    round_solution,
    sample_adjacency,
    sample_observed,
    solve_convex,
)
from hsbmlab import _openblas, convex
from hsbmlab.convex import dual_bound
from hsbmlab.exhaustive import objective, solve_exhaustive
from hsbmlab.model import clustering_matrix
from test_exhaustive import enumerate_partitions


# numpy's wheels link scipy-openblas, whose LAPACK the nuclear projection
# binds; on such a build the eigh fallback must not run.
SCIPY_OPENBLAS = (np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
                  ["name"] == "scipy-openblas")


def random_symmetric(rng, n, scale=2.0):
    M = rng.normal(scale=scale, size=(n, n))
    return (M + M.T) / 2.0


def nuclear_norm(M):
    return float(np.linalg.svd(M, compute_uv=False).sum())


# -- independent oracles ----------------------------------------------------


def oracle_nuclear_projection(M, radius):
    """Dual bisection: soft-threshold the spectrum at the tau solving
    sum max(|w| - tau, 0) = radius."""
    w, V = np.linalg.eigh(M)
    a = np.abs(w)
    if a.sum() <= radius:
        return M.copy()
    lo, hi = 0.0, float(a.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    w_new = np.sign(w) * np.maximum(a - tau, 0.0)
    return (V * w_new) @ V.T


def full_rebuild_projection(M, radius):
    """The nuclear projection rebuilt from every eigenpair, the ones the
    shrink zeroes included."""
    w, V = np.linalg.eigh(M)
    if np.abs(w).sum() <= radius:
        return M.copy()
    w_proj = convex._project_l1_ball(w, radius)
    out = (V * w_proj) @ V.T
    return (out + out.T) / 2.0


def eigh_projection(M, radius):
    """The nuclear projection as the eigh fallback computes it: a full
    eigendecomposition, rebuilt from the kept eigenpairs."""
    w, V = np.linalg.eigh(M)
    if np.abs(w).sum() <= radius:
        return M.copy()
    w_proj = convex._project_l1_ball(w, radius)
    kept = np.flatnonzero(w_proj)
    out = (V[:, kept] * w_proj[kept]) @ V[:, kept].T
    return (out + out.T) / 2.0


@st.composite
def symmetric_inputs(draw):
    """(M, radius): a symmetric matrix of order 1 to 12 and a radius from 0
    to 1.2 times its nuclear norm.  Besides dense matrices, block-diagonal
    ones, whose tridiagonal form splits (as A + I does at isolated nodes),
    with some blocks repeated and some 1x1 blocks of 1; and matrices with
    few distinct eigenvalues, so that the kept ones repeat."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "blocks", "repeated"]))
    if kind == "dense":
        M = random_symmetric(rng, n)
    elif kind == "blocks":
        M = np.zeros((n, n))
        start, block = 0, None
        while start < n:  # each block new, or a repeat of the one before
            if block is None or len(block) > n - start or rng.random() < 0.5:
                size = int(rng.integers(1, n - start + 1))
                block = np.eye(size) if rng.random() < 0.3 else random_symmetric(rng, size)
            M[start:start + len(block), start:start + len(block)] = block
            start += len(block)
    else:
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        M = (Q * rng.choice([-3.0, -1.0, 0.5, 2.0, 4.0], size=n)) @ Q.T
        M = (M + M.T) / 2.0
    radius = draw(st.floats(0.0, 1.2)) * float(np.abs(np.linalg.eigvalsh(M)).sum())
    return M, radius


def oracle_box_sum_projection(M, total):
    """Breakpoint scan: the clipped sum g(lam) = sum clip(M - lam, 0, 1) is
    piecewise linear in lam with kinks at M_ij and M_ij - 1; locate the
    segment bracketing the target and solve the linear equation exactly."""
    flat = M.ravel()
    kinks = np.unique(np.concatenate([flat, flat - 1.0]))
    sums = np.array([np.clip(flat - k, 0.0, 1.0).sum() for k in kinks])
    # g is nonincreasing; find neighbors with g(lo) >= total >= g(hi)
    idx = np.searchsorted(-sums, -total, side="left")
    if idx == 0:
        lam = kinks[0] - (total - sums[0])  # slope -size region? not needed
    else:
        k0, k1 = kinks[idx - 1], kinks[min(idx, len(kinks) - 1)]
        g0 = np.clip(flat - k0, 0.0, 1.0).sum()
        g1 = np.clip(flat - k1, 0.0, 1.0).sum()
        if g0 == g1:
            lam = k0
        else:
            lam = k0 + (g0 - total) * (k1 - k0) / (g0 - g1)
    return np.clip(M - lam, 0.0, 1.0)


def bisection_box_sum_projection(M, total):
    """Bisection on the shift: the clipped sum g(lam) = sum clip(M - lam,
    0, 1) is continuous and nonincreasing, so 80 halvings of
    [min M - 1, max M] pin lam as finely as a float sum near the target
    resolves it.  Above half the box it bisects the complement instead,
    P(M, t) = 1 - P(1 - M, M.size - t), so that the sum compared is the
    smaller one (a sum near 40000 resolves only about 7e-12)."""
    if total > M.size / 2:
        return 1.0 - bisection_box_sum_projection(1.0 - M, M.size - total)
    lo = float(M.min()) - 1.0
    hi = float(M.max())
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.clip(M - mid, 0.0, 1.0).sum() >= total:
            lo = mid
        else:
            hi = mid
    return np.clip(M - 0.5 * (lo + hi), 0.0, 1.0)


def assert_box_sum_kkt(M, P, total, tol=1e-8):
    """P = clip(M - lam) for a single shift lam, with the right sum."""
    assert (P >= 0.0).all() and (P <= 1.0).all()
    assert abs(P.sum() - total) < max(1e-6, 1e-9 * M.size)
    interior = (P > 1e-9) & (P < 1.0 - 1e-9)
    if interior.any():
        lams = (M - P)[interior]
        lam = lams.mean()
        assert np.abs(lams - lam).max() < tol
        assert (M[P <= 1e-9] <= lam + tol).all()
        assert ((M - 1.0)[P >= 1.0 - 1e-9] >= lam - tol).all()


class TestNuclearProjection:
    def test_identity_halved(self):
        P = project_nuclear_ball(np.eye(2), 1.0)
        assert np.allclose(P, 0.5 * np.eye(2), rtol=1e-12, atol=1e-12)

    def test_interior_untouched(self):
        M = np.array([[0.3, 0.1], [0.1, 0.2]])
        P = project_nuclear_ball(M, 10.0)
        assert np.array_equal(P, M)
        assert P is not M

    def test_radius_zero_keeps_nothing(self):
        M = random_symmetric(np.random.default_rng(5), 6)
        assert np.array_equal(project_nuclear_ball(M, 0.0), np.zeros((6, 6)))

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            M = random_symmetric(rng, n)
            radius = float(rng.uniform(0.1, 1.2 * np.abs(np.linalg.eigvalsh(M)).sum()))
            P = project_nuclear_ball(M, radius)
            O = oracle_nuclear_projection(M, radius)
            assert np.abs(P - O).max() < 1e-8
            assert nuclear_norm(P) <= radius * (1.0 + 1e-9)

    @given(symmetric_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_oracle_on_drawn_inputs(self, case):
        M, radius = case
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            P = project_nuclear_ball(M, radius)
        assert np.abs(P - oracle_nuclear_projection(M, radius)).max() < 1e-8
        assert nuclear_norm(P) <= radius * (1.0 + 1e-9) + 1e-12
        if SCIPY_OPENBLAS:  # the LAPACK route computed P, with no fallback
            eigh.assert_not_called()

    def test_optimality_against_feasible_probes(self):
        rng = np.random.default_rng(2)
        M = random_symmetric(rng, 6)
        radius = 3.0
        P = project_nuclear_ball(M, radius)
        d_opt = np.linalg.norm(M - P)
        for _ in range(300):
            X = random_symmetric(rng, 6)
            nn = nuclear_norm(X)
            X *= radius * rng.uniform(0.0, 1.0) / nn
            assert np.linalg.norm(M - X) >= d_opt - 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = random_symmetric(rng, 5)
            P = project_nuclear_ball(M, 2.0)
            PP = project_nuclear_ball(P, 2.0)
            assert np.abs(P - PP).max() < 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            X = random_symmetric(rng, 4)
            Y = random_symmetric(rng, 4)
            PX = project_nuclear_ball(X, 1.5)
            PY = project_nuclear_ball(Y, 1.5)
            assert np.linalg.norm(PX - PY) <= np.linalg.norm(X - Y) + 1e-12

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            project_nuclear_ball(np.eye(2), -1.0)


class TestBoxSumProjection:
    def test_fixed_point(self):
        M = np.full((3, 3), 0.5)
        P = project_box_sum(M, 4.5)
        assert np.abs(P - M).max() < 1e-12

    def test_matches_breakpoint_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            M = rng.normal(scale=2.0, size=(n, n))
            total = float(rng.uniform(0.0, n * n))
            P = project_box_sum(M, total)
            for oracle in (oracle_box_sum_projection, bisection_box_sum_projection):
                assert np.abs(P - oracle(M, total)).max() < 1e-9

    @pytest.mark.parametrize("M, total, expected", [
        ([[0.3]], 0.0, [[0.0]]),
        ([[0.3]], 0.25, [[0.25]]),
        ([[0.3]], 1.0, [[1.0]]),
        ([[1.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]], 0.0, np.zeros((3, 3))),
        ([[1.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]], 9.0, np.ones((3, 3))),
        (np.full((4, 4), 0.7), 6.0, np.full((4, 4), 0.375)),
        # -0.9 - 1 + 1 rounds above -0.9, so the clipped sum at the first
        # kink reads a rounding error under the target.
        (np.full((4, 4), -0.9), 16.0, np.ones((4, 4))),
        # The shift lands on 1, a kink of the three 1s and of the three 2s.
        ([[1.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]], 3.0,
         [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        # g is flat at the target: every shift in [0, 2] gives the same clip.
        ([[0.0, 3.0], [3.0, 0.0]], 2.0, [[0.0, 1.0], [1.0, 0.0]]),
        ([[0, 3, 0], [3, 0, 3], [0, 3, 0]], 4.0,
         [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    ])
    def test_edge_cases(self, M, total, expected):
        M = np.asarray(M)
        P = project_box_sum(M, total)
        assert np.abs(P - np.asarray(expected)).max() < 1e-12
        for oracle in (oracle_box_sum_projection, bisection_box_sum_projection):
            assert np.abs(P - oracle(M.astype(float), total)).max() < 1e-9
        assert_box_sum_kkt(M, P, total)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["normal", "integer"]),
           fraction=st.floats(0.0, 1.0), integer_target=st.booleans())
    def test_matches_bisection_at_n200(self, seed, kind, fraction, integer_target):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            M = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=(200, 200))
        else:
            M = rng.integers(-3, 4, size=(200, 200)).astype(float)
        total = fraction * M.size
        if integer_target:
            total = float(round(total))
        P = project_box_sum(M, total)
        assert_box_sum_kkt(M, P, total)
        assert np.abs(P - bisection_box_sum_projection(M, total)).max() < 1e-12

    def test_kkt_certificate(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            M = rng.normal(scale=3.0, size=(n, n))
            total = float(rng.uniform(0.0, n * n))
            P = project_box_sum(M, total)
            assert_box_sum_kkt(M, P, total)

    def test_extreme_targets(self):
        M = np.array([[2.0, -3.0], [0.5, 0.1]])
        assert np.abs(project_box_sum(M, 0.0)).max() < 1e-9
        assert np.abs(project_box_sum(M, 4.0) - 1.0).max() < 1e-9

    def test_out_of_range_target(self):
        M = np.zeros((2, 2))
        with pytest.raises(ValueError):
            project_box_sum(M, -0.5)
        with pytest.raises(ValueError):
            project_box_sum(M, 4.5)

    def test_nonexpansive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            X = rng.normal(size=(3, 3))
            Y = rng.normal(size=(3, 3))
            PX = project_box_sum(X, 4.0)
            PY = project_box_sum(Y, 4.0)
            assert np.linalg.norm(PX - PY) <= np.linalg.norm(X - Y) + 1e-9


class TestSolverOptions:
    """max_iter is the solver's one setting; the rest are constants."""

    def test_defaults(self):
        assert convex.MAX_ITER == 2000
        assert convex.TOL_CHANGE == 1e-7
        assert convex.ROUNDING_THRESHOLD == 0.5

    @pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"max_iter": -1}])
    def test_validation(self, kwargs):
        cfg = ModelConfig(4, [(2, 0.9), (2, 0.9)], 0.05)
        with pytest.raises(ConfigError, match="max_iter must be >= 1"):
            solve_convex(Adjacency(np.zeros((4, 4))), 4.0, 8, **kwargs)
        with pytest.raises(ConfigError, match="max_iter must be >= 1"):
            recover_convex(Adjacency(np.zeros((4, 4))), cfg, **kwargs)

    @pytest.mark.parametrize("value", [5.0, True, "5"])
    def test_non_integer_rejected(self, value):
        with pytest.raises(ConfigError, match="max_iter must be an integer"):
            solve_convex(Adjacency(np.zeros((4, 4))), 4.0, 8, max_iter=value)

    def test_numpy_integer_accepted(self):
        assert convex.check_max_iter(np.int64(3)) == 3


class TestSolveConvex:
    def test_every_projection_input_exactly_symmetric(self):
        # With the symmetrizing passes gone, both projections must still
        # see exactly symmetric matrices on real draws, full and partial.
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05, gamma=0.6)
        inputs = []

        def spying(project):
            def spy(X, bound):
                inputs.append(X.copy())  # the solver updates Z in place
                return project(X, bound)
            return spy

        with mock.patch.object(convex, "project_box_sum",
                               spying(convex.project_box_sum)), \
                mock.patch.object(convex, "project_nuclear_ball",
                                  spying(convex.project_nuclear_ball)):
            planted = cfg.planted_partition()
            for graph in (sample_adjacency(cfg, planted, 0),
                          sample_observed(cfg, planted, 3).to_adjacency(0)):
                recover_convex(graph, cfg.collapsed(), max_iter=20)
        assert len(inputs) > 20
        assert all(np.array_equal(X, X.T) for X in inputs)

    def test_zero_matrix(self):
        res = solve_convex(Adjacency(np.zeros((4, 4))), 4.0, 0)
        assert res.converged
        assert np.abs(res.Y).max() < 1e-9
        assert res.objective == 0.0

    def test_iterate_always_box_sum_feasible(self):
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=1)
        res = solve_convex(A, 10.0, 50)
        Y = res.Y
        assert (Y >= -1e-12).all() and (Y <= 1.0 + 1e-12).all()
        assert abs(Y.sum() - 50.0) < 1e-6
        assert np.abs(Y - Y.T).max() < 1e-12

    def test_noiseless_recovers_clustering_matrix(self):
        cfg = ModelConfig(12, [(6, 1.0), (6, 1.0)], 0.0)
        part = cfg.planted_partition()
        A = sample_adjacency(cfg, part, seed=0)
        res = solve_convex(A, 12.0, 72)
        assert res.converged
        ideal = np.kron(np.eye(2), np.ones((6, 6)))
        assert np.abs(res.Y - ideal).max() < 1e-4

    def test_objective_dominates_planted_point(self):
        # The planted clustering matrix is feasible, so the (near-)optimal
        # iterate must score at least as well, up to solver tolerance.
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        part = cfg.planted_partition()
        ideal = np.kron(np.eye(2), np.ones((5, 5)))
        for seed in range(5):
            A = sample_adjacency(cfg, part, seed=seed)
            res = solve_convex(A, 10.0, 50)
            planted_obj = float(np.tensordot(A.matrix + np.eye(10), ideal))
            assert res.objective >= planted_obj - 0.5

    def test_max_iter_reached_flags_nonconvergence(self):
        # Seed 36 has a fractional relaxation optimum: no certificate can
        # stop the solver within one iteration.
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=36)
        res = solve_convex(A, 10.0, 50, max_iter=1)
        assert res.iterations == 1
        assert not res.converged


class TestRounding:
    def test_exact_blocks(self):
        Y = np.kron(np.eye(2), np.ones((3, 3)))
        part, detail = round_solution(Y)
        assert isinstance(part, Partition) and detail == ""
        assert partitions_equal(part, Partition([1, 1, 1, 2, 2, 2]))

    def test_zero_diagonal_irrelevant(self):
        Y = np.kron(np.eye(2), np.ones((3, 3)))
        np.fill_diagonal(Y, 0.0)
        part, _ = round_solution(Y)
        assert partitions_equal(part, Partition([1, 1, 1, 2, 2, 2]))

    def test_singletons_become_isolated(self):
        Y = np.zeros((4, 4))
        Y[0, 1] = Y[1, 0] = 0.9
        part, _ = round_solution(Y)
        assert part.labels.tolist() == [1, 1, 0, 0]

    def test_threshold_is_strict(self):
        Y = np.zeros((2, 2))
        Y[0, 1] = Y[1, 0] = 0.5
        part, _ = round_solution(Y)
        assert part.labels.tolist() == [0, 0]

    def test_bridged_blocks_fail_as_not_clique(self):
        Y = np.kron(np.eye(2), np.ones((2, 2)))
        Y[1, 2] = Y[2, 1] = 0.55  # dangling bridge merges the components
        part, detail = round_solution(Y)
        assert part is None
        assert detail == ("not_clique: component of 4 nodes is missing 3 "
                          "pairs above threshold 0.5")


class TestRecoverConvex:
    CFG = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)

    def test_success_path(self):
        A = sample_adjacency(self.CFG, self.CFG.planted_partition(), seed=0)
        rec = recover_convex(A, self.CFG)
        assert (rec.failure_kind, rec.detail) == ("none", "")
        assert rec.solver.converged
        assert rec.objective == rec.solver.objective
        assert partitions_equal(rec.partition, self.CFG.planted_partition())

    def test_nonconvergence_path(self):
        A = sample_adjacency(self.CFG, self.CFG.planted_partition(), seed=36)
        rec = recover_convex(A, self.CFG, max_iter=1)
        assert rec.partition is None
        assert rec.failure_kind == "nonconvergence"
        assert rec.detail.startswith("nonconvergence: no convergence in 1 iterations")
        assert rec.objective == rec.solver.objective

    # Draws whose rounding gives cliques of sizes other than the configured
    # ones; each was reported as a success before the size check.
    @pytest.mark.parametrize("cfg, seed", [
        *((ModelConfig(8, [(4, 0.5)], 0.2), s) for s in (2, 4, 5, 8, 11, 25, 33)),
        (ModelConfig(12, [(6, 0.9), (3, 0.9), (2, 0.9)], 0.05), 33),
    ])
    def test_wrong_sizes_fail_as_size_mismatch(self, cfg, seed):
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=seed)
        rec = recover_convex(A, cfg)
        assert rec.partition is None
        assert rec.failure_kind == "rounding"
        assert rec.detail.startswith("size_mismatch: component sizes ")
        assert rec.detail.endswith(f" != configured {sorted(cfg.sizes.tolist())}")

    def test_frozen_success_rate_and_oracle_equality(self):
        # Frozen measurement on seeds 0..29 at the default options: all 30
        # draws round, since the objective charges the diagonal that the
        # sum target counts.  Every success must exactly match the
        # combinatorial maximum.
        cfg = self.CFG
        part = cfg.planted_partition()
        successes = 0
        failing = []
        for seed in range(30):
            A = sample_adjacency(cfg, part, seed=seed)
            rec = recover_convex(A, cfg)
            if rec.failure_kind == "none":
                successes += 1
                best = solve_exhaustive(A, cfg)
                assert objective(A, rec.partition) == best.objective
            else:
                failing.append(seed)
                assert rec.detail.startswith(("not_clique: ", "nonconvergence: "))
        assert successes == 30
        assert failing == []


class TestIsolatedNodes:
    # Frozen at the nuclear radius sum_k n_k (n_covered), draws 0-39.  With
    # radius n the same draws gave 7/40 and 1/40.
    @pytest.mark.parametrize("cfg, successes", [
        (ModelConfig(12, [(5, 0.9), (5, 0.9)], 0.05), 35),
        (ModelConfig(13, [(4, 0.9), (4, 0.9)], 0.05), 33),
    ])
    def test_oracle_agreement_and_frozen_successes(self, cfg, successes):
        found = 0
        for seed in range(40):
            A = sample_adjacency(cfg, cfg.planted_partition(), seed=seed)
            rec = recover_convex(A, cfg)
            if rec.failure_kind == "none":
                found += 1
                best = solve_exhaustive(A, cfg)
                assert objective(A, rec.partition) == best.objective
        assert found == successes


def top_sum(M, s):
    return float(np.sort(M.ravel())[::-1][:s].sum())


@st.composite
def small_configs(draw):
    n = draw(st.integers(3, 10))
    r = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, max(1, n // r))) for _ in range(r)]
    q = draw(st.sampled_from([0.0, 0.05, 0.2]))
    p = draw(st.sampled_from([0.5, 0.7, 0.9]))
    return ModelConfig(n, [(size, p) for size in sizes], q), draw(st.integers(0, 10**6))


class TestCertificate:
    @given(small_configs())
    @settings(max_examples=40, deadline=None)
    def test_dual_bound_dominates_oracle_at_every_iteration(self, case):
        cfg, seed = case
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=seed)
        M = A.matrix.astype(float) + np.eye(cfg.n)
        radius = cfg.n_covered
        s = int(sum(size * size for size in cfg.sizes))
        best = solve_exhaustive(A, cfg).objective + radius
        pairs = []

        def recording(Z, r):
            Y = project_nuclear_ball(Z, r)
            pairs.append((Z.copy(), Y))
            return Y

        with mock.patch.object(convex, "project_nuclear_ball", recording):
            rec = recover_convex(A, cfg, max_iter=200)
        assert pairs
        for Z, Y in pairs:
            eig_tau = float(np.abs(np.linalg.eigvalsh(Z - Y)).max())
            tau = float(np.tensordot(Z - Y, Y)) / radius
            assert math.isclose(tau, eig_tau, rel_tol=1e-9, abs_tol=1e-12)
            eig_bound = radius * eig_tau + top_sum(M - (Z - Y), s)
            assert eig_bound >= best - 1e-9
            assert math.isclose(dual_bound(M, Z, Y, s), eig_bound,
                                rel_tol=1e-9, abs_tol=1e-9)
        if rec.failure_kind == "none":
            assert rec.solver.objective == best
            assert objective(A, rec.partition) + radius == best

    SMALL10 = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
    CRITERION10 = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05, gamma=0.6)

    # seed -> (iterations, <A + I, Y_P>), every one the planted partition.
    FROZEN_SMALL10 = {0: (1, 46), 1: (2, 48), 2: (3, 42), 3: (3, 48), 4: (2, 50),
                      5: (3, 46), 6: (1, 50), 7: (4, 48), 8: (2, 48), 9: (2, 46),
                      79: (3, 44)}
    FROZEN_CRITERION10 = {0: (7, 6130), 1: (8, 6156), 2: (8, 6138),
                          3: (9, 6130), 4: (7, 6232), 5: (7, 6136),
                          6: (8, 6094)}

    def assert_certified(self, A, cfg, planted, expected):
        rec = recover_convex(A, cfg)
        iterations, value = expected
        solver = rec.solver
        assert (solver.iterations, solver.objective) == (iterations, value)
        assert solver.converged and solver.certified
        assert solver.objective == objective(A, planted) + cfg.n_covered
        assert partitions_equal(rec.partition, planted)
        assert set(np.unique(solver.Y)) <= {0.0, 1.0}

    @pytest.mark.parametrize("seed", sorted(FROZEN_SMALL10))
    def test_frozen_small10(self, seed):
        cfg = self.SMALL10
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=seed)
        self.assert_certified(A, cfg, cfg.planted_partition(), self.FROZEN_SMALL10[seed])

    @pytest.mark.parametrize("seed", sorted(FROZEN_CRITERION10))
    def test_frozen_criterion10(self, seed):
        cfg = self.CRITERION10
        planted = cfg.planted_partition()
        A = sample_observed(cfg, planted, seed).to_adjacency(unobserved_as=0)
        self.assert_certified(A, cfg.collapsed(), planted, self.FROZEN_CRITERION10[seed])

    def test_certificate_rounds_with_round_solution(self):
        # One rounding rule: the certificate reads the certifying iterate
        # with round_solution, and recover_convex its final answer.
        cfg = self.CRITERION10
        planted = cfg.planted_partition()
        A = sample_observed(cfg, planted, 0).to_adjacency(unobserved_as=0)
        iterates, rounded = [], []

        def box_spy(X, total):
            W = project_box_sum(X, total)
            iterates.append(W)
            return W

        def round_spy(Y):
            found = round_solution(Y)
            rounded.append((Y, found))
            return found

        with mock.patch.object(convex, "project_box_sum", box_spy), \
                mock.patch.object(convex, "round_solution", round_spy):
            rec = recover_convex(A, cfg.collapsed())
        assert rec.solver.certified and partitions_equal(rec.partition, planted)
        assert len(rounded) >= 2
        assert all(any(Y is W for W in iterates) for Y, _ in rounded[:-1])
        (certifying, certified), (final, answer) = rounded[-2:]
        assert certifying is iterates[-1] and final is rec.solver.Y
        for partition, detail in (certified, answer):
            assert detail == "" and partitions_equal(partition, planted)

    @pytest.mark.parametrize("seed", range(4))
    def test_uncertified_stop_is_a_rounding_failure(self, seed):
        # With a slack above the value step no gap certifies, so these
        # draws stop on the change test and round to the planted
        # partition without a proof: that is a failure, not a success.
        cfg = self.SMALL10
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=seed)
        with mock.patch.object(convex, "CERTIFICATE_SLACK", 3.0):
            rec = recover_convex(A, cfg)
        solver = rec.solver
        assert solver.converged and not solver.certified
        assert solver.change <= convex.TOL_CHANGE
        assert partitions_equal(round_solution(solver.Y)[0], cfg.planted_partition())
        assert (rec.partition, rec.failure_kind) == (None, "rounding")
        assert rec.detail == (f"uncertified: the dual bound is {solver.gap:.3e} "
                              "above the rounded value")

    # Criterion 4's draws whose certificate needs the parity step: seed ->
    # iterations, one fewer than with a value step of 1.
    PARITY_SMALL10 = {26: 4, 49: 4, 65: 4}

    @pytest.mark.parametrize("seed", sorted(PARITY_SMALL10))
    def test_parity_certificate_matches_oracle(self, seed):
        cfg = self.SMALL10
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=seed)
        solver = recover_convex(A, cfg).solver
        assert solver.certified and solver.iterations == self.PARITY_SMALL10[seed]
        assert 1.0 <= solver.gap
        assert solver.objective == solve_exhaustive(A, cfg).objective + cfg.n_covered
        with mock.patch.object(convex, "VALUE_STEP", 1):
            unit = recover_convex(A, cfg).solver
        assert unit.iterations == solver.iterations + 1 and unit.certified
        assert unit.gap < 1.0
        assert unit.objective == solver.objective


class TestRelaxation:
    # Frozen on these draws: the relaxed step moves no success, partition
    # or certified objective of the unit step.  One failure changes kind:
    # seed 3 of the 13-node config reaches max_iter with the unit step and
    # stops on the change test with the relaxed one, as a rounding failure.
    @pytest.mark.parametrize("cfg, seeds, kind_changes", [
        (TestCertificate.SMALL10, range(100), []),
        (ModelConfig(12, [(5, 0.9), (5, 0.9)], 0.05), range(40), []),
        (ModelConfig(13, [(4, 0.9), (4, 0.9)], 0.05), range(40), [3]),
    ])
    def test_outcomes_match_the_unit_step(self, cfg, seeds, kind_changes):
        assert convex.RELAXATION == 1.5
        planted = cfg.planted_partition()
        changed = []
        for seed in seeds:
            A = sample_adjacency(cfg, planted, seed)
            relaxed = recover_convex(A, cfg)
            with mock.patch.object(convex, "RELAXATION", 1.0):
                unit = recover_convex(A, cfg)
            assert (relaxed.failure_kind == "none") == (unit.failure_kind == "none")
            if unit.failure_kind == "none":
                assert partitions_equal(relaxed.partition, unit.partition)
            certified = [rec.solver.certified for rec in (relaxed, unit)]
            assert certified[0] == certified[1]
            if certified[0]:
                assert relaxed.objective == unit.objective
            if relaxed.failure_kind != unit.failure_kind:
                assert unit.failure_kind == "nonconvergence"
                changed.append(seed)
        assert changed == kind_changes


def square_size_sets(n, sum_target):
    """Every multiset of cluster sizes (descending) with the given sum of
    squares that fits on n nodes: the body's clustering matrices and more,
    since the nuclear bound is dropped."""
    def grow(squares, nodes, cap):
        if squares == 0:
            yield ()
        for size in range(min(cap, nodes, math.isqrt(squares)), 0, -1):
            for rest in grow(squares - size * size, nodes - size, size):
                yield (size, *rest)
    yield from grow(sum_target, n, n)


class TestValueStep:
    @pytest.mark.parametrize("n, sizes", [(6, (2, 2, 1)), (7, (3, 1, 1)),
                                          (7, (2, 2, 2)), (8, (3, 2))])
    def test_clustering_values_share_one_parity(self, n, sizes):
        sum_target = sum(size * size for size in sizes)
        size_sets = list(square_size_sets(n, sum_target))
        assert len(size_sets) > 1
        rng = np.random.default_rng(n + len(sizes))
        for _ in range(4):
            upper = np.triu(rng.integers(-4, 5, size=(n, n)), 1)
            M = upper + upper.T
            d = int(rng.integers(2))
            np.fill_diagonal(M, 2 * rng.integers(-3, 4, size=n) + d)
            for found in size_sets:
                cfg = ModelConfig(n, [(size, 0.5) for size in found], 0.1)
                for part in enumerate_partitions(cfg):
                    value = int(np.tensordot(M, clustering_matrix(part)))
                    assert (value - d * sum_target) % 2 == 0


@functools.cache
def criterion10_iterates():
    """The (Z, radius) of every nuclear projection that criterion 10's
    draws 0-6 make, one per iteration."""
    cfg = TestCertificate.CRITERION10
    planted = cfg.planted_partition()
    inputs = []

    def recording(Z, r):
        inputs.append((Z.copy(), r))
        return project_nuclear_ball(Z, r)

    with mock.patch.object(convex, "project_nuclear_ball", recording):
        for seed in range(7):
            A = sample_observed(cfg, planted, seed).to_adjacency(unobserved_as=0)
            recover_convex(A, cfg.collapsed())
    frozen = TestCertificate.FROZEN_CRITERION10
    assert len(inputs) == sum(iterations for iterations, _ in frozen.values())
    return tuple(inputs)


def no_lapack(*signature):
    return None


class TestKeptRebuild:
    """The kept-eigenpair rebuild against the rebuild from every eigenpair,
    on the 54 iterates of criterion10_iterates."""

    def test_bit_identical_to_full_rebuild_on_criterion10(self, monkeypatch):
        # The eigh route.  Like the golden digests, bit identity pins
        # numpy 2.4 on x86-64.
        monkeypatch.setattr(_openblas, "lapack", no_lapack)
        n = TestCertificate.CRITERION10.n
        dropped = 0
        for Z, r in criterion10_iterates():
            kept_rebuild = project_nuclear_ball(Z, r)
            assert np.array_equal(kept_rebuild, full_rebuild_projection(Z, r))
            w = convex._project_l1_ball(np.linalg.eigvalsh(Z), r)
            dropped += np.count_nonzero(w) < n
        assert dropped == len(criterion10_iterates())

    def test_lapack_route_matches_full_rebuild_on_criterion10(self):
        for Z, r in criterion10_iterates():
            full = full_rebuild_projection(Z, r)
            assert np.abs(project_nuclear_ball(Z, r) - full).max() <= 1e-12 * np.abs(full).max()


class TestLapackRoute:
    """project_nuclear_ball computes only the kept eigenvectors through
    numpy's OpenBLAS, and takes the eigh route, to the byte, where that
    cannot be done."""

    M = random_symmetric(np.random.default_rng(11), 30)
    RADIUS = 6.0

    def assert_eigh_bytes(self):
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            P = project_nuclear_ball(self.M, self.RADIUS)
        eigh.assert_called_once()
        assert P.tobytes() == eigh_projection(self.M, self.RADIUS).tobytes()

    def test_missing_binding_takes_eigh(self, monkeypatch):
        monkeypatch.setattr(_openblas, "lapack", no_lapack)
        self.assert_eigh_bytes()

    def assert_failure_takes_eigh(self, monkeypatch, routine, info):
        """The routine reports INFO = info on its first call; the projection
        starts again from eigh, which runs once."""
        bound = _openblas.lapack
        calls = []

        def failing(*args):
            calls.append(args)
            return info

        monkeypatch.setattr(_openblas, "lapack", lambda name, *signature: (
            failing if name == routine else bound(name, *signature)))
        self.assert_eigh_bytes()
        assert len(calls) == (1 if SCIPY_OPENBLAS else 0)

    def test_dstein_failure_takes_eigh(self, monkeypatch):
        # INFO > 0: an eigenvector failed to converge
        self.assert_failure_takes_eigh(monkeypatch, "dstein", 1)

    @pytest.mark.parametrize("routine, info", [
        ("dsytrd", -1),  # INFO < 0: an illegal argument
        ("dsterf", 1),  # INFO > 0: the QL/QR iteration failed
        ("dormtr", -1),  # INFO < 0: an illegal argument
    ])
    def test_failure_takes_eigh(self, monkeypatch, routine, info):
        self.assert_failure_takes_eigh(monkeypatch, routine, info)

    @pytest.mark.skipif(not SCIPY_OPENBLAS, reason="numpy is not linked to scipy-openblas")
    def test_solve_never_calls_eigh(self):
        # Criterion 5's config and seed 0: a numpy whose OpenBLAS renames
        # the symbols fails here rather than running slower.
        cfg = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
        A = sample_adjacency(cfg, cfg.planted_partition(), 0)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            result = solve_convex(A, float(cfg.n_covered), 2 * 100**2)
        assert result.certified
        eigh.assert_not_called()
