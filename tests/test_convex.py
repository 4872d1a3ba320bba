"""Convex relaxation: projection oracles, solver behavior, rounding.

The two projection operators are checked against independent oracles built
on different algorithms from the library's (dual bisection for the nuclear
ball; bisection on the shift, a brute-force breakpoint scan and KKT
certificates for the box-with-sum polytope), then the end-to-end
pipeline is pinned with frozen success counts on a fixed seed range.  The
duality-gap stop is checked against an eigensolver-based bound and the
exhaustive oracle, and its iteration counts are pinned.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbmlab import (
    ModelConfig,
    Partition,
    RoundingFailure,
    SolverOptions,
    partitions_equal,
    project_box_sum,
    project_nuclear_ball,
    recover_convex,
    round_solution,
    sample_adjacency,
    sample_observed,
    solve_convex,
)
from hsbmlab import convex
from hsbmlab.convex import dual_bound, nuclear_norm
from hsbmlab.exhaustive import objective, solve_exhaustive


def random_symmetric(rng, n, scale=2.0):
    M = rng.normal(scale=scale, size=(n, n))
    return (M + M.T) / 2.0


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


class TestNuclearNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            M = random_symmetric(rng, 6)
            assert math.isclose(
                nuclear_norm(M), np.linalg.svd(M, compute_uv=False).sum(),
                rel_tol=1e-10,
            )


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.max_iter == 2000
        assert convex.TOL_FEASIBILITY == 1e-6
        assert convex.TOL_CHANGE == 1e-7
        assert opts.step == 1.0
        assert opts.rounding_threshold == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"step": 0.0},
            {"step": -1.0},
            {"rounding_threshold": 0.0},
            {"rounding_threshold": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


class TestSolveConvex:
    def test_zero_matrix(self):
        res = solve_convex(np.zeros((4, 4)), 4.0, 0.0)
        assert res.converged
        assert np.abs(res.Y).max() < 1e-9
        assert res.objective == 0.0

    def test_iterate_always_box_sum_feasible(self):
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=1)
        res = solve_convex(A, 10.0, 50.0)
        Y = res.Y
        assert (Y >= -1e-12).all() and (Y <= 1.0 + 1e-12).all()
        assert abs(Y.sum() - 50.0) < 1e-6
        assert np.abs(Y - Y.T).max() < 1e-12
        assert res.sum_residual < 1e-6

    def test_noiseless_recovers_clustering_matrix(self):
        cfg = ModelConfig(12, [(6, 1.0), (6, 1.0)], 0.0)
        part = cfg.planted_partition()
        A = sample_adjacency(cfg, part, seed=0)
        res = solve_convex(A, 12.0, 72.0)
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
            res = solve_convex(A, 10.0, 50.0)
            planted_obj = float(np.tensordot(A.matrix.astype(float), ideal))
            assert res.objective >= planted_obj - 0.5

    def test_max_iter_reached_flags_nonconvergence(self):
        # Seed 36 has a fractional relaxation optimum: no certificate can
        # stop the solver within one iteration.
        cfg = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=36)
        res = solve_convex(A, 10.0, 50.0, SolverOptions(max_iter=1))
        assert res.iterations == 1
        assert not res.converged


class TestRounding:
    def test_exact_blocks(self):
        Y = np.kron(np.eye(2), np.ones((3, 3)))
        part = round_solution(Y)
        assert isinstance(part, Partition)
        assert partitions_equal(part, Partition([1, 1, 1, 2, 2, 2]))

    def test_zero_diagonal_irrelevant(self):
        Y = np.kron(np.eye(2), np.ones((3, 3)))
        np.fill_diagonal(Y, 0.0)
        part = round_solution(Y)
        assert partitions_equal(part, Partition([1, 1, 1, 2, 2, 2]))

    def test_singletons_become_isolated(self):
        Y = np.zeros((4, 4))
        Y[0, 1] = Y[1, 0] = 0.9
        part = round_solution(Y)
        assert part.labels.tolist() == [1, 1, 0, 0]

    def test_threshold_is_strict(self):
        Y = np.zeros((2, 2))
        Y[0, 1] = Y[1, 0] = 0.5
        part = round_solution(Y, threshold=0.5)
        assert part.labels.tolist() == [0, 0]

    def test_custom_threshold(self):
        Y = np.zeros((2, 2))
        Y[0, 1] = Y[1, 0] = 0.8
        assert round_solution(Y, threshold=0.9).labels.tolist() == [0, 0]
        assert round_solution(Y, threshold=0.7).labels.tolist() == [1, 1]

    def test_bridged_blocks_fail_as_not_clique(self):
        Y = np.kron(np.eye(2), np.ones((2, 2)))
        Y[1, 2] = Y[2, 1] = 0.55  # dangling bridge merges the components
        out = round_solution(Y)
        assert isinstance(out, RoundingFailure)
        assert out.kind == "not_clique"
        assert "missing" in out.detail


class TestRecoverConvex:
    CFG = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)

    def test_success_path(self):
        A = sample_adjacency(self.CFG, self.CFG.planted_partition(), seed=0)
        rec = recover_convex(A, self.CFG)
        assert rec.succeeded
        assert rec.failure is None
        assert rec.solver.converged
        assert partitions_equal(rec.partition, self.CFG.planted_partition())

    def test_nonconvergence_path(self):
        A = sample_adjacency(self.CFG, self.CFG.planted_partition(), seed=36)
        rec = recover_convex(A, self.CFG, SolverOptions(max_iter=1))
        assert not rec.succeeded
        assert rec.partition is None
        assert rec.failure.kind == "nonconvergence"

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
        assert rec.failure.kind == "size_mismatch"
        assert rec.failure.detail.endswith(
            f" != configured {sorted(cfg.sizes.tolist())}")

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
            if rec.succeeded:
                successes += 1
                best = solve_exhaustive(A, cfg)
                assert objective(A, rec.partition) == best.objective
            else:
                failing.append(seed)
                assert rec.failure.kind in ("not_clique", "nonconvergence")
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
            if rec.succeeded:
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
            rec = recover_convex(A, cfg, SolverOptions(max_iter=200))
        assert pairs
        for Z, Y in pairs:
            eig_tau = float(np.abs(np.linalg.eigvalsh(Z - Y)).max())
            tau = float(np.tensordot(Z - Y, Y)) / radius
            assert math.isclose(tau, eig_tau, rel_tol=1e-9, abs_tol=1e-12)
            eig_bound = radius * eig_tau + top_sum(M - (Z - Y), s)
            assert eig_bound >= best - 1e-9
            assert math.isclose(dual_bound(M, Z, Y, 1.0, s), eig_bound,
                                rel_tol=1e-9, abs_tol=1e-9)
        if rec.succeeded and rec.solver.gap < 1.0:
            assert rec.solver.objective == best
            assert objective(A, rec.partition) + radius == best

    SMALL10 = ModelConfig(10, [(5, 0.9), (5, 0.9)], 0.05)
    CRITERION10 = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05, gamma=0.6)

    # seed -> (iterations, <A + I, Y_P>), every one the planted partition.
    FROZEN_SMALL10 = {0: (1, 46), 1: (2, 48), 2: (3, 42), 3: (3, 48), 4: (2, 50),
                      5: (4, 46), 6: (1, 50), 7: (5, 48), 8: (2, 48), 9: (3, 46),
                      79: (4, 44)}
    FROZEN_CRITERION10 = {0: (10, 6130), 1: (12, 6156), 2: (14, 6138),
                          3: (19, 6130), 4: (10, 6232), 5: (12, 6136),
                          6: (14, 6094)}

    def assert_certified(self, A, cfg, planted, expected):
        rec = recover_convex(A, cfg)
        iterations, value = expected
        solver = rec.solver
        assert (solver.iterations, solver.objective) == (iterations, value)
        assert solver.converged and solver.gap < 1.0
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

    def test_non_integer_matrix_never_certifies(self):
        # A constant shift adds 0.25 * sum_target to every point of the body,
        # so it keeps the maximizers but makes the matrix non-integer.
        cfg = self.SMALL10
        A = sample_adjacency(cfg, cfg.planted_partition(), seed=0)
        M = A.matrix + np.eye(cfg.n)
        certified = solve_convex(M, 10.0, 50.0)
        assert certified.iterations == 1 and certified.gap < 1.0
        shifted = solve_convex(M + 0.25, 10.0, 50.0)
        assert shifted.gap == math.inf
        assert shifted.iterations > 1
        assert shifted.change <= convex.TOL_CHANGE
        capped = solve_convex(M + 0.25, 10.0, 50.0, SolverOptions(max_iter=3))
        assert capped.iterations == 3 and not capped.converged
        assert capped.gap == math.inf
