"""Convex-relaxation recovery.

The relaxation maximizes <A + I, Y> over the spectrahedron-like body

    { Y symmetric : ||Y||_* <= n,  sum(Y) = sum_k n_k^2,  0 <= Y <= 1 }

whose vertices at the planted parameters are clustering matrices (block
identity on each cluster, zero elsewhere, including zero rows for isolated
nodes).  The sum constraint counts the diagonal ones of a clustering
matrix, so the objective counts them too: with A alone (A_ii = 0) the
diagonal budget would be free to move onto off-diagonal entries and buy
objective, turning the optimum fractional.  On every clustering matrix Y_P
with the configured sizes, <A + I, Y_P> = <A, Y_P> + sum_k n_k, so the
identity shifts the combinatorial problem by a constant and only tightens
the relaxation.

It is solved by Douglas-Rachford splitting between the nuclear-norm ball
(spectral projection) and the box-with-sum polytope (entrywise clamp at a
bisected shift), with the linear objective folded into the second proximal
step.  The candidate iterate is then rounded entrywise and validated: every
connected component of the thresholded matrix must be a clique, otherwise a
``RoundingFailure`` is returned rather than a partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generate import Adjacency, as_matrix
from .model import ModelConfig, Partition, clique_components

DEFAULT_ROUNDING_THRESHOLD = 0.5


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the splitting iteration and the rounding step."""

    max_iter: int = 2000
    tol_feasibility: float = 1e-6
    tol_change: float = 1e-7
    step: float = 1.0
    rounding_threshold: float = DEFAULT_ROUNDING_THRESHOLD

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not 0.0 < self.rounding_threshold < 1.0:
            raise ValueError("rounding_threshold must be in (0, 1)")


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Final feasible iterate of the splitting method plus diagnostics."""

    Y: np.ndarray
    iterations: int
    converged: bool
    change: float
    nuclear_residual: float
    sum_residual: float
    objective: float


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a vector onto the l1 ball of given radius,
    preserving signs (exact, sort-based)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, len(u) + 1)
    rho = np.nonzero(u - (css - radius) / j > 0)[0][-1]
    tau = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - tau, 0.0)


def project_nuclear_ball(M: np.ndarray, radius: float) -> np.ndarray:
    """Frobenius projection of a symmetric matrix onto {||Y||_* <= radius}:
    eigendecompose and project the spectrum onto the l1 ball."""
    w, V = np.linalg.eigh(M)
    if np.abs(w).sum() <= radius:
        return M.copy()
    w_proj = _project_l1_ball(w, radius)
    out = (V * w_proj) @ V.T
    return (out + out.T) / 2.0


def project_box_sum(M: np.ndarray, total: float, iters: int = 80) -> np.ndarray:
    """Frobenius projection onto {0 <= Y <= 1 entrywise, sum(Y) = total}.

    The projection is clip(M - lam, 0, 1) for the shift lam at which the
    clipped sum equals the target; the clipped sum is continuous and
    nonincreasing in lam, so bisection pins lam to machine precision.
    """
    size = M.size
    if not 0.0 <= total <= size:
        raise ValueError(f"target sum {total} outside [0, {size}]")
    lo = float(M.min()) - 1.0
    hi = float(M.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(M - mid, 0.0, 1.0).sum() >= total:
            lo = mid
        else:
            hi = mid
    return np.clip(M - 0.5 * (lo + hi), 0.0, 1.0)


def nuclear_norm(M: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(M)).sum())


def solve_convex(
    A: Adjacency | np.ndarray,
    nuclear_radius: float,
    sum_target: float,
    options: SolverOptions | None = None,
) -> SolverResult:
    """Douglas-Rachford iteration for max <A, Y> over the relaxation body.

    Alternates the spectral projection (nuclear ball) and the shifted clamp
    projection (box + sum), with the linear objective absorbed into the
    second step.  Convergence requires both a small relative change between
    the two half-steps and near-feasibility of the box-feasible candidate
    with respect to the nuclear constraint.
    """
    opts = options or SolverOptions()
    a = as_matrix(A).astype(float)
    Z = project_box_sum(a, sum_target)
    Z = (Z + Z.T) / 2.0
    W = Z
    change = math.inf
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        Y = project_nuclear_ball(Z, nuclear_radius)
        W = project_box_sum(2.0 * Y - Z + opts.step * a, sum_target)
        W = (W + W.T) / 2.0
        diff = W - Y
        Z = Z + diff
        change = float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(W)))
        if change <= opts.tol_change:
            break
    nuc_res = max(0.0, nuclear_norm(W) - nuclear_radius) / nuclear_radius
    converged = change <= opts.tol_change and nuc_res <= opts.tol_feasibility
    return SolverResult(
        Y=W,
        iterations=iterations,
        converged=converged,
        change=change,
        nuclear_residual=nuc_res,
        sum_residual=float(abs(W.sum() - sum_target)),
        objective=float(np.tensordot(a, W)),
    )


@dataclass(frozen=True)
class RoundingFailure:
    """Why a solver iterate could not be turned into a partition.

    kind is "not_clique" (a thresholded component is not fully connected)
    or "nonconvergence" (the splitting iteration did not meet its
    tolerances, so the iterate is not trusted).
    """

    kind: str
    detail: str = ""


def round_solution(
    Y: np.ndarray,
    threshold: float = DEFAULT_ROUNDING_THRESHOLD,
) -> Partition | RoundingFailure:
    """Threshold the iterate entrywise (strictly above) and read off
    clusters as connected components, requiring each multi-node component to
    be a clique.  Singleton components become isolated nodes (label 0)."""
    B = Y > threshold
    np.fill_diagonal(B, False)
    labels, flaw = clique_components(B)
    if flaw is not None:
        size, missing = flaw
        return RoundingFailure(
            "not_clique",
            f"component of {size} nodes is missing {missing} "
            f"pairs above threshold {threshold}",
        )
    return Partition(labels)


@dataclass(frozen=True, eq=False)
class ConvexRecovery:
    """End-to-end convex recovery outcome: a partition on success, a
    failure record otherwise, plus the raw solver diagnostics."""

    partition: Partition | None
    failure: RoundingFailure | None
    solver: SolverResult

    @property
    def succeeded(self) -> bool:
        return self.partition is not None


def recover_convex(
    A: Adjacency | np.ndarray,
    config: ModelConfig,
    options: SolverOptions | None = None,
) -> ConvexRecovery:
    """Solve the relaxation max <A + I, Y> at the configuration's nuclear
    radius n and sum target sum_k n_k^2, then round.

    The identity charges the diagonal ones that the sum target counts (see
    the module docstring); the reported ``solver.objective`` is therefore
    <A + I, Y>, which on a clustering matrix is objective(A, P) + sum_k n_k.
    """
    opts = options or SolverOptions()
    sum_target = float(sum(s * s for s in config.sizes))
    objective_matrix = as_matrix(A).astype(float) + np.eye(config.n)
    result = solve_convex(objective_matrix, float(config.n), sum_target, opts)
    if not result.converged:
        failure = RoundingFailure(
            "nonconvergence",
            f"no convergence in {result.iterations} iterations "
            f"(change {result.change:.3e}, nuclear residual "
            f"{result.nuclear_residual:.3e})",
        )
        return ConvexRecovery(partition=None, failure=failure, solver=result)
    rounded = round_solution(result.Y, opts.rounding_threshold)
    if isinstance(rounded, RoundingFailure):
        return ConvexRecovery(partition=None, failure=rounded, solver=result)
    return ConvexRecovery(partition=rounded, failure=None, solver=result)
