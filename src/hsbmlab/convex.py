"""Convex-relaxation recovery.

The relaxation maximizes <A + I, Y> over the spectrahedron-like body

    { Y symmetric : ||Y||_* <= sum_k n_k,  sum(Y) = sum_k n_k^2,  0 <= Y <= 1 }

whose vertices at the planted parameters are clustering matrices (block
identity on each cluster, zero elsewhere, including zero rows for isolated
nodes), each of nuclear norm exactly sum_k n_k.  The sum constraint counts
the diagonal ones of a clustering matrix, so the objective counts them
too: with A alone (A_ii = 0) the diagonal budget would be free to move onto
off-diagonal entries and buy objective, turning the optimum fractional.
On every clustering matrix Y_P with the configured sizes,
<A + I, Y_P> = <A, Y_P> + sum_k n_k, so the identity shifts the
combinatorial problem by a constant and only tightens the relaxation.

It is solved by Douglas-Rachford splitting between the nuclear-norm ball
(spectral projection) and the box-with-sum polytope (entrywise clamp at a
shift found exactly from the sorted entries), with the linear objective
folded into the second proximal step.  With an integer objective matrix
the iteration stops as soon as weak duality proves that the rounded iterate
is a best clustering matrix in the body (see ``solve_convex``).  The
candidate iterate is then rounded entrywise and validated: every connected
component of the thresholded matrix must be a clique, and
``recover_convex`` also requires the cluster sizes to be the configured
ones; otherwise a ``RoundingFailure`` is returned rather than a partition.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .generate import Adjacency, as_matrix
from .model import (ModelConfig, Partition, clique_components, clustering_matrix,
                    size_mismatch)

DEFAULT_ROUNDING_THRESHOLD = 0.5
TOL_CHANGE = 1e-7
TOL_FEASIBILITY = 1e-6
# A certificate needs bound - <M, Y_P> < 1 - CERTIFICATE_SLACK; the slack
# keeps float error in the bound (relative 1e-12 or less) from certifying.
CERTIFICATE_SLACK = 1e-3


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the splitting iteration and the rounding step."""

    max_iter: int = 2000
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
    """Final feasible iterate of the splitting method plus diagnostics.

    gap is the last computed dual bound minus <M, Y_P>, Y_P the clustering
    matrix of the rounded iterate; inf when no iterate rounded to a
    clustering matrix in the body, or when M or sum_target is not an
    integer.
    """

    Y: np.ndarray
    iterations: int
    converged: bool
    change: float
    nuclear_residual: float
    sum_residual: float
    objective: float
    gap: float = math.inf


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


def project_box_sum(M: np.ndarray, total: float) -> np.ndarray:
    """Frobenius projection onto {0 <= Y <= 1 entrywise, sum(Y) = total}.

    The projection is clip(M - lam, 0, 1) for the shift lam at which the
    clipped sum f(lam) = sum clip(M - lam, 0, 1) equals the target.  f is
    continuous, nonincreasing and piecewise linear with kinks at the
    entries v and at v - 1.  With the entries sorted once, f costs two
    searchsorted calls, so a binary search over each kink set finds the
    linear piece that holds the target, and lam solves its equation
    exactly.  Where f is flat at the target every lam on the piece gives
    the same projection.
    """
    size = M.size
    if not 0.0 <= total <= size:
        raise ValueError(f"target sum {total} outside [0, {size}]")
    v = np.sort(np.asarray(M, dtype=float), axis=None)
    csum = np.empty(size + 1)
    csum[0] = 0.0
    np.cumsum(v, out=csum[1:])

    def below(lam: float) -> bool:
        """f(lam) < total; an entry at a kink clips to the same value on
        either side of it, so searchsorted's side does not matter."""
        zero, one = int(v.searchsorted(lam)), int(v.searchsorted(lam + 1.0))
        return size - one + float(csum[one] - csum[zero]) - lam * (one - zero) < total

    # On the piece holding the target, the first `lo` sorted entries clip
    # to 0, the entries from `hi` on clip to 1 and the rest are shifted.
    lo = bisect.bisect_left(v, True, key=below)
    hi = bisect.bisect_left(v, True, lo, key=lambda x: below(x - 1.0))
    if hi > lo:
        lam = (float(v[lo:hi].sum()) + (size - hi - total)) / (hi - lo)
    else:  # f is flat at the target (lo is 0 only by rounding, at total = size)
        lam = float(v[lo - 1]) if lo else float(v[0]) - 1.0
    out = np.subtract(M, lam, out=v.reshape(M.shape))  # the sort's buffer
    return np.clip(out, 0.0, 1.0, out=out)


def nuclear_norm(M: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(M)).sum())


def dual_bound(M: np.ndarray, Z: np.ndarray, Y: np.ndarray, step: float,
               sum_target: int) -> float:
    """Weak-duality upper bound on max <M, Y> over the relaxation body, from
    the iterate Z and its nuclear-ball projection Y.

    For any symmetric U, <M, Y'> = <U, Y'> + <M - U, Y'> is at most
    radius * ||U||_op plus the sum of the sum_target largest entries of
    M - U.  With U = (Z - Y) / step, the normal-cone element of the
    projection, ||Z - Y||_op is the spectral shrink tau and
    <Z - Y, Y> = tau * radius (both 0 when the projection is inactive), so
    the first term costs an inner product rather than an eigensolve.
    """
    U = (Z - Y) / step
    flat = (M - U).ravel()
    cut = flat.size - sum_target
    top = float(np.partition(flat, cut)[cut:].sum()) if sum_target else 0.0
    return float(np.tensordot(U, Y)) + top


def _certify(M: np.ndarray, Z: np.ndarray, Y: np.ndarray, W: np.ndarray,
             nuclear_radius: float, sum_target: int, opts: SolverOptions):
    """Round W; if it gives a clustering matrix Y_P in the body, return
    (Y_P, <M, Y_P>, dual bound - <M, Y_P>), else None."""
    link = W > opts.rounding_threshold
    np.fill_diagonal(link, False)
    degrees = link.sum(axis=1)
    linked = degrees[degrees > 0]
    # If W rounds to cliques, the linked nodes are the clustered ones and
    # each has degree |C| - 1, so these are sum |C|^2 and sum |C|.  Testing
    # the body here spares most iterates the rounding.
    if int((linked + 1).sum()) != sum_target or linked.size > nuclear_radius:
        return None
    rounded = round_solution(W, opts.rounding_threshold)
    if isinstance(rounded, RoundingFailure):
        return None
    Y_P = clustering_matrix(rounded).astype(float)
    value = float(np.tensordot(M, Y_P))
    return Y_P, value, dual_bound(M, Z, Y, opts.step, sum_target) - value


def solve_convex(
    A: Adjacency | np.ndarray,
    nuclear_radius: float,
    sum_target: float,
    options: SolverOptions | None = None,
) -> SolverResult:
    """Douglas-Rachford iteration for max <M, Y> over the relaxation body,
    M the given matrix.

    Alternates the spectral projection (nuclear ball) and the shifted clamp
    projection (box + sum), with the linear objective absorbed into the
    second step.  It stops on whichever comes first:

    - a certificate (only when M is integer-valued and sum_target an
      integer): the box-feasible iterate W rounds to a clustering matrix
      Y_P in the body (sizes with sum of squares sum_target and sum at most
      the radius), and the dual bound (``dual_bound``) exceeds <M, Y_P> by
      less than 1 - CERTIFICATE_SLACK.  <M, Y> is an integer on every
      clustering matrix, so none in the body scores more than Y_P: Y_P is a
      maximum over them (not necessarily the only one, and the relaxation
      itself may still be fractional).  The result is Y = Y_P with
      objective <M, Y_P>, converged, and its gap;
    - the change test: a relative change of at most TOL_CHANGE between the
      two half-steps, then converged only if the box-feasible iterate is
      also within relative TOL_FEASIBILITY of the nuclear ball;
    - max_iter, unconverged.
    """
    opts = options or SolverOptions()
    a = as_matrix(A).astype(float)
    certifiable = float(sum_target).is_integer() and bool(np.all(a == np.round(a)))
    Z = project_box_sum(a, sum_target)
    Z = (Z + Z.T) / 2.0
    W = Z
    change = math.inf
    gap = math.inf
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        Y = project_nuclear_ball(Z, nuclear_radius)
        W = project_box_sum(2.0 * Y - Z + opts.step * a, sum_target)
        W = (W + W.T) / 2.0
        diff = W - Y
        change = float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(W)))
        if certifiable:
            found = _certify(a, Z, Y, W, nuclear_radius, int(sum_target), opts)
            if found is not None:
                Y_P, value, gap = found
                if gap < 1.0 - CERTIFICATE_SLACK:
                    return SolverResult(Y=Y_P, iterations=iterations, converged=True,
                                        change=change, nuclear_residual=0.0,
                                        sum_residual=0.0, objective=value, gap=gap)
        Z = Z + diff
        if change <= TOL_CHANGE:
            break
    nuc_res = max(0.0, nuclear_norm(W) - nuclear_radius) / nuclear_radius
    converged = change <= TOL_CHANGE and nuc_res <= TOL_FEASIBILITY
    return SolverResult(
        Y=W,
        iterations=iterations,
        converged=converged,
        change=change,
        nuclear_residual=nuc_res,
        sum_residual=float(abs(W.sum() - sum_target)),
        objective=float(np.tensordot(a, W)),
        gap=gap,
    )


@dataclass(frozen=True)
class RoundingFailure:
    """Why a solver iterate could not be turned into a partition.

    kind is "not_clique" (a thresholded component is not fully connected),
    "size_mismatch" (the components are cliques, but their sizes are not
    the configured ones) or "nonconvergence" (the splitting iteration did
    not meet its tolerances, so the iterate is not trusted).
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
    radius sum_k n_k and sum target sum_k n_k^2, then round.  A partition
    without the configured cluster sizes is a "size_mismatch" failure (so
    is every partition of a config with a cluster of size 1).

    The identity charges the diagonal ones that the sum target counts (see
    the module docstring); the reported ``solver.objective`` is therefore
    <A + I, Y>, which on a clustering matrix is objective(A, P) + sum_k n_k.
    The radius is the nuclear norm of every clustering matrix with the
    configured sizes, isolated nodes adding nothing, so the body is the
    tightest nuclear ball that still contains them all.
    """
    opts = options or SolverOptions()
    sum_target = float(sum(s * s for s in config.sizes))
    objective_matrix = as_matrix(A).astype(float) + np.eye(config.n)
    result = solve_convex(objective_matrix, float(config.n_covered), sum_target, opts)
    if not result.converged:
        failure = RoundingFailure(
            "nonconvergence",
            f"no convergence in {result.iterations} iterations "
            f"(change {result.change:.3e}, nuclear residual "
            f"{result.nuclear_residual:.3e}, gap {result.gap:.3e})",
        )
        return ConvexRecovery(partition=None, failure=failure, solver=result)
    rounded = round_solution(result.Y, opts.rounding_threshold)
    if isinstance(rounded, RoundingFailure):
        return ConvexRecovery(partition=None, failure=rounded, solver=result)
    mismatch = size_mismatch(rounded, config)
    if mismatch:
        failure = RoundingFailure("size_mismatch", mismatch)
        return ConvexRecovery(partition=None, failure=failure, solver=result)
    return ConvexRecovery(partition=rounded, failure=None, solver=result)
