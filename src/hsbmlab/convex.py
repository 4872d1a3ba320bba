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
folded into the second proximal step at unit step size, and the update
over-relaxed by the fixed factor RELAXATION = 3/2.  The iteration stops as
soon as weak duality proves that the rounded iterate is a best clustering
matrix in the body (see ``solve_convex``).  The proof needs a gap below 2,
not 1: every clustering matrix in the body scores an integer of one
parity (``VALUE_STEP``).  The spectral projection rebuilds its result from
the eigenpairs the shrink keeps, and computes only those eigenvectors,
with the LAPACK routines of the OpenBLAS that numpy links (a full ``eigh``
where one is missing or fails).  Every rounding, the certificate's and the
final one, is ``round_solution``: threshold entrywise and require every
connected component to be a clique.  ``recover_convex`` also requires the
cluster sizes to be the configured ones and a certificate; otherwise the
``Recovery`` it returns holds the failure rather than a partition.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import _openblas
from .generate import Adjacency, check_node_count
from .model import (ConfigError, ModelConfig, Partition, Recovery,
                    clique_components, clustering_matrix, size_mismatch)

# Default iteration cap of the splitting method, its only setting.
MAX_ITER = 2000
ROUNDING_THRESHOLD = 0.5
# The update Z <- Z + RELAXATION * (W - Y).  Relaxed Douglas-Rachford
# converges for any factor in (0, 2), with the fixed points of the unit
# step (Eckstein and Bertsekas, Math. Programming 55, 1992); 3/2 is from
# the 1.5-1.8 that Boyd et al. recommend (ADMM, 2011, section 3.4.3).
RELAXATION = 1.5
TOL_CHANGE = 1e-7
# The spacing of <A + I, Y_P> over the clustering matrices Y_P in the body.
# With clusters C, <A + I, Y_P> = 2 * (edges inside the clusters) + sum |C|,
# and since x = x^2 (mod 2), sum |C| has the parity of sum |C|^2, the body's
# entry sum: every clustering matrix in the body scores one parity.
VALUE_STEP = 2
# A certificate needs bound - <A + I, Y_P> < VALUE_STEP - CERTIFICATE_SLACK;
# the slack keeps float error in the bound (relative 1e-12 or less) from
# certifying.
CERTIFICATE_SLACK = 1e-3


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Final iterate of the splitting method plus diagnostics.

    converged: the solve stopped on the certificate or the change test (a
    last change of at most TOL_CHANGE); certified: on the certificate, Y
    then being the clustering matrix Y_P it proves (else Y is the last
    box-feasible iterate).  gap is the last computed dual bound minus
    <A + I, Y_P>, Y_P the clustering matrix of the rounded iterate; inf
    when no iterate rounded to a clustering matrix in the body.  A
    certified result's gap is below VALUE_STEP less CERTIFICATE_SLACK.
    """

    Y: np.ndarray
    iterations: int
    certified: bool
    change: float
    objective: float
    gap: float = math.inf

    @property
    def converged(self) -> bool:
        return self.certified or self.change <= TOL_CHANGE


def check_max_iter(max_iter: int = MAX_ITER) -> int:
    """The iteration cap itself, or a ConfigError when it is not an integer
    (bools included) or is below 1."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)):
        raise ConfigError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    return max_iter


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
    positive = np.nonzero(u - (css - radius) / j > 0)[0]
    rho = positive[-1] if positive.size else 0  # none only at radius 0
    tau = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - tau, 0.0)


def _lapack_eigenpairs(M: np.ndarray):
    """Every eigenvalue of M, ascending, and a function giving the kept
    ones' eigenvectors alone (columns, for indices into the eigenvalues),
    on the route of LAPACK's dsyevx; None, or None from the function, where
    numpy's OpenBLAS lacks a routine or one reports failure (INFO != 0)."""
    routines = (_openblas.lapack("dsytrd", 10, 1), _openblas.lapack("dsterf", 4),
                _openblas.lapack("dstein", 13), _openblas.lapack("dormtr", 13, 3))
    n = len(M)
    if None in routines or not n or np.shape(M) != (n, n):
        return None  # eigh takes the empty M, and raises on a non-square one
    sytrd, sterf, stein, ormtr = routines
    a = np.array(M, dtype=float, order="F")
    d, e, tau = np.empty(n), np.empty(n), np.empty(n)
    # a becomes T = Q^T M Q, tridiagonal (d, e), with Q's reflectors below
    # its subdiagonal, read from M's lower triangle as eigh reads it.
    if _openblas.with_workspace(sytrd, "L", n, a, n, d, e, tau):
        return None
    w, scratch = d.copy(), e.copy()  # dsterf overwrites both
    if sterf(n, w, scratch):  # every eigenvalue, ascending
        return None

    def vectors(kept: np.ndarray) -> np.ndarray | None:
        # Inverse iteration on T for the kept eigenvalues, T taken as one
        # block even where it splits (dstein orthogonalizes the vectors of
        # close eigenvalues within a block); then V = Q Z, applying the
        # reflectors to the k columns only.
        k = kept.size
        Z = np.empty((n, k), order="F")
        if (stein(n, d, e, k, w[kept], np.ones(k, dtype=np.int64), np.full(n, n),
                  Z, n, np.empty(5 * n), np.empty(n, dtype=np.int64),
                  np.empty(k, dtype=np.int64))
                or _openblas.with_workspace(ormtr, "L", "L", "N", n, k, a, n, tau, Z, n)):
            return None
        return Z

    return w, vectors


def _eigh_eigenpairs(M: np.ndarray):
    """What _lapack_eigenpairs gives, from a full eigendecomposition, never None."""
    w, V = np.linalg.eigh(M)
    return w, lambda kept: V[:, kept]


def project_nuclear_ball(M: np.ndarray, radius: float) -> np.ndarray:
    """Frobenius projection of a symmetric matrix onto {||Y||_* <= radius}:
    project the spectrum onto the l1 ball, then rebuild (V * w_proj) @ V.T,
    symmetrized, from the kept eigenpairs alone, those whose projected
    eigenvalue is nonzero (exact zeros when none is kept).

    The shrink zeroes most of them, so only the kept eigenvectors are
    computed: reduce M to tridiagonal T = Q^T M Q (dsytrd), take every
    eigenvalue of T without vectors (dsterf), find T's eigenvectors for
    the kept ones by inverse iteration (dstein) and apply Q to those k
    columns alone (dormtr).  Where numpy's OpenBLAS does not export these
    routines, or one reports failure, the projection starts again from a
    full eigendecomposition (eigh) and its own eigenvalues.
    """
    for eigenpairs in (_lapack_eigenpairs, _eigh_eigenpairs):
        found = eigenpairs(M)
        if found is None:
            continue
        w, vectors = found
        if np.abs(w).sum() <= radius:
            return M.copy()
        w_proj = _project_l1_ball(w, radius)
        kept = np.flatnonzero(w_proj)
        V = vectors(kept)
        if V is not None:  # None only after a LAPACK failure
            out = (V * w_proj[kept]) @ V.T
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


def dual_bound(M: np.ndarray, Z: np.ndarray, Y: np.ndarray, sum_target: int) -> float:
    """Weak-duality upper bound on max <M, Y> over the relaxation body, from
    the iterate Z and its nuclear-ball projection Y.

    For any symmetric U, <M, Y'> = <U, Y'> + <M - U, Y'> is at most
    radius * ||U||_op plus the sum of the sum_target largest entries of
    M - U.  With U = Z - Y, the normal-cone element of the projection,
    ||U||_op is the spectral shrink tau and <U, Y> = tau * radius (both 0
    when the projection is inactive), so the first term costs an inner
    product rather than an eigensolve.
    """
    U = Z - Y
    flat = (M - U).ravel()
    cut = flat.size - sum_target
    top = float(np.partition(flat, cut)[cut:].sum()) if sum_target else 0.0
    return float(np.tensordot(U, Y)) + top


def _certify(M: np.ndarray, Z: np.ndarray, Y: np.ndarray, W: np.ndarray,
             nuclear_radius: float, sum_target: int):
    """Round W with ``round_solution``; if it gives a clustering matrix Y_P
    in the body, return (Y_P as int8, <M, Y_P>, dual bound - <M, Y_P>),
    else None.  M is A + I, so <M, Y_P> is an exact integer sum in any
    order."""
    link = W > ROUNDING_THRESHOLD
    np.fill_diagonal(link, False)
    degrees = link.sum(axis=1)
    linked = degrees[degrees > 0]
    # If W rounds to cliques, the linked nodes are the clustered ones and
    # each has degree |C| - 1, so these are sum |C|^2 and sum |C|.  Testing
    # the body here spares most iterates the rounding.
    if int((linked + 1).sum()) != sum_target or linked.size > nuclear_radius:
        return None
    partition, _ = round_solution(W)
    if partition is None:
        return None
    Y_P = clustering_matrix(partition)
    value = float(M[Y_P.view(bool)].sum())
    return Y_P, value, dual_bound(M, Z, Y, sum_target) - value


def solve_convex(
    A: Adjacency,
    nuclear_radius: float,
    sum_target: int,
    max_iter: int = MAX_ITER,
) -> SolverResult:
    """Douglas-Rachford iteration for max <A + I, Y> over the relaxation
    body, A the observed graph.

    Each iteration takes Y, the spectral projection (nuclear ball) of Z,
    and W, the shifted clamp projection (box + sum) of 2Y - Z + A + I, with
    the linear objective absorbed into the second step, then moves Z by
    RELAXATION * (W - Y).  The relaxation changes the path only: the dual
    bound holds for any Z with Y its nuclear projection, so a certificate
    proves the same whatever iterates led to it.  It stops on whichever
    comes first:

    - a certificate: the box-feasible iterate W rounds to a clustering
      matrix Y_P in the body (sizes with sum of squares sum_target and sum
      at most the radius), and the dual bound (``dual_bound``) exceeds
      <A + I, Y_P> by less than VALUE_STEP - CERTIFICATE_SLACK.  The values
      of the clustering matrices in the body differ by multiples of
      VALUE_STEP, so none scores more than Y_P: Y_P is a maximum over them
      (not necessarily the only one, and the relaxation itself may still be
      fractional).  The result is Y = Y_P with objective <A + I, Y_P>,
      converged and certified, and its gap;
    - the change test: a relative change of at most TOL_CHANGE between the
      two half-steps, converged but not certified, with Y the box-feasible
      iterate W;
    - max_iter, neither, with Y = W.
    """
    check_max_iter(max_iter)
    a = A.matrix.astype(float)
    np.fill_diagonal(a, 1.0)  # A + I, A's diagonal being zero
    Z = project_box_sum(a, sum_target)
    gap = math.inf
    for iterations in range(1, max_iter + 1):
        Y = project_nuclear_ball(Z, nuclear_radius)
        W = project_box_sum(2.0 * Y - Z + a, sum_target)
        diff = W - Y
        change = float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(W)))
        found = _certify(a, Z, Y, W, nuclear_radius, sum_target)
        if found is not None:
            Y_P, value, gap = found
            if gap < VALUE_STEP - CERTIFICATE_SLACK:
                return SolverResult(Y=Y_P.astype(float), iterations=iterations,
                                    certified=True, change=change, objective=value,
                                    gap=gap)
        diff *= RELAXATION
        Z += diff
        if change <= TOL_CHANGE:
            break
    return SolverResult(Y=W, iterations=iterations, certified=False, change=change,
                        objective=float(np.tensordot(a, W)), gap=gap)


def round_solution(Y: np.ndarray) -> tuple[Partition | None, str]:
    """Threshold the iterate entrywise (strictly above ROUNDING_THRESHOLD)
    and read off clusters as connected components, requiring each
    multi-node component to be a clique.  Singleton components become
    isolated nodes (label 0).  Returns (partition, ""), or (None, detail)
    with a "not_clique: " detail for the first component that is not a
    clique."""
    B = Y > ROUNDING_THRESHOLD
    np.fill_diagonal(B, False)
    labels, flaw = clique_components(B)
    if flaw is not None:
        size, missing = flaw
        return None, (f"not_clique: component of {size} nodes is missing "
                      f"{missing} pairs above threshold {ROUNDING_THRESHOLD}")
    return Partition(labels), ""


def recover_convex(
    A: Adjacency,
    config: ModelConfig,
    max_iter: int = MAX_ITER,
) -> Recovery:
    """Solve the relaxation max <A + I, Y> at the configuration's nuclear
    radius sum_k n_k and sum target sum_k n_k^2, then round.

    The Recovery carries the SolverResult and its objective.  A max_iter
    stop is a "nonconvergence" failure.  A rounding that is not cliques
    ("not_clique"), whose cluster sizes are not the configured ones
    ("size_mismatch", as is every partition of a config with a cluster of
    size 1), or that has no certificate ("uncertified", a change-test
    stop) is a "rounding" failure, so every success is certified.

    The identity charges the diagonal ones that the sum target counts (see
    the module docstring); the objective is therefore <A + I, Y>, which on
    a clustering matrix is objective(A, P) + sum_k n_k.
    The radius is the nuclear norm of every clustering matrix with the
    configured sizes, isolated nodes adding nothing, so the body is the
    tightest nuclear ball that still contains them all.
    """
    check_node_count(A.n, config.n)
    sizes, _, counts = config.runs
    sum_target = sum(s * s * c for s, c in zip(sizes.tolist(), counts.tolist()))
    result = solve_convex(A, float(config.n_covered), sum_target, max_iter)
    if not result.converged:
        detail = (f"nonconvergence: no convergence in {result.iterations} "
                  f"iterations (change {result.change:.3e}, gap {result.gap:.3e})")
        return Recovery(None, "nonconvergence", detail, result.objective, result)
    partition, detail = round_solution(result.Y)
    detail = detail or size_mismatch(partition, config)
    if not (detail or result.certified):
        detail = (f"uncertified: the dual bound is {result.gap:.3e} above "
                  f"the rounded value")
    if detail:
        return Recovery(None, "rounding", detail, result.objective, result)
    return Recovery(partition, "none", "", result.objective, result)
