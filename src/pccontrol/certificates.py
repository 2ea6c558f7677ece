"""Discrete certificates for uniqueness and observability hypotheses.

The solvability of the constrained control problems rests on a uniqueness
property of the backward equation: if z' + A* z = w with z(T) = z_T and
B* z = g on (0, T) for subspace elements g, w, then (z_T, g, w) = 0.  At
the discrete level this is the kernel-freeness of an assembled linear map,
decided by its smallest singular value against the numerical-rank cutoff
sigma_max * max(rows, cols) * eps_mach, so no verdict depends on the scale
of the map; the companion observability constants are inverses of
(generalized) smallest singular values, read off the triangular factor R of
a QR of the observation map.  A 'general_*' map is decided by Golub-Kahan
norms of R and R^-1 (:func:`_norm2`), each product a matvec or a triangular
solve, and its holding constants are such norms of D R^-1, with no SVD,
inverse or Gram formed; only 'general_initial' on a failing map takes one.

Every report produced here is a discrete-level certificate: it speaks
about the discretized system on its grid, not about any continuous limit.

Coordinates are orthonormal everywhere (Euclidean state coordinates,
orthonormal subspace coefficients), so singular values measure exactly the
norms used by the inequalities.  Control signals are observed in one
orthonormal output frame: with B^T = Q R (Q of shape (m, r), r = min(m, n)),
each interval of a sqrt(dt)-scaled signal g contributes its r coordinates
g Q, and the G columns add p_g rows for their part outside range(B^T).
B* z = Q R z lies in that range, so an assembled map has N*r + p_g signal
rows instead of N*m and differs from the map in plain coordinates only by
an orthogonal transform of its rows: singular values and right singular
vectors are the same.

The uniqueness map has N*r + p_g rows and only k = n + p_g + p_w columns.
:func:`uc_verdict` decides it without ever holding it: the R of its QR
accumulates block by block during the backward sweep, so the verdict holds
O(``UC_BLOCK_BYTES`` + k^2) bytes whatever N is.  Its report carries the
shape of the map as ``map_dims`` and, for a failing map, the kernel witness
and the radius of the neighborhood of -z_T that it proves unreachable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.linalg.blas import dnrm2

from .core import LinearSystem, StepOperator, TimeGrid, adjoint_solve, build_propagator
from .errors import ProblemTooLargeError, ShapeError
from .functionals import _check_spaces
from .subspaces import SignalAmbient, Subspace, VectorAmbient, orthonormalize

__all__ = [
    "UCReport",
    "ObservabilityReport",
    "TwoTimeReport",
    "ModalFrequencyCheck",
    "ModalUCReport",
    "SpectralClassification",
    "uc_verdict",
    "observability_constants",
    "two_time_check",
    "restriction_kernel_check",
    "spectral_uc_classify",
    "modal_uc_check",
]

OBS_KINDS = ("final_state", "initial_state", "general_final", "general_initial")
# float64 entries of the 'general_*' map M plus the n_cols x n_cols triangular
# factor of its QR, which overwrites M; the measured peak (heat1d, 4-6 modes,
# M about 2 n_cols^2) is the QR's, M + 1.14-1.20 n_cols^2, for either kind and
# both, since the verdict and holding constants are Krylov norms of the factor;
# only 'general_initial' on a failing map holds its SVD, 3 n_cols^2 once M is dropped
DENSE_CAP = 2**27
# bytes of z nodes, and so of uniqueness-map rows, in one block of the sweep
# of uc_verdict; a map this small or smaller is factored in one block
UC_BLOCK_BYTES = 2**22
# the least sigma_max a rank cutoff scales from, so the cutoff of a map whose
# singular values lie below it does not underflow to 0 and pass them
_SIGMA_FLOOR = 1e-300


@dataclass
class UCReport:
    """Singular-value verdict on a uniqueness map.

    ``witness`` is the unit-norm right singular vector of the smallest
    singular value, present only when the property fails, with blocks
    (z_T, g coefficients, w coefficients) of sizes n, p_g and p_w.

    ``infeasibility_radius`` is also present only when the property fails.
    For a kernel vector (z_T, g, w) of the map, every trajectory from
    y0 = 0 whose control and trajectory projections equal g and w
    satisfies ||y(T) + z_T|| >= (||z_T||^2 + ||g||^2 + ||w||^2) / ||z_T||,
    the radius of a neighborhood of -z_T that no constrained control
    reaches; it is +inf when z_T = 0 (the constraints alone are
    contradictory).  Subspace coefficients are orthonormal, so their
    Euclidean norms are the L2 norms of the lifted signals.  The bound
    assumes an exact kernel vector: the witness leaves a residual of norm
    sigma_min, which adds <u, residual> to the pairing, so for sigma_min > 0
    the radius of a control u shrinks by ||u|| sigma_min / ||z_T||.
    """

    sigma_min: float
    holds: bool
    witness: np.ndarray | None
    map_dims: tuple[int, int]
    infeasibility_radius: float | None


@dataclass
class ObservabilityReport:
    """Constant C of one observability inequality; C = 1/sigma_min.

    ``constant_C`` is +inf when the inequality fails at the discrete level
    (the observation map has a kernel the measured quantity sees).
    """

    kind: str
    constant_C: float
    sigma_min: float


@dataclass
class TwoTimeReport:
    """Outcome of the intermediate-time reduction for null controllability."""

    restriction_ok: bool
    uc_tilde: UCReport
    obs_tilde: ObservabilityReport
    certified: bool


@dataclass
class ModalFrequencyCheck:
    value: float
    role: str  # 'mu' | 'rho' | 'combined'
    ok: bool
    sigma_min: float
    witness: np.ndarray | None


@dataclass
class ModalUCReport:
    ok: bool
    checks: list[ModalFrequencyCheck]


@dataclass
class SpectralClassification:
    verdict: str  # UC_holds_nonresonant | UC_holds_no_solution | UC_holds_inf_positive | UC_fails
    quantity: float


class _Verdict(NamedTuple):
    """Verdict on the injectivity of a map, the record of the rule that
    decided it: holds iff sigma_min > cutoff (see :func:`_sv_verdict`)."""

    holds: bool
    sigma_min: float
    cutoff: float  # the numerical-rank cutoff (:func:`_rank_cutoff`) of the map
    s: np.ndarray | None  # singular values, descending; None when no SVD ran
    vt: np.ndarray | None  # complete right singular basis (cols x cols); None when no SVD ran
    factor: np.ndarray  # ||M x|| = ||factor x||; upper triangular when rows >= cols


def _rank_cutoff(shape: tuple[int, int], sigma_max: float) -> float:
    """Numerical-rank cutoff of a map of this shape: singular values at or
    below sigma_max * max(rows, cols) * eps_mach count as zero (Golub & Van
    Loan, Matrix Computations, sec. 5.4; the default of
    ``numpy.linalg.matrix_rank``)."""
    return sigma_max * max(shape) * float(np.finfo(float).eps)


def _sv_verdict(M: np.ndarray, floor: float = _SIGMA_FLOOR, rows: int | None = None) -> _Verdict:
    """Decide whether M is injective from its singular values.

    sigma_min is +inf for a map without columns and 0 for one with fewer
    rows than columns.  The map holds (is injective) when sigma_min exceeds
    the numerical-rank cutoff of M (:func:`_rank_cutoff`); ``floor`` bounds
    the sigma_max it scales from: a map of rounding noise at that scale fails.
    A map with at least as many rows as columns is decided from the R of
    its QR, which has its singular values and right vectors and which the
    verdict keeps as ``factor``; a wider map is its own factor.  The one SVD
    of the factor keeps its complete right singular basis.  A given
    ``rows`` says that M is the R of a QR of a map with that many rows, and
    the verdict is that map's.
    """
    cols = M.shape[1]
    if rows is None:
        rows = M.shape[0]
        if rows >= cols:
            M = np.linalg.qr(M, mode="r")
    _, s, vt = np.linalg.svd(M)
    # abs: LAPACK may return -0.0 for an exactly zero singular value
    sigma_min = math.inf if cols == 0 else (abs(float(s[-1])) if rows >= cols else 0.0)
    cutoff = _rank_cutoff((rows, cols), max(float(s[0]) if s.size else 0.0, floor))
    return _Verdict(sigma_min > cutoff, sigma_min, cutoff, s, vt, M)


def _norm2(apply, apply_t, n: int) -> float:
    """||X||_2 of an operator X with n >= 1 columns, given x -> X x and
    y -> X^T y on vectors, by Golub-Kahan-Lanczos bidiagonalization (Golub &
    Kahan, SIAM J. Numer. Anal. B 2, 1965) with full reorthogonalization.

    From a fixed pseudo-random unit vector v_1, the steps
    alpha_j u_j = X v_j - beta_(j-1) u_(j-1) and
    beta_j v_(j+1) = X^T u_j - alpha_j v_j give X V_j = U_j B_j, B_j upper
    bidiagonal, and X^T U_j = V_j B_j^T + beta_j v_(j+1) e_j^T.  So the
    largest singular value s of B_j, with left singular vector p, lies
    within beta_j |p_j| of a singular value of X.  The loop stops when that
    bound falls to eps_mach s, or at step n, where V_n spans the domain
    and s is exact to rounding; a zero alpha_j or beta_j ends it with an
    invariant pair of subspaces, where s is exact too.  Norms are BLAS nrm2
    and X is never squared, so nothing overflows or underflows where
    ||X|| does not; a product that does overflow gives +inf.
    """
    eps = float(np.finfo(float).eps)
    v = np.random.default_rng(0).standard_normal(n)
    v /= dnrm2(v)
    V, U, alpha, beta = [v], [], [], []
    for j in range(1, n + 1):
        u = apply(v)
        if U:
            u -= beta[-1] * U[-1]
        a = dnrm2(_orthogonalize(u, U))
        w, b = None, 0.0
        if a > 0.0:
            u /= a
            U.append(u)
            w = _orthogonalize(apply_t(u) - a * v, V)
            b = dnrm2(w)
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        alpha.append(a)
        P, s, _ = np.linalg.svd(np.diag(alpha) + np.diag(beta, 1))
        if j == n or b * abs(P[-1, 0]) <= eps * s[0]:
            return float(s[0])
        beta.append(b)
        v = w / b
        V.append(v)


def _orthogonalize(x: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """x minus its projection on the span of the orthonormal ``basis``, in
    place, by two passes of classical Gram-Schmidt."""
    if basis:
        Q = np.array(basis)
        for _ in range(2):
            x -= (Q @ x) @ Q
    return x


def _factor_verdict(R: np.ndarray, rows: int) -> _Verdict:
    """The verdict of :func:`_sv_verdict` on the factor R of a QR of a map
    with ``rows`` rows, without an SVD: ``s`` and ``vt`` are None.

    sigma_max = ||R|| comes off :func:`_norm2`, matvecs with R.  A wide R,
    or one with a diagonal at or below the rank cutoff, fails with
    sigma_min = 0, since sigma_min <= min |r_ii|; otherwise sigma_min =
    1/||R^-1||, from :func:`_norm2` on triangular solves (0 when they
    overflow), decides it either way.  Callers choose this route by the map,
    not its size: Krylov norms undercut an SVD on general maps from about
    134 columns, but converge slowly on Theta's n x n factors.
    """
    cols = R.shape[1]
    sigma_max = _norm2(lambda x: R @ x, lambda y: R.T @ y, cols)
    cutoff = _rank_cutoff((rows, cols), max(sigma_max, _SIGMA_FLOOR))
    sigma_min = 0.0
    if rows >= cols and float(np.abs(np.diagonal(R)).min()) > cutoff:
        with np.errstate(over="ignore", invalid="ignore"):
            sigma_min = 1.0 / _norm2(
                lambda x: solve_triangular(R, x, check_finite=False),
                lambda y: solve_triangular(R, y, trans=1, check_finite=False), cols)
    return _Verdict(sigma_min > cutoff, sigma_min, cutoff, None, None, R)


def _observe(system: LinearSystem, ops: StepOperator, R: np.ndarray, Z_T: np.ndarray,
             F: np.ndarray):
    """One batched adjoint solve for k right-hand sides, final data Z_T (k, n)
    and sources F (N, k, n): the sqrt(dt)-scaled B* z signals in the output
    frame of B^T = Q R, R z per interval flattened time-major into columns
    (N*r, k), and the nodes of z, (N+1, n, k), so that z(0) is ``nodes[0]``."""
    z = adjoint_solve(system, ops, Z_T, F)
    # (r, n) times each (n, k) block gives (N, r, k), already in column layout
    obs = np.matmul(math.sqrt(ops.dt) * R, z.interval_averages.transpose(0, 2, 1))
    return obs.reshape(-1, Z_T.shape[0]), z.node_values.transpose(0, 2, 1)


def _framed_signals(Q: np.ndarray, basis: np.ndarray, dt: float) -> np.ndarray:
    """The sqrt(dt)-scaled control signals of ``basis`` (p, N, m) as columns
    (N*r + p, p) in the output frame of B^T = Q R: the coordinates X Q of
    each interval, then the R of a QR of the part outside range(B^T), zero
    rows below it when that part has fewer than p rows.  The last p rows
    are orthonormal coordinates of that part, so the columns keep their
    inner products with each other and with every B* z column."""
    p, N, m = basis.shape
    X = math.sqrt(dt) * basis
    frame = X @ Q  # (p, N, r)
    R = np.linalg.qr((X - frame @ Q.T).reshape(p, N * m).T, mode="r")
    rest = np.zeros((p, p))
    rest[:R.shape[0]] = R
    return np.vstack([frame.reshape(p, N * Q.shape[1]).T, rest])


def _uc_sweep(system: LinearSystem, ops: StepOperator, G_basis, W_basis) -> UCReport:
    """The verdict on the uniqueness map (z_T, g, w) -> B* z - g over the
    horizon of the bases (p, N, dim), in the output frame with N*r + p_g
    rows, which is never held.  The backward sweep runs in blocks of at
    most ``UC_BLOCK_BYTES`` of z nodes (so of map rows, r <= n), each one
    batched solve from the z node the previous block ended at; the block's
    rows go below the running R in one buffer and are refactored into it
    (sequential TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
    Comput. 34, 2012).  The p_g rows of G outside range(B^T) join the last
    block.  A failing map's witness is its last right singular vector, or
    e_0 for a map without rows, whose kernel is every vector."""
    n, p_g, (p_w, N) = system.n, G_basis.shape[0], W_basis.shape[:2]
    k = n + p_g + p_w
    Q, Rb = np.linalg.qr(system.B.T)
    r = Q.shape[1]
    rows = N * r + p_g
    framed = _framed_signals(Q, G_basis, ops.dt)
    rest = np.zeros((p_g, k))
    rest[:, n:n + p_g] = -framed[N * r:]
    R, z = np.zeros((0, k)), np.eye(k, n)
    step = max(1, UC_BLOCK_BYTES // (8 * k * n))  # intervals per block
    for b in range(N, 0, -step):
        a = max(b - step, 0)
        F = np.zeros((b - a, k, n))
        F[:, n + p_g:] = W_basis[:, a:b].transpose(1, 0, 2)
        obs, nodes = _observe(system, ops, Rb, z, F)
        z = nodes[0].T.copy()
        obs[:, n:n + p_g] = -framed[a * r:b * r]
        del F, nodes  # the block's rows are its only array alive through the QR
        R = np.linalg.qr(np.vstack([R, obs, rest if a == 0 else rest[:0]]), mode="r")
        del obs  # and none is alive through the next block's solve
    v = _sv_verdict(R, rows=rows)
    witness = radius = None
    if not v.holds:
        witness = v.vt[-1].copy() if rows else np.eye(k)[0]
        radius = _infeasibility_radius(witness, n, p_g)
    return UCReport(v.sigma_min, v.holds, witness, (rows, k), radius)


def _infeasibility_radius(witness: np.ndarray, n: int, p_g: int) -> float:
    """The radius of :class:`UCReport` for a witness whose blocks have sizes
    n, p_g and the rest."""
    nz, ng, nw = (float(np.linalg.norm(part)) for part in np.split(witness, [n, n + p_g]))
    return math.inf if nz == 0.0 else (nz**2 + ng**2 + nw**2) / nz


def uc_verdict(
    system: LinearSystem,
    grid: TimeGrid,
    G: Subspace,
    W: Subspace,
    ops: StepOperator | None = None,
) -> UCReport:
    """Singular-value verdict on the uniqueness map (z_T, g, w) -> B* z - g,
    with z driven by the source w.

    Domain coordinates are orthonormal (state Euclidean, subspace
    coefficients).  The output signal is scaled by sqrt(dt) and written in
    the output frame of the module docstring, N*r + p_g rows, which is
    ``map_dims``.  The uniqueness property holds at the discrete level iff
    this map has trivial kernel, decided against its numerical-rank cutoff,
    so scaling the map never changes the verdict.  The map's R accumulates
    block by block during the backward sweep (:func:`_uc_sweep`), so the
    verdict holds O(``UC_BLOCK_BYTES`` + k^2) bytes for k = n + p_g + p_w
    columns, whatever the number of steps."""
    _check_spaces(system, grid, G, W)
    return _uc_sweep(system, ops or build_propagator(system, grid), G.basis, W.basis)


def _general_maps(system, grid, G, W, ops):
    """Stacked observation map M over (z_T, g, w, f) and the first n rows
    Z0 of the measured map (z(0), g, w, f), which is the identity on the
    remaining coordinates; f enters in sqrt(dt)-scaled coordinates.  M has
    N*r + p_g signal rows in the output frame, then N*n rows of f + w; Z0
    is z(0) for every column, (n, n_cols).  Refuses before allocating when
    M and the n_cols x n_cols triangular factor of its QR exceed
    ``DENSE_CAP`` float64 entries.

    The n*N columns of unit sources are time shifts: a unit source on
    interval k, component i, observes on intervals j <= k what one on the
    last interval observes on interval j + N-1-k, and its z(0) is that
    response's node N-1-k.  One batched solve of 2n right-hand sides, the
    n unit z_T and the n unit sources on the last interval, gives the z_T
    columns and those n responses, and the source columns are filled
    block-Toeplitz from them; the G columns are the framed G signals.
    """
    n, N = system.n, grid.n_steps
    p_g, p_w = G.dim, W.dim
    r = min(system.m, n)
    sqrt_dt = math.sqrt(grid.dt)
    n_cols = n + p_g + p_w + n * N
    sig_rows = N * r + p_g  # signal rows in the output frame
    entries = (sig_rows + N * n + n_cols) * n_cols
    if entries > DENSE_CAP:
        raise ProblemTooLargeError(
            f"dense observability assembly needs {entries} float64 entries, cap is {DENSE_CAP}"
        )
    Q, R = np.linalg.qr(system.B.T)
    F = np.zeros((N, 2 * n, n))
    F[N - 1, n:] = np.eye(n) / sqrt_dt  # unit norm in sqrt(dt)-scaled coordinates
    obs, nodes = _observe(system, ops, R, np.eye(2 * n, n), F)
    f0 = n + p_g + p_w  # first source column
    M = np.zeros((sig_rows + N * n, n_cols), order="F")  # LAPACK's order, factored in place
    M[:N * r, :n] = obs[:, :n]
    M[:sig_rows, n:n + p_g] = _framed_signals(Q, G.basis, grid.dt)
    M[sig_rows:, n + p_g:f0] = sqrt_dt * W.basis.reshape(p_w, N * n).T
    diag = np.arange(N * n)
    M[sig_rows + diag, f0 + diag] = 1.0
    last = obs[:, n:]
    for k in range(N):
        M[:(k + 1) * r, f0 + k * n:f0 + (k + 1) * n] = last[(N - 1 - k) * r:]
    Z0 = np.zeros((n, n_cols))  # g and w do not drive z
    Z0[:, :n] = nodes[0, :, :n]
    Z0[:, f0:] = nodes[N - 1::-1, :, n:].transpose(1, 0, 2).reshape(n, N * n)
    return M, Z0


def _theta_verdict(system: LinearSystem, ops: StepOperator, N: int) -> _Verdict:
    """The singular-value verdict, right singular vectors included, of
    Theta: z_T -> B* z of the homogeneous backward solve over N intervals,
    N*r rows in the output frame.  It is read off K_N, the triangular
    factor of Theta's QR (||Theta x|| = ||K_N x||), built by doubling in
    O(n^3 log N) flops and O(n^2) memory, so Theta (N*r*n entries) is
    never formed.

    With no source the rows of interval N-1-j are H (E^T)^j, H = R Phi^T /
    sqrt(dt), so the factor K_2p of 2p intervals is the R of a QR of
    [K_p; K_p (E^T)^p], and the intervals of N add up from the binary
    digits of N (the row order of a map does not change its R^T R).
    """
    n = system.n
    R = np.linalg.qr(system.B.T, mode="r")
    K, P = R @ ops.Phi.T / math.sqrt(ops.dt), ops.E.T  # K_p and (E^T)^p, p = 1
    acc, acc_P = np.zeros((0, n)), np.eye(n)  # the same for the intervals summed so far
    bits = N
    while True:
        if bits & 1:
            acc = np.linalg.qr(np.vstack([acc, K @ acc_P]), mode="r")
            acc_P = P @ acc_P
        bits >>= 1
        if not bits:
            break
        K = np.linalg.qr(np.vstack([K, K @ P]), mode="r")
        P = P @ P
    return _sv_verdict(acc, rows=N * R.shape[0])


def _measured_norm(rows: np.ndarray, Y, Y_t, n: int) -> float:
    """||D Y||_2 for the measured map D whose first k rows are ``rows`` (k,
    cols) and which is the identity on the remaining coordinates, and the
    operator Y with n columns given as x -> Y x and y -> Y^T y; D is applied
    as those rows, never stacked square."""
    k = rows.shape[0]

    def apply(x):
        y = Y(x)
        return np.concatenate([rows @ y, y[k:]])

    def apply_t(z):
        y = rows.T @ z[:k]
        y[k:] += z[k:]
        return Y_t(y)

    return _norm2(apply, apply_t, n)


def _split_constant(v: _Verdict, rows: np.ndarray | None) -> tuple[float, float]:
    """Best C with ||D x|| <= C ||M x||, for the map M of the verdict ``v``
    and the measured map D whose first k rows are ``rows`` (k, cols) and
    which is the identity on the remaining coordinates; ``rows`` = None
    stands for the identity, where C = 1/sigma_min(M).

    When M holds, its factor R is square and invertible, and C = ||D R^-1||
    (:func:`_measured_norm`, each product a triangular solve), with no
    inverse and no Gram formed.  When M fails, an SVD of R (the verdict's,
    if it ran one) splits it against D: C = +inf when M has a kernel direction
    that D does not annihilate, measured against the rank cutoff of D,
    else C = ||D V_r S_r^-1|| bounds D on the rest through the r singular
    values above the verdict's cutoff.  D is applied as its rows in every
    norm, so neither branch holds a square D.

    Returns (C, sigma) with sigma = 1/C the smallest generalized singular
    value.
    """
    if rows is None:
        return (1.0 / v.sigma_min, v.sigma_min) if v.holds else (math.inf, 0.0)
    cols = rows.shape[1]
    if v.holds:
        R = v.factor
        C = _measured_norm(rows, lambda x: solve_triangular(R, x, check_finite=False),
                           lambda y: solve_triangular(R, y, trans=1, check_finite=False), cols)
    else:
        s, vt = (v.s, v.vt) if v.s is not None else np.linalg.svd(v.factor)[1:]
        rank = int(np.sum(s > v.cutoff))  # a prefix of the descending s
        null, top, s_top = vt[rank:], vt[:rank], s[:rank]
        d_max = _measured_norm(rows, lambda x: x, lambda y: y, cols)
        if _measured_norm(rows, lambda x: x @ null, lambda y: null @ y,
                          cols - rank) > _rank_cutoff((cols, cols), d_max):
            return math.inf, 0.0
        if rank == 0:
            return 0.0, math.inf  # M and D both vanish; inequality is trivial
        C = _measured_norm(rows, lambda x: (x / s_top) @ top, lambda y: (top @ y) / s_top,
                           rank)
    if C == 0.0:
        return 0.0, math.inf
    return C, 1.0 / C


def observability_constants(
    system: LinearSystem,
    grid: TimeGrid,
    G: Subspace,
    W: Subspace,
    kinds: Sequence[str],
    ops: StepOperator | None = None,
) -> dict[str, ObservabilityReport]:
    """Constants of the observability inequalities of ``kinds``, each
    1/(generalized sigma_min), keyed by kind in the order of ``kinds``.

    Kinds 'final_state' and 'initial_state' quantify over the homogeneous
    backward solutions (G, W do not enter).  The 'general_*' kinds quantify
    over (z_T, g, w, f) with f ranging over the whole signal space; the
    observed pair is (B* z + g, f + w) stacked in the product norm, which
    bounds the sum-of-norms form of the inequality as well.  The
    homogeneous kinds share the n x n factor of :func:`_theta_verdict`,
    with z(0) = (E^T)^N z_T.  The 'general_*' kinds share one assembly of
    the dense map M, one QR of M, which overwrites it and after which M is
    dropped, and one verdict on its R (:func:`_factor_verdict`): sigma_max
    and sigma_min are Golub-Kahan norms of R and R^-1, and no SVD decides
    it; they refuse, before allocating, when M and that R would hold more
    than ``DENSE_CAP`` float64 entries.  Each constant is then read off the
    shared factor (:func:`_split_constant`), given the first rows of the
    map it measures: none for the final-state kinds, (E^T)^N for
    'initial_state', and the n rows of z(0) over (z_T, g, w, f) for
    'general_initial', the one kind that takes an SVD of a failing R.
    """
    for kind in kinds:
        if kind not in OBS_KINDS:
            raise ShapeError(f"kind must be one of {OBS_KINDS}, got {kind!r}")
    _check_spaces(system, grid, G, W)
    ops = ops or build_propagator(system, grid)
    N = grid.n_steps
    split: dict[str, tuple[_Verdict, np.ndarray | None]] = {}
    if "final_state" in kinds or "initial_state" in kinds:
        v = _theta_verdict(system, ops, N)
        split["final_state"] = (v, None)
        if "initial_state" in kinds:
            split["initial_state"] = (v, np.linalg.matrix_power(ops.E.T, N))
    if "general_final" in kinds or "general_initial" in kinds:
        M, Z0 = _general_maps(system, grid, G, W, ops)
        rows = M.shape[0]
        # mode "raw" keeps the triangle of the first n_cols rows ("r" would
        # return all rows); M and the raw factor are dropped before the verdict
        R = qr(M, mode="raw", overwrite_a=True, check_finite=False)[1]
        del M
        v = _factor_verdict(R, rows)
        split["general_final"] = (v, None)
        split["general_initial"] = (v, Z0)
    return {kind: ObservabilityReport(kind, *_split_constant(*split[kind])) for kind in kinds}


def _t_tilde_node(grid: TimeGrid, t_tilde: float) -> int:
    """Node index of the intermediate time t~: ShapeError outside (0, T],
    GridAlignmentError off the grid."""
    if not (0.0 < t_tilde <= grid.horizon):
        raise ShapeError(f"t_tilde must lie in (0, T], got {t_tilde}")
    return grid.node_index(t_tilde)


def two_time_check(
    system: LinearSystem,
    grid: TimeGrid,
    G: Subspace,
    W: Subspace,
    t_tilde: float,
    ops: StepOperator | None = None,
) -> TwoTimeReport:
    """Certify observability of the initial trace from an intermediate time.

    Three ingredients are checked: the restrictions of G and W to (0, t~)
    must be injective (elements supported past t~ would escape the
    uniqueness conclusion); the uniqueness map assembled on (0, t~), with
    the source restricted to (0, t~) and the subspace coefficients measured
    over the whole of (0, T), must have trivial kernel; and the
    intermediate-time trace must be observable from the full-horizon
    observation: the constant of kind 'tilde_T' bounds z(t~) = (E^T)^(N-k)
    z_T, k the node of t~, by the B* z signal of the homogeneous solve
    (:func:`_theta_verdict`).  Each injectivity question compares a smallest
    singular value with the numerical-rank cutoff of its own map.  All
    three together certify the general initial-trace observability
    inequality at the discrete level, which is what the null-control solve
    needs.
    """
    _check_spaces(system, grid, G, W)
    N, k_cut = grid.n_steps, _t_tilde_node(grid, t_tilde)
    ops = ops or build_propagator(system, grid)
    sqrt_dt = math.sqrt(grid.dt)
    restriction_ok = all(
        S.dim == 0
        or _sv_verdict(sqrt_dt * S.basis[:, :k_cut].reshape(S.dim, -1).T).holds
        for S in (G, W)
    )
    uc_tilde = _uc_sweep(system, ops, G.basis[:, :k_cut], W.basis[:, :k_cut])
    D = np.linalg.matrix_power(ops.E.T, N - k_cut)
    obs_tilde = ObservabilityReport("tilde_T", *_split_constant(_theta_verdict(system, ops, N), D))
    certified = restriction_ok and uc_tilde.holds and math.isfinite(obs_tilde.constant_C)
    return TwoTimeReport(restriction_ok, uc_tilde, obs_tilde, certified)


def restriction_kernel_check(W: Subspace, model, G: Subspace | None = None) -> bool:
    """Injectivity of the spatial restriction on W (and of the stacked map).

    ``model`` is the :class:`~pccontrol.models.ModelDescriptor` of the
    system W lives on.  With only W: full column rank of the restriction of
    W's basis to the masked nodes of the model's spatial grid, every node
    weighted by the uniform spacing h (and every interval by dt).  With G as
    well: the combined condition, injectivity of (w, g) -> restriction(w) +
    (d_t + Laplace) g, is tested in weak form against tensor test functions
    (interior time hats times interior space hats on the masked grid), the
    space operator realized by lumped P1 mass and stiffness pairings.
    """
    amb = W.ambient
    if not isinstance(amb, SignalAmbient):
        raise ShapeError("W must be a signal subspace")
    grid = amb.grid
    dt = grid.dt
    node_vals = model.state_value_matrix[model.mask]  # (n_masked, n_state)
    h = float(model.x_full[1] - model.x_full[0])
    if node_vals.shape[1] != amb.dim:
        raise ShapeError("model does not match the state dimension of W")
    if G is None:
        if W.dim == 0:
            return True
        cols = math.sqrt(dt) * (W.basis @ node_vals.T).reshape(W.dim, -1).T
        cols *= math.sqrt(h)
    else:
        if not isinstance(G.ambient, SignalAmbient):
            raise ShapeError("G must be a signal subspace")
        if W.dim == 0 and G.dim == 0:
            return True
        cols = _weak_stacked_map(W, G, model, node_vals, h)
    # the bases are orthonormal, so the floor of 1 fails a map of rounding
    # noise, a profile restricted to ~1e-15, which a cutoff relative to its
    # own sigma_max would pass (an all-zero map fails at any floor)
    return _sv_verdict(cols, floor=1.0).holds


def _weak_stacked_map(W: Subspace, G: Subspace, model, node_vals: np.ndarray,
                      h: float) -> np.ndarray:
    """Rows indexed by (interior time hat, interior space hat); columns by
    the W basis (restriction pairing) then the G basis (heat-operator
    pairing, integrated by parts onto the test functions).  Controls reach
    the masked nodes by linear interpolation of their values between the
    omega quadrature nodes, extrapolating at the window edges so affine
    profiles reproduce exactly."""
    grid = W.ambient.grid
    N = grid.n_steps
    dt = grid.dt
    n_masked = node_vals.shape[0]
    if n_masked < 3 or N < 2:
        raise ShapeError("mask/grid too coarse for the stacked restriction test")
    xq = model.x_omega
    x = model.x_full[model.mask]
    left = np.clip(np.searchsorted(xq, x) - 1, 0, xq.shape[0] - 2)
    frac = (x - xq[left]) / (xq[left + 1] - xq[left])
    inv_sqrt_w = 1.0 / np.sqrt(model.w_omega)
    interp = np.zeros((n_masked, xq.shape[0]))  # absorbed control coordinates -> node values
    interp[np.arange(n_masked), left] = (1.0 - frac) * inv_sqrt_w[left]
    interp[np.arange(n_masked), left + 1] = frac * inv_sqrt_w[left + 1]
    w = (W.basis @ node_vals.T)[:, :, 1:-1]  # (p_w, N, n_masked - 2): interior nodes
    g_nodes = G.basis @ interp.T  # (p_g, N, n_masked)
    g = g_nodes[:, :, 1:-1]
    lap = (g_nodes[:, :, :-2] - 2.0 * g + g_nodes[:, :, 2:]) / h
    blocks = [
        0.5 * dt * h * (w[:, :-1] + w[:, 1:]),
        h * (g[:, 1:] - g[:, :-1]) + 0.5 * dt * (lap[:, :-1] + lap[:, 1:]),
    ]
    # one column per basis element, its (time hat, space hat) rows time-major
    return np.concatenate(blocks).reshape(W.dim + G.dim, -1).T


def spectral_uc_classify(mu: float, w_mu: np.ndarray, model) -> SpectralClassification:
    """Classify the stationary uniqueness question for one frequency.

    Solves (mu + Laplace) Z = w in modal coordinates, distinguishing the
    resonance cases of the Fredholm alternative:

    * mu off the spectrum: unique Z; holds iff its restricted norm is
      nonzero (verdict UC_holds_nonresonant);
    * mu = lambda_j and the eigenspace component of w is nonzero: no
      solution exists at all (UC_holds_no_solution);
    * mu = lambda_j with w orthogonal to the eigenspace: the solutions are
      Z* + eigenspace; holds iff the minimized restricted norm over the
      eigenspace is nonzero (UC_holds_inf_positive).

    The restricted norm is the quadrature L2 norm over the control window,
    read from the model descriptor's omega quadrature; mu counts as
    resonant within 1e-9 |lambda_j| of an eigenvalue lambda_j, a tolerance
    that scales with the spectrum.  "Nonzero" is the
    numerical-rank rule (:func:`_rank_cutoff`), so no verdict depends on the
    scale of w: the eigenspace component counts above
    ||w|| * n_modes * eps_mach, and the restricted norm of the minimizing Z
    above ||Z|| * max(n_modes, n_quad_omega) * eps_mach.
    """
    lam = np.asarray(model.eigenvalues, dtype=float)
    w_mu = np.asarray(w_mu, dtype=float).reshape(-1)
    if w_mu.shape[0] != lam.shape[0]:
        raise ShapeError("w_mu must have one coefficient per mode")
    vals = model.mode_values_omega  # (n_modes, n_quad_omega)
    wq = model.w_omega
    resonant = np.abs(mu - lam) <= 1e-9 * np.abs(lam)
    p_eig = float(np.linalg.norm(w_mu[resonant]))
    if resonant.any() and p_eig > _rank_cutoff(w_mu.shape, float(np.linalg.norm(w_mu))):
        return SpectralClassification("UC_holds_no_solution", p_eig)
    # Z* solves off the eigenspace; minimize the restricted norm of Z* plus
    # eigenspace elements, an empty minimization off the spectrum
    Z = np.zeros_like(w_mu)
    off = ~resonant
    Z[off] = w_mu[off] / (mu - lam[off])
    base = Z @ vals
    V = vals[resonant]  # eigenspace directions evaluated on the window
    gram = (V * wq) @ V.T
    rhs = -(V * wq) @ base
    coeffs, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    best = base + coeffs @ V
    Z[resonant] = coeffs  # Z now holds the modal coefficients of the minimizer
    q = float(np.sqrt(np.sum(wq * best**2)))
    holds = "UC_holds_inf_positive" if resonant.any() else "UC_holds_nonresonant"
    cutoff = _rank_cutoff(vals.shape, float(np.linalg.norm(Z)))
    return SpectralClassification(holds if q > cutoff else "UC_fails", q)


def _vector_basis(spans, dim: int, name: str) -> np.ndarray:
    """Columns (dim, p) of an orthonormal basis for the span of every given
    basis; None is {0}, and a 1-d array is one column."""
    cols = []
    for span in spans:
        if span is None:
            continue
        arr = np.asarray(span, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape[0] != dim:
            raise ShapeError(f"{name} basis must have {dim}-dimensional columns")
        cols += list(arr.T)
    return orthonormalize(cols, VectorAmbient(dim)).basis.T.copy()


def modal_uc_check(system: LinearSystem, mus=(), rhos=()) -> ModalUCReport:
    """Frequency-by-frequency uniqueness test for exponential-profile spans.

    For each (mu_k, W_k): only z = 0 may satisfy (mu_k I + A^T) z in W_k and
    B^T z = 0 (kernel test on the stacked matrix).  For each (rho_j, G_j):
    only z = 0 may satisfy (rho_j I + A^T) z = 0 with B^T z in G_j.  Entries
    pool by value: one within 1e-12 of an earlier case's value, relative to
    the larger of the two magnitudes (so only equal values pool at 0, and
    rescaling A and the values together pools the same entries), joins that
    case, which tests the span of every W_k and every G_j given at it (None
    is {0}); a value in both lists takes the combined condition, role
    'combined'.  Cases keep the order and value of their first entry,
    mus before rhos.  All checks passing realizes, mode by mode, the
    time-differentiation reduction to the classical uniqueness property.
    """
    n, m = system.n, system.m
    cases: list[tuple[float, list, list]] = []  # (value, W_k given at it, G_j given at it)
    for pairs, side in ((mus, 1), (rhos, 2)):
        for value, span in pairs:
            value = float(value)
            case = next((c for c in cases
                         if abs(value - c[0]) <= 1e-12 * max(abs(value), abs(c[0]))), None)
            if case is None:
                case = (value, [], [])
                cases.append(case)
            case[side].append(span)
    At = system.A.T
    Bt = system.B.T
    checks: list[ModalFrequencyCheck] = []
    for value, W_spans, G_spans in cases:
        role = "combined" if W_spans and G_spans else "mu" if W_spans else "rho"
        Wb = _vector_basis(W_spans, n, "W_k")
        Gb = _vector_basis(G_spans, m, "G_j")
        shifted = value * np.eye(n) + At
        v = _sv_verdict(np.vstack([shifted - Wb @ (Wb.T @ shifted), Bt - Gb @ (Gb.T @ Bt)]))
        witness = None if v.holds else v.vt[-1].copy()
        checks.append(ModalFrequencyCheck(value, role, v.holds, v.sigma_min, witness))
    return ModalUCReport(ok=all(c.ok for c in checks), checks=checks)
