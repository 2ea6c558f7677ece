"""Minimizers for the dual functionals.

Every kind is minimized by one conjugate-gradient routine on the
normal-equations operator S (the gradient of the homogeneous quadratic
part), with exact line search.  The exact and null kinds are
quadratic-plus-linear and take one preconditioned CG solve from zero: the
z_T block of S is the controllability Gramian Theta^T Theta of the
homogeneous observation Theta: z_T -> B* z, so the preconditioner is
(Theta^T Theta)^-1 on the numerical range of Theta and the identity on its
numerical kernel and on the g, w and f blocks (the g and w diagonal blocks
of S are exactly I); Glowinski, Lions & He, "Exact and Approximate
Controllability for Distributed Parameter Systems" (2008).  The approximate
kinds add eps-norms of the blocks Pi_1 v = (I - P_E) z_T and, for the
relaxed kind, Pi_2 v = w.  At their minimizer S v + ell + sum_i mu_i Pi_i v
= 0 with mu_i ||Pi_i v|| = eps, so each outer step solves the shifted system
(S + sum_i mu_i Pi_i) v = -ell by CG, warm started, and a secant on the
multipliers solves that secular equation (Moré & Sorensen, "Computing a
trust region step", 1983); an infinite mu_i holds block i at zero.  The
stopping test of the approximate kinds is the norm of the least-norm
subgradient of the full functional, so the eps terms are never smoothed.

Non-coercive instances (the uniqueness hypothesis fails, so the quadratic
form has a kernel the data pairs against) are reported with verdict
``diverged_infeasible`` once a conjugate-gradient direction exposes a
numerically vanishing curvature against a nonzero residual, measured in the
preconditioner's norm, in which CG iterates from zero grow monotonically
(Steihaug, SIAM J. Numer. Anal. 20, 1983); for the approximate kinds a
shifted solve that meets one ends the minimization.  No bound on the
iterate's norm stops a solve.  A holding uniqueness map can still leave a
minimizer so large that rounding keeps its gradient above ``grad_tol``: an
exact or null solve is ``converged`` only once the true gradient at the
returned point passes ``grad_tol``, and an approximate one is
``diverged_infeasible`` once its least subgradient has stalled within a
multiple of the rounding floor kappa ||v|| eps_mach (Higham, "Accuracy and
Stability of Numerical Algorithms", 2002, ch. 7).  The singular-value check
in :mod:`pccontrol.certificates` is the authoritative pre-check; its report
turns a failing map's witness into an explicit unreachable neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import _theta_verdict
from .errors import ConfigError
from .functionals import (
    APPROX_KINDS,
    ProblemData,
    _eps_blocks,
    _put,
    apply_quadratic,
    grad_smooth,
    nonsmooth_value,
)

__all__ = ["SolverOptions", "SolveDiagnostics", "minimize"]

_RESIDUAL_REFRESH = 50
_STALL_STEPS = 8
_FLOOR_FACTOR = 10.0


@dataclass(frozen=True)
class SolverOptions:
    """Iteration limits and tolerances.

    ``grad_tol`` bounds the Euclidean norm of the gradient vector for
    the exact and null kinds, checked on the true gradient at the returned
    point, and the least-norm subgradient norm for the approximate kinds.
    ``max_iters`` caps the CG iterations, and for the approximate kinds
    both the outer steps and each CG solve in them.  No option bounds the
    iterate's norm: a solve diverges at a vanishing curvature or at the
    rounding floor.
    """

    max_iters: int = 5000
    grad_tol: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not (self.grad_tol > 0.0):
            raise ConfigError("grad_tol must be positive")


@dataclass
class SolveDiagnostics:
    """At the returned point, for every kind and verdict: ``final_residual``
    is the norm of the true gradient (exact, null) or of the least-norm
    subgradient (approximate kinds), and ``objective`` the functional J."""

    iterations: int
    final_residual: float
    objective: float
    verdict: str = "converged"  # converged | max_iters | diverged_infeasible


def minimize(
    p: ProblemData, opts: SolverOptions | None = None
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Minimize the dual functional of ``p``: preconditioned CG from zero
    for the exact and null kinds, and shifted CG solves on the
    eps-multipliers for the approximate ones (:func:`_minimize_approx`).
    Both read J(v) = 1/2 <grad J_s(v) + grad J_s(0), v> + eps-norms off the
    gradient at the returned v, on which an exact or null ``converged`` must
    pass ``grad_tol``.  Data whose gradient at zero has no finite norm are
    refused with :class:`ConfigError`: CG squares that norm."""
    opts = opts or SolverOptions()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        b = -grad_smooth(p, p.zero_variable())
        b_norm = np.linalg.norm(b)
    if not math.isfinite(b_norm):  # CG squares this norm
        raise ConfigError("problem data overflow double precision: the dual gradient at "
                          "zero, a function of y0, y1, g_star and w_star, has no finite norm")
    if p.kind in APPROX_KINDS:
        return _minimize_approx(p, opts, b)
    v, _, iters, verdict, _ = _cg_core(p, b, p.zero_variable(), opts.grad_tol, opts.max_iters,
                                       precond=_gramian_preconditioner(p))
    g = grad_smooth(p, v)
    res = float(np.linalg.norm(g))
    if verdict == "converged" and res > opts.grad_tol:
        verdict = "diverged_infeasible"
    return v, SolveDiagnostics(iters, res, 0.5 * ((g - b) @ v), verdict)


# ---------------------------------------------------------------------------
# conjugate gradients


def _gramian_preconditioner(p: ProblemData) -> tuple[np.ndarray, np.ndarray]:
    """The z_T block V diag(d) V^T of the CG preconditioner: d holds the
    squared singular values of Theta above the cutoff of its verdict
    (:func:`pccontrol.certificates._sv_verdict`) and 1 on its numerical
    kernel, V the right singular vectors.  They come from the n x n factor
    of :func:`pccontrol.certificates._theta_verdict`, O(n^3 log N) flops,
    so Theta itself is never formed."""
    verdict = _theta_verdict(p.system, p.ops, p.grid.n_steps)
    d = np.ones(p.system.n)
    d[:verdict.s.size] = np.where(verdict.s > verdict.cutoff, verdict.s ** 2, 1.0)
    return verdict.vt.T, d


def _cg_core(p: ProblemData, b: np.ndarray, x0: np.ndarray, tol: float, max_iters: int,
             mu=(), precond=None):
    """Preconditioned CG for (S + sum_i mu_i Pi_i) x = b from x0, with
    S = ``apply_quadratic``.

    ``mu`` holds one multiplier per eps block Pi_i of :func:`_eps_blocks`
    (empty for S alone); an infinite mu_i holds block i at zero, in the
    iterates and in the returned x.  ``precond`` is the z_T block (V, d) of
    :func:`_gramian_preconditioner`; without one that block is (I, 1), the
    identity.  The other blocks are always the identity.
    Returns (x, residual_norm, iterations, verdict, curvature_scale),
    curvature_scale the largest curvature p^T S p / p^T p of a search
    direction p.  Verdict 'diverged_infeasible' is raised by a
    vanishing-curvature direction against a nonzero residual (a numerically
    exposed kernel the data pairs against).  Curvatures are measured in the
    preconditioner's norm, the Euclidean norm for the identity.  The
    stopping test is the Euclidean norm of the recursively updated
    residual, which from x0 = 0 starts at b: S 0 = 0 exactly.
    """
    held = [m if m == math.inf else 0.0 for m in mu]

    def P(x: np.ndarray) -> np.ndarray:
        return _shift(p, x, x, held) if math.inf in held else x

    def apply_S(x: np.ndarray) -> np.ndarray:
        Sx = apply_quadratic(p, x)
        return _shift(p, Sx, x, mu) if mu else Sx

    n = p.system.n
    V, d = precond or (np.eye(n), np.ones(n))

    def solve(r: np.ndarray) -> np.ndarray:
        z = r.copy()
        z[:n] = V @ ((V.T @ r[:n]) / d)
        return z

    def sq_norm(x: np.ndarray) -> float:
        y = V.T @ x[:n]
        return y @ (d * y) + x[n:] @ x[n:]

    b = P(b)
    x = P(x0).copy()
    r = b - apply_S(x) if x.any() else b
    rr = r @ r
    if math.sqrt(rr) <= tol:
        return P(x), math.sqrt(rr), 0, "converged", 0.0
    z = solve(r)
    rz = r @ z
    pdir = z.copy()
    curvature_scale = 0.0
    verdict = "max_iters"
    iters = 0
    for it in range(1, max_iters + 1):
        iters = it
        Sp = apply_S(pdir)
        pSp = pdir @ Sp
        pp = sq_norm(pdir)
        if pSp > 0.0:
            curvature_scale = max(curvature_scale, pSp / pp)
        if pSp <= 1e-14 * pp * max(curvature_scale, 1e-300):
            verdict = "diverged_infeasible"
            break
        alpha = rz / pSp
        x = x + alpha * pdir
        if it % _RESIDUAL_REFRESH == 0:
            r = b - apply_S(x)
        else:
            r = r - alpha * Sp
        rr = r @ r
        if math.sqrt(rr) <= tol:
            verdict = "converged"
            break
        z = solve(r)
        rz_new = r @ z
        beta = rz_new / rz
        rz = rz_new
        pdir = z + beta * pdir
    return P(x), math.sqrt(rr), iters, verdict, curvature_scale


# ---------------------------------------------------------------------------
# the approximate kinds: a secular equation on the eps-multipliers


def _shift(p: ProblemData, y: np.ndarray, x: np.ndarray, mu) -> np.ndarray:
    """y + sum_i mu_i Pi_i x, with the blocks of infinite mu_i set to zero."""
    return _put(p, y, [np.zeros_like(a) if m == math.inf else a + m * c
                       for a, c, m in zip(_eps_blocks(p, y), _eps_blocks(p, x), mu)])


def _least_subgradient(p: ProblemData, v: np.ndarray, g: np.ndarray, held) -> np.ndarray:
    """Least-norm element of the subdifferential of the full functional at v.

    ``g`` is ``grad_smooth(p, v)``.  A free block adds eps times its
    direction; a block held at zero, or free but exactly zero, shrinks its
    gradient by eps.
    """
    parts = []
    for x, y, at_zero in zip(_eps_blocks(p, v), _eps_blocks(p, g), held):
        nx = float(np.linalg.norm(x))
        if at_zero or nx == 0.0:
            ny = float(np.linalg.norm(y))
            parts.append(max(0.0, 1.0 - p.epsilon / ny) * y if ny > 0.0 else y)
        else:
            parts.append(y + (p.epsilon / nx) * x)
    return _put(p, g, parts)


def _minimize_approx(p: ProblemData, opts: SolverOptions,
                     b: np.ndarray) -> tuple[np.ndarray, SolveDiagnostics]:
    """The secular equation, solved for s_i = 1/mu_i (s_i = 0 holds block i).

    Its residuals r_i = eps / psi_i - 1, psi_i = mu_i ||Pi_i v(mu)||, rise
    with s_i, are linear in s_i for a single spectral component of S, and
    are read off the gradient for a held block.  Each outer step is one
    warm-started CG solve and one secant step per block, clipped at s_i = 0.
    A block whose secant does not rise, or whose step would move it away
    from its root, goes to the zero of the secant through its last free
    point and (0, r_i at s_i = 0).

    The problem is ``diverged_infeasible`` when a shifted solve meets a
    vanishing curvature: the kernel of S + sum_i mu_i Pi_i is the common
    kernel of S and the Pi_i for every finite mu, so once mu is below
    rounding against S the curvature test sees the kernel of S, and no
    other s helps.  It is also ``diverged_infeasible`` at the rounding
    floor: when the least subgradient has made no new best for
    ``_STALL_STEPS`` outer steps and lies within ``_FLOOR_FACTOR`` kappa
    ||v|| eps_mach, kappa the largest curvature of the unshifted warm-start
    solve (Higham, "Accuracy and Stability of Numerical Algorithms", 2002,
    ch. 7).

    ``b`` is -grad J_s(0), and ``g`` is always grad J_s at ``v``, the point
    kept so far.
    """
    b_norm = np.linalg.norm(b)
    v, g = p.zero_variable(), -b
    k = len(_eps_blocks(p, v))
    residual = np.linalg.norm(_least_subgradient(p, v, g, [True] * k))
    if residual <= opts.grad_tol:
        return v, SolveDiagnostics(0, residual, 0.0, "converged")

    def inner_tol(previous: float) -> float:
        return 0.01 * max(opts.grad_tol, min(previous, b_norm))

    warm, accuracy, _, verdict, kappa = _cg_core(p, b, v, inner_tol(math.inf), opts.max_iters)
    start = v if verdict == "diverged_infeasible" else warm
    s = np.array([np.linalg.norm(x) for x in _eps_blocks(p, warm)]) / p.epsilon
    # the last free point (s, r) of each block; ||warm|| / eps bounds s
    s_last, r_last = np.full(k, np.linalg.norm(warm) / p.epsilon), np.zeros(k)
    r_held = np.full(k, math.nan)  # r at s_i = 0, once a held solve has read it
    s_prev, r_prev = np.zeros(k), np.full(k, math.nan)
    best, stalled = residual, 0
    verdict = "max_iters"
    for it in range(1, opts.max_iters + 1):
        mu = [1.0 / float(si) if si > 0.0 else math.inf for si in s]
        w, _, _, solve_verdict, _ = _cg_core(p, b, start, inner_tol(accuracy), opts.max_iters, mu)
        if solve_verdict == "diverged_infeasible":
            verdict = "diverged_infeasible"
            break
        v = start = w
        g = grad_smooth(p, v)
        residual = accuracy = np.linalg.norm(_least_subgradient(p, v, g, s == 0.0))
        if residual <= opts.grad_tol:
            verdict = "converged"
            break
        best, stalled = (residual, 0) if residual < best else (best, stalled + 1)
        if (stalled >= _STALL_STEPS
                and residual <= _FLOOR_FACTOR * kappa * np.linalg.norm(v) * np.finfo(float).eps):
            verdict = "diverged_infeasible"
            break
        psi = np.array([np.linalg.norm(x) / si if si > 0.0 else np.linalg.norm(y)
                        for x, y, si in zip(_eps_blocks(p, v), _eps_blocks(p, g), s)])
        with np.errstate(divide="ignore"):
            r = p.epsilon / psi - 1.0
        s_last, r_last = np.where(s > 0.0, s, s_last), np.where(s > 0.0, r, r_last)
        r_held = np.where(s > 0.0, r_held, r)
        # the zero of each block's secant through (s_last, r_last) and
        # (0, r_held), or (0, -1) where r_held is unknown or not below r_last
        r0 = np.where(r_last > r_held, r_held, -1.0)
        zero = s_last * -r0 / (r_last - r0)
        # the secant through the last two points, where it rises
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (r - r_prev) / (s - s_prev)
            new = np.where(slope > 0.0, np.maximum(s - r / slope, 0.0), zero)
        new[s == 0.0] = 0.0
        s_prev, r_prev = s, r
        # a step that moves a block away from its root (a held block
        # with r < 0 stays at zero) goes to its secant zero instead
        wrong = np.where(r < 0.0, new <= s, (new >= s) & (s > 0.0))
        s = np.where(wrong, zero, new)
    return v, SolveDiagnostics(it, residual, 0.5 * ((g - b) @ v) + nonsmooth_value(p, v),
                               verdict)
