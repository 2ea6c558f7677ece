"""Minimizers for the dual functionals, and an infeasibility certificate.

The exact and null kinds are quadratic-plus-linear and are minimized by
conjugate gradients on the normal-equations operator (the gradient of the
homogeneous quadratic part), with exact line search.  The approximate kinds
carry nonsmooth eps-weighted norm blocks and are minimized by proximal
gradient with Barzilai-Borwein steps, backtracking, and block soft
shrinkage, warm-started at the minimizer of the smooth part.  Every
``_PROX_BURST`` iterations, but never after the last one, a linearized
solve with the norm directions frozen proposes a point that is kept only
if it lowers the objective.  The objective history is monotone by
construction and the stopping test is the proximal fixed-point residual,
so the eps terms are never smoothed.  Every linear solve (the quadratic
kinds, the warm start and the frozen-direction candidate) runs through
one CG routine on :func:`~pccontrol.functionals.apply_quadratic`,
restricted to the frozen blocks for the candidate.

Non-coercive instances (the uniqueness hypothesis fails, so the quadratic
form has a kernel the data pairs against) show up as diverging iterates;
they are reported with verdict ``diverged_infeasible`` once the iterate
norm passes a bound proportional to the data scale, or as soon as a
conjugate-gradient direction exposes a numerically vanishing curvature
against a nonzero residual.  The singular-value check in
:mod:`pccontrol.certificates` is the authoritative pre-check;
:func:`certify_infeasibility` converts its witness into an explicit
unreachable neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidWitnessError
from .functionals import (
    APPROX_KINDS,
    DualVariable,
    ProblemData,
    apply_quadratic,
    dual_dot,
    dual_norm,
    eval_smooth,
    grad_smooth,
    nonsmooth_value,
)

__all__ = ["SolverOptions", "SolveDiagnostics", "minimize", "certify_infeasibility"]

_RESIDUAL_REFRESH = 50
_MAX_BACKTRACKS = 60
_PROX_BURST = 25
_MAX_ACCELERATIONS = 50


@dataclass(frozen=True)
class SolverOptions:
    """Iteration limits and tolerances.

    ``grad_tol`` bounds the fixed-point residual norm in the dual inner
    product (for CG this is the gradient norm).  ``divergence_bound``
    defaults to 1e6 times the problem data scale.
    """

    max_iters: int = 5000
    grad_tol: float = 1e-9
    divergence_bound: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not (self.grad_tol > 0.0):
            raise ConfigError("grad_tol must be positive")
        if self.divergence_bound is not None and not (self.divergence_bound > 0.0):
            raise ConfigError("divergence_bound must be positive")


@dataclass
class SolveDiagnostics:
    iterations: int
    final_residual: float
    objective_history: list[float] = field(default_factory=list)
    verdict: str = "converged"  # converged | max_iters | diverged_infeasible


def _divergence_bound(p: ProblemData, opts: SolverOptions) -> float:
    """``opts.divergence_bound``, or 1e6 times the data scale
    1 + |y0| + |y1| + ||g*|| + ||w*||."""
    if opts.divergence_bound is not None:
        return opts.divergence_bound
    dt = p.grid.dt
    scale = 1.0 + float(np.linalg.norm(p.y0)) + float(np.linalg.norm(p.y1))
    scale += math.sqrt(dt * float(np.sum(p.g_star**2)))
    scale += math.sqrt(dt * float(np.sum(p.w_star**2)))
    return 1e6 * scale


def minimize(
    p: ProblemData, opts: SolverOptions | None = None
) -> tuple[DualVariable, SolveDiagnostics]:
    """Minimize the dual functional of ``p``: CG from zero for the exact and
    null kinds, proximal gradient for the approximate ones."""
    opts = opts or SolverOptions()
    if p.kind in APPROX_KINDS:
        return _minimize_prox(p, opts)
    v, res, iters, verdict, decrements = _cg_core(
        p, -1.0 * grad_smooth(p, p.zero_variable()), p.zero_variable(), opts.grad_tol,
        opts.max_iters, _divergence_bound(p, opts),
    )
    history = [0.0]
    for dec in decrements:
        history.append(history[-1] - dec)
    return v, SolveDiagnostics(iters, res, history, verdict)


# ---------------------------------------------------------------------------
# conjugate gradients


def _cg_core(p: ProblemData, b: DualVariable, x0: DualVariable, tol: float, max_iters: int,
             bound: float, restrict=None):
    """CG for P S P x = P b from P x0, with S = ``apply_quadratic`` and P = ``restrict``.

    ``restrict`` (None for the identity) maps the dual space onto the
    subspace the iterates live in; the returned x is restricted too.
    Returns (x, residual_norm, iterations, verdict, objective_increments)
    where the increments reproduce the exact decrease of the quadratic
    model per iteration.  Verdict 'diverged_infeasible' is raised by iterate
    blowup or by a vanishing-curvature direction against a nonzero
    residual (a numerically exposed kernel the data pairs against).
    """
    dt = p.grid.dt
    P = restrict or (lambda x: x)

    def apply_S(x: DualVariable) -> DualVariable:
        return P(apply_quadratic(p, P(x)))

    b = P(b)
    x = P(x0).copy()
    Sx0 = apply_S(x)
    r = b - Sx0
    rr = dual_dot(r, r, dt)
    decrements: list[float] = []
    if math.sqrt(rr) <= tol:
        return P(x), math.sqrt(rr), 0, "converged", decrements
    pdir = r.copy()
    curvature_scale = 0.0
    verdict = "max_iters"
    iters = 0
    for it in range(1, max_iters + 1):
        iters = it
        Sp = apply_S(pdir)
        pSp = dual_dot(pdir, Sp, dt)
        pp = dual_dot(pdir, pdir, dt)
        if pSp > 0.0:
            curvature_scale = max(curvature_scale, pSp / pp)
        if pSp <= 1e-14 * pp * max(curvature_scale, 1e-300):
            verdict = "diverged_infeasible"
            break
        alpha = rr / pSp
        x = x + alpha * pdir
        decrements.append(0.5 * alpha * rr)
        if dual_norm(x, dt) > bound:
            verdict = "diverged_infeasible"
            break
        if it % _RESIDUAL_REFRESH == 0:
            r = b - apply_S(x)
        else:
            r = r - alpha * Sp
        rr_new = dual_dot(r, r, dt)
        if math.sqrt(rr_new) <= tol:
            rr = rr_new
            verdict = "converged"
            break
        beta = rr_new / rr
        rr = rr_new
        pdir = r + beta * pdir
    return P(x), math.sqrt(rr), iters, verdict, decrements


# ---------------------------------------------------------------------------
# proximal gradient for the approximate kinds


def _shrink(x: np.ndarray, amount: float) -> np.ndarray:
    nrm = float(np.linalg.norm(x))
    if nrm <= amount or nrm == 0.0:
        return np.zeros_like(x)
    return (1.0 - amount / nrm) * x


def _apply_prox(p: ProblemData, v: DualVariable, tau: float) -> DualVariable:
    """Proximal step of tau * eps * (||(I - P_E) z_T|| [+ ||w|| if relaxed])."""
    out = v.copy()
    amount = tau * p.epsilon
    z_in = p.E.project(out.z_T)
    out.z_T = z_in + _shrink(out.z_T - z_in, amount)
    if p.kind == "approx_relaxed":
        out.w_coef = _shrink(out.w_coef, amount)
    return out


def _accelerated_candidate(p: ProblemData, v: DualVariable, ell: DualVariable, bound: float,
                           tol: float, max_iters: int) -> DualVariable | None:
    """Solve the stationarity system with the norm directions frozen.

    Away from the nondifferentiable points the optimality condition reads
    S v + ell + eps * (active directions) = 0; freezing the directions at
    the current iterate gives a linear system solved by CG (blocks
    currently at zero are constrained to stay there).  The caller accepts
    the candidate only if it decreases the full objective.
    """
    rhs = -1.0 * ell
    z_perp = v.z_T - p.E.project(v.z_T)
    nz = float(np.linalg.norm(z_perp))
    free_z = nz > 1e-14 * max(1.0, float(np.linalg.norm(v.z_T)))
    if free_z:
        rhs.z_T = rhs.z_T - p.epsilon * (z_perp / nz)
    free_w = True
    if p.kind == "approx_relaxed":
        nw = float(np.linalg.norm(v.w_coef))
        free_w = nw > 1e-14
        if free_w:
            rhs.w_coef = rhs.w_coef - p.epsilon * (v.w_coef / nw)

    def restrict(x: DualVariable) -> DualVariable:
        out = x.copy()
        if not free_z:
            out.z_T = p.E.project(out.z_T)
        if not free_w:
            out.w_coef = np.zeros_like(out.w_coef)
        return out

    x, _, _, verdict, _ = _cg_core(p, rhs, v, tol, max_iters, bound, restrict)
    return None if verdict == "diverged_infeasible" else x


def _minimize_prox(p: ProblemData, opts: SolverOptions) -> tuple[DualVariable, SolveDiagnostics]:
    dt = p.grid.dt
    bound = _divergence_bound(p, opts)
    ell = grad_smooth(p, p.zero_variable())

    warm, _, _, warm_verdict, _ = _cg_core(
        p, -1.0 * ell, p.zero_variable(), max(opts.grad_tol, 1e-12), opts.max_iters, bound
    )
    # A non-coercive smooth part does not decide the full functional (the
    # eps terms may restore coercivity), so fall back to the origin.
    v = p.zero_variable() if warm_verdict == "diverged_infeasible" else warm

    grad = grad_smooth(p, v)
    J_v = eval_smooth(p, v)
    F_v = J_v + nonsmooth_value(p, v)
    history = [F_v]
    Sg = apply_quadratic(p, grad)
    gSg = dual_dot(grad, Sg, dt)
    gg = dual_dot(grad, grad, dt)
    tau = gg / gSg if gSg > 0.0 else 1.0
    prev_step: DualVariable | None = None
    prev_Sstep: DualVariable | None = None
    residual = math.inf
    verdict = "max_iters"
    for it in range(1, opts.max_iters + 1):
        if prev_step is not None:
            denom = dual_dot(prev_step, prev_Sstep, dt)
            if denom > 0.0:
                tau = min(max(dual_dot(prev_step, prev_step, dt) / denom, 1e-12), 1e12)
        for _ in range(_MAX_BACKTRACKS):
            trial = _apply_prox(p, v - tau * grad, tau)
            step = trial - v
            step_sq = dual_dot(step, step, dt)
            if step_sq == 0.0:
                Sstep = None
                break
            Sstep = apply_quadratic(p, step)
            curvature = dual_dot(step, Sstep, dt)
            if tau * curvature <= step_sq * (1.0 + 1e-12):
                break
            tau = 0.8 * step_sq / curvature
        else:  # pragma: no cover - reachable only on NaNs
            break
        residual = math.sqrt(step_sq) / tau
        if Sstep is None:
            history.append(F_v)
            verdict = "converged"
            break
        J_v += dual_dot(grad, step, dt) + 0.5 * dual_dot(step, Sstep, dt)
        v = trial
        grad = grad + Sstep
        F_v = J_v + nonsmooth_value(p, v)
        history.append(F_v)
        prev_step, prev_Sstep = step, Sstep
        if it % _RESIDUAL_REFRESH == 0:
            grad = grad_smooth(p, v)
            J_v = eval_smooth(p, v)
        if dual_norm(v, dt) > bound:
            verdict = "diverged_infeasible"
            break
        if residual <= opts.grad_tol:
            verdict = "converged"
            break
        # Every _PROX_BURST iterations (at most _MAX_ACCELERATIONS times),
        # but never after the last one, try the frozen-direction solve.
        burst_end = it % _PROX_BURST == 0 and it // _PROX_BURST <= _MAX_ACCELERATIONS
        if burst_end and it < opts.max_iters:
            candidate = _accelerated_candidate(
                p, v, ell, bound, 0.1 * opts.grad_tol, opts.max_iters
            )
            if candidate is not None:
                J_c = eval_smooth(p, candidate)
                F_c = J_c + nonsmooth_value(p, candidate)
                if F_c <= F_v:
                    v, J_v, F_v = candidate, J_c, F_c
                    grad = grad_smooth(p, v)
                    history.append(F_v)
                    prev_step = prev_Sstep = None
    return v, SolveDiagnostics(it, residual, history, verdict)


def certify_infeasibility(witness) -> float:
    """Radius of a neighborhood of -z_T unreachable under the constraints.

    For a kernel witness (z_T, g, w) of the uniqueness map, every trajectory
    from y0 = 0 whose control and trajectory projections equal g and w
    satisfies ||y(T) + z_T|| >= (||z_T||^2 + ||w||^2 + ||g||^2) / ||z_T||.
    Returns that radius; returns +inf when z_T = 0 but (g, w) != 0 (the
    constraints alone are contradictory).  Subspace coefficients are taken
    in orthonormal coordinates, so their Euclidean norms are the L2 norms of
    the lifted signals.
    """
    z_T, g_coef, w_coef = (np.asarray(part, dtype=float).reshape(-1) for part in witness)
    nz = float(np.linalg.norm(z_T))
    ng = float(np.linalg.norm(g_coef))
    nw = float(np.linalg.norm(w_coef))
    if nz == 0.0 and ng == 0.0 and nw == 0.0:
        raise InvalidWitnessError("witness must be nonzero")
    if nz == 0.0:
        return math.inf
    return (nz**2 + ng**2 + nw**2) / nz
