"""Dual functionals for constrained controllability, and primal recovery.

A control problem (approximate / exact / null, with exact projection
constraints P_G u = g* on the control and P_W y = w* on the trajectory) is
solved by minimizing a convex functional of a dual variable
(z_T, g, w, f), where z solves the backward equation z' + A* z = f from
z(T) = z_T:

    J = 1/2 ||B* z + g||^2 + 1/2 ||f + w||^2 + <y0, z(0)> - <y1, z_T>
        + <B* z, g*> + <f, w*>            (y1 = 0 for the null-control kind)
      [ + eps ||(I - P_E) z_T||    for the approximate kinds ]
      [ + eps ||w||                for the relaxed approximate kind ]

All signal pairings use exact interval averages, so the gradient of the
smooth part is the exact transpose of the evaluation chain: one adjoint
solve to evaluate, one forward solve to differentiate.  The control and
trajectory are recovered from the minimizer through

    u = B* Z + G + g*,        y = F + W + w*   (interval-wise),

and the gradient blocks coincide with the primal residuals (final-state
error, projection defects), which is what makes the stopping tolerance of
the minimizer directly meaningful for the recovered solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LinearSystem,
    StepOperator,
    TimeGrid,
    Trajectory,
    adjoint_solve,
    build_propagator,
    control_observation,
    forward_solve,
    signal_inner,
    signal_norm,
)
from .errors import EvaluationOverflowError, ShapeError
from .subspaces import SignalAmbient, Subspace, VectorAmbient, orthonormalize

__all__ = [
    "KINDS",
    "APPROX_KINDS",
    "DualVariable",
    "ProblemData",
    "ControlSolution",
    "SolutionResiduals",
    "eval_J",
    "eval_smooth",
    "nonsmooth_value",
    "grad_smooth",
    "apply_quadratic",
    "recover_primal",
    "dual_dot",
    "dual_norm",
]

KINDS = ("approx", "approx_relaxed", "exact", "null")
APPROX_KINDS = ("approx", "approx_relaxed")


@dataclass
class DualVariable:
    """Minimization variable (z_T, g, w, f); g and w stored as coefficients."""

    z_T: np.ndarray
    g_coef: np.ndarray
    w_coef: np.ndarray
    f: np.ndarray

    @classmethod
    def zeros(cls, n: int, p_g: int, p_w: int, n_steps: int) -> "DualVariable":
        return cls(np.zeros(n), np.zeros(p_g), np.zeros(p_w), np.zeros((n_steps, n)))

    def copy(self) -> "DualVariable":
        return DualVariable(self.z_T.copy(), self.g_coef.copy(), self.w_coef.copy(), self.f.copy())

    def __add__(self, other: "DualVariable") -> "DualVariable":
        return DualVariable(
            self.z_T + other.z_T,
            self.g_coef + other.g_coef,
            self.w_coef + other.w_coef,
            self.f + other.f,
        )

    def __sub__(self, other: "DualVariable") -> "DualVariable":
        return DualVariable(
            self.z_T - other.z_T,
            self.g_coef - other.g_coef,
            self.w_coef - other.w_coef,
            self.f - other.f,
        )

    def __mul__(self, a: float) -> "DualVariable":
        return DualVariable(a * self.z_T, a * self.g_coef, a * self.w_coef, a * self.f)

    __rmul__ = __mul__


def dual_dot(v: DualVariable, w: DualVariable, dt: float) -> float:
    """Inner product of the dual space: Euclidean blocks, dt-weighted f."""
    return (
        float(v.z_T @ w.z_T)
        + float(v.g_coef @ w.g_coef)
        + float(v.w_coef @ w.w_coef)
        + dt * float(np.sum(v.f * w.f))
    )


def dual_norm(v: DualVariable, dt: float) -> float:
    return math.sqrt(max(dual_dot(v, v, dt), 0.0))


@dataclass
class ProblemData:
    """Immutable description of one control problem.

    Defaults: missing subspaces are {0} (E too, for every kind), missing
    g*/w* are zero, the null kind has the target y1 = 0, and the step
    operator is built from (system, grid) unless supplied (tests may inject
    a degenerate one).
    """

    kind: str
    system: LinearSystem
    grid: TimeGrid
    y0: np.ndarray
    y1: np.ndarray | None = None
    epsilon: float | None = None
    G: Subspace | None = None
    W: Subspace | None = None
    E: Subspace | None = None
    g_star: np.ndarray | None = None
    w_star: np.ndarray | None = None
    ops: StepOperator | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"kind must be one of {KINDS}, got {self.kind!r}")
        n, m, N = self.system.n, self.system.m, self.grid.n_steps
        self.y0 = np.asarray(self.y0, dtype=float).reshape(-1)
        if self.y0.shape != (n,):
            raise ShapeError(f"y0 must have shape ({n},)")
        if self.kind == "null":
            if self.y1 is not None:
                raise ShapeError("null-control problems take no target y1")
            self.y1 = np.zeros(n)
        elif self.y1 is None:
            raise ShapeError(f"kind {self.kind!r} requires a target y1")
        self.y1 = np.asarray(self.y1, dtype=float).reshape(-1)
        if self.y1.shape != (n,):
            raise ShapeError(f"y1 must have shape ({n},)")
        if self.kind in APPROX_KINDS:
            if self.epsilon is None or not (self.epsilon > 0.0):
                raise ShapeError("approximate kinds require epsilon > 0")
        else:
            if self.epsilon is not None:
                raise ShapeError(f"kind {self.kind!r} takes no epsilon")
            if self.E is not None:
                raise ShapeError(f"kind {self.kind!r} takes no subspace E")
        if self.E is None:
            self.E = orthonormalize([], VectorAmbient(n))
        if not isinstance(self.E.ambient, VectorAmbient) or self.E.ambient.dim != n:
            raise ShapeError("E must be a subspace of the state space")
        if self.G is None:
            self.G = orthonormalize([], SignalAmbient(m, self.grid))
        if self.W is None:
            self.W = orthonormalize([], SignalAmbient(n, self.grid))
        _check_spaces(self.system, self.grid, self.G, self.W)
        self.g_star = self._star_signal(self.g_star, self.G, (N, m), "g_star")
        self.w_star = self._star_signal(self.w_star, self.W, (N, n), "w_star")
        if self.ops is None:
            self.ops = build_propagator(self.system, self.grid)

    @staticmethod
    def _star_signal(value, space: Subspace, shape, name: str) -> np.ndarray:
        if value is None:
            return np.zeros(shape)
        value = np.asarray(value, dtype=float)
        if value.shape != shape:
            raise ShapeError(f"{name} must have shape {shape}, got {value.shape}")
        if not space.contains(value, tol=1e-10):
            raise ShapeError(f"{name} must lie in its subspace (projection check failed)")
        return value

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(n, p_G, p_W, n_steps)."""
        return self.system.n, self.G.dim, self.W.dim, self.grid.n_steps

    def zero_variable(self) -> DualVariable:
        n, p_g, p_w, N = self.dims
        return DualVariable.zeros(n, p_g, p_w, N)

    def check_variable(self, v: DualVariable):
        n, p_g, p_w, N = self.dims
        if v.z_T.shape != (n,) or v.g_coef.shape != (p_g,) or v.w_coef.shape != (p_w,):
            raise ShapeError("dual variable blocks do not match the problem dimensions")
        if v.f.shape != (N, n):
            raise ShapeError(f"f must have shape {(N, n)}, got {v.f.shape}")


def _check_spaces(system: LinearSystem, grid: TimeGrid, G: Subspace, W: Subspace):
    """G and W must be signal subspaces on the grid, of the control and the
    state space."""
    for space, dim, name in ((G, system.m, "G"), (W, system.n, "W")):
        amb = space.ambient
        if not isinstance(amb, SignalAmbient) or amb.dim != dim or amb.grid != grid:
            raise ShapeError(f"{name} must be a signal subspace of dimension {dim} on the grid")


@dataclass
class SolutionResiduals:
    """Quality record of a recovered solution (all entries non-negative)."""

    final_state_error: float
    proj_u_error: float
    proj_y_error: float
    proj_E_error: float
    duality_check: float


@dataclass
class ControlSolution:
    """Recovered control, trajectory, and residuals."""

    u: np.ndarray
    y: Trajectory
    residuals: SolutionResiduals


def _observation(p: ProblemData, v: DualVariable) -> tuple[Trajectory, np.ndarray]:
    """Adjoint trajectory for (z_T, f) and the signal B* z (interval averages)."""
    z = adjoint_solve(p.system, p.ops, v.z_T, v.f)
    return z, control_observation(p.system, z)


def nonsmooth_value(p: ProblemData, v: DualVariable) -> float:
    """Value of the eps-weighted norm terms (zero for exact/null kinds)."""
    if p.kind not in APPROX_KINDS:
        return 0.0
    val = p.epsilon * float(np.linalg.norm(p.E.complement(v.z_T)))
    if p.kind == "approx_relaxed":
        val += p.epsilon * float(np.linalg.norm(v.w_coef))
    return val


def eval_smooth(p: ProblemData, v: DualVariable) -> float:
    """Smooth part of the dual functional (everything but the eps norms)."""
    p.check_variable(v)
    dt = p.grid.dt
    z, q = _observation(p, v)
    g = p.G.lift(v.g_coef)
    w = p.W.lift(v.w_coef)
    val = 0.5 * signal_inner(q + g, q + g, dt)
    val += 0.5 * signal_inner(v.f + w, v.f + w, dt)
    val += float(p.y0 @ z.initial)
    val -= float(p.y1 @ v.z_T)
    val += signal_inner(q, p.g_star, dt)
    val += signal_inner(v.f, p.w_star, dt)
    return val


def eval_J(p: ProblemData, v: DualVariable) -> float:
    """Full dual functional for the problem's kind."""
    val = eval_smooth(p, v) + nonsmooth_value(p, v)
    if not np.isfinite(val):
        raise EvaluationOverflowError("dual functional evaluated to a non-finite value")
    return val


def _transpose_chain(p: ProblemData, v: DualVariable, affine: bool) -> DualVariable:
    """One adjoint solve for B* z, then one forward solve under B* z + g.

    With ``affine`` the forward solve starts from y0 under B* z + g + g*,
    and y1 and w* enter the z_T and f blocks; without it every datum is
    zero and the result is the homogeneous quadratic part alone.
    """
    p.check_variable(v)
    _, q = _observation(p, v)
    qg = q + p.G.lift(v.g_coef)
    fw = v.f + p.W.lift(v.w_coef)
    if affine:
        y0, u, f = p.y0, qg + p.g_star, fw + p.w_star
    else:
        y0, u, f = np.zeros(p.system.n), qg, fw
    yhat = forward_solve(p.system, p.ops, y0, u)
    z_T = yhat.final - p.y1 if affine else yhat.final.copy()
    return DualVariable(z_T, p.G.coords(qg), p.W.coords(fw), f - yhat.interval_averages)


def grad_smooth(p: ProblemData, v: DualVariable) -> DualVariable:
    """Exact gradient of the smooth part.

    One adjoint solve gives B* z; one forward solve from y0 under the
    candidate control B* z + g + g* gives every gradient block:

        d/dz_T = yhat(T) - y1
        d/dg   = coords_G(B* z + g)
        d/dw   = coords_W(f + w)
        d/df   = f + w + w* - avg(yhat)

    These blocks are precisely the primal residuals of the candidate
    control, so a small gradient certifies the recovered solution.
    """
    return _transpose_chain(p, v, affine=True)


def apply_quadratic(p: ProblemData, v: DualVariable) -> DualVariable:
    """Gradient of the homogeneous quadratic part only (the CG operator).

    Same transpose chain as :func:`grad_smooth` with y0, y1, g*, w* set to
    zero; self-adjoint and positive semidefinite in the dual inner product.
    """
    return _transpose_chain(p, v, affine=False)


def recover_primal(p: ProblemData, v_opt: DualVariable) -> ControlSolution:
    """Control and trajectory read off a dual point via the optimality dictionary.

    u = B* Z + G + g* as an interval signal, y by an exact forward solve.
    Residuals report the projection defects, the final-state error and the
    interval-wise mismatch between y and F + W + w* (duality_check); at an
    exact minimizer all of them vanish to the solver tolerance.
    """
    p.check_variable(v_opt)
    dt = p.grid.dt
    _, q = _observation(p, v_opt)
    g = p.G.lift(v_opt.g_coef)
    w = p.W.lift(v_opt.w_coef)
    u = q + g + p.g_star
    y = forward_solve(p.system, p.ops, p.y0, u)
    y_avg = y.interval_averages
    final_err = float(np.linalg.norm(y.final - p.y1))
    proj_u = signal_norm(p.G.project(u) - p.g_star, dt)
    proj_y = signal_norm(p.W.project(y_avg) - p.w_star, dt)
    proj_E = float(np.linalg.norm(p.E.project(y.final - p.y1)))
    duality = signal_norm(y_avg - (v_opt.f + w + p.w_star), dt)
    res = SolutionResiduals(
        final_state_error=final_err,
        proj_u_error=proj_u,
        proj_y_error=proj_y,
        proj_E_error=proj_E,
        duality_check=duality,
    )
    return ControlSolution(u=u, y=y, residuals=res)
