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
smooth part is the exact transpose of the chain that defines it: one
adjoint solve gives B* z, one forward solve the gradient.  The smooth part
is quadratic and vanishes at 0, so the library never evaluates J itself:
the solver reads it off the gradients at the point and at 0, plus
:func:`nonsmooth_value`.  The control and trajectory are recovered from the
minimizer through

    u = B* Z + G + g*,        y = F + W + w*   (interval-wise),

and the gradient blocks coincide with the primal residuals (final-state
error, projection defects), which is what makes the stopping tolerance of
the minimizer directly meaningful for the recovered solution.

The dual variable is one flat vector (z_T, g coefficients, w coefficients,
sqrt(dt) f), the column coordinates of the maps in
:mod:`pccontrol.certificates`, so its inner product is the plain dot
product.  :meth:`ProblemData.blocks` and :meth:`ProblemData.join` convert
between the vector and its blocks.
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
    signal_norm,
)
from .errors import ShapeError
from .subspaces import SignalAmbient, Subspace, VectorAmbient, orthonormalize

__all__ = [
    "KINDS",
    "APPROX_KINDS",
    "ProblemData",
    "ControlSolution",
    "SolutionResiduals",
    "nonsmooth_value",
    "grad_smooth",
    "apply_quadratic",
    "recover_primal",
]

KINDS = ("approx", "approx_relaxed", "exact", "null")
APPROX_KINDS = ("approx", "approx_relaxed")


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
        if not space.contains(value):
            raise ShapeError(f"{name} must lie in its subspace (projection check failed)")
        return value

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(n, p_G, p_W, n_steps)."""
        return self.system.n, self.G.dim, self.W.dim, self.grid.n_steps

    @property
    def size(self) -> int:
        """Length of a dual variable: n + p_G + p_W + n_steps * n."""
        n, p_g, p_w, N = self.dims
        return n + p_g + p_w + N * n

    def blocks(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(z_T, g coefficients, w coefficients, f) of a dual variable, f as
        an (n_steps, n) signal read back from its sqrt(dt)-scaled slice."""
        if v.shape != (self.size,):
            raise ShapeError(f"dual variable must have shape ({self.size},), got {v.shape}")
        n, p_g, p_w, N = self.dims
        a, b = n + p_g, n + p_g + p_w
        return v[:n], v[n:a], v[a:b], v[b:].reshape(N, n) / math.sqrt(self.grid.dt)

    def join(self, z_T, g_coef, w_coef, f) -> np.ndarray:
        """The dual variable of the blocks, f scaled by sqrt(dt) (the inverse
        of :meth:`blocks`)."""
        return np.concatenate([z_T, g_coef, w_coef, math.sqrt(self.grid.dt) * np.ravel(f)])

    def zero_variable(self) -> np.ndarray:
        return np.zeros(self.size)


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


def _w_slice(p: ProblemData) -> slice:
    n, p_g, p_w, _ = p.dims
    return slice(n + p_g, n + p_g + p_w)


def _eps_blocks(p: ProblemData, v: np.ndarray) -> list[np.ndarray]:
    """The blocks the eps norms act on: Pi_1 v = (I - P_E) z_T and, for the
    relaxed kind, Pi_2 v = w; none for the exact and null kinds."""
    if p.kind not in APPROX_KINDS:
        return []
    blocks = [p.E.complement(v[:p.system.n])]
    if p.kind == "approx_relaxed":
        blocks.append(v[_w_slice(p)])
    return blocks


def _put(p: ProblemData, v: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """v with its eps blocks replaced by ``blocks``."""
    n = p.system.n
    out = v.copy()
    out[:n] = p.E.project(v[:n]) + blocks[0]
    if len(blocks) > 1:
        out[_w_slice(p)] = blocks[1]
    return out


def nonsmooth_value(p: ProblemData, v: np.ndarray) -> float:
    """Value of the eps-weighted norm terms (zero for exact/null kinds)."""
    return sum((p.epsilon * float(np.linalg.norm(x)) for x in _eps_blocks(p, v)), 0.0)


def _transpose_chain(p: ProblemData, v: np.ndarray, affine: bool):
    """One adjoint solve for B* z, then one forward solve under B* z + g.

    With ``affine`` the forward solve starts from y0 under B* z + g + g*,
    and y1 and w* enter the z_T and f blocks; without it every datum is
    zero and the result is the homogeneous quadratic part alone.  Returns
    the gradient, the control the forward solve ran under, and its state.
    """
    z_T, g_coef, w_coef, f = p.blocks(v)
    q = control_observation(p.system, adjoint_solve(p.system, p.ops, z_T, f))
    qg = q + p.G.lift(g_coef)
    fw = f + p.W.lift(w_coef)
    if affine:
        y0, u, f = p.y0, qg + p.g_star, fw + p.w_star
    else:
        y0, u, f = np.zeros(p.system.n), qg, fw
    yhat = forward_solve(p.system, p.ops, y0, u)
    r_T = yhat.final - p.y1 if affine else yhat.final
    grad = p.join(r_T, p.G.coords(qg), p.W.coords(fw), f - yhat.interval_averages)
    return grad, u, yhat


def grad_smooth(p: ProblemData, v: np.ndarray) -> np.ndarray:
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
    return _transpose_chain(p, v, affine=True)[0]


def apply_quadratic(p: ProblemData, v: np.ndarray) -> np.ndarray:
    """Gradient of the homogeneous quadratic part only (the CG operator).

    Same transpose chain as :func:`grad_smooth` with y0, y1, g*, w* set to
    zero; symmetric and positive semidefinite.  It is M^T M for the
    observation map M of the 'general_final' certificate, whose columns are
    the coordinates of the dual variable.
    """
    return _transpose_chain(p, v, affine=False)[0]


def recover_primal(p: ProblemData, v_opt: np.ndarray) -> ControlSolution:
    """Control and trajectory read off a dual point via the optimality dictionary.

    u = B* Z + G + g* and y are the control and state of the chain of
    :func:`grad_smooth`, whose z_T and f blocks are the final-state error and
    the interval-wise mismatch between y and F + W + w* (duality_check); at
    an exact minimizer these and the projection defects vanish to tolerance.
    """
    dt = p.grid.dt
    n, p_g, p_w, _ = p.dims
    grad, u, y = _transpose_chain(p, v_opt, affine=True)
    res = SolutionResiduals(
        final_state_error=float(np.linalg.norm(grad[:n])),
        proj_u_error=signal_norm(p.G.project(u) - p.g_star, dt),
        proj_y_error=signal_norm(p.W.project(y.interval_averages) - p.w_star, dt),
        proj_E_error=float(np.linalg.norm(p.E.project(grad[:n]))),
        duality_check=float(np.linalg.norm(grad[n + p_g + p_w:])),
    )
    return ControlSolution(u=u, y=y, residuals=res)
