"""Exact time stepping for y' = A y + B u and its adjoint.

Inputs (controls, sources) are piecewise constant on the intervals of a
uniform grid; states are propagated exactly per interval through matrix
exponentials.  With that convention the discrete backward recursion is the
exact transpose of the forward one, and the integration-by-parts identity

    <y(T), z_T> - <y(0), z(0)> = int <y, f> dt + int <u, B* z> dt

holds to machine precision when the time integrals are evaluated with the
exact interval averages of the trajectories.  Everything downstream (dual
functionals, their gradients, primal recovery) relies on this exactness.

Conventions
-----------
* vectors are 1-d ``numpy`` arrays;
* a "signal" of dimension d is an array of shape ``(n_steps, d)`` holding the
  constant value on each interval;
* all inner products are Euclidean in the stored coordinates (model
  constructors absorb physical weights into the coordinates), and signal
  pairings carry the ``dt`` weight of the exact L2 pairing of piecewise
  constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import GridAlignmentError, InvalidSystemError, ShapeError

__all__ = [
    "TimeGrid",
    "LinearSystem",
    "StepOperator",
    "Trajectory",
    "build_propagator",
    "forward_solve",
    "adjoint_solve",
    "duality_residual",
    "control_observation",
    "signal_inner",
    "signal_norm",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on (0, T) with nodes t_k = k dt, k = 0..n_steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise InvalidSystemError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 2:
            raise InvalidSystemError(f"n_steps must be at least 2, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_steps) + 0.5) * self.dt

    def node_index(self, t: float) -> int:
        """Index k with t_k = t, or raise if t is off the grid."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.n_steps or abs(k * self.dt - t) > 1e-9 * max(1.0, self.horizon):
            raise GridAlignmentError(f"t={t} is not a node of the grid (dt={self.dt})")
        return k


@dataclass
class LinearSystem:
    """State matrix A (n x n), control matrix B (n x m), and labels.

    A must be 2-d; a 1-d B is a single control column.  ``m = 0`` is
    allowed and encodes B = 0 (control-free system).
    """

    A: np.ndarray
    B: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B.reshape(-1, 1)
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise ShapeError(f"A must be 2-d and B 1-d or 2-d, got {self.A.shape}, {self.B.shape}")
        if self.A.shape[0] != self.A.shape[1]:
            raise ShapeError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != self.A.shape[0]:
            raise ShapeError(f"B must have {self.A.shape[0]} rows, got {self.B.shape}")
        if not np.all(np.isfinite(self.A)) or not np.all(np.isfinite(self.B)):
            raise InvalidSystemError("system matrices must have finite entries")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class StepOperator:
    """Per-step propagation matrices for one interval of length dt.

    E   = exp(A dt)
    Phi = int_0^dt exp(A s) ds
    Psi = (1/dt) int_0^dt int_0^s exp(A r) dr ds

    ``E`` advances node values, ``Phi`` integrates a constant input over one
    interval, and ``Psi`` maps a constant input to its contribution to the
    exact interval average.  The adjoint recursion uses the transposes.
    """

    E: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray
    dt: float

    @property
    def n(self) -> int:
        return self.E.shape[0]


@dataclass
class Trajectory:
    """Node values (n_steps+1, n) and exact interval averages (n_steps, n);
    a block of k adjoint solves has shapes (n_steps+1, k, n) and (n_steps, k, n)."""

    node_values: np.ndarray
    interval_averages: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.node_values[-1]

    @property
    def initial(self) -> np.ndarray:
        return self.node_values[0]


def build_propagator(system: LinearSystem, grid: TimeGrid) -> StepOperator:
    """Compute E, Phi, Psi from one exponential of an augmented block matrix.

    The top row blocks of ``expm(dt * [[A, I, 0], [0, 0, I], [0, 0, 0]])``
    are exp(A dt), the single integral, and the double integral of the
    exponential; no special-casing of singular A is required.
    """
    n = system.n
    dt = grid.dt
    aug = np.zeros((3 * n, 3 * n))
    aug[:n, :n] = system.A * dt
    aug[:n, n:2 * n] = np.eye(n) * dt
    aug[n:2 * n, 2 * n:] = np.eye(n) * dt
    X = expm(aug)
    E = X[:n, :n].copy()
    Phi = X[:n, n:2 * n].copy()
    Psi = X[:n, 2 * n:].copy() / dt
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(Phi)) and np.all(np.isfinite(Psi))):
        raise InvalidSystemError("propagator has non-finite entries (A too stiff for dt?)")
    return StepOperator(E=E, Phi=Phi, Psi=Psi, dt=dt)


def _check_signal(x, n_steps: int, dim: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n_steps, dim):
        raise ShapeError(f"{name} must have shape {(n_steps, dim)}, got {x.shape}")
    return x


def _check_vector(x, dim: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (dim,):
        raise ShapeError(f"{name} must have shape ({dim},), got {x.shape}")
    return x


def signal_inner(a: np.ndarray, b: np.ndarray, dt: float) -> float:
    """Exact L2 pairing of two piecewise-constant signals."""
    return dt * float(np.sum(a * b))


def signal_norm(a: np.ndarray, dt: float) -> float:
    return float(np.sqrt(max(signal_inner(a, a, dt), 0.0)))


def _recur(M: np.ndarray, s: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Nodes of x_{k+1} = M x_k + s_k from x0, as an (N+1, ..., n) array.

    States are row vectors of shape ``(..., n)``, so a block of k
    recursions with the same M runs as one with states of shape (k, n).
    The N steps are cut into C = ceil(N/L) chunks of L steps (the input is
    padded with zeros to C*L steps).  Pass 1 runs every chunk from zero at
    once, L-1 products of the (C, ..., n) block with M^T, and keeps the chunk
    ends; the true chunk starts then follow through M^L, one state-matrix
    product per chunk; pass 2 reruns every chunk from its true start,
    writing straight into the output.  That is about 2L + C vectorised
    steps, fewest at L = sqrt(N/2) (about 90 instead of N = 1024), for
    about twice the flops of the plain recursion plus the ~2 log2(L) n^3 of
    forming M^L.  That extra work costs less than the Python overhead of
    the steps it saves once N >= n^2 / 32 (break-even measured with one
    BLAS thread for n from 8 to 512: between N = 4n and 8n at n = 256).
    Shorter inputs take L = 1, where both passes are empty and the chunk
    starts are the plain recursion.
    """
    n_steps, n = s.shape[0], s.shape[-1]
    L = max(1, round(math.sqrt(n_steps / 2))) if n * n <= 32 * n_steps else 1
    C = -(-n_steps // L)
    if C * L != n_steps:
        s = np.concatenate([s, np.zeros((C * L - n_steps,) + s.shape[1:])])
    S = s.reshape((C, L) + s.shape[1:])
    MT = M.T
    ends = S[:, 0]
    for i in range(1, L):
        ends = ends @ MT + S[:, i]
    out = np.empty((C * L + 1,) + s.shape[1:])
    out[0] = x0
    MLT = np.linalg.matrix_power(M, L).T
    for j in range(C):
        out[(j + 1) * L] = out[j * L] @ MLT + ends[j]
    for i in range(1, L):
        np.add(out[i - 1:C * L:L] @ MT, S[:, i - 1], out=out[i:C * L:L])
    return out[:n_steps + 1]


def forward_solve(
    system: LinearSystem,
    ops: StepOperator,
    y0: np.ndarray,
    u: np.ndarray,
) -> Trajectory:
    """Integrate y' = A y + B u exactly for piecewise-constant u.

    Node recursion y_{k+1} = E y_k + Phi B u_k, run by the chunked
    recursion of :func:`_recur` (chunks of about sqrt(N/2) steps when the
    N steps number at least n^2/32, single steps otherwise); interval
    averages are (Phi/dt) y_k + Psi B u_k, exact up to roundoff.
    A signal of zero steps gives the single node y0.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ShapeError(f"u must be a 2-d signal array, got ndim={u.ndim}")
    n_steps = u.shape[0]
    u = _check_signal(u, n_steps, system.m, "u")
    y0 = _check_vector(y0, system.n, "y0")
    c = u @ system.B.T
    nodes = _recur(ops.E, c @ ops.Phi.T, y0)
    averages = nodes[:-1] @ (ops.Phi.T / ops.dt) + c @ ops.Psi.T
    return Trajectory(node_values=nodes, interval_averages=averages)


def adjoint_solve(
    system: LinearSystem,
    ops: StepOperator,
    z_T: np.ndarray,
    f: np.ndarray,
) -> Trajectory:
    """Integrate z' + A* z = f backward from z(T) = z_T, exactly.

    The backward recursion z_k = E^T z_{k+1} - Phi^T f_k is the transpose
    dual of :func:`forward_solve`; it runs as the forward recursion of
    :func:`_recur` with M = E^T on the time-reversed input, with the same
    choice of chunk length, and the nodes are reversed back into a
    C-contiguous array.  Interval averages are (Phi^T/dt) z_{k+1} - Psi^T f_k.
    A signal of zero steps gives the single node z_T.

    A block of k right-hand sides solves in one pass: ``z_T`` of shape
    (k, n) and ``f`` of shape (N, k, n) give node values (N+1, k, n) and
    interval averages (N, k, n), column j being the solve from z_T[j] and
    f[:, j].  With ``f`` of shape (N, n), ``z_T`` is a single n-vector.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (2, 3):
        raise ShapeError(f"f must be a 2-d signal array or a 3-d block, got ndim={f.ndim}")
    n_steps, n = f.shape[0], system.n
    if f.ndim == 2:
        f = _check_signal(f, n_steps, n, "f")
        z_T = _check_vector(z_T, n, "z_T")
    else:
        z_T = np.asarray(z_T, dtype=float)
        if f.shape[2] != n or z_T.shape != f.shape[1:]:
            raise ShapeError(
                f"a block needs z_T of shape (k, {n}) and f of shape (N, k, {n}), "
                f"got {z_T.shape} and {f.shape}"
            )
    nodes = np.ascontiguousarray(_recur(ops.E.T, f[::-1] @ -ops.Phi, z_T)[::-1])
    averages = nodes[1:] @ (ops.Phi / ops.dt)
    averages -= f @ ops.Psi
    return Trajectory(node_values=nodes, interval_averages=averages)


def control_observation(system: LinearSystem, traj: Trajectory) -> np.ndarray:
    """B* applied to a trajectory's interval averages, as an m-valued signal."""
    return traj.interval_averages @ system.B


def duality_residual(
    system: LinearSystem,
    ops: StepOperator,
    y0: np.ndarray,
    u: np.ndarray,
    z_T: np.ndarray,
    f: np.ndarray,
) -> float:
    """Defect of the forward/adjoint pairing identity.

    Returns <y(T), z_T> - <y0, z(0)> - int <y, f> - int <u, B* z>, all time
    integrals evaluated with exact interval averages.  For the transpose
    scheme used here this vanishes up to roundoff for every input.
    """
    y = forward_solve(system, ops, y0, u)
    z = adjoint_solve(system, ops, z_T, f)
    dt = ops.dt
    return (
        float(y.final @ np.asarray(z_T, dtype=float))
        - float(np.asarray(y0, dtype=float) @ z.initial)
        - signal_inner(y.interval_averages, f, dt)
        - signal_inner(u, control_observation(system, z), dt)
    )
