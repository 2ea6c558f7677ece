"""Concrete systems in coordinates where every inner product is Euclidean.

Two PDE families on the unit interval with Dirichlet conditions are built
by spectral (modal) truncation: heat (A = Laplacian) and wave in
first-order form.  The Dirichlet eigenpairs are lambda_j = (j pi)^2 with
phi_j = sqrt(2) sin(j pi x).  The control acts through the indicator of a
window omega = (a, b); the control space is discretized on a composite
Gauss-Legendre quadrature of omega with the weights absorbed into the
coordinates (u_q * sqrt(w_q)), so B^T is the exact transpose of B.

For the wave family each mode contributes a 2x2 block [[0, s], [-s, 0]]
with s = sqrt(lambda_j), acting on the energy-normalized pair
(sqrt(lambda_j) a_j, a_j'); A is then skew-symmetric and the natural
energy norm of the wave equation is the Euclidean norm of the
coordinates.  (The dual pairing shift used for wave adjoint states in
weaker norms is absorbed by this normalization and needs no extra
bookkeeping here.)

Restriction operators to omega on the state side are realized by masking
a uniform trapezoid grid on (0, 1); the descriptor carries both
quadratures so uniqueness checks can restrict states and controls
consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LinearSystem, TimeGrid
from .errors import InvalidSystemError, ShapeError

__all__ = [
    "ModelDescriptor",
    "make_heat1d",
    "make_wave1d",
    "make_ode",
    "exponential_profile_signal",
]

_GL_POINTS = 4


@dataclass
class ModelDescriptor:
    """Spatial quadratures and read-outs of a modal model, for certification."""

    eigenvalues: np.ndarray
    x_full: np.ndarray  # uniform nodes on (0, 1)
    mask: np.ndarray  # bool over x_full: the nodes inside omega
    x_omega: np.ndarray  # Gauss-Legendre nodes of omega, one per control coordinate
    w_omega: np.ndarray
    mode_values_omega: np.ndarray  # (n_modes, len(x_omega))
    state_value_matrix: np.ndarray  # (len(x_full), n_state)


def _gauss_legendre_composite(a: float, b: float, n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    ref_x, ref_w = np.polynomial.legendre.leggauss(_GL_POINTS)
    edges = np.linspace(a, b, n_sub + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _dirichlet_modes(n_modes: int, x: np.ndarray) -> np.ndarray:
    j = np.arange(1, n_modes + 1)
    return math.sqrt(2.0) * np.sin(np.outer(j, np.pi * x))


def _modal_model(family: str, n_modes: int, omega, n_quad: int, assemble):
    """Quadratures, Dirichlet modes and absorbed control rows shared by the
    PDE families; ``assemble(lam, rows, modes_full)`` gives the family's A,
    B and state read-out from the eigenvalues, the absorbed rows
    sqrt(w_q) phi_j(x_q) over omega and the modes on the uniform grid."""
    if n_modes < 1:
        raise InvalidSystemError(f"n_modes must be at least 1, got {n_modes}")
    a, b = float(omega[0]), float(omega[1])
    if not (0.0 <= a < b <= 1.0):
        raise ShapeError(f"omega must satisfy 0 <= a < b <= 1, got {(a, b)}")
    if n_quad < 4 * n_modes:
        raise InvalidSystemError(f"n_quad must be at least 4*n_modes = {4 * n_modes}")
    x_full = np.linspace(0.0, 1.0, n_quad)
    tol = 0.25 / (n_quad - 1)
    mask = (x_full >= a - tol) & (x_full <= b + tol)
    n_sub = max(n_modes, int(round((n_quad - 1) * (b - a) / 4.0)))
    x_omega, w_omega = _gauss_legendre_composite(a, b, n_sub)
    lam = (np.arange(1, n_modes + 1) * math.pi) ** 2
    modes_omega = _dirichlet_modes(n_modes, x_omega)
    rows = modes_omega * np.sqrt(w_omega)[None, :]
    A, B, state_values = assemble(lam, rows, _dirichlet_modes(n_modes, x_full))
    system = LinearSystem(A=A, B=B, name=f"{family}(n_modes={n_modes}, omega=({a}, {b}))")
    descriptor = ModelDescriptor(
        eigenvalues=lam,
        x_full=x_full,
        mask=mask,
        x_omega=x_omega,
        w_omega=w_omega,
        mode_values_omega=modes_omega,
        state_value_matrix=state_values,
    )
    return system, descriptor


def make_heat1d(
    n_modes: int, omega=(0.3, 0.7), n_quad: int = 201
) -> tuple[LinearSystem, ModelDescriptor]:
    """Heat equation on (0, 1), distributed control on omega, modal coordinates.

    A = diag(-lambda_j); B_{j,q} = sqrt(w_q) phi_j(x_q) over the omega
    quadrature nodes.
    """

    def heat(lam, rows, modes_full):
        return np.diag(-lam), rows, modes_full.T.copy()

    return _modal_model("heat1d", n_modes, omega, n_quad, heat)


def make_wave1d(
    n_modes: int, omega=(0.3, 0.7), n_quad: int = 201
) -> tuple[LinearSystem, ModelDescriptor]:
    """Wave equation on (0, 1) in first-order energy-normalized modal form.

    Mode j contributes the skew block [[0, j pi], [-j pi, 0]]; the control
    acts on the velocity component with the same absorbed quadrature rows
    as the heat family.
    """

    def wave(lam, rows, modes_full):
        freqs = np.sqrt(lam)
        n = 2 * n_modes
        pos = np.arange(0, n, 2)
        A = np.zeros((n, n))
        A[pos, pos + 1] = freqs
        A[pos + 1, pos] = -freqs
        B = np.zeros((n, rows.shape[1]))
        B[pos + 1] = rows
        # displacement read-out: position coordinate 2j holds sqrt(lambda_j) a_j
        state_values = np.zeros((modes_full.shape[1], n))
        state_values[:, pos] = (modes_full / freqs[:, None]).T
        return A, B, state_values

    return _modal_model("wave1d", n_modes, omega, n_quad, wave)


def make_ode(A, B, name: str = "ode") -> LinearSystem:
    """Explicit finite-dimensional system; validation only."""
    return LinearSystem(A=A, B=B, name=name)


def support_mask(grid: TimeGrid, support) -> np.ndarray:
    """Intervals lying inside the window support = (t0, t1), to a tolerance
    of 1e-9 * max(1, T) at both ends; window ends should be grid-aligned."""
    t0, t1 = float(support[0]), float(support[1])
    t_left = np.arange(grid.n_steps) * grid.dt
    tol = 1e-9 * max(1.0, grid.horizon)
    return (t_left >= t0 - tol) & (t_left + grid.dt <= t1 + tol)


def exponential_profile_signal(
    grid: TimeGrid,
    rate: float,
    vector,
    support: tuple[float, float] | None = None,
) -> np.ndarray:
    """Signal with exact interval averages of exp(rate * t) * vector.

    With a support window (t0, t1), intervals not fully inside the window
    are zeroed (see :func:`support_mask`).
    """
    vector = np.asarray(vector, dtype=float).reshape(-1)
    N = grid.n_steps
    dt = grid.dt
    if rate == 0.0:
        profile = np.ones(N)
    else:
        t_left = np.arange(N) * dt
        profile = np.exp(rate * t_left) * (np.expm1(rate * dt) / (rate * dt))
    if support is not None:
        profile = np.where(support_mask(grid, support), profile, 0.0)
    return profile[:, None] * vector[None, :]
