"""Finite-dimensional subspaces with orthonormal bases and projections.

Subspaces live either in a plain Euclidean vector space (final-state
constraints, modal eigenspaces) or in the space of piecewise-constant
signals on a time grid, where the inner product is the dt-weighted sum
matching :mod:`pccontrol.core`.  Bases are orthonormalized on construction
by modified Gram-Schmidt with re-orthogonalization; rank-deficient input is
deflated.  ``dim == 0`` encodes the trivial subspace {0}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid
from .errors import ShapeError

__all__ = ["VectorAmbient", "SignalAmbient", "Subspace", "orthonormalize"]

RANK_TOL = 1e-10


@dataclass(frozen=True)
class VectorAmbient:
    """Euclidean R^dim (state vectors, control-space vectors)."""

    dim: int

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.dim,)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(a, b))


@dataclass(frozen=True)
class SignalAmbient:
    """Piecewise-constant signals of dimension dim on a time grid."""

    dim: int
    grid: TimeGrid

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.grid.n_steps, self.dim)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return self.grid.dt * float(np.sum(a * b))


Ambient = VectorAmbient | SignalAmbient


def _as_element(ambient: Ambient, x, name: str = "element") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != ambient.shape:
        raise ShapeError(f"{name} must have shape {ambient.shape}, got {x.shape}")
    return x


class Subspace:
    """A subspace with a stored orthonormal basis; build via orthonormalize()."""

    def __init__(self, ambient: Ambient, basis: np.ndarray):
        self.ambient = ambient
        basis = np.asarray(basis, dtype=float)
        expected = (basis.shape[0],) + ambient.shape
        if basis.shape != expected:
            raise ShapeError(f"basis must have shape (p,)+{ambient.shape}, got {basis.shape}")
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def zero_element(self) -> np.ndarray:
        return np.zeros(self.ambient.shape)

    def coords(self, x) -> np.ndarray:
        """Coefficients <x, b_i> of x against the orthonormal basis."""
        x = _as_element(self.ambient, x)
        if self.dim == 0:
            return np.zeros(0)
        axes = tuple(range(1, 1 + x.ndim))
        weight = self.ambient.grid.dt if isinstance(self.ambient, SignalAmbient) else 1.0
        return weight * np.tensordot(self.basis, x, axes=(axes, tuple(range(x.ndim))))

    def lift(self, c) -> np.ndarray:
        """Element sum_i c_i b_i from coefficients."""
        c = np.asarray(c, dtype=float).reshape(-1)
        if c.shape[0] != self.dim:
            raise ShapeError(f"expected {self.dim} coefficients, got {c.shape[0]}")
        if self.dim == 0:
            return self.zero_element()
        return np.tensordot(c, self.basis, axes=(0, 0))

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of x onto the subspace."""
        return self.lift(self.coords(x))

    def complement(self, x) -> np.ndarray:
        """x minus its projection."""
        return _as_element(self.ambient, x) - self.project(x)

    def contains(self, x, tol: float = 1e-10) -> bool:
        x = _as_element(self.ambient, x)
        r = self.complement(x)
        scale = max(1.0, float(np.sqrt(self.ambient.inner(x, x))))
        return float(np.sqrt(self.ambient.inner(r, r))) <= tol * scale

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def orthonormalize(raw_basis, ambient: Ambient) -> Subspace:
    """Span of the given elements, with an orthonormal basis.

    Modified Gram-Schmidt with one re-orthogonalization pass; input elements
    whose norm after deflation falls below ``RANK_TOL`` times the largest
    input norm are dropped, so the span is preserved and the Gram matrix of
    the result is the identity to roundoff.  Every element must have a
    finite norm.
    """
    elements = [_as_element(ambient, x, f"raw_basis[{i}]") for i, x in enumerate(raw_basis)]
    if not elements:
        return Subspace(ambient, np.zeros((0,) + ambient.shape))
    with np.errstate(over="ignore"):
        norms = [np.sqrt(ambient.inner(x, x)) for x in elements]
    for i, norm in enumerate(norms):
        if not np.isfinite(norm):
            raise ShapeError(f"raw_basis[{i}] is not finite or its norm overflows")
    max_norm = max(norms)
    if max_norm == 0.0:
        return Subspace(ambient, np.zeros((0,) + ambient.shape))
    kept: list[np.ndarray] = []
    for x in elements:
        v = x.copy()
        for _ in range(2):
            for b in kept:
                v = v - ambient.inner(v, b) * b
        norm = float(np.sqrt(ambient.inner(v, v)))
        if norm > RANK_TOL * max_norm:
            kept.append(v / norm)
    if not kept:
        return Subspace(ambient, np.zeros((0,) + ambient.shape))
    return Subspace(ambient, np.stack(kept))
