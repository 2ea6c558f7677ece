import numpy as np
import pytest

from pccontrol import SignalAmbient, TimeGrid, VectorAmbient, orthonormalize
from pccontrol.errors import ShapeError


def gram(space):
    p = space.dim
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            out[i, j] = space.ambient.inner(space.basis[i], space.basis[j])
    return out


class TestOrthonormalize:
    def test_duplicate_dropped(self):
        space = orthonormalize([[1.0, 0.0], [1.0, 0.0]], VectorAmbient(2))
        assert space.dim == 1
        assert np.allclose(np.abs(space.basis[0]), [1.0, 0.0])

    def test_full_rank_pair(self):
        space = orthonormalize([[1.0, 1.0], [1.0, 0.0]], VectorAmbient(2))
        assert space.dim == 2
        assert np.max(np.abs(gram(space) - np.eye(2))) < 1e-12

    def test_empty(self):
        space = orthonormalize([], VectorAmbient(3))
        assert space.dim == 0
        assert np.allclose(space.project([1.0, 2.0, 3.0]), 0.0)

    def test_near_dependent_deflated(self):
        v = np.array([1.0, 2.0, -0.5])
        space = orthonormalize([v, v + 1e-14 * np.array([1.0, 0, 0]), [0, 0, 1.0]],
                               VectorAmbient(3))
        assert space.dim == 2

    def test_signal_gram_identity(self):
        grid = TimeGrid(2.0, 8)
        rng = np.random.default_rng(3)
        amb = SignalAmbient(2, grid)
        space = orthonormalize([rng.normal(size=(8, 2)) for _ in range(3)], amb)
        assert space.dim == 3
        assert np.max(np.abs(gram(space) - np.eye(3))) < 1e-10

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            orthonormalize([[1.0, 0.0, 0.0]], VectorAmbient(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_element_rejected(self, bad):
        # an infinite element made the largest norm infinite, which dropped
        # every finite element too and left {0}
        grid = TimeGrid(1.0, 16)
        finite = np.ones((16, 1))
        with pytest.raises(ShapeError, match=r"raw_basis\[1\]"):
            orthonormalize([finite, np.full((16, 1), bad)], SignalAmbient(1, grid))

    def test_overflowing_norm_rejected(self):
        huge = np.full(4, 1e200)
        with pytest.raises(ShapeError, match=r"raw_basis\[1\].*overflows"):
            orthonormalize([np.ones(4), huge], VectorAmbient(4))


class TestProjection:
    def test_coordinate_projection(self):
        space = orthonormalize([[1.0, 0.0]], VectorAmbient(2))
        assert np.allclose(space.project([3.0, 4.0]), [3.0, 0.0], atol=1e-14)

    def test_identity_on_span(self):
        rng = np.random.default_rng(4)
        space = orthonormalize([rng.normal(size=4) for _ in range(2)], VectorAmbient(4))
        x = space.lift([0.3, -1.2])
        assert np.max(np.abs(space.project(x) - x)) < 1e-12

    def test_trivial_subspace(self):
        grid = TimeGrid(1.0, 4)
        space = orthonormalize([], SignalAmbient(1, grid))
        x = np.ones((4, 1))
        assert np.allclose(space.project(x), 0.0)

    def test_idempotence_orthogonality_pythagoras(self):
        rng = np.random.default_rng(5)
        grid = TimeGrid(1.5, 10)
        amb = SignalAmbient(3, grid)
        space = orthonormalize([rng.normal(size=(10, 3)) for _ in range(4)], amb)
        for _ in range(5):
            x = rng.normal(size=(10, 3))
            px = space.project(x)
            assert np.max(np.abs(space.project(px) - px)) < 1e-12
            r = x - px
            nx2 = amb.inner(x, x)
            assert abs(amb.inner(px, r)) < 1e-12 * nx2
            assert nx2 == pytest.approx(amb.inner(px, px) + amb.inner(r, r), rel=1e-10)

    def test_basis_invariance(self):
        rng = np.random.default_rng(6)
        raw = [rng.normal(size=5) for _ in range(3)]
        s1 = orthonormalize(raw, VectorAmbient(5))
        mixed = [raw[2] + 0.5 * raw[0], raw[1] - raw[2], raw[0]]
        s2 = orthonormalize(mixed, VectorAmbient(5))
        for _ in range(4):
            x = rng.normal(size=5)
            assert np.max(np.abs(s1.project(x) - s2.project(x))) < 1e-10


class TestCoordsLift:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        space = orthonormalize([rng.normal(size=6) for _ in range(2)], VectorAmbient(6))
        c = np.array([1.0, 2.0])
        assert np.max(np.abs(space.coords(space.lift(c)) - c)) < 1e-12

    def test_orthogonal_element_has_zero_coords(self):
        space = orthonormalize([[1.0, 0.0, 0.0]], VectorAmbient(3))
        assert np.allclose(space.coords([0.0, 2.0, -1.0]), 0.0)

    def test_weighted_signal_coords(self):
        # constant signal basis on T=1: the normalized constant is 1, so the
        # coordinate of the constant-2 signal is 2
        grid = TimeGrid(1.0, 4)
        space = orthonormalize([np.ones((4, 1))], SignalAmbient(1, grid))
        coords = space.coords(2.0 * np.ones((4, 1)))
        assert coords[0] == pytest.approx(2.0, abs=1e-14)

    def test_shape_error(self):
        space = orthonormalize([[1.0, 0.0]], VectorAmbient(2))
        with pytest.raises(ShapeError):
            space.lift([1.0, 2.0])
        with pytest.raises(ShapeError):
            space.coords([1.0, 2.0, 3.0])
