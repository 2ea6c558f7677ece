import math

import numpy as np
import pytest

from pccontrol import (
    TimeGrid,
    build_propagator,
    exponential_profile_signal,
    forward_solve,
    make_heat1d,
    make_ode,
    make_wave1d,
)
from pccontrol.errors import InvalidSystemError, ShapeError


class TestHeat1d:
    def test_dirichlet_spectrum(self):
        system, model = make_heat1d(3, (0.3, 0.7), 201)
        lam = (np.arange(1, 4) * math.pi) ** 2
        assert np.allclose(np.diag(system.A), -lam)
        assert np.allclose(model.eigenvalues, lam)
        assert system.A.shape == (3, 3)

    def test_full_window_gramian_is_identity(self):
        system, _ = make_heat1d(2, (0.0, 1.0), 257)
        gram = system.B @ system.B.T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-6

    def test_rows_have_positive_norm(self):
        system, _ = make_heat1d(8, (0.3, 0.7), 201)
        norms = np.linalg.norm(system.B, axis=1)
        assert np.all(norms > 0.0)

    def test_quadrature_stability_under_refinement(self):
        sys_a, _ = make_heat1d(8, (0.3, 0.7), 201)
        sys_b, _ = make_heat1d(8, (0.3, 0.7), 401)
        drift = np.max(np.abs(sys_a.B @ sys_a.B.T - sys_b.B @ sys_b.B.T))
        assert drift <= 1e-8

    def test_interval_validation(self):
        with pytest.raises(ShapeError):
            make_heat1d(4, (0.7, 0.3), 201)
        with pytest.raises(ShapeError):
            make_heat1d(4, (-0.1, 0.5), 201)

    def test_resolution_rule(self):
        with pytest.raises(InvalidSystemError):
            make_heat1d(60, (0.3, 0.7), 201)

    @pytest.mark.parametrize("maker", [make_heat1d, make_wave1d])
    @pytest.mark.parametrize("n_modes, n_quad", [(0, 201), (-1, 201), (0, 1)])
    def test_at_least_one_mode(self, maker, n_modes, n_quad):
        with pytest.raises(InvalidSystemError, match="n_modes must be at least 1"):
            maker(n_modes, n_quad=n_quad)

    def test_negative_definite(self):
        system, _ = make_heat1d(5, (0.3, 0.7), 201)
        eigs = np.linalg.eigvalsh(system.A)
        assert np.all(eigs < 0.0)
        assert np.allclose(system.A, system.A.T)


class TestWave1d:
    def test_single_mode_block(self):
        system, _ = make_wave1d(1, (0.3, 0.7), 201)
        assert np.allclose(system.A, [[0.0, math.pi], [-math.pi, 0.0]])

    def test_skew_for_all_sizes(self):
        for k in (1, 3, 6):
            system, _ = make_wave1d(k, (0.3, 0.7), 201)
            assert np.max(np.abs(system.A + system.A.T)) == 0.0

    def test_energy_preserved_without_control(self):
        system, _ = make_wave1d(4, (0.3, 0.7), 201)
        grid = TimeGrid(4.0, 64)
        ops = build_propagator(system, grid)
        rng = np.random.default_rng(0)
        y0 = rng.normal(size=system.n)
        y0 /= np.linalg.norm(y0)
        traj = forward_solve(system, ops, y0, np.zeros((64, system.m)))
        drift = np.max(np.abs(np.linalg.norm(traj.node_values, axis=1) - 1.0))
        assert drift <= 1e-10

    def test_propagator_orthogonal(self):
        system, _ = make_wave1d(3, (0.3, 0.7), 201)
        ops = build_propagator(system, TimeGrid(1.0, 16))
        assert np.max(np.abs(ops.E.T @ ops.E - np.eye(system.n))) < 1e-12

    def test_control_acts_on_velocity_rows(self):
        system, _ = make_wave1d(2, (0.3, 0.7), 201)
        assert np.all(system.B[0::2] == 0.0)
        assert np.all(np.linalg.norm(system.B[1::2], axis=1) > 0.0)


class TestMakeOde:
    def test_passthrough(self):
        system = make_ode([[0.0, 1.0], [-1.0, 0.0]], [[1.0], [0.0]], name="rotor")
        assert system.name == "rotor"
        assert system.n == 2 and system.m == 1

    def test_scalar_workhorse(self):
        system = make_ode([[0.0]], [[1.0]])
        assert system.n == 1 and system.m == 1

    def test_control_free(self):
        system = make_ode(np.zeros((2, 2)), np.zeros((2, 0)))
        assert system.m == 0

    def test_validation(self):
        with pytest.raises(ShapeError):
            make_ode(np.zeros((2, 3)), np.zeros((2, 1)))
        with pytest.raises(InvalidSystemError):
            make_ode([[math.inf]], [[1.0]])


class TestExponentialProfiles:
    def test_zero_rate_is_constant(self):
        grid = TimeGrid(1.0, 8)
        sig = exponential_profile_signal(grid, 0.0, [2.0, -1.0])
        assert sig.shape == (8, 2)
        assert np.allclose(sig, np.tile([2.0, -1.0], (8, 1)))

    def test_interval_averages_are_exact(self):
        grid = TimeGrid(2.0, 16)
        rate = -0.7
        sig = exponential_profile_signal(grid, rate, [1.0])
        t = grid.nodes()
        exact = (np.exp(rate * t[1:]) - np.exp(rate * t[:-1])) / (rate * grid.dt)
        assert np.allclose(sig[:, 0], exact, rtol=1e-13)

    def test_support_window(self):
        grid = TimeGrid(4.0, 16)
        sig = exponential_profile_signal(grid, 0.5, [1.0], support=(0.0, 1.5))
        assert np.all(sig[:6] != 0.0)
        assert np.all(sig[6:] == 0.0)
