import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from pccontrol import (
    LinearSystem,
    TimeGrid,
    adjoint_solve,
    build_propagator,
    control_observation,
    forward_solve,
    make_ode,
    signal_inner,
)
from pccontrol.errors import InvalidSystemError, ShapeError

from oracles import duality_residual, loop_adjoint_nodes, loop_forward_nodes


def scalar_system(a=0.0, b=1.0):
    return make_ode([[a]], [[b]])


class TestTimeGrid:
    def test_dt_times_steps_is_horizon(self):
        grid = TimeGrid(0.7, 13)
        assert grid.dt * grid.n_steps == pytest.approx(0.7, abs=1e-16)

    def test_rejects_short_grids(self):
        with pytest.raises(InvalidSystemError):
            TimeGrid(1.0, 1)
        with pytest.raises(InvalidSystemError):
            TimeGrid(-1.0, 8)

    def test_node_index(self):
        # the alignment tolerance is relative to the horizon, so the same
        # offsets decide the same way on a rescaled grid
        from pccontrol.errors import GridAlignmentError

        for scale in (1.0, 1e-6):
            grid = TimeGrid(2.0 * scale, 8)
            assert grid.node_index(0.5 * scale) == 2
            assert grid.node_index((0.5 + 1e-10) * scale) == 2
            for t in (0.4, 0.5 + 1e-6):
                with pytest.raises(GridAlignmentError):
                    grid.node_index(t * scale)


class TestPropagator:
    def test_zero_generator(self):
        ops = build_propagator(scalar_system(0.0), TimeGrid(1.0, 2))
        # dt = 0.5: E = 1, Phi = dt, Psi = dt/2
        assert ops.E[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert ops.Phi[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert ops.Psi[0, 0] == pytest.approx(0.25, rel=1e-13)

    def test_scalar_decay(self):
        ops = build_propagator(scalar_system(-1.0), TimeGrid(2.0, 2))
        assert ops.E[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-13)
        assert ops.Phi[0, 0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_skew_generator_is_rotation(self):
        system = make_ode([[0.0, math.pi], [-math.pi, 0.0]], np.zeros((2, 1)))
        ops = build_propagator(system, TimeGrid(1.0, 7))
        assert np.max(np.abs(ops.E.T @ ops.E - np.eye(2))) < 1e-12

    def test_blocks_match_reference_quadrature(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3))
        system = make_ode(A, np.zeros((3, 1)))
        grid = TimeGrid(0.8, 4)
        ops = build_propagator(system, grid)
        dt = grid.dt
        assert np.allclose(ops.E, expm(A * dt), rtol=1e-13, atol=1e-13)
        # Phi and Psi against composite Simpson quadrature of the exponential
        ns = 2001
        s = np.linspace(0.0, dt, ns)
        exps = np.stack([expm(A * si) for si in s])
        weights = np.ones(ns)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights *= (s[1] - s[0]) / 3.0
        phi_ref = np.tensordot(weights, exps, axes=(0, 0))
        assert np.max(np.abs(ops.Phi - phi_ref)) < 1e-10
        inner = np.cumsum(np.concatenate([[np.zeros((3, 3))], 0.5 * (exps[1:] + exps[:-1])])
                          * (s[1] - s[0]), axis=0)
        psi_ref = np.tensordot(weights, inner, axes=(0, 0)) / dt
        assert np.max(np.abs(ops.Psi - psi_ref)) < 1e-8

    def test_semigroup_composition(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(4, 4))
        system = make_ode(A, np.zeros((4, 1)))
        fine = build_propagator(system, TimeGrid(1.0, 8))
        coarse = build_propagator(system, TimeGrid(1.0, 4))
        assert np.max(np.abs(fine.E @ fine.E - coarse.E)) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidSystemError):
            make_ode([[np.nan]], [[1.0]])

    @pytest.mark.parametrize("a, grid, message", [
        (2000.0, TimeGrid(1.0, 2), "A too stiff for dt"),  # E = exp(1000) overflows
        (300.0, TimeGrid(4.0, 4), "horizon T = 4.0"),  # E = exp(300), E^N = exp(1200)
    ])
    def test_rejects_overflowing_propagator(self, a, grid, message):
        # refused without a warning: the suite turns every RuntimeWarning into a failure
        with pytest.raises(InvalidSystemError, match=message):
            build_propagator(scalar_system(a), grid)


class TestForwardSolve:
    def test_pure_integration_scalar(self):
        system = scalar_system()
        grid = TimeGrid(1.0, 4)
        ops = build_propagator(system, grid)
        traj = forward_solve(system, ops, [1.0], -np.ones((4, 1)))
        assert traj.final[0] == pytest.approx(0.0, abs=1e-15)

    def test_pure_integration_2d(self):
        system = make_ode(np.zeros((2, 2)), np.eye(2))
        grid = TimeGrid(1.0, 5)
        ops = build_propagator(system, grid)
        u = np.tile([1.0, 0.0], (5, 1))
        traj = forward_solve(system, ops, np.zeros(2), u)
        assert np.allclose(traj.final, [1.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("n_steps", [2, 7, 64])
    def test_exact_exponential_any_resolution(self, n_steps):
        system = scalar_system(-1.0)
        grid = TimeGrid(1.0, n_steps)
        ops = build_propagator(system, grid)
        traj = forward_solve(system, ops, [1.0], np.zeros((n_steps, 1)))
        assert traj.final[0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        system = make_ode(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
        grid = TimeGrid(1.0, 12)
        ops = build_propagator(system, grid)
        y0a, y0b = rng.normal(size=3), rng.normal(size=3)
        ua, ub = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
        a, b = 0.7, -1.3
        combo = forward_solve(system, ops, a * y0a + b * y0b, a * ua + b * ub)
        pa = forward_solve(system, ops, y0a, ua)
        pb = forward_solve(system, ops, y0b, ub)
        ref = a * pa.node_values + b * pb.node_values
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(combo.node_values - ref)) < 1e-13 * scale

    def test_skew_norm_preserved(self):
        system = make_ode([[0.0, 2.0], [-2.0, 0.0]], np.zeros((2, 1)))
        grid = TimeGrid(10.0, 100)
        ops = build_propagator(system, grid)
        traj = forward_solve(system, ops, [1.0, 0.0], np.zeros((100, 1)))
        norms = np.linalg.norm(traj.node_values, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_shape_errors(self):
        system = scalar_system()
        ops = build_propagator(system, TimeGrid(1.0, 4))
        with pytest.raises(ShapeError):
            forward_solve(system, ops, [1.0, 2.0], np.zeros((4, 1)))
        with pytest.raises(ShapeError):
            forward_solve(system, ops, [1.0], np.zeros((4, 2)))


class TestAdjointSolve:
    def test_constant_solution(self):
        system = scalar_system()
        ops = build_propagator(system, TimeGrid(1.0, 4))
        traj = adjoint_solve(system, ops, [1.0], np.zeros((4, 1)))
        assert np.allclose(traj.node_values, 1.0, atol=1e-15)
        assert np.allclose(traj.interval_averages, 1.0, atol=1e-15)

    def test_linear_ramp(self):
        # z' = f, z(1) = 0, f = 1  =>  z(t) = -(1 - t)
        system = scalar_system()
        grid = TimeGrid(1.0, 8)
        ops = build_propagator(system, grid)
        traj = adjoint_solve(system, ops, [0.0], np.ones((8, 1)))
        assert traj.initial[0] == pytest.approx(-1.0, abs=1e-14)
        t = grid.nodes()
        assert np.allclose(traj.node_values[:, 0], -(1.0 - t), atol=1e-14)

    def test_block_shape_errors(self):
        system = make_ode(np.zeros((2, 2)), np.eye(2))
        ops = build_propagator(system, TimeGrid(1.0, 4))
        with pytest.raises(ShapeError):
            adjoint_solve(system, ops, np.zeros((3, 2)), np.zeros((4, 2, 2)))
        with pytest.raises(ShapeError):
            adjoint_solve(system, ops, np.zeros(2), np.zeros((4, 1, 2)))
        with pytest.raises(ShapeError):
            adjoint_solve(system, ops, np.zeros((1, 3)), np.zeros((4, 1, 3)))
        with pytest.raises(ShapeError):  # a k axis on z_T alone
            adjoint_solve(system, ops, np.zeros((1, 2)), np.zeros((4, 2)))

    def test_backward_decay(self):
        system = scalar_system(-1.0)
        ops = build_propagator(system, TimeGrid(1.0, 16))
        traj = adjoint_solve(system, ops, [1.0], np.zeros((16, 1)))
        assert traj.initial[0] == pytest.approx(math.exp(-1.0), abs=1e-13)


PRIMES = [2, 3, 5, 7, 11, 13, 31, 97, 127, 211, 293]
SQUARES = [1, 4, 9, 16, 25, 64, 100, 144, 225, 289]


@st.composite
def stepping_cases(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 3))
    n_steps = draw(st.one_of(st.integers(1, 3), st.sampled_from(PRIMES + SQUARES),
                             st.integers(1, 300)))
    horizon = draw(st.floats(0.05, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 4))
    return n, m, n_steps, horizon, seed, k


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestSteppingKernel:
    """The chunked recursion against the one-step-at-a-time loop."""

    @given(stepping_cases())
    def test_matches_loop(self, case):
        n, m, n_steps, horizon, seed, k = case
        rng = np.random.default_rng(seed)
        system = make_ode(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
        # The steppers take the step count from the signal; the grid only sets dt.
        ops = build_propagator(system, TimeGrid(horizon, max(n_steps, 2)))
        y0, z_T = rng.normal(size=n), rng.normal(size=n)
        u, f = rng.normal(size=(n_steps, m)), rng.normal(size=(n_steps, n))
        y = forward_solve(system, ops, y0, u).node_values
        z = adjoint_solve(system, ops, z_T, f).node_values
        assert _rel_err(y, loop_forward_nodes(system, ops, y0, u)) <= 1e-12
        assert _rel_err(z, loop_adjoint_nodes(ops, z_T, f)) <= 1e-12
        # a block of k right-hand sides equals k single solves
        Z_T, F = rng.normal(size=(k, n)), rng.normal(size=(n_steps, k, n))
        block = adjoint_solve(system, ops, Z_T, F)
        assert block.node_values.shape == (n_steps + 1, k, n)
        assert block.interval_averages.shape == (n_steps, k, n)
        for j in range(k):
            single = adjoint_solve(system, ops, Z_T[j], F[:, j])
            assert _rel_err(block.node_values[:, j], single.node_values) <= 1e-12
            assert _rel_err(block.interval_averages[:, j], single.interval_averages) <= 1e-12

    @pytest.mark.parametrize("n_steps", [0, 1, 2, 3])
    def test_short_signals(self, n_steps):
        rng = np.random.default_rng(n_steps)
        system = make_ode(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
        ops = build_propagator(system, TimeGrid(1.0, 4))
        y0, z_T = rng.normal(size=3), rng.normal(size=3)
        u, f = rng.normal(size=(n_steps, 2)), rng.normal(size=(n_steps, 3))
        y = forward_solve(system, ops, y0, u)
        z = adjoint_solve(system, ops, z_T, f)
        assert y.node_values.shape == z.node_values.shape == (n_steps + 1, 3)
        assert y.interval_averages.shape == z.interval_averages.shape == (n_steps, 3)
        assert np.array_equal(y.initial, y0) and np.array_equal(z.final, z_T)
        assert z.node_values.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(y.node_values, loop_forward_nodes(system, ops, y0, u),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(z.node_values, loop_adjoint_nodes(ops, z_T, f),
                                   rtol=0, atol=1e-14)


def _pairing_scale(system, ops, y0, u, z_T, f):
    y = forward_solve(system, ops, y0, u)
    z = adjoint_solve(system, ops, z_T, f)
    return (
        abs(float(y.final @ z_T))
        + abs(float(y0 @ z.initial))
        + abs(signal_inner(y.interval_averages, f, ops.dt))
        + abs(signal_inner(u, control_observation(system, z), ops.dt))
        + 1e-30
    )


class TestDuality:
    def test_zero_inputs(self):
        system = scalar_system()
        ops = build_propagator(system, TimeGrid(1.0, 4))
        res = duality_residual(system, ops, [0.0], np.zeros((4, 1)), [0.0], np.zeros((4, 1)))
        assert res == 0.0

    def test_hand_case(self):
        system = scalar_system()
        ops = build_propagator(system, TimeGrid(1.0, 4))
        res = duality_residual(system, ops, [1.0], -np.ones((4, 1)), [1.0], np.zeros((4, 1)))
        assert abs(res) <= 1e-14

    def test_random_systems(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 3))
            n_steps = int(rng.integers(2, 33))
            system = make_ode(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
            grid = TimeGrid(float(rng.uniform(0.3, 2.0)), n_steps)
            ops = build_propagator(system, grid)
            y0 = rng.normal(size=n)
            u = rng.normal(size=(n_steps, m))
            z_T = rng.normal(size=n)
            f = rng.normal(size=(n_steps, n))
            res = duality_residual(system, ops, y0, u, z_T, f)
            assert abs(res) <= 1e-12 * _pairing_scale(system, ops, y0, u, z_T, f)

    @pytest.mark.parametrize("n_steps", [1024, 4096])
    def test_long_horizons(self, n_steps):
        # Chunks of 23 and 45 steps; the grids above (N <= 32) take at most 4.
        rng = np.random.default_rng(n_steps)
        for n, m in ((1, 1), (4, 2), (6, 3)):
            system = make_ode(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
            ops = build_propagator(system, TimeGrid(2.0, n_steps))
            y0, z_T = rng.normal(size=n), rng.normal(size=n)
            u, f = rng.normal(size=(n_steps, m)), rng.normal(size=(n_steps, n))
            res = duality_residual(system, ops, y0, u, z_T, f)
            assert abs(res) <= 1e-12 * _pairing_scale(system, ops, y0, u, z_T, f)


class TestLinearSystem:
    def test_control_free(self):
        system = LinearSystem(A=np.zeros((2, 2)), B=np.zeros((2, 0)))
        assert system.m == 0
        grid = TimeGrid(1.0, 4)
        ops = build_propagator(system, grid)
        traj = forward_solve(system, ops, [1.0, 2.0], np.zeros((4, 0)))
        assert np.allclose(traj.final, [1.0, 2.0])

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            LinearSystem(A=np.zeros((2, 3)), B=np.zeros((2, 1)))
        with pytest.raises(ShapeError):
            LinearSystem(A=np.zeros((2, 2)), B=np.zeros((3, 1)))
        with pytest.raises(ShapeError):
            LinearSystem(A=np.ones((2, 2, 2)), B=np.ones((2, 1)))
        with pytest.raises(ShapeError):
            LinearSystem(A=np.eye(2), B=np.ones((2, 1, 3)))
        with pytest.raises(ShapeError):
            LinearSystem(A=np.eye(2), B=np.ones(()))
        assert LinearSystem(A=np.eye(2), B=np.ones(2)).m == 1
