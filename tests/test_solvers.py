import math

import numpy as np
import pytest

from pccontrol import (
    ProblemData,
    SignalAmbient,
    SolverOptions,
    StepOperator,
    TimeGrid,
    certify_infeasibility,
    kernel_N,
    make_ode,
    minimize,
    orthonormalize,
    recover_primal,
)
from pccontrol.errors import ConfigError, InvalidWitnessError

from oracles import kkt_control, random_problem


def scalar_system():
    return make_ode([[0.0]], [[1.0]])


class TestOptions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverOptions(max_iters=0)
        with pytest.raises(ConfigError):
            SolverOptions(grad_tol=0.0)
        with pytest.raises(ConfigError):
            SolverOptions(divergence_bound=-1.0)


class TestQuadraticKinds:
    def test_zero_data_terminates_immediately(self):
        system = scalar_system()
        grid = TimeGrid(1.0, 8)
        p = ProblemData(kind="null", system=system, grid=grid, y0=[0.0])
        v, diag = minimize(p)
        assert diag.iterations <= 1
        assert diag.verdict == "converged"
        assert np.max(np.abs(v.z_T)) == 0.0

    def test_scalar_null_matches_analytic(self):
        system = scalar_system()
        grid = TimeGrid(1.0, 128)
        p = ProblemData(kind="null", system=system, grid=grid, y0=[1.0])
        v, diag = minimize(p)
        assert diag.verdict == "converged"
        sol = recover_primal(p, v)
        t_mid = grid.midpoints()
        u_ref = -np.cosh(1.0 - t_mid) / math.sinh(1.0)
        assert np.max(np.abs(sol.u[:, 0] - u_ref)) < 1e-4
        assert sol.residuals.final_state_error < 1e-8

    def test_constants_in_G_is_infeasible(self):
        system = scalar_system()
        grid = TimeGrid(1.0, 32)
        G = orthonormalize([np.ones((32, 1))], SignalAmbient(1, grid))
        p = ProblemData(kind="exact", system=system, grid=grid, y0=[0.0], y1=[1.0], G=G)
        _, diag = minimize(p)
        assert diag.verdict == "diverged_infeasible"

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 3:
            kind = ("exact", "null")[done % 2]
            p = random_problem(rng, kind, n=3, m=2, n_steps=16)
            v, diag = minimize(p, SolverOptions(grad_tol=1e-11, max_iters=4000))
            if diag.verdict != "converged":
                continue
            u = recover_primal(p, v).u
            u_ref = kkt_control(p)
            rel = np.linalg.norm(u - u_ref) / max(np.linalg.norm(u_ref), 1e-30)
            assert rel < 1e-6
            done += 1

    def test_determinism(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        p1 = random_problem(rng1, "exact")
        p2 = random_problem(rng2, "exact")
        v1, d1 = minimize(p1)
        v2, d2 = minimize(p2)
        assert d1.iterations == d2.iterations
        assert np.array_equal(v1.f, v2.f)
        assert np.array_equal(v1.z_T, v2.z_T)
        assert d1.objective_history == d2.objective_history

    def test_objective_history_nonincreasing(self):
        rng = np.random.default_rng(10)
        p = random_problem(rng, "null")
        _, diag = minimize(p)
        hist = diag.objective_history
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))


class TestDegeneratePropagator:
    def test_kernel_projection_with_injected_ops(self):
        # E = 0 with B = 0: every final datum is invisible to both the
        # observation and the initial trace, so N is the whole state space
        # and the minimizer must stay orthogonal to it.
        system = make_ode([[0.0]], np.zeros((1, 0)))
        grid = TimeGrid(1.0, 4)
        dt = grid.dt
        ops = StepOperator(E=np.zeros((1, 1)), Phi=dt * np.eye(1),
                           Psi=0.5 * dt * np.eye(1), dt=dt)
        basis = kernel_N(system, grid, ops=ops)
        assert basis.shape == (1, 1)
        p = ProblemData(kind="null", system=system, grid=grid, y0=[1.0], ops=ops)
        v, diag = minimize(p)
        assert diag.verdict == "converged"
        assert abs(v.z_T[0]) < 1e-12  # quotiented out

    def test_regular_systems_have_empty_kernel(self):
        rng = np.random.default_rng(12)
        system = make_ode(rng.normal(size=(3, 3)), rng.normal(size=(3, 1)))
        basis = kernel_N(system, TimeGrid(1.0, 8))
        assert basis.shape == (3, 0)


class TestProximalKinds:
    @pytest.mark.parametrize("kind", ["approx", "approx_relaxed"])
    @pytest.mark.parametrize("max_iters", [3, 25])
    def test_no_acceleration_after_last_iteration(self, kind, max_iters):
        # One history entry per proximal iteration: the reported residual
        # belongs to the returned point only if nothing runs after the cap.
        p = random_problem(np.random.default_rng(15), kind)
        _, diag = minimize(p, SolverOptions(max_iters=max_iters))
        assert diag.verdict == "max_iters"
        assert len(diag.objective_history) == diag.iterations + 1

    def test_final_state_lands_on_epsilon_sphere(self):
        rng = np.random.default_rng(13)
        p = random_problem(rng, "approx", n=3, m=2, n_steps=16)
        v, diag = minimize(p, SolverOptions(grad_tol=1e-10, max_iters=20000))
        assert diag.verdict == "converged"
        sol = recover_primal(p, v)
        assert sol.residuals.final_state_error <= p.epsilon + 1e-9
        assert sol.residuals.proj_E_error <= 1e-8
        assert sol.residuals.proj_u_error <= 1e-8
        assert sol.residuals.proj_y_error <= 1e-8

    def test_relaxed_trajectory_constraint_within_epsilon(self):
        rng = np.random.default_rng(14)
        p = random_problem(rng, "approx_relaxed", n=3, m=2, n_steps=16)
        v, diag = minimize(p, SolverOptions(grad_tol=1e-10, max_iters=20000))
        assert diag.verdict == "converged"
        sol = recover_primal(p, v)
        assert sol.residuals.final_state_error <= p.epsilon + 1e-9
        assert sol.residuals.proj_y_error <= p.epsilon + 1e-9

    def test_monotone_objective(self):
        rng = np.random.default_rng(15)
        p = random_problem(rng, "approx")
        _, diag = minimize(p, SolverOptions(grad_tol=1e-9, max_iters=5000))
        hist = diag.objective_history
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))

    def test_determinism(self):
        rng1 = np.random.default_rng(16)
        rng2 = np.random.default_rng(16)
        p1 = random_problem(rng1, "approx_relaxed")
        p2 = random_problem(rng2, "approx_relaxed")
        v1, d1 = minimize(p1)
        v2, d2 = minimize(p2)
        assert d1.iterations == d2.iterations
        assert np.array_equal(v1.w_coef, v2.w_coef)

    def test_large_epsilon_gives_interior_solution(self):
        # with a huge tolerance the unconstrained optimum is feasible and the
        # shrinkage keeps the nonsmooth block at zero
        rng = np.random.default_rng(17)
        p = random_problem(rng, "approx", n=2, m=1, n_steps=8)
        p.epsilon = 1e3
        v, diag = minimize(p, SolverOptions(grad_tol=1e-10, max_iters=5000))
        assert diag.verdict == "converged"
        z_perp = v.z_T - p.E.project(v.z_T)
        assert np.linalg.norm(z_perp) < 1e-9


class TestCertifyInfeasibility:
    def test_hand_radius(self):
        system = scalar_system()
        grid = TimeGrid(1.0, 16)
        G = orthonormalize([np.ones((16, 1))], SignalAmbient(1, grid))
        p = ProblemData(kind="exact", system=system, grid=grid, y0=[0.0], y1=[1.0], G=G)
        r = certify_infeasibility(p, (np.array([1.0]), np.array([1.0]), np.zeros(0)))
        assert r == pytest.approx(2.0, abs=1e-12)

    def test_zero_final_datum_gives_infinity(self):
        rng = np.random.default_rng(18)
        p = random_problem(rng, "exact")
        r = certify_infeasibility(p, (np.zeros(3), np.array([1.0]), np.zeros(1)))
        assert math.isinf(r)

    def test_degree_one_homogeneity(self):
        rng = np.random.default_rng(19)
        p = random_problem(rng, "exact")
        w = (rng.normal(size=3), rng.normal(size=1), rng.normal(size=1))
        r1 = certify_infeasibility(p, w)
        r2 = certify_infeasibility(p, tuple(2.0 * part for part in w))
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_zero_witness_rejected(self):
        rng = np.random.default_rng(20)
        p = random_problem(rng, "exact")
        with pytest.raises(InvalidWitnessError):
            certify_infeasibility(p, (np.zeros(3), np.zeros(1), np.zeros(1)))


class TestScalarExactWithSinusoidG:
    def test_control_projection_vanishes(self):
        # exact control with G spanned by the sinusoid and g* = 0: the
        # recovered control must be G-orthogonal; cross-checked against the
        # dense primal solve
        import math as _math

        system = scalar_system()
        grid = TimeGrid(1.0, 64)
        t = grid.midpoints()
        G = orthonormalize([np.sin(2 * _math.pi * t).reshape(-1, 1)],
                           SignalAmbient(1, grid))
        p = ProblemData(kind="exact", system=system, grid=grid, y0=[0.0], y1=[1.0], G=G)
        v, diag = minimize(p, SolverOptions(grad_tol=1e-10))
        assert diag.verdict == "converged"
        sol = recover_primal(p, v)
        assert sol.residuals.proj_u_error <= 1e-8
        assert sol.residuals.final_state_error <= 1e-8
        u_ref = kkt_control(p)
        assert np.linalg.norm(sol.u - u_ref) <= 1e-6 * np.linalg.norm(u_ref)
