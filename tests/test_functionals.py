import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pccontrol import (
    KINDS,
    ProblemData,
    SignalAmbient,
    SolverOptions,
    TimeGrid,
    VectorAmbient,
    apply_quadratic,
    grad_smooth,
    make_ode,
    minimize,
    nonsmooth_value,
    orthonormalize,
    recover_primal,
)
from pccontrol.certificates import _general_maps
from pccontrol.errors import ShapeError

from oracles import eval_J, eval_smooth, random_problem


def scalar_null_problem(n_steps=32):
    system = make_ode([[0.0]], [[1.0]])
    grid = TimeGrid(1.0, n_steps)
    return ProblemData(kind="null", system=system, grid=grid, y0=[1.0])


def _random_variable(rng, p):
    n, p_g, p_w, N = p.dims
    return p.join(rng.normal(size=n), rng.normal(size=p_g), rng.normal(size=p_w),
                  rng.normal(size=(N, n)))


class TestEvalJ:
    def test_zero_everything(self):
        rng = np.random.default_rng(1)
        for kind in ("approx", "approx_relaxed", "exact", "null"):
            p = random_problem(rng, kind)
            p.y0 = np.zeros_like(p.y0)
            if p.y1 is not None:
                p.y1 = np.zeros_like(p.y1)
            p.g_star = np.zeros_like(p.g_star)
            p.w_star = np.zeros_like(p.w_star)
            assert eval_J(p, p.zero_variable()) == 0.0

    def test_scalar_null_value(self):
        p = scalar_null_problem()
        v = p.zero_variable()
        v[0] = 1.0  # z_T
        assert eval_J(p, v) == pytest.approx(1.5, abs=1e-13)

    def test_scalar_approx_adds_epsilon_norm(self):
        system = make_ode([[0.0]], [[1.0]])
        grid = TimeGrid(1.0, 32)
        p = ProblemData(kind="approx", system=system, grid=grid, y0=[1.0], y1=[0.0],
                        epsilon=0.1)
        v = p.zero_variable()
        v[0] = 1.0  # z_T
        assert eval_J(p, v) == pytest.approx(1.6, abs=1e-13)

    def test_relaxed_adds_w_norm(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, "approx_relaxed")
        n, p_g, p_w, N = p.dims
        v = p.join(np.zeros(n), np.zeros(p_g), rng.normal(size=p_w), np.zeros((N, n)))
        z_T, _, w_coef, _ = p.blocks(v)
        expected = p.epsilon * (np.linalg.norm(p.E.complement(z_T))
                                + np.linalg.norm(w_coef))
        assert nonsmooth_value(p, v) == pytest.approx(expected, rel=1e-12)


class TestGradient:
    def test_scalar_null_gradient(self):
        p = scalar_null_problem()
        v = p.zero_variable()
        v[0] = 1.0  # z_T
        grad = grad_smooth(p, v)
        assert p.blocks(grad)[0][0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_point_of_homogeneous_problem(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, "exact")
        p.y0 = np.zeros_like(p.y0)
        p.y1 = np.zeros_like(p.y1)
        p.g_star = np.zeros_like(p.g_star)
        p.w_star = np.zeros_like(p.w_star)
        z_T, _, _, f = p.blocks(grad_smooth(p, p.zero_variable()))
        assert np.linalg.norm(z_T) == 0.0
        assert np.max(np.abs(f)) == 0.0

    @pytest.mark.parametrize("kind", ["approx", "approx_relaxed", "exact", "null"])
    def test_directional_derivative_matches_fd(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(3):
            p = random_problem(rng, kind)
            n, p_g, p_w, N = p.dims
            v = p.join(rng.normal(size=n), rng.normal(size=p_g),
                       rng.normal(size=p_w), rng.normal(size=(N, n)))
            d = p.join(rng.normal(size=n), rng.normal(size=p_g),
                       rng.normal(size=p_w), rng.normal(size=(N, n)))
            grad = grad_smooth(p, v)
            analytic = grad @ d
            h = 1e-5
            fd = (eval_smooth(p, v + h * d) - eval_smooth(p, v - h * d)) / (2 * h)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-10)


@st.composite
def quadratic_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    N = draw(st.integers(2, 24))
    p_g = draw(st.integers(0, 2))
    p_w = draw(st.integers(0, 2))
    return kind, n, m, N, p_g, p_w, draw(st.integers(0, 2**32 - 1))


class TestObjectiveFromGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_smooth_part_from_gradient_pair(self, kind):
        # the smooth part vanishes at 0 and is quadratic, so
        # J_s(v) = 1/2 <grad J_s(v) + grad J_s(0), v>
        for seed in range(40):
            rng = np.random.default_rng(300 + seed)
            p = random_problem(rng, kind)
            v = _random_variable(rng, p)
            pair = grad_smooth(p, v) + grad_smooth(p, p.zero_variable())
            value = 0.5 * (pair @ v) + nonsmooth_value(p, v)
            assert value == pytest.approx(eval_J(p, v), rel=1e-12)


class TestQuadraticOperator:
    """apply_quadratic is the homogeneous part of grad_smooth, symmetric, PSD,
    and M^T M for the 'general_final' observation map M."""

    @given(quadratic_cases())
    def test_operator_properties(self, case):
        kind, n, m, N, p_g, p_w, seed = case
        rng = np.random.default_rng(seed)
        p = random_problem(rng, kind, n=n, m=m, n_steps=N, p_g=p_g, p_w=p_w)
        u, w = _random_variable(rng, p), _random_variable(rng, p)
        Su, Sw = apply_quadratic(p, u), apply_quadratic(p, w)
        norm = np.linalg.norm
        # (a) the affine data cancels in a gradient difference
        g_u, g_0 = grad_smooth(p, u), grad_smooth(p, p.zero_variable())
        scale = norm(g_u) + norm(g_0)
        assert norm((g_u - g_0) - Su) <= 1e-12 * scale
        # (b) symmetry in the dual inner product
        pairing = abs(Su @ w - u @ Sw)
        assert pairing <= 1e-12 * norm(Su) * norm(w)
        # (c) positive semidefinite
        assert Su @ u >= -1e-12 * norm(Su) * norm(u)
        # (d) S = M^T M: the dual variable is in the column coordinates of M
        M, _ = _general_maps(p.system, p.grid, p.G, p.W, p.ops)
        assert norm(Su - M.T @ (M @ u)) <= 1e-12 * norm(Su)


class TestConvexity:
    def test_segments(self):
        rng = np.random.default_rng(5)
        for kind in ("approx", "exact", "null"):
            p = random_problem(rng, kind)
            n, p_g, p_w, N = p.dims
            for _ in range(3):
                v1 = p.join(rng.normal(size=n), rng.normal(size=p_g),
                            rng.normal(size=p_w), rng.normal(size=(N, n)))
                v2 = p.join(rng.normal(size=n), rng.normal(size=p_g),
                            rng.normal(size=p_w), rng.normal(size=(N, n)))
                lam = rng.uniform(0.2, 0.8)
                mix = lam * v1 + (1.0 - lam) * v2
                lhs = eval_J(p, mix)
                rhs = lam * eval_J(p, v1) + (1.0 - lam) * eval_J(p, v2)
                scale = abs(lhs) + abs(rhs) + 1.0
                assert lhs <= rhs + 1e-10 * scale


class TestProblemData:
    def test_null_rejects_target(self):
        system = make_ode([[0.0]], [[1.0]])
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ShapeError):
            ProblemData(kind="null", system=system, grid=grid, y0=[1.0], y1=[0.0])

    def test_exact_rejects_epsilon_and_E(self):
        system = make_ode([[0.0]], [[1.0]])
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ShapeError):
            ProblemData(kind="exact", system=system, grid=grid, y0=[1.0], y1=[0.0],
                        epsilon=0.1)
        E = orthonormalize([[1.0]], VectorAmbient(1))
        with pytest.raises(ShapeError):
            ProblemData(kind="exact", system=system, grid=grid, y0=[1.0], y1=[0.0], E=E)

    def test_approx_requires_epsilon(self):
        system = make_ode([[0.0]], [[1.0]])
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ShapeError):
            ProblemData(kind="approx", system=system, grid=grid, y0=[1.0], y1=[0.0])

    def test_star_membership_checked(self):
        system = make_ode([[0.0]], [[1.0]])
        grid = TimeGrid(1.0, 4)
        G = orthonormalize([np.ones((4, 1))], SignalAmbient(1, grid))
        bad = np.linspace(0.0, 1.0, 4).reshape(4, 1)  # not constant: outside G
        with pytest.raises(ShapeError):
            ProblemData(kind="exact", system=system, grid=grid, y0=[0.0], y1=[1.0],
                        G=G, g_star=bad)

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-11, 1e11])
    def test_star_membership_is_scale_free(self, scale):
        # the complement is measured against ||g_star|| alone: a signal
        # orthogonal to G is refused at every scale, a constant accepted
        system = make_ode([[0.0]], [[1.0]])
        grid = TimeGrid(1.0, 4)
        G = orthonormalize([np.ones((4, 1))], SignalAmbient(1, grid))
        alternating = scale * np.array([[1.0], [-1.0], [1.0], [-1.0]])
        with pytest.raises(ShapeError):
            ProblemData(kind="exact", system=system, grid=grid, y0=[0.0], y1=[1.0],
                        G=G, g_star=alternating)
        constant = np.full((4, 1), scale)
        p = ProblemData(kind="exact", system=system, grid=grid, y0=[0.0], y1=[1.0],
                        G=G, g_star=constant)
        assert np.array_equal(p.g_star, constant)


class TestRecoverPrimal:
    def test_zero_data(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, "exact")
        p.y0 = np.zeros_like(p.y0)
        p.y1 = np.zeros_like(p.y1)
        p.g_star = np.zeros_like(p.g_star)
        p.w_star = np.zeros_like(p.w_star)
        sol = recover_primal(p, p.zero_variable())
        assert np.max(np.abs(sol.u)) == 0.0
        assert np.max(np.abs(sol.y.node_values)) == 0.0
        res = sol.residuals
        assert res.final_state_error == 0.0
        assert res.duality_check == 0.0

    def test_dictionary_consistency_at_optimum(self):
        rng = np.random.default_rng(7)
        p = random_problem(rng, "exact")
        v, diag = minimize(p, SolverOptions(grad_tol=1e-11, max_iters=5000))
        assert diag.verdict == "converged"
        sol = recover_primal(p, v)
        # trajectory averages equal f + w + w* interval-wise at the optimum
        assert sol.residuals.duality_check <= 1e-9
        assert sol.residuals.proj_u_error <= 1e-9
        assert sol.residuals.proj_y_error <= 1e-9
        assert sol.residuals.final_state_error <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_residuals_are_gradient_norms(self, kind):
        # the final-state error is the z_T block of the gradient at the same
        # point, the duality check its sqrt(dt)-scaled f slice, to the last bit
        rng = np.random.default_rng(8)
        p = random_problem(rng, kind)
        v = _random_variable(rng, p)
        res = recover_primal(p, v).residuals
        g = grad_smooth(p, v)
        n, p_g, p_w, _ = p.dims
        assert res.final_state_error == float(np.linalg.norm(g[:n]))
        assert res.proj_E_error == float(np.linalg.norm(p.E.project(g[:n])))
        assert res.duality_check == float(np.linalg.norm(g[n + p_g + p_w:]))


class TestErrorPaths:
    def test_variable_shape_mismatch(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, "approx_relaxed")
        v = _random_variable(rng, p)
        np.testing.assert_allclose(p.join(*p.blocks(v)), v, rtol=1e-15, atol=0.0)
        for wrong in (v[:-1], np.append(v, 0.0), v.reshape(1, -1)):
            with pytest.raises(ShapeError):
                p.blocks(wrong)
            with pytest.raises(ShapeError):
                grad_smooth(p, wrong)
            with pytest.raises(ShapeError):
                apply_quadratic(p, wrong)
