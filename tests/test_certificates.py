import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pccontrol import (
    ProblemData,
    SignalAmbient,
    SolverOptions,
    TimeGrid,
    VectorAmbient,
    assemble_uc_map,
    build_propagator,
    certify_infeasibility,
    exponential_profile_signal,
    kernel_N,
    make_heat1d,
    make_ode,
    make_wave1d,
    minimize,
    modal_uc_check,
    observability_constant,
    orthonormalize,
    restriction_kernel_check,
    spectral_uc_classify,
    two_time_check,
    uc_check,
)
from pccontrol import certificates
from pccontrol.errors import FrequencyInputError, ProblemTooLargeError, ShapeError

from oracles import (
    loop_general_maps,
    loop_uc_map,
    loop_weak_stacked_map,
    random_signal_subspace,
    random_system,
)


def scalar_setup(n_steps=64, horizon=1.0):
    system = make_ode([[0.0]], [[1.0]])
    grid = TimeGrid(horizon, n_steps)
    empty_G = orthonormalize([], SignalAmbient(1, grid))
    empty_W = orthonormalize([], SignalAmbient(1, grid))
    return system, grid, empty_G, empty_W


class TestUCMap:
    def test_constants_in_G_kernel(self):
        system, grid, _, W = scalar_setup()
        G = orthonormalize([np.ones((64, 1))], SignalAmbient(1, grid))
        M = assemble_uc_map(system, grid, G, W)
        rep = uc_check(M, block_dims=(1, 1, 0))
        assert rep.sigma_min <= 1e-12
        assert not rep.holds
        assert np.allclose(np.abs(rep.witness), 1.0 / math.sqrt(2.0), atol=1e-10)
        z_part, g_part, w_part = rep.witness_parts()
        assert z_part.shape == (1,) and g_part.shape == (1,) and w_part.shape == (0,)

    def test_sinusoid_in_G_is_far_from_constants(self):
        system, grid, _, W = scalar_setup(n_steps=64)
        t = grid.midpoints()
        G = orthonormalize([np.sin(2 * math.pi * t).reshape(-1, 1)],
                           SignalAmbient(1, grid))
        M = assemble_uc_map(system, grid, G, W)
        rep = uc_check(M)
        assert rep.holds
        assert rep.sigma_min > 0.5

    def test_control_free_system_fails(self):
        system = make_ode([[0.0]], np.zeros((1, 0)))
        grid = TimeGrid(1.0, 8)
        G = orthonormalize([], SignalAmbient(0, grid))
        W = orthonormalize([], SignalAmbient(1, grid))
        M = assemble_uc_map(system, grid, G, W)
        rep = uc_check(M)
        assert rep.sigma_min == 0.0
        assert not rep.holds

    def test_witness_reproduces_residual(self):
        # feeding the near-kernel witness back through the map gives a
        # residual at the sigma_min level, and a positive unreachability radius
        system, grid, _, W = scalar_setup()
        G = orthonormalize([np.ones((64, 1))], SignalAmbient(1, grid))
        M = assemble_uc_map(system, grid, G, W)
        rep = uc_check(M, block_dims=(1, 1, 0))
        residual = np.linalg.norm(M @ rep.witness)
        assert residual <= rep.sigma_min + 1e-12
        p = ProblemData(kind="exact", system=system, grid=grid, y0=[0.0], y1=[1.0], G=G)
        radius = certify_infeasibility(rep.witness_parts())
        assert radius > 0.0

    def test_monotone_in_subspaces(self):
        rng = np.random.default_rng(8)
        system = make_ode(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
        grid = TimeGrid(1.0, 16)
        raw_g = [rng.normal(size=(16, 2)) for _ in range(3)]
        raw_w = [rng.normal(size=(16, 3)) for _ in range(2)]
        amb_g, amb_w = SignalAmbient(2, grid), SignalAmbient(3, grid)
        small = uc_check(assemble_uc_map(system, grid,
                                         orthonormalize(raw_g[:1], amb_g),
                                         orthonormalize(raw_w[:1], amb_w)))
        large = uc_check(assemble_uc_map(system, grid,
                                         orthonormalize(raw_g, amb_g),
                                         orthonormalize(raw_w, amb_w)))
        assert large.sigma_min <= small.sigma_min + 1e-12

    def test_holds_implies_solvable(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            system = make_ode(0.5 * rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
            grid = TimeGrid(1.0, 16)
            G = random_signal_subspace(rng, 2, grid, 1)
            W = random_signal_subspace(rng, 3, grid, 1)
            rep = uc_check(assemble_uc_map(system, grid, G, W))
            if not rep.holds or rep.sigma_min < 1e-3:
                continue
            p = ProblemData(kind="exact", system=system, grid=grid,
                            y0=rng.normal(size=3), y1=rng.normal(size=3), G=G, W=W)
            _, diag = minimize(p, SolverOptions(grad_tol=1e-9, max_iters=5000))
            assert diag.verdict != "diverged_infeasible"


class TestUCCheckMatrixExamples:
    def test_identity(self):
        rep = uc_check(np.eye(3))
        assert rep.holds and rep.sigma_min == pytest.approx(1.0)
        assert rep.witness is None

    def test_rank_one_difference(self):
        rep = uc_check(np.array([[1.0, -1.0]]))
        assert not rep.holds
        assert np.allclose(np.abs(rep.witness), 1.0 / math.sqrt(2.0), atol=1e-14)

    def test_zero_map(self):
        rep = uc_check(np.zeros((4, 2)))
        assert not rep.holds
        assert rep.sigma_min == 0.0
        assert rep.map_dims == (4, 2)

    @pytest.mark.parametrize("rows, cols, rank", [(9, 1, 1), (64, 64, 64), (200, 7, 7),
                                                  (200, 7, 5), (3000, 12, 11)])
    def test_tall_maps_match_plain_svd(self, rows, cols, rank):
        rng = np.random.default_rng(rows + cols + rank)
        M = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        s = np.linalg.svd(M, compute_uv=False)
        # the default threshold, and one just above sigma_min so a witness is returned
        for tol in (1e-8, 1.5 * s[-1] + 1e-8):
            rep = uc_check(M, tol_uc=tol)
            assert abs(rep.sigma_min - s[-1]) <= 1e-12 * s[0]
            assert rep.holds == (s[-1] > tol)
            if rep.holds:
                continue
            w = rep.witness
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
            assert abs(np.linalg.norm(M @ w) - rep.sigma_min) <= 1e-12 * s[0]
            residual = M.T @ (M @ w) - rep.sigma_min ** 2 * w
            assert np.linalg.norm(residual) <= 1e-12 * s[0] ** 2


@st.composite
def uc_cases(draw):
    """(n, m, N, p_g, p_w, seed) with fewer, as many or more controls than states."""
    n = draw(st.integers(1, 5))
    m = draw(st.one_of(st.integers(0, n - 1), st.just(n), st.integers(n + 1, 3 * n + 2)))
    N = draw(st.integers(2, 40))
    p_g = draw(st.integers(0, min(2, N * m)))
    p_w = draw(st.integers(0, 2))
    return n, m, N, p_g, p_w, draw(st.integers(0, 2**32 - 1))


# (n, m, N, p_g, p_w): chunked stepping (N >= n^2/32, L > 1), single steps
# (N < n^2/32, L = 1), empty G and W, a control-free system, and more
# controls than states (m > n, so B^T has a nontrivial cokernel)
BATCH_CASES = [(3, 2, 16, 1, 2), (4, 3, 33, 2, 1), (12, 2, 4, 1, 1), (2, 1, 9, 0, 0),
               (1, 0, 8, 0, 1), (2, 6, 16, 1, 1), (3, 9, 40, 2, 1)]


def _batch_setup(n, m, N, p_g, p_w, seed=None):
    rng = np.random.default_rng(100 * n + 10 * m + N if seed is None else seed)
    system = random_system(rng, n, m)
    grid = TimeGrid(1.3, N)
    G = random_signal_subspace(rng, m, grid, p_g)
    W = random_signal_subspace(rng, n, grid, p_w)
    return system, grid, G, W, build_propagator(system, grid)


def _assert_close(got, ref, scale=None):
    assert got.shape == ref.shape
    if scale is None:
        scale = np.max(np.abs(ref), initial=0.0)
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale


def _padded_singular_values(M):
    s = np.linalg.svd(M, compute_uv=False)
    return np.concatenate([s, np.zeros(M.shape[1] - s.size)])


def _assert_same_singular_values(got, ref):
    s_got, s_ref = _padded_singular_values(got), _padded_singular_values(ref)
    assert np.max(np.abs(s_got - s_ref), initial=0.0) <= 1e-12 * np.max(s_ref, initial=0.0)


def _assert_in_frame(got, ref, system, N, p_g):
    """``got`` is ``ref`` with its N*m signal rows in the output frame of
    B^T = Q R: N*r rows (I_N x Q^T) ref, then p_g rows that vanish outside
    the G columns (n .. n + p_g) and whose Gram matrix on them is Y^T Y, Y
    the part of the G columns outside the frame.  Later rows are compared
    entry by entry."""
    m, cols, g_cols = system.m, ref.shape[1], slice(system.n, system.n + p_g)
    Q = np.linalg.qr(system.B.T)[0]
    r = Q.shape[1]
    sig = ref[:N * m].reshape(N, m, cols)
    frame = np.einsum("mr,jmc->jrc", Q, sig)
    _assert_close(got[:N * r], frame.reshape(N * r, cols))
    rest = got[N * r:N * r + p_g]
    assert not np.delete(rest, g_cols, axis=1).any()
    X = sig[:, :, g_cols].reshape(N * m, p_g)
    Y = X - np.einsum("mr,jrc->jmc", Q, frame[:, :, g_cols]).reshape(N * m, p_g)
    R_g = rest[:, g_cols]
    _assert_close(R_g.T @ R_g, Y.T @ Y, scale=np.max(np.abs(X.T @ X), initial=0.0))
    _assert_close(got[N * r + p_g:], ref[N * m:])
    _assert_same_singular_values(got, ref)


class TestBatchedAssembly:
    """Maps from batched adjoint solves against one solve per column; the
    oracles assemble in plain coordinates, N*m signal rows."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_uc_map(self, case):
        system, grid, G, W, ops = _batch_setup(*case)
        _assert_in_frame(assemble_uc_map(system, grid, G, W, ops=ops),
                         loop_uc_map(system, ops, G.basis, W.basis),
                         system, grid.n_steps, G.dim)

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_two_time_map(self, case):
        system, grid, G, W, ops = _batch_setup(*case)
        k_cut = grid.n_steps // 2
        ref = loop_uc_map(system, ops, G.basis[:, :k_cut], W.basis[:, :k_cut])
        _assert_in_frame(certificates._uc_columns(system, ops, G.basis[:, :k_cut],
                                                   W.basis[:, :k_cut]),
                         ref, system, k_cut, G.dim)
        rep = two_time_check(system, grid, G, W, k_cut * grid.dt, ops=ops)
        s = np.linalg.svd(ref, compute_uv=False)
        sigma = s[-1] if ref.shape[0] >= ref.shape[1] else 0.0
        assert abs(rep.uc_tilde.sigma_min - sigma) <= 1e-12 * np.max(s, initial=0.0)

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_general_maps(self, case):
        system, grid, G, W, ops = _batch_setup(*case)
        M, D = certificates._general_maps(system, grid, G, W, ops, True)
        M_ref, D_ref = loop_general_maps(system, ops, G, W)
        _assert_in_frame(M, M_ref, system, grid.n_steps, G.dim)
        _assert_close(D, D_ref)

    @given(uc_cases())
    def test_uc_singular_values_match_loop(self, case):
        system, grid, G, W, ops = _batch_setup(*case)
        _assert_same_singular_values(assemble_uc_map(system, grid, G, W, ops=ops),
                                     loop_uc_map(system, ops, G.basis, W.basis))


class TestObservabilityConstants:
    @pytest.mark.parametrize("horizon", [0.25, 1.0, 4.0])
    def test_scalar_final_state_inverse_sqrt_T(self, horizon):
        system, grid, G, W = scalar_setup(n_steps=64, horizon=horizon)
        rep = observability_constant(system, grid, G, W, "final_state")
        assert rep.constant_C == pytest.approx(1.0 / math.sqrt(horizon), abs=1e-10)
        assert rep.sigma_min == pytest.approx(math.sqrt(horizon), abs=1e-10)

    def test_general_final_fails_for_constants(self):
        system, grid, _, W = scalar_setup(n_steps=16)
        G = orthonormalize([np.ones((16, 1))], SignalAmbient(1, grid))
        rep = observability_constant(system, grid, G, W, "general_final")
        assert math.isinf(rep.constant_C)
        assert rep.sigma_min == 0.0

    def test_general_final_certified_for_sinusoid(self):
        system, grid, _, W = scalar_setup(n_steps=16)
        t = grid.midpoints()
        G = orthonormalize([np.sin(2 * math.pi * t).reshape(-1, 1)],
                           SignalAmbient(1, grid))
        rep = observability_constant(system, grid, G, W, "general_final")
        assert math.isfinite(rep.constant_C)
        assert rep.constant_C == pytest.approx(1.0 / rep.sigma_min, rel=1e-12)

    def test_general_constant_bounds_random_samples(self):
        # C is the worst-case ratio, so random (z_T, g, w, f) obey it
        rng = np.random.default_rng(10)
        system = make_ode(rng.normal(size=(2, 2)), rng.normal(size=(2, 1)))
        grid = TimeGrid(1.0, 8)
        G = random_signal_subspace(rng, 1, grid, 1)
        W = random_signal_subspace(rng, 2, grid, 1)
        rep = observability_constant(system, grid, G, W, "general_initial")
        assert math.isfinite(rep.constant_C)
        from pccontrol import adjoint_solve, build_propagator, control_observation, signal_norm

        ops = build_propagator(system, grid)
        dt = grid.dt
        for _ in range(10):
            z_T = rng.normal(size=2)
            gc = rng.normal(size=1)
            wc = rng.normal(size=1)
            f = rng.normal(size=(8, 2))
            z = adjoint_solve(system, ops, z_T, f)
            obs = signal_norm(control_observation(system, z) + G.lift(gc), dt) + signal_norm(
                f + W.lift(wc), dt
            )
            measured = math.sqrt(
                float(z.initial @ z.initial) + float(gc @ gc) + float(wc @ wc)
                + signal_norm(f, dt) ** 2
            )
            assert measured <= rep.constant_C * obs * (1.0 + 1e-9) + 1e-12

    def test_initial_state_for_stable_scalar(self):
        # z(0) = e^{-T} z_T: the initial trace is smaller, so C_initial < C_final
        system = make_ode([[-1.0]], [[1.0]])
        grid = TimeGrid(1.0, 32)
        G = orthonormalize([], SignalAmbient(1, grid))
        W = orthonormalize([], SignalAmbient(1, grid))
        c_final = observability_constant(system, grid, G, W, "final_state").constant_C
        c_initial = observability_constant(system, grid, G, W, "initial_state").constant_C
        assert c_initial < c_final

    def test_size_guard(self, monkeypatch):
        system, grid, G, W = scalar_setup(n_steps=64)
        monkeypatch.setattr(certificates, "DENSE_CAP", 10)
        with pytest.raises(ProblemTooLargeError):
            observability_constant(system, grid, G, W, "general_final")

    def test_size_guard_counts_map_entries(self, monkeypatch):
        # n * N = 20000, yet the general maps would hold 220000 x 20010
        # entries (about 35 GB); refuse from the shapes, before allocating.
        system, _ = make_heat1d(8)
        grid = TimeGrid(1.0, 2500)
        G = orthonormalize([], SignalAmbient(system.m, grid))
        W = orthonormalize([], SignalAmbient(system.n, grid))
        zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) <= 10**7, f"allocation of {shape} attempted"
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_zeros)
        for kind in ("general_final", "general_initial"):
            with pytest.raises(ProblemTooLargeError):
                observability_constant(system, grid, G, W, kind)

    @pytest.mark.parametrize("case", [(3, 2, 16, 1, 2), (2, 6, 16, 1, 1)])
    def test_size_guard_counts_compressed_entries(self, case, monkeypatch):
        # M has N*min(m, n) + p_g signal rows and N*n source rows; D is square
        system, grid, G, W, ops = _batch_setup(*case)
        n, N = system.n, grid.n_steps
        cols = n + G.dim + W.dim + n * N
        M_entries = (N * min(system.m, n) + G.dim + N * n) * cols
        for kind, entries in (("general_final", M_entries),
                              ("general_initial", M_entries + cols * cols)):
            monkeypatch.setattr(certificates, "DENSE_CAP", entries)
            rep = observability_constant(system, grid, G, W, kind, ops=ops)
            assert rep.sigma_min > 0.0
            monkeypatch.setattr(certificates, "DENSE_CAP", entries - 1)
            with pytest.raises(ProblemTooLargeError):
                observability_constant(system, grid, G, W, kind, ops=ops)

    def test_unknown_kind(self):
        system, grid, G, W = scalar_setup()
        with pytest.raises(ShapeError):
            observability_constant(system, grid, G, W, "nonsense")


class TestKernelN:
    def test_scalar_workhorse_empty(self):
        system = make_ode([[0.0]], [[1.0]])
        assert kernel_N(system, TimeGrid(1.0, 8)).shape == (1, 0)

    def test_control_free_scalar_empty(self):
        system = make_ode([[0.0]], np.zeros((1, 0)))
        assert kernel_N(system, TimeGrid(1.0, 8)).shape == (1, 0)

    def test_nilpotent_control_free_empty(self):
        system = make_ode([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 0)))
        assert kernel_N(system, TimeGrid(1.0, 8)).shape == (2, 0)


class TestTwoTime:
    def heat_setup(self):
        system, model = make_heat1d(8, (0.3, 0.7), 201)
        grid = TimeGrid(1.0, 128)
        W = orthonormalize(
            [exponential_profile_signal(grid, 0.0, np.eye(8)[0])], SignalAmbient(8, grid)
        )
        G_empty = orthonormalize([], SignalAmbient(system.m, grid))
        return system, model, grid, G_empty, W

    def test_certifies_heat_example(self):
        system, _, grid, G, W = self.heat_setup()
        rep = two_time_check(system, grid, G, W, 0.5)
        assert rep.restriction_ok
        assert rep.uc_tilde.holds
        assert math.isfinite(rep.obs_tilde.constant_C)
        assert rep.certified

    def test_late_support_flips_restriction(self):
        system, _, grid, _, W = self.heat_setup()
        late = orthonormalize(
            [exponential_profile_signal(grid, 0.0, system.B.T @ np.eye(8)[0],
                                        support=(0.5, 1.0))],
            SignalAmbient(system.m, grid),
        )
        rep = two_time_check(system, grid, late, W, 0.5)
        assert not rep.restriction_ok
        assert not rep.certified

    def test_control_free_fails_uc(self):
        system = make_ode([[0.0]], np.zeros((1, 0)))
        grid = TimeGrid(1.0, 8)
        G = orthonormalize([], SignalAmbient(0, grid))
        W = orthonormalize([], SignalAmbient(1, grid))
        rep = two_time_check(system, grid, G, W, 0.5)
        assert not rep.uc_tilde.holds
        assert not rep.certified

    @pytest.mark.parametrize("case", [(2, 1, 8, 2, 0), (1, 1, 8, 2, 0), (2, 1, 8, 2, 1)])
    def test_cut_shorter_than_G(self, case):
        # one control and two G generators cut to one interval: the part of
        # G outside range(B^T) has fewer rows than generators, the map keeps
        # its N*r + p_g rows, and the restriction of G is not injective
        system, grid, G, W, ops = _batch_setup(*case)
        n, p_g, p_w = system.n, G.dim, W.dim
        assert p_g == 2
        _assert_in_frame(certificates._uc_columns(system, ops, G.basis[:, :1], W.basis[:, :1]),
                         loop_uc_map(system, ops, G.basis[:, :1], W.basis[:, :1]),
                         system, 1, p_g)
        rep = two_time_check(system, grid, G, W, grid.dt, ops=ops)
        assert rep.uc_tilde.map_dims == (1 + p_g, n + p_g + p_w)
        assert not rep.restriction_ok
        assert not rep.uc_tilde.holds
        assert not rep.certified

    def test_off_grid_time_rejected(self):
        system, _, grid, G, W = self.heat_setup()
        from pccontrol.errors import GridAlignmentError

        with pytest.raises(GridAlignmentError):
            two_time_check(system, grid, G, W, 0.377)


class TestRestrictionKernel:
    def test_first_mode_visible(self):
        system, model = make_heat1d(8, (0.3, 0.7), 201)
        grid = TimeGrid(1.0, 16)
        W = orthonormalize([exponential_profile_signal(grid, 0.0, np.eye(8)[0])],
                           SignalAmbient(8, grid))
        assert restriction_kernel_check(W, model)

    def test_empty_W_vacuous(self):
        system, model = make_heat1d(4, (0.3, 0.7), 201)
        grid = TimeGrid(1.0, 16)
        W = orthonormalize([], SignalAmbient(4, grid))
        assert restriction_kernel_check(W, model)

    def test_window_blind_profile_detected(self):
        # a state profile vanishing on the masked nodes is invisible: use a
        # synthetic descriptor whose second state component is supported
        # outside the window
        system, model = make_heat1d(2, (0.3, 0.7), 201)
        model.state_value_matrix = model.state_value_matrix.copy()
        inside = model.mask
        model.state_value_matrix[inside, 1] = 0.0
        grid = TimeGrid(1.0, 16)
        W = orthonormalize([exponential_profile_signal(grid, 0.0, np.eye(2)[1])],
                           SignalAmbient(2, grid))
        assert not restriction_kernel_check(W, model)

    def test_stacked_map_detects_heat_kernel_element(self):
        system, model = make_heat1d(8, (0.3, 0.7), 201)
        grid = TimeGrid(1.0, 32)
        W = orthonormalize([exponential_profile_signal(grid, 0.0, np.eye(8)[0])],
                           SignalAmbient(8, grid))
        # g affine in x, constant in t: annihilated by d_t + Laplace on omega
        affine = np.sqrt(model.w_omega) * (0.2 + 0.5 * model.x_omega)
        G_bad = orthonormalize([exponential_profile_signal(grid, 0.0, affine)],
                               SignalAmbient(system.m, grid))
        assert not restriction_kernel_check(W, model, G=G_bad)
        G_ok = orthonormalize(
            [exponential_profile_signal(grid, 1.0, system.B.T @ np.eye(8)[2])],
            SignalAmbient(system.m, grid),
        )
        assert restriction_kernel_check(W, model, G=G_ok)

    @pytest.mark.parametrize("make", [make_heat1d, make_wave1d])
    @pytest.mark.parametrize("p_w, p_g", [(2, 0), (0, 2), (1, 3)])
    def test_weak_map_matches_loop(self, make, p_w, p_g):
        system, model = make(4, (0.3, 0.7), 101)
        grid = TimeGrid(1.0, 12)
        rng = np.random.default_rng(10 * p_w + p_g)
        W = random_signal_subspace(rng, system.n, grid, p_w)
        G = random_signal_subspace(rng, system.m, grid, p_g)
        node_vals = model.state_value_matrix[model.mask]
        h = float(model.x_full[1] - model.x_full[0])
        got = certificates._weak_stacked_map(W, G, model, node_vals, h)
        ref = loop_weak_stacked_map(W, G, model, node_vals, h)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestSpectralClassification:
    def setup_method(self):
        _, self.model = make_heat1d(8, (0.3, 0.7), 201)

    def test_nonresonant(self):
        rep = spectral_uc_classify(0.0, np.eye(8)[0], self.model)
        assert rep.verdict == "UC_holds_nonresonant"
        # Z = -phi_1 / pi^2, restricted norm is ||phi_1||_omega / pi^2
        vals = self.model.mode_values_omega[0]
        ref = math.sqrt(float(np.sum(self.model.w_omega * vals**2))) / math.pi**2
        assert rep.quantity == pytest.approx(ref, rel=1e-12)

    def test_resonant_no_solution(self):
        rep = spectral_uc_classify(math.pi**2, np.eye(8)[0], self.model)
        assert rep.verdict == "UC_holds_no_solution"

    def test_resonant_inf_positive(self):
        rep = spectral_uc_classify(math.pi**2, np.eye(8)[1], self.model)
        assert rep.verdict == "UC_holds_inf_positive"
        assert rep.quantity > 1e-8

    def test_full_window_resonant_orthogonal_fails(self):
        # on omega = (0, 1) the eigenspace minimization can cancel nothing:
        # Z* is orthogonal to phi_1 in L2(0, 1), so the infimum stays positive
        _, model_full = make_heat1d(4, (0.0, 1.0), 257)
        rep = spectral_uc_classify(math.pi**2, np.eye(4)[1], model_full)
        assert rep.verdict == "UC_holds_inf_positive"


class TestModalCheck:
    def test_nonresonant_rho_passes(self):
        system = make_ode(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
        rep = modal_uc_check(system, rhos=[(3.0, None)])
        assert rep.ok

    def test_invisible_eigenvector_fails(self):
        system = make_ode(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
        rep = modal_uc_check(system, rhos=[(2.0, None)])
        assert not rep.ok
        witness = rep.checks[0].witness
        assert np.allclose(np.abs(witness), [0.0, 1.0], atol=1e-10)

    def test_mu_cases(self):
        system = make_ode(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
        W_k = np.array([[1.0], [0.0]])  # span{e1}
        rep_bad = modal_uc_check(system, mus=[(2.0, W_k)])
        assert not rep_bad.ok
        rep_good = modal_uc_check(system, mus=[(5.0, W_k)])
        assert rep_good.ok

    def test_duplicate_frequencies_rejected(self):
        system = make_ode(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
        with pytest.raises(FrequencyInputError):
            modal_uc_check(system, mus=[(1.0, None), (1.0, None)])
        with pytest.raises(FrequencyInputError):
            modal_uc_check(system, rhos=[(1.0, None), (1.0, None)])

    def test_shared_frequency_uses_combined_condition(self):
        system = make_ode(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
        rep = modal_uc_check(system, mus=[(2.0, None)], rhos=[(2.0, None)])
        assert [c.role for c in rep.checks] == ["combined"]
        assert not rep.ok  # e2 is invisible and (2I + A^T) e2 = 0

    def test_mixed_order_roles(self):
        # an unpaired mu, a shared value, then the unpaired rho
        system = make_ode(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
        rep = modal_uc_check(system, mus=[(1, None), (2, None)], rhos=[(3, None), (2, None)])
        assert [c.role for c in rep.checks] == ["mu", "combined", "rho"]
        assert [c.value for c in rep.checks] == [1, 2, 3]


class TestRestrictionAmbient:
    def test_dimension_mismatch_rejected(self):
        system, model = make_heat1d(4, (0.3, 0.7), 201)
        grid = TimeGrid(1.0, 8)
        W = orthonormalize([exponential_profile_signal(grid, 0.0, np.ones(6))],
                           SignalAmbient(6, grid))
        with pytest.raises(ShapeError):
            restriction_kernel_check(W, model)
        # an empty W must live on the model's state space as well
        empty = orthonormalize([], SignalAmbient(6, grid))
        G = orthonormalize([exponential_profile_signal(grid, 0.0, np.ones(system.m))],
                           SignalAmbient(system.m, grid))
        with pytest.raises(ShapeError):
            restriction_kernel_check(empty, model, G=G)

    def test_vector_subspace_rejected(self):
        _, model = make_heat1d(4, (0.3, 0.7), 201)
        W = orthonormalize([np.ones(4)], VectorAmbient(4))
        with pytest.raises(ShapeError):
            restriction_kernel_check(W, model)
