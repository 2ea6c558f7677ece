import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from pccontrol import (
    ProblemData,
    SignalAmbient,
    SolverOptions,
    TimeGrid,
    VectorAmbient,
    adjoint_solve,
    build_propagator,
    control_observation,
    exponential_profile_signal,
    make_heat1d,
    make_ode,
    make_wave1d,
    minimize,
    modal_uc_check,
    observability_constants,
    orthonormalize,
    restriction_kernel_check,
    spectral_uc_classify,
    two_time_check,
    uc_verdict,
)
from pccontrol import certificates, cli
from pccontrol.errors import ProblemTooLargeError, ShapeError

from oracles import (
    loop_general_maps,
    loop_theta,
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
        rep = uc_verdict(system, grid, G, W)
        assert rep.sigma_min <= 1e-12
        assert not rep.holds
        assert rep.witness.shape == (2,)  # z_T, then one g coefficient and no w
        assert np.allclose(np.abs(rep.witness), 1.0 / math.sqrt(2.0), atol=1e-10)
        assert rep.infeasibility_radius == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_sinusoid_in_G_is_far_from_constants(self):
        system, grid, _, W = scalar_setup(n_steps=64)
        t = grid.midpoints()
        G = orthonormalize([np.sin(2 * math.pi * t).reshape(-1, 1)],
                           SignalAmbient(1, grid))
        rep = uc_verdict(system, grid, G, W)
        assert rep.holds
        assert rep.sigma_min > 0.5

    def test_control_free_system_fails(self):
        # a map without rows sends every vector to 0; its witness is e_0,
        # all of it final data, so the unreachable radius is 1
        system = make_ode([[0.0]], np.zeros((1, 0)))
        grid = TimeGrid(1.0, 8)
        G = orthonormalize([], SignalAmbient(0, grid))
        W = orthonormalize([np.ones((8, 1))], SignalAmbient(1, grid))
        rep = uc_verdict(system, grid, G, W)
        assert rep.sigma_min == 0.0
        assert not rep.holds
        assert rep.map_dims == (0, 2)
        assert np.array_equal(rep.witness, [1.0, 0.0])  # z_T = 1, no g, w = 0
        assert rep.infeasibility_radius == 1.0

    def test_heat_48_modes_is_numerically_injective(self):
        # sigma_min ~ 4e-11 lies below any fixed 1e-8 but far above the
        # numerical-rank cutoff sigma_max * rows * eps ~ 1e-12 of this map
        system, _ = make_heat1d(48)
        grid = TimeGrid(1.0, 512)
        G = orthonormalize([], SignalAmbient(system.m, grid))
        W = orthonormalize([], SignalAmbient(system.n, grid))
        rep = uc_verdict(system, grid, G, W)
        assert rep.holds
        assert rep.sigma_min < 1e-8

    def test_witness_reproduces_residual(self):
        # feeding the near-kernel witness back through the map gives a
        # residual at the sigma_min level, and a positive unreachability radius
        system, grid, _, W = scalar_setup()
        G = orthonormalize([np.ones((64, 1))], SignalAmbient(1, grid))
        rep = uc_verdict(system, grid, G, W)
        M = loop_uc_map(system, build_propagator(system, grid), G.basis, W.basis)
        residual = np.linalg.norm(M @ rep.witness)
        assert residual <= rep.sigma_min + 1e-12
        assert rep.infeasibility_radius > 0.0

    def test_monotone_in_subspaces(self):
        rng = np.random.default_rng(8)
        system = make_ode(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
        grid = TimeGrid(1.0, 16)
        raw_g = [rng.normal(size=(16, 2)) for _ in range(3)]
        raw_w = [rng.normal(size=(16, 3)) for _ in range(2)]
        amb_g, amb_w = SignalAmbient(2, grid), SignalAmbient(3, grid)
        small = uc_verdict(system, grid, orthonormalize(raw_g[:1], amb_g),
                           orthonormalize(raw_w[:1], amb_w))
        large = uc_verdict(system, grid, orthonormalize(raw_g, amb_g),
                           orthonormalize(raw_w, amb_w))
        assert large.sigma_min <= small.sigma_min + 1e-12

    def test_holds_implies_solvable(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            system = make_ode(0.5 * rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
            grid = TimeGrid(1.0, 16)
            G = random_signal_subspace(rng, 2, grid, 1)
            W = random_signal_subspace(rng, 3, grid, 1)
            rep = uc_verdict(system, grid, G, W)
            if not rep.holds or rep.sigma_min < 1e-3:
                continue
            p = ProblemData(kind="exact", system=system, grid=grid,
                            y0=rng.normal(size=3), y1=rng.normal(size=3), G=G, W=W)
            _, diag = minimize(p, SolverOptions(grad_tol=1e-9, max_iters=5000))
            assert diag.verdict != "diverged_infeasible"


def matrix_report(M):
    """The uniqueness verdict's rule on a literal map M: holds, sigma_min and,
    when it fails, the witness of :func:`certificates._sv_verdict`."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    v = certificates._sv_verdict(M)
    return SimpleNamespace(holds=v.holds, sigma_min=v.sigma_min, map_dims=M.shape,
                           witness=None if v.holds else v.vt[-1])


class TestUCCheckMatrixExamples:
    def test_identity(self):
        rep = matrix_report(np.eye(3))
        assert rep.holds and rep.sigma_min == pytest.approx(1.0)
        assert rep.witness is None

    def test_rank_one_difference(self):
        rep = matrix_report(np.array([[1.0, -1.0]]))
        assert not rep.holds
        assert np.allclose(np.abs(rep.witness), 1.0 / math.sqrt(2.0), atol=1e-14)

    def test_zero_map(self):
        rep = matrix_report(np.zeros((4, 2)))
        assert not rep.holds
        assert rep.sigma_min == 0.0
        assert rep.map_dims == (4, 2)

    def test_verdict_of_a_triangular_factor(self):
        # 1e-14 lies between the cutoffs of the 1000 x 2 map (2.2e-13) and of
        # its 2 x 2 factor (4.4e-16): given rows, the factor's verdict is the
        # map's
        U, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((1000, 2)))
        M = U @ np.diag([1.0, 1e-14])
        want = certificates._sv_verdict(M)
        got = certificates._sv_verdict(np.linalg.qr(M, mode="r"), rows=1000)
        assert not want.holds and np.sum(want.s > want.cutoff) == 1
        assert (got.holds, np.sum(got.s > got.cutoff)) == (want.holds, 1)
        assert got.sigma_min == pytest.approx(want.sigma_min, abs=1e-15)

    def test_zero_sigma_min_is_positive_zero(self):
        # LAPACK returns -0.0 for the zero singular value of this map, which
        # is the (0, 1/2] uniqueness map of the scalar integrator with G the
        # constants, cut at the first of two intervals
        M = np.array([[0.70710678, -0.70710678], [0.0, -0.0]])
        system = make_ode([[0.0]], [[1.0]])
        grid = TimeGrid(1.0, 2)
        G = orthonormalize([exponential_profile_signal(grid, 0.0, [1.0])], SignalAmbient(1, grid))
        W = orthonormalize([], SignalAmbient(1, grid))
        for rep in (matrix_report(M), two_time_check(system, grid, G, W, 0.5).uc_tilde):
            assert not rep.holds
            assert rep.sigma_min == 0.0 and math.copysign(1.0, rep.sigma_min) == 1.0

    @pytest.mark.parametrize("rows, cols, rank", [(9, 1, 1), (64, 64, 64), (200, 7, 7),
                                                  (200, 7, 5), (3000, 12, 11)])
    def test_tall_maps_match_plain_svd(self, rows, cols, rank):
        # the spectrum of a random rank-`rank` map, its smallest singular
        # values planted at half and at twice the numerical-rank cutoff
        # sigma_max * rows * eps; a one-column map is its own sigma_max, so
        # it holds at any scale
        rng = np.random.default_rng(rows + cols + rank)
        spectrum = np.linalg.svd(rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols)),
                                 compute_uv=False)
        U = np.linalg.qr(rng.normal(size=(rows, cols)))[0]
        V = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
        cutoff = spectrum[0] * rows * np.finfo(float).eps
        for factor in (0.5, 2.0):
            planted = spectrum.copy()
            planted[min(rank, cols - 1):] = factor * cutoff
            M = (U * planted) @ V.T
            s = np.linalg.svd(M, compute_uv=False)
            rep = matrix_report(M)
            assert abs(rep.sigma_min - s[-1]) <= 1e-12 * s[0]
            assert rep.holds == (cols == 1 or factor > 1.0)
            if rep.holds:
                continue
            w = rep.witness
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
            assert abs(np.linalg.norm(M @ w) - rep.sigma_min) <= 1e-12 * s[0]
            residual = M.T @ (M @ w) - rep.sigma_min ** 2 * w
            assert np.linalg.norm(residual) <= 1e-12 * s[0] ** 2

    @given(cols=st.integers(1, 8), extra_rows=st.integers(0, 30), deficient=st.booleans(),
           k=st.integers(-12, 12), seed=st.integers(0, 2**32 - 1))
    def test_verdicts_are_scale_invariant(self, cols, extra_rows, deficient, k, seed):
        # a duplicated column plants an exact kernel direction; scaling the
        # map by c changes neither verdict nor witness and divides C by c.
        # Each verdict, by an SVD or by Krylov norms of the map's factor,
        # records its rule, holds iff sigma_min > cutoff, and a holding
        # verdict's margin sigma_min/cutoff does not move with c (a failing
        # one's sigma_min is rounding noise, which scaling reshuffles)
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(cols + extra_rows, cols))
        if deficient and cols > 1:
            M[:, -1] = M[:, 0]
        c = 10.0 ** k
        base, scaled = matrix_report(M), matrix_report(c * M)
        assert scaled.holds == base.holds == (not deficient or cols == 1)
        if not base.holds:
            assert abs(float(base.witness @ scaled.witness)) == pytest.approx(1.0, abs=1e-8)
        for verdict in (certificates._sv_verdict, lambda X: certificates._factor_verdict(
                np.linalg.qr(X, mode="r"), X.shape[0])):
            v, v_scaled = verdict(M), verdict(c * M)
            for u in (v, v_scaled):
                assert u.holds == (u.sigma_min > u.cutoff) == base.holds
            if v.holds:
                assert v_scaled.sigma_min / v_scaled.cutoff == \
                    pytest.approx(v.sigma_min / v.cutoff, rel=1e-9)
        C, _ = certificates._split_constant(certificates._sv_verdict(M), None)
        C_scaled, _ = certificates._split_constant(certificates._sv_verdict(c * M), None)
        if math.isfinite(C):
            assert C_scaled == pytest.approx(C / c, rel=1e-9)
        else:
            assert C_scaled == math.inf


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


def _unobserved_setup(a22, n_steps=16):
    """diag(-1, a22) with B observing only the first mode, T = 1, no G or
    W: the general map has a kernel."""
    system = make_ode([[-1.0, 0.0], [0.0, a22]], [[1.0], [0.0]])
    grid = TimeGrid(1.0, n_steps)
    G = orthonormalize([], SignalAmbient(1, grid))
    W = orthonormalize([], SignalAmbient(2, grid))
    return system, grid, G, W, build_propagator(system, grid)


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shapes of the arrays given to ``np.linalg.svd`` while the test runs."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def _dense_heat_setup():
    """A certify-dense operation's size: heat1d, 6 modes, N = 96, one G and
    one W generator, so the general maps have 584 columns and hold."""
    system, _ = make_heat1d(6)
    grid = TimeGrid(1.0, 96)
    G = orthonormalize([exponential_profile_signal(grid, 1.0, np.eye(system.m)[0])],
                       SignalAmbient(system.m, grid))
    W = orthonormalize([exponential_profile_signal(grid, 0.0, np.eye(system.n)[0])],
                       SignalAmbient(system.n, grid))
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


def _assert_in_frame(got, ref, Q, N, g_cols):
    """``got`` is ``ref`` with its N*m signal rows in the output frame of
    B^T = Q R: N*r rows (I_N x Q^T) ref, then p_g rows that vanish outside
    the G columns ``g_cols`` (a slice of p_g columns) and whose Gram matrix
    on them is Y^T Y, Y the part of the G columns outside the frame.  Later
    rows are compared entry by entry."""
    (m, r), cols, p_g = Q.shape, ref.shape[1], g_cols.stop - g_cols.start
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


def _assert_framed_signals(system, basis, dt):
    """The G columns of the uniqueness map, ``_framed_signals`` of ``basis``
    (p, N, m), against their sqrt(dt)-scaled plain coordinates."""
    Q = np.linalg.qr(system.B.T)[0]
    p, N, m = basis.shape
    _assert_in_frame(certificates._framed_signals(Q, basis, dt),
                     math.sqrt(dt) * basis.reshape(p, N * m).T, Q, N, slice(0, p))


class TestBatchedAssembly:
    """Maps and verdicts from batched adjoint solves against one solve per
    column; the oracles assemble in plain coordinates, N*m signal rows."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_uc_map(self, case):
        system, grid, G, W, ops = _batch_setup(*case)
        _assert_framed_signals(system, G.basis, grid.dt)
        _assert_same_uc_report(uc_verdict(system, grid, G, W, ops=ops),
                               system, ops, G.basis, W.basis)

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_two_time_map(self, case):
        system, grid, G, W, ops = _batch_setup(*case)
        k_cut = grid.n_steps // 2
        _assert_framed_signals(system, G.basis[:, :k_cut], grid.dt)
        rep = two_time_check(system, grid, G, W, k_cut * grid.dt, ops=ops)
        _assert_same_uc_report(rep.uc_tilde, system, ops, G.basis[:, :k_cut],
                               W.basis[:, :k_cut])

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_general_maps(self, case):
        system, grid, G, W, ops = _batch_setup(*case)
        M, Z0 = certificates._general_maps(system, grid, G, W, ops)
        M_ref, D_ref = loop_general_maps(system, ops, G, W)
        n = system.n
        _assert_in_frame(M, M_ref, np.linalg.qr(system.B.T)[0], grid.n_steps,
                         slice(n, n + G.dim))
        # the measured map is z(0) over every column, then the identity on (g, w, f)
        _assert_close(Z0, D_ref[:n])
        assert np.array_equal(D_ref[n:], np.eye(*D_ref.shape)[n:])

    @given(uc_cases())
    def test_uc_singular_values_match_loop(self, case):
        # at the default block size every drawn map is one block; a map
        # with fewer rows than columns has a padded zero singular value
        system, grid, G, W, ops = _batch_setup(*case)
        rep = uc_verdict(system, grid, G, W, ops=ops)
        s = _padded_singular_values(loop_uc_map(system, ops, G.basis, W.basis))
        assert abs(rep.sigma_min - s[-1]) <= 1e-12 * np.max(s, initial=0.0)


class TestObservabilityConstants:
    @pytest.mark.parametrize("horizon", [0.25, 1.0, 4.0])
    def test_scalar_final_state_inverse_sqrt_T(self, horizon):
        system, grid, G, W = scalar_setup(n_steps=64, horizon=horizon)
        rep = observability_constants(system, grid, G, W, ["final_state"])["final_state"]
        assert rep.constant_C == pytest.approx(1.0 / math.sqrt(horizon), abs=1e-10)
        assert rep.sigma_min == pytest.approx(math.sqrt(horizon), abs=1e-10)

    def test_underflowing_trace_gives_zero_initial_constant(self):
        # E = exp(-500) at N = 2: (E^T)^N underflows to 0, so the initial
        # trace vanishes and its inequality holds with C = 0, sigma = inf,
        # while the final-state constant stays finite
        system = make_ode([[-1000.0]], [[1.0]])
        _, grid, G, W = scalar_setup(n_steps=2)
        reps = observability_constants(system, grid, G, W, ["final_state", "initial_state"])
        initial = reps["initial_state"]
        assert (initial.constant_C, initial.sigma_min) == (0.0, math.inf)
        assert reps["final_state"].constant_C == pytest.approx(1000.0 / math.sqrt(2.0), rel=1e-12)

    def test_control_free_underflowing_trace_gives_zero_initial_constant(self):
        # no control columns: Theta has no rows, so it fails at rank 0, and
        # (E^T)^N = exp(-1000) underflows to 0, so the initial trace vanishes
        # on every direction Theta misses and C = 0
        system = make_ode([[-1000.0]], np.zeros((1, 0)))
        grid = TimeGrid(1.0, 8)
        G = orthonormalize([], SignalAmbient(0, grid))
        W = orthonormalize([], SignalAmbient(1, grid))
        reps = observability_constants(system, grid, G, W, ["final_state", "initial_state"])
        assert (reps["initial_state"].constant_C, reps["initial_state"].sigma_min) == (0.0, math.inf)
        assert (reps["final_state"].constant_C, reps["final_state"].sigma_min) == (math.inf, 0.0)

    def test_general_final_fails_for_constants(self):
        system, grid, _, W = scalar_setup(n_steps=16)
        G = orthonormalize([np.ones((16, 1))], SignalAmbient(1, grid))
        rep = observability_constants(system, grid, G, W, ["general_final"])["general_final"]
        assert math.isinf(rep.constant_C)
        assert rep.sigma_min == 0.0

    def test_general_final_certified_for_sinusoid(self):
        system, grid, _, W = scalar_setup(n_steps=16)
        t = grid.midpoints()
        G = orthonormalize([np.sin(2 * math.pi * t).reshape(-1, 1)],
                           SignalAmbient(1, grid))
        rep = observability_constants(system, grid, G, W, ["general_final"])["general_final"]
        assert math.isfinite(rep.constant_C)
        assert rep.constant_C == pytest.approx(1.0 / rep.sigma_min, rel=1e-12)

    def test_general_constant_bounds_random_samples(self):
        # C is the worst-case ratio, so random (z_T, g, w, f) obey it
        rng = np.random.default_rng(10)
        system = make_ode(rng.normal(size=(2, 2)), rng.normal(size=(2, 1)))
        grid = TimeGrid(1.0, 8)
        G = random_signal_subspace(rng, 1, grid, 1)
        W = random_signal_subspace(rng, 2, grid, 1)
        rep = observability_constants(system, grid, G, W, ["general_initial"])["general_initial"]
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
        reps = observability_constants(system, grid, G, W, ["final_state", "initial_state"])
        c_final = reps["final_state"].constant_C
        c_initial = reps["initial_state"].constant_C
        assert c_initial < c_final

    @pytest.mark.parametrize("k", [-170, 170])
    def test_homogeneous_constants_scale_with_B(self, k):
        # Theta scales with B and z(0) does not, so both constants divide by
        # c = 10**k; at these scales a Gram of D K^-1 unscaled would overflow
        # (k = -170) or underflow (k = 170)
        A = [[-1.0, 0.5], [0.0, -2.0]]
        grid = TimeGrid(1.0, 16)
        G = orthonormalize([], SignalAmbient(1, grid))
        W = orthonormalize([], SignalAmbient(2, grid))
        kinds = ["final_state", "initial_state"]
        base = observability_constants(make_ode(A, [[1.0], [1.0]]), grid, G, W, kinds)
        scaled = observability_constants(make_ode(A, [[10.0**k], [10.0**k]]), grid, G, W, kinds)
        for kind in kinds:
            assert scaled[kind].constant_C == pytest.approx(base[kind].constant_C / 10.0**k,
                                                            rel=1e-9, abs=0.0)

    def test_size_guard(self, monkeypatch):
        system, grid, G, W = scalar_setup(n_steps=64)
        monkeypatch.setattr(certificates, "DENSE_CAP", 10)
        with pytest.raises(ProblemTooLargeError):
            observability_constants(system, grid, G, W, ["general_final"])

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
                observability_constants(system, grid, G, W, [kind])

    @pytest.mark.parametrize("case", [(3, 2, 16, 1, 2), (2, 6, 16, 1, 1)])
    def test_size_guard_counts_compressed_entries(self, case, monkeypatch):
        # M has N*min(m, n) + p_g signal rows and N*n source rows, and every
        # list of general kinds holds M and the square triangular factor of M
        system, grid, G, W, ops = _batch_setup(*case)
        n, N = system.n, grid.n_steps
        cols = n + G.dim + W.dim + n * N
        entries = (N * min(system.m, n) + G.dim + N * n + cols) * cols
        for kinds in (["general_final"], ["general_initial"], ["general_final", "general_initial"]):
            monkeypatch.setattr(certificates, "DENSE_CAP", entries)
            reps = observability_constants(system, grid, G, W, kinds, ops=ops)
            assert all(rep.sigma_min > 0.0 for rep in reps.values())
            monkeypatch.setattr(certificates, "DENSE_CAP", entries - 1)
            with pytest.raises(ProblemTooLargeError):
                observability_constants(system, grid, G, W, kinds, ops=ops)

    def test_general_kinds_share_one_assembly(self, monkeypatch):
        system, grid, G, W, ops = _batch_setup(3, 2, 16, 1, 2)
        calls = []
        general_maps = certificates._general_maps

        def counted(*args):
            calls.append(args)
            return general_maps(*args)

        monkeypatch.setattr(certificates, "_general_maps", counted)
        reps = observability_constants(system, grid, G, W, certificates.OBS_KINDS, ops=ops)
        assert list(reps) == list(certificates.OBS_KINDS)
        assert len(calls) == 1

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_constants_match_loop_oracles(self, case):
        # every kind against _split_constant of a verdict on the per-column
        # oracle maps (plain coordinates: the singular values and right
        # vectors of the framed maps), and a holding general_initial map
        # against ||D M^+||, which no triangular factor enters
        system, grid, G, W, ops = _batch_setup(*case)
        N = grid.n_steps
        reps = observability_constants(system, grid, G, W, certificates.OBS_KINDS, ops=ops)
        M_ref, D_ref = loop_general_maps(system, ops, G, W)
        theta = certificates._sv_verdict(loop_theta(system, ops, N))
        general = certificates._sv_verdict(M_ref)
        refs = {"final_state": (theta, None),
                "initial_state": (theta, np.linalg.matrix_power(ops.E.T, N)),
                "general_final": (general, None),
                "general_initial": (general, D_ref)}
        for kind, (v, D) in refs.items():
            C, ref = reps[kind].constant_C, certificates._split_constant(v, D)[0]
            assert math.isfinite(C) == math.isfinite(ref), kind
            if math.isfinite(ref):
                assert C == pytest.approx(ref, rel=1e-9), kind
        if general.holds:
            ref = np.linalg.norm(D_ref @ np.linalg.pinv(M_ref), 2)
            assert reps["general_initial"].constant_C == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("setup, args",
                             [(_batch_setup, case) for case in BATCH_CASES]
                             + [(_unobserved_setup, (a22,)) for a22 in (-40.0, -1.0)],
                             ids=[f"case{i}" for i in range(len(BATCH_CASES))]
                             + ["unobserved-40", "unobserved-1"])
    def test_split_constant_reads_first_rows(self, setup, args):
        # the first n rows of the oracle's dense D, the identity below them,
        # give the constant of the whole D, on holding and on failing maps:
        # to a few units in the last place, since BLAS need not round an
        # n x cols and a cols x cols product alike, and exactly when infinite
        system, grid, G, W, ops = setup(*args)
        M_ref, D_ref = loop_general_maps(system, ops, G, W)
        v = certificates._sv_verdict(M_ref)
        got = certificates._split_constant(v, D_ref[:system.n])
        want = certificates._split_constant(v, D_ref)
        if math.isinf(want[0]):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0.0)

    def test_general_initial_holds_no_square_measured_map(self):
        # heat1d, 6 modes, N = 192: the measured map enters as its n rows,
        # M is factored in place and dropped before the verdict, and the
        # constant of the holding map is a Krylov norm of D R^-1, so the
        # peak is the QR's, below M + 1.5 n_cols^2 float64 entries; it reads
        # M + 1.14 n_cols^2, as general_final does, where a triangular
        # inverse read M + 2.05 n_cols^2
        system, _ = make_heat1d(6)
        grid = TimeGrid(1.0, 192)
        G = orthonormalize([], SignalAmbient(system.m, grid))
        W = orthonormalize([], SignalAmbient(system.n, grid))
        ops = build_propagator(system, grid)
        n, N = system.n, grid.n_steps
        cols = n + n * N
        M_entries = (N * min(system.m, n) + N * n) * cols
        tracemalloc.start()
        try:
            observability_constants(system, grid, G, W, ["general_initial"], ops=ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (M_entries + 1.5 * cols * cols)

    def test_failing_general_initial_holds_no_square_measured_map(self):
        # the unobserved mode at a22 = -1, N = 250: a failing map of 502
        # columns, M about 1.5 n_cols^2 entries.  Its SVD (R, U and V^T,
        # 3 n_cols^2 once M is dropped) sets the peak, M + 1.52 n_cols^2;
        # a square D beside it, with its norm by a dense SVD, read
        # M + 2.52 n_cols^2
        system, grid, G, W, ops = _unobserved_setup(-1.0, 250)
        n, N = system.n, grid.n_steps
        cols = n + n * N
        M_entries = (N * min(system.m, n) + N * n) * cols
        tracemalloc.start()
        try:
            reps = observability_constants(system, grid, G, W, ["general_initial"], ops=ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cols >= 500 and reps["general_initial"].constant_C == math.inf
        assert peak < 8 * (M_entries + 2.0 * cols * cols)

    def test_holding_general_map_takes_no_square_svd(self, svd_shapes):
        # sigma_max, sigma_min and both general constants of a holding map
        # come off Krylov norms of R, R^-1 and D R^-1: no SVD runs on an
        # array with n_cols rows or columns
        system, grid, G, W, ops = _dense_heat_setup()
        cols = system.n + G.dim + W.dim + system.n * grid.n_steps
        reps = observability_constants(system, grid, G, W, certificates.OBS_KINDS, ops=ops)
        assert cols == 584
        assert all(math.isfinite(rep.constant_C) for rep in reps.values())
        assert svd_shapes and max(max(shape) for shape in svd_shapes) < cols

    @pytest.mark.parametrize("a22, initial", [(-1.0, math.inf), (-40.0, 1.1479404319078874)],
                             ids=["-1.0", "-40.0"])
    def test_failing_general_map_takes_one_svd_only_for_general_initial(self, a22, initial,
                                                                          svd_shapes):
        # the unobserved mode at N = 250, a failing map of 502 columns: its
        # verdict comes off Krylov norms of R, so general_final alone takes
        # no SVD of an array with n_cols rows or columns, and general_initial
        # takes the one SVD of R that splits it against z(0)
        system, grid, G, W, ops = _unobserved_setup(a22, 250)
        cols = system.n + system.n * grid.n_steps
        for kinds, svds in ((["general_final"], 0), (["general_final", "general_initial"], 1)):
            svd_shapes.clear()
            reps = observability_constants(system, grid, G, W, kinds, ops=ops)
            assert sum(max(shape) >= cols for shape in svd_shapes) == svds, kinds
            assert (reps["general_final"].constant_C, reps["general_final"].sigma_min) == \
                (math.inf, 0.0)
        assert reps["general_initial"].constant_C == pytest.approx(initial, rel=1e-12)

    def test_constants_are_bit_identical_on_rerun(self):
        system, grid, G, W, ops = _dense_heat_setup()
        first, second = (observability_constants(system, grid, G, W, certificates.OBS_KINDS,
                                                  ops=ops) for _ in range(2))
        for kind in certificates.OBS_KINDS:
            assert (first[kind].constant_C, first[kind].sigma_min) == \
                (second[kind].constant_C, second[kind].sigma_min), kind

    @pytest.mark.parametrize("a22, initial", [(-40.0, 1.1477641779795815), (-1.0, math.inf)])
    def test_unobserved_mode(self, a22, initial):
        # B observes only the first mode, so M has a kernel and general_final
        # is infinite; z(0) sees the second mode through e^(a22 T), which D
        # annihilates at a22 = -40 (e^-40 is below D's rank cutoff) and not
        # at a22 = -1
        system, grid, G, W, ops = _unobserved_setup(a22)
        reps = observability_constants(system, grid, G, W, ["general_final", "general_initial"],
                                       ops=ops)
        assert math.isinf(reps["general_final"].constant_C)
        assert reps["general_final"].sigma_min == 0.0
        assert reps["general_initial"].constant_C == pytest.approx(initial, rel=1e-12)

    def test_unknown_kind(self):
        system, grid, G, W = scalar_setup()
        with pytest.raises(ShapeError):
            observability_constants(system, grid, G, W, ["nonsense"])


class TestKrylovNorms:
    """The verdict and constants of a triangular factor from Golub-Kahan
    norms (:func:`certificates._norm2`) against dense SVDs."""

    @given(n=st.integers(1, 80), log_cond=st.floats(0.0, 16.0), by_rows=st.booleans(),
           k=st.integers(-12, 12), seed=st.integers(0, 2**32 - 1))
    def test_factor_verdict_matches_svd(self, n, log_cond, by_rows, k, seed):
        # the R of a 2n x n Gaussian map (condition about 6) graded down its
        # rows or its columns to condition up to 1e16, past the rank cutoff,
        # at scale 10**k, with random first rows of D: the same verdict and
        # cutoff as the dense SVD's, and on a holding map the same sigma_max,
        # sigma_min and C.  Unsorted gradings are left out: there the dense
        # SVD, not the Krylov norm, loses relative accuracy in sigma_min
        rng = np.random.default_rng(seed)
        grade = 10.0 ** (-log_cond * np.linspace(0.0, 1.0, n))
        R0 = np.linalg.qr(rng.standard_normal((2 * n, n)), mode="r")
        R = 10.0 ** k * (grade[:, None] * R0 if by_rows else R0 * grade)
        rows = rng.standard_normal((int(rng.integers(0, n + 1)), n))
        got = certificates._factor_verdict(R, 2 * n)
        want = certificates._sv_verdict(R, rows=2 * n)
        assert got.holds == want.holds
        assert got.cutoff == pytest.approx(want.cutoff, rel=1e-12)
        if not want.holds:
            assert got.sigma_min <= got.cutoff
            return
        s = want.s
        rel = 1e-12 if s[0] <= 1e6 * s[-1] else 1e-9
        inverse = solve_triangular(R, np.eye(n))
        X = np.vstack([rows @ inverse, inverse[rows.shape[0]:]])
        assert certificates._norm2(lambda x: R @ x, lambda y: R.T @ y, n) == \
            pytest.approx(s[0], rel=rel)
        assert got.sigma_min == pytest.approx(s[-1], rel=rel)
        assert certificates._split_constant(got, rows)[0] == \
            pytest.approx(np.linalg.svd(X, compute_uv=False)[0], rel=rel)

    @pytest.mark.parametrize("scale", [1.0, 1e-300])
    def test_kahan_matrix_fails_without_an_svd(self, scale, svd_shapes):
        # Kahan's matrix, n = 100 and theta = 1.2: every |r_ii| >= 9.4e-4
        # clears the rank cutoff, 2.1e-13 at scale 1, yet sigma_min is
        # 8.9e-17, so 1/||R^-1|| falls below the cutoff (at scale 1e-300 the
        # solves overflow and it is 0) and fails the map with no SVD of R;
        # pytest turns any RuntimeWarning into an error
        n, theta = 100, 1.2
        K = (math.sin(theta) ** np.arange(n))[:, None] * (
            np.eye(n) - math.cos(theta) * np.triu(np.ones((n, n)), 1))
        R = scale * K
        want = certificates._sv_verdict(R, rows=n)
        svd_shapes.clear()
        got = certificates._factor_verdict(R, n)
        assert np.abs(np.diagonal(R)).min() > certificates._rank_cutoff((n, n), want.s[0])
        assert not got.holds and got.s is None
        assert got.sigma_min <= got.cutoff == pytest.approx(want.cutoff, rel=1e-12)
        assert (n, n) not in svd_shapes


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

    @pytest.mark.parametrize("t_tilde", [0.25, 0.5, 1.0])
    def test_tilde_constant_is_the_power_of_the_step(self, t_tilde):
        # z(t~) is the homogeneous step applied N - k times to z_T, bounded
        # by the B* z signal of the oracle's Theta, one step at a time
        system, _, grid, G, W = self.heat_setup()
        ops = build_propagator(system, grid)
        theta = loop_theta(system, ops, grid.n_steps)
        D = np.linalg.matrix_power(ops.E.T, grid.n_steps - grid.node_index(t_tilde))
        ref = certificates._split_constant(certificates._sv_verdict(theta), D)[0]
        rep = two_time_check(system, grid, G, W, t_tilde, ops=ops)
        assert rep.obs_tilde.constant_C == pytest.approx(ref, rel=1e-12)

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
        _assert_framed_signals(system, G.basis[:, :1], grid.dt)
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


def _assert_same_uc_report(got, system, ops, G_basis, W_basis):
    """``got`` is the verdict on the uniqueness map over the horizon of the
    bases (p, N, dim) up to rounding.  The reference decides the oracle's
    map in plain coordinates, with the rows of the framed map, N*r + p_g,
    so with the same cutoff; zero rows pad that map to at least as many
    rows as columns, which adds the zero singular values of a wide map.
    The same verdict and shape, sigma_min within 1e-12 of the
    map's largest singular value, and a witness that the map sends to
    sigma_min, equal to the reference's up to sign when the map's smallest
    singular value is simple."""
    M = loop_uc_map(system, ops, G_basis, W_basis)
    (p_g, N), k = G_basis.shape[:2], M.shape[1]
    rows = N * min(system.m, system.n) + p_g
    padded = np.vstack([M, np.zeros((max(k - M.shape[0], 0), k))])
    ref = certificates._sv_verdict(np.linalg.qr(padded, mode="r"), rows=rows)
    assert (got.holds, got.map_dims) == (ref.holds, (rows, k))
    s = ref.s
    s_max = np.max(s, initial=0.0)
    assert abs(got.sigma_min - ref.sigma_min) <= 1e-12 * s_max
    if ref.holds:
        assert got.witness is None and got.infeasibility_radius is None
        return
    w = got.witness
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert got.infeasibility_radius >= 1.0 - 1e-12  # ||w||^2 / ||z_T|| for a unit w
    assert np.linalg.norm(M @ w) <= ref.sigma_min + 1e-12 * s_max
    if s.size > 1 and s[-2] > 1e-6 * s_max:
        assert abs(float(w @ ref.vt[-1])) == pytest.approx(1.0, abs=1e-6)


class TestUCVerdict:
    """The blocked sweep of uc_verdict, and the cut map of two_time_check,
    against the oracle's map, one adjoint solve per column."""

    @given(uc_cases(), st.integers(1, 40), st.booleans(), st.floats(0.0, 1.0))
    @example((1, 0, 8, 0, 0, 1), 3, False, 0.5)  # m = 0: a map without rows
    @example((3, 1, 7, 0, 0, 2), 3, False, 1.0)  # m < n, blocks 3 + 3 + 1, no G or W
    @example((5, 1, 2, 1, 2, 3), 1, False, 0.0)  # fewer rows than columns
    @example((3, 2, 9, 2, 1, 4), 1, True, 0.6)  # one-interval blocks, a planted kernel
    @example((2, 3, 10, 1, 0, 5), 4, True, 1.0)  # p_w = 0, a planted kernel
    def test_matches_the_explicit_map(self, case, steps, plant, cut):
        n, m, N, p_g, _, seed = case
        system, grid, G, W, ops = _batch_setup(*case)
        if plant and p_g:
            # a G generator that is the B* z signal of a homogeneous solve:
            # (z_T, -its coefficient, 0) is in the kernel of every cut
            rng = np.random.default_rng(seed)
            B_z = control_observation(system, adjoint_solve(system, ops, rng.normal(size=n),
                                                            np.zeros((N, n))))
            G = orthonormalize([B_z] + list(G.basis[1:]), SignalAmbient(m, grid))
        k = n + G.dim + W.dim
        k_cut = max(1, round(cut * N))
        calls = []

        def counted(*args):
            calls.append(args)
            return adjoint_solve(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certificates, "UC_BLOCK_BYTES", 8 * k * n * steps)
            mp.setattr(certificates, "adjoint_solve", counted)
            got = uc_verdict(system, grid, G, W, ops=ops)
            assert len(calls) == -(-N // steps)
            calls.clear()
            got_cut = two_time_check(system, grid, G, W, grid.nodes()[k_cut], ops=ops).uc_tilde
            assert len(calls) == -(-k_cut // steps)
        _assert_same_uc_report(got, system, ops, G.basis, W.basis)
        _assert_same_uc_report(got_cut, system, ops, G.basis[:, :k_cut], W.basis[:, :k_cut])

    def test_uc_stage_memory_does_not_grow_with_N(self):
        # the uniqueness map of wave1d with 32 modes over N = 2048 is
        # 131072 x 64 (67 MB); the check stage holds one block of the sweep
        # (its sources, z nodes, interval averages with a temporary, then
        # its map rows) and a k x k factor: 3.9 blocks measured
        system, _ = make_wave1d(32)
        p = ProblemData(kind="null", system=system, grid=TimeGrid(2.5, 2048), y0=np.ones(64))
        p.ops  # the propagator is the problem's, not the check's
        tracemalloc.start()
        try:
            section, failed = cli._run_checks(p, {"uc": True})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * certificates.UC_BLOCK_BYTES + 8 * 64 * 64
        assert section["uc"]["map_dims"] == [2048 * 64, 64]
        assert section["uc"]["holds"] and not failed


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

    def test_rounding_noise_restriction_fails(self):
        # 21 masked nodes read 50 modes: a profile along a null vector of the
        # read-out restricts to 2.1e-15, rounding noise against its unit norm.
        # The floor of 1 fails it; a cutoff relative to its own sigma_max
        # (1.7e-16 against 1.3e-29) would hold it
        system, model = make_heat1d(50, (0.45, 0.55), 201)
        readout = model.state_value_matrix[model.mask]
        assert readout.shape == (21, 50)
        null = np.linalg.svd(readout)[2][-1]
        grid = TimeGrid(1.0, 16)
        W = orthonormalize([exponential_profile_signal(grid, 0.0, null)],
                           SignalAmbient(system.n, grid))
        assert np.linalg.norm(readout @ null) < 1e-14
        assert not restriction_kernel_check(W, model)

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

    @pytest.mark.parametrize("mu, w, verdict", [
        (2.5, 1.0 * np.eye(8)[0], "UC_holds_nonresonant"),
        (2.5, 1e-9 * np.eye(8)[0], "UC_holds_nonresonant"),
        (2.5, 1e-30 * np.eye(8)[0], "UC_holds_nonresonant"),
        (math.pi**2, 1e-12 * np.eye(8)[0], "UC_holds_no_solution"),
        (math.pi**2, 1e-12 * np.eye(8)[1], "UC_holds_inf_positive"),
        (2.5, np.zeros(8), "UC_fails"),
        (math.pi**2, np.zeros(8), "UC_fails"),
    ], ids=["unit", "1e-9", "1e-30", "resonant_1e-12", "orthogonal_1e-12", "zero", "zero_resonant"])
    def test_small_data_keeps_its_verdict(self, mu, w, verdict):
        # an absolute threshold on the restricted norm used to read small
        # w_mu as a uniqueness failure; only w_mu = 0 fails
        assert spectral_uc_classify(mu, w, self.model).verdict == verdict

    @given(mode=st.one_of(st.none(), st.integers(1, 8)), mu_off=st.floats(-50.0, 700.0),
           w=st.lists(st.integers(-3, 3), min_size=8, max_size=8), k=st.integers(-12, 12))
    def test_verdicts_are_scale_invariant(self, mode, mu_off, w, k):
        # the question is linear in w_mu, so scaling it must not move the verdict
        mu = mu_off if mode is None else (mode * math.pi) ** 2
        w = np.array(w, dtype=float)
        base = spectral_uc_classify(mu, w, self.model).verdict
        assert spectral_uc_classify(mu, 10.0**k * w, self.model).verdict == base


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

    def test_duplicate_frequencies_pool(self):
        # entries at one value span one space: each report equals the one of
        # a single entry holding the stacked span, exactly, and a value takes
        # the role of the lists it appears in
        def fields(rep):
            return rep.ok, [(c.value, c.role, c.ok, c.sigma_min,
                             None if c.witness is None else c.witness.tolist()) for c in rep.checks]

        system = make_ode(np.diag([-1.0, -2.0, -3.0]), np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        w_a, w_b = np.array([1.0, 0.0, 0.0]), np.array([0.5, 1.0, 0.25])
        g = np.array([0.6, 0.8])
        cases = [
            (dict(mus=[(2.0, w_a), (2.0, w_b)]), dict(mus=[(2.0, np.column_stack([w_a, w_b]))]),
             ["mu"]),
            (dict(mus=[(5.0, w_a), (5.0, w_b)]), dict(mus=[(5.0, np.column_stack([w_a, w_b]))]),
             ["mu"]),
            (dict(rhos=[(2.0, None), (2.0, None)]), dict(rhos=[(2.0, None)]), ["rho"]),
            (dict(mus=[(3.0, w_a), (2.0, None), (3.0, None)], rhos=[(3.0, None), (3.0, g), (5.0, g)]),
             dict(mus=[(3.0, w_a), (2.0, None)], rhos=[(3.0, g), (5.0, g)]),
             ["combined", "mu", "rho"]),
        ]
        for pooled, stacked, roles in cases:
            rep = modal_uc_check(system, **pooled)
            assert fields(rep) == fields(modal_uc_check(system, **stacked))
            assert [c.role for c in rep.checks] == roles
        assert not modal_uc_check(system, **cases[0][0]).ok  # (2I + A^T) e2 = 0, invisible
        with pytest.raises(ShapeError):  # a pooled span of the wrong dimension
            modal_uc_check(system, mus=[(2.0, w_a), (2.0, np.ones(2))])

    @pytest.mark.parametrize("k", [-14, -13, -12, -6, 0, 6, 12])
    def test_pooling_is_scale_free(self, k):
        # rhos at both eigenvalues of 10^k diag(-1, -2): mode 1 is observed,
        # mode 2 is not, and two distinct values never pool near 0
        s = 10.0**k
        system = make_ode(s * np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
        rep = modal_uc_check(system, rhos=[(s, None), (2.0 * s, None)])
        assert not rep.ok
        assert [(c.value, c.ok) for c in rep.checks] == [(s, True), (2.0 * s, False)]

    def test_hautus_constant_is_grid_free(self):
        # the Hautus test at every eigenvalue of heat reads the same smallest
        # sigma at 16 and 48 modes, where the discrete uniqueness map decays
        sigmas = []
        for n_modes, want in ((16, 0.5535713599), (48, 0.5535713595)):
            system, _ = make_heat1d(n_modes)
            rep = modal_uc_check(system, rhos=[(lam, None) for lam in -np.diag(system.A)])
            assert rep.ok
            sigmas.append(min(c.sigma_min for c in rep.checks))
            assert sigmas[-1] == pytest.approx(want, rel=1e-9)
        assert sigmas[0] == pytest.approx(sigmas[1], rel=1e-8)

    def test_shared_frequency_uses_combined_condition(self):
        system = make_ode(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
        rep = modal_uc_check(system, mus=[(2.0, None)], rhos=[(2.0, None)])
        assert [c.role for c in rep.checks] == ["combined"]
        assert not rep.ok  # e2 is invisible and (2I + A^T) e2 = 0

    def test_rate_sign_of_the_time_differentiation_reduction(self):
        # z_T = phi with A^T phi = lambda phi gives B* z = exp(-lambda (t - T))
        # B^T phi, so a G generator at rate rho = -lambda along B^T phi fails
        # the uniqueness map and the modal check at rho alike (sigma_min
        # 2.1e-16 and 2.3e-16); at rate -rho both hold (3.2e-2 and 1.96), as
        # at a rate off the spectrum with a generic vector
        A = np.array([[-1.0, 0.3, 0.0], [0.0, -2.0, 0.5], [0.2, 0.0, -3.0]])
        B = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.2]])
        system, grid = make_ode(A, B), TimeGrid(1.0, 32)
        lam, vecs = np.linalg.eig(A.T)
        k = int(np.argmax(lam.real))
        assert lam[k].real == pytest.approx(-0.98532, abs=1e-5)
        rho, g = -lam[k].real, B.T @ vecs[:, k].real
        W = orthonormalize([], SignalAmbient(3, grid))
        for rate, vec, holds in ((rho, g, False), (-rho, g, True),
                                 (0.7, np.array([0.6, -0.8]), True)):
            G = orthonormalize([exponential_profile_signal(grid, rate, vec)],
                               SignalAmbient(2, grid))
            assert uc_verdict(system, grid, G, W).holds == holds
            assert modal_uc_check(system, rhos=[(rate, vec)]).ok == holds

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
