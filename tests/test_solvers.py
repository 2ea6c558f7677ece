import functools
import math
import tracemalloc

import numpy as np
import pytest

from pccontrol import (
    ProblemData,
    SignalAmbient,
    SolverOptions,
    StepOperator,
    TimeGrid,
    VectorAmbient,
    apply_quadratic,
    exponential_profile_signal,
    grad_smooth,
    make_heat1d,
    make_ode,
    make_wave1d,
    minimize,
    observability_constants,
    orthonormalize,
    recover_primal,
    two_time_check,
    uc_verdict,
)
from pccontrol import functionals
from pccontrol.errors import ConfigError
from pccontrol.certificates import (
    _infeasibility_radius,
    _split_constant,
    _sv_verdict,
    _theta_verdict,
)
from pccontrol.functionals import APPROX_KINDS, KINDS
from pccontrol.solvers import (
    _cg_core,
    _gramian_preconditioner,
    _least_subgradient,
)

from oracles import (
    eval_J,
    kkt_control,
    loop_invisible_final_data,
    loop_theta,
    plain_cg,
    random_problem,
)


def scalar_system():
    return make_ode([[0.0]], [[1.0]])


class TestOptions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverOptions(max_iters=0)
        with pytest.raises(ConfigError):
            SolverOptions(grad_tol=0.0)


class TestQuadraticKinds:
    def test_zero_data_terminates_immediately(self):
        system = scalar_system()
        grid = TimeGrid(1.0, 8)
        p = ProblemData(kind="null", system=system, grid=grid, y0=[0.0])
        v, diag = minimize(p)
        assert diag.iterations <= 1
        assert diag.verdict == "converged"
        assert np.max(np.abs(p.blocks(v)[0])) == 0.0

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
        assert np.array_equal(v1, v2)
        assert d1.objective == d2.objective


class TestNullIsExactAtZeroTarget:
    def test_same_iterates_and_residuals(self):
        for seed in range(40):
            p = random_problem(np.random.default_rng(seed), "null")
            q = ProblemData(kind="exact", system=p.system, grid=p.grid, y0=p.y0,
                            y1=np.zeros(p.system.n), G=p.G, W=p.W, g_star=p.g_star,
                            w_star=p.w_star, ops=p.ops)
            (v, d), (w, e) = minimize(p), minimize(q)
            assert np.array_equal(v, w)
            assert d == e
            assert recover_primal(p, v).residuals == recover_primal(q, w).residuals


class TestGramianPreconditioner:
    def test_block_is_the_gramian(self):
        # V diag(d) V^T is the z_T block of S, Theta^T Theta, when Theta has
        # full column rank
        p = random_problem(np.random.default_rng(30), "exact", n=4, m=2, n_steps=12)
        n = p.system.n
        V, d = _gramian_preconditioner(p)
        S_zz = np.column_stack([apply_quadratic(p, x)[:n] for x in np.eye(p.size)[:n]])
        theta = loop_theta(p.system, p.ops, p.grid.n_steps)
        assert np.allclose(S_zz, theta.T @ theta, rtol=0, atol=1e-12 * np.abs(S_zz).max())
        assert np.allclose(V @ np.diag(d) @ V.T, S_zz, rtol=0,
                           atol=1e-12 * np.abs(S_zz).max())

    def test_identity_without_control(self):
        # B = 0: Theta = 0 has rank 0, so the preconditioner is the identity
        system = make_ode(np.eye(2), np.zeros((2, 1)))
        p = ProblemData(kind="null", system=system, grid=TimeGrid(1.0, 4), y0=[1.0, 0.0])
        V, d = _gramian_preconditioner(p)
        assert np.array_equal(d, np.ones(2))
        assert np.array_equal(V @ np.diag(d) @ V.T, np.eye(2))

    @pytest.mark.parametrize("factor, rank", [(0.5, 1), (1.5, 2)])
    def test_rank_cutoff_scales_with_theta_rows(self, factor, rank):
        # A = 0, T = 1: Theta stacks N copies of sqrt(dt) R, so its singular
        # values are |B_jj| = 1 and b.  With m = 2n, N*r = 128 rows and
        # N*m = 256 differ: b planted on either side of the cutoff
        # sigma_max * N*r * eps_mach must drop or keep the second direction
        N, r = 64, 2
        b = factor * N * r * np.finfo(float).eps
        B = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, b, 0.0, 0.0]])
        p = ProblemData(kind="null", system=make_ode(np.zeros((2, 2)), B),
                        grid=TimeGrid(1.0, N), y0=np.ones(2))
        verdict = _theta_verdict(p.system, p.ops, N)
        assert verdict.s == pytest.approx([1.0, b], rel=1e-12)
        assert (verdict.holds, np.sum(verdict.s > verdict.cutoff)) == (rank == 2, rank)

    def test_factor_matches_theta(self):
        # the doubled n x n factor has Theta's Gramian and Theta's rank rule,
        # for every binary pattern of N and for r = m < n and r = n < m; the
        # homogeneous observability constants read it, so they are the
        # oracle Theta's, with z(0) and z(t~) powers of the step, for these
        # problems and one without control
        problems = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, m, N = int(rng.integers(1, 7)), int(rng.integers(1, 5)), int(rng.integers(2, 70))
            problems.append(random_problem(rng, "exact", n=n, m=m, n_steps=N))
        problems.append(ProblemData(kind="null", system=make_ode(-np.eye(3), np.zeros((3, 0))),
                                    grid=TimeGrid(1.0, 9), y0=np.ones(3)))
        for p in problems:
            N = p.grid.n_steps
            theta = loop_theta(p.system, p.ops, N)
            want, got = _sv_verdict(theta), _theta_verdict(p.system, p.ops, N)
            assert (got.holds, np.sum(got.s > got.cutoff)) == \
                (want.holds, np.sum(want.s > want.cutoff))
            gram = theta.T @ theta
            assert np.allclose((got.vt[:got.s.size].T * got.s**2) @ got.vt[:got.s.size], gram,
                               rtol=0, atol=1e-12 * np.abs(gram).max())
            step = p.ops.E.T
            reps = observability_constants(p.system, p.grid, p.G, p.W,
                                           ["final_state", "initial_state"], ops=p.ops)
            pairs = [(reps[kind], D)
                     for kind, D in (("final_state", None),
                                     ("initial_state", np.linalg.matrix_power(step, N)))]
            for k in (N // 2, N):
                rep = two_time_check(p.system, p.grid, p.G, p.W, p.grid.nodes()[k], ops=p.ops)
                pairs.append((rep.obs_tilde, np.linalg.matrix_power(step, N - k)))
            for rep, D in pairs:
                C, ref = rep.constant, _split_constant(want, D)[0]
                assert math.isfinite(C) == math.isfinite(ref)
                if math.isfinite(ref):
                    assert C == pytest.approx(ref, rel=1e-9)

    def test_theta_is_never_formed(self):
        # Theta of wave1d with 64 modes over N = 2048 would hold 2048*128*128
        # float64 entries (268 MB); the factor needs a few n x n matrices
        system, _ = make_wave1d(64, n_quad=257)
        p = ProblemData(kind="null", system=system, grid=TimeGrid(2.5, 2048), y0=np.ones(128))
        p.ops  # the propagator is the problem's, not the preconditioner's
        tracemalloc.start()
        try:
            V, d = _gramian_preconditioner(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert V.shape == (128, 128) and np.all(d > 0)

    def test_homogeneous_constants_hold_no_n_sized_array(self):
        # Theta of wave1d with 32 modes over N = 1024 holds 1024*64*64
        # float64 entries (34 MB), and the batched solve that forms it peaks
        # at 134 MB; the constants read the n x n factor (0.3 MB)
        system, _ = make_wave1d(32)
        p = ProblemData(kind="null", system=system, grid=TimeGrid(2.5, 1024), y0=np.ones(64))
        p.ops  # the propagator is the problem's, not the constants'
        for kind in ("final_state", "initial_state"):
            tracemalloc.start()
            try:
                rep = observability_constants(system, p.grid, p.G, p.W, [kind], ops=p.ops)[kind]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20
            assert math.isfinite(rep.constant)

    def test_heat_control_matches_kkt_oracle(self):
        system, _ = make_heat1d(16)
        grid = TimeGrid(1.0, 32)
        rng = np.random.default_rng(31)
        lam = (np.arange(1, 17) * math.pi) ** 2
        for kind in ("exact", "null"):
            y1 = rng.standard_normal(16) * np.exp(-lam / 2) if kind == "exact" else None
            p = ProblemData(kind=kind, system=system, grid=grid, y0=rng.standard_normal(16),
                            y1=y1)
            v, diag = minimize(p, SolverOptions(grad_tol=1e-11))
            assert diag.verdict == "converged"
            assert diag.iterations <= 20
            u, u_ref = recover_primal(p, v).u, kkt_control(p)
            assert np.linalg.norm(u - u_ref) <= 1e-6 * np.linalg.norm(u_ref)

    def test_heat_48_modes_converges(self):
        # sigma_min of Theta is ~4e-11: preconditioned CG resolves those
        # directions in few iterations, although its iterates are large in
        # the Euclidean norm
        system, _ = make_heat1d(48)
        rng = np.random.default_rng(0)
        lam = (np.arange(1, 49) * math.pi) ** 2
        p = ProblemData(kind="exact", system=system, grid=TimeGrid(1.0, 512),
                        y0=rng.standard_normal(48),
                        y1=rng.standard_normal(48) * np.exp(-lam / 2))
        v, diag = minimize(p)
        assert diag.verdict == "converged"
        assert diag.iterations <= 20
        assert recover_primal(p, v).residuals.final_state_error <= 1e-9

    def test_identity_reproduces_plain_cg(self):
        # the approximate kinds run _cg_core with the identity: bit for bit
        # the unpreconditioned CG, shifted, held and warm-started alike; tol
        # 0 runs to the cap through a residual refresh, and a start at zero
        # takes b for its first residual.  The curvature scale sums p^T p in
        # another order, so it agrees to rounding
        for seed in range(12):
            kind = APPROX_KINDS[seed % 2]
            p = stress_problem(seed, kind)
            b = -grad_smooth(p, p.zero_variable())
            x0 = np.random.default_rng(seed).standard_normal(p.size)
            blocks = 2 if kind == "approx_relaxed" else 1
            for mu, tol in (((), 1e-9), ((0.3,) * blocks, 0.0),
                            ((math.inf,) + (2.0,) * (blocks - 1), 1e-12)):
                for start in (p.zero_variable(), x0):
                    got = _cg_core(p, b, start, tol, 60, mu)
                    want = plain_cg(p, b, start, tol, 60, mu)
                    assert np.array_equal(got[0], want[0])
                    assert got[1:4] == want[1:4]
                    assert got[4] == pytest.approx(want[4], rel=1e-14)


class TestConvergedMeansTrueGradient:
    def test_exact_and_null_stress_family(self):
        # CG stops on its recursively updated residual; a converged exact or
        # null solve must also pass grad_tol on the true gradient, which every
        # verdict reports.  The uniqueness map tells the divergences apart: a
        # failing map never converges (CG meets a vanishing curvature), and a
        # holding one diverges only through its true gradient staying above
        # grad_tol
        converged = 0
        for kind in ("exact", "null"):
            for seed, (p, v, diag) in enumerate(stress_solves(kind)):
                assert diag.verdict != "max_iters"
                true = np.linalg.norm(grad_smooth(p, v))
                assert diag.final_residual == true
                holds = uc_verdict(p.system, p.grid, p.G, p.W, p.ops).holds
                if diag.verdict == "converged":
                    converged += 1
                    assert holds and true <= STRESS_OPTS.grad_tol
                elif holds:
                    assert true > STRESS_OPTS.grad_tol
        assert converged >= 690

    def test_approximate_stress_family(self):
        # a converged approximate solve must pass grad_tol on the least
        # subgradient of the full functional at the returned point, not only
        # on the one its last outer step measured.  A divergence whose
        # uniqueness map holds ends at the rounding floor: its least
        # subgradient lies within 10 ||S||_2 ||v|| eps_mach
        converged = set()
        for kind in APPROX_KINDS:
            for seed, (p, v, diag) in enumerate(stress_solves(kind)):
                assert diag.verdict != "max_iters"
                holds = uc_verdict(p.system, p.grid, p.G, p.W, p.ops).holds
                if diag.verdict == "converged":
                    converged.add((seed, kind))
                    assert least_subgradient_norm(p, v) <= 10 * STRESS_OPTS.grad_tol
                elif holds:
                    S = np.column_stack([apply_quadratic(p, e) for e in np.eye(p.size)])
                    floor = 10 * np.linalg.norm(S, 2) * np.linalg.norm(v) * np.finfo(float).eps
                    assert diag.final_residual <= floor
        # four holding maps whose minimizers are large, ||v|| 5.8e6 to 1.6e8
        assert {(seed, kind) for seed in (44, 75, 83, 164) for kind in APPROX_KINDS} <= converged
        assert len(converged) >= 725

    @pytest.mark.parametrize("kind", KINDS)
    def test_objective_is_the_functional_at_the_returned_point(self, kind):
        # read off the gradient pair, the objective of a converged solve is
        # the functional evaluated from its definition at the returned point
        for p, v, diag in stress_solves(kind):
            if diag.verdict == "converged":
                assert diag.objective == pytest.approx(eval_J(p, v), rel=1e-12)


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
        basis = loop_invisible_final_data(system, ops, grid.n_steps)
        assert basis.shape == (1, 1)
        p = ProblemData(kind="null", system=system, grid=grid, y0=[1.0], ops=ops)
        v, diag = minimize(p)
        assert diag.verdict == "converged"
        assert abs(p.blocks(v)[0][0]) < 1e-12  # quotiented out

    def test_null_solve_stays_off_the_kernel(self):
        # E = diag(0, 1) hides e1 from the observation and the initial
        # trace while the control acts on e2; the right-hand side pairs to
        # zero with every kernel direction, so CG from zero never enters it
        system = make_ode(np.zeros((2, 2)), [[0.0], [1.0]])
        grid = TimeGrid(1.0, 8)
        dt = grid.dt
        ops = StepOperator(E=np.diag([0.0, 1.0]), Phi=dt * np.eye(2),
                           Psi=0.5 * dt * np.eye(2), dt=dt)
        kernel = loop_invisible_final_data(system, ops, grid.n_steps)
        assert kernel.shape == (2, 1)
        assert np.allclose(np.abs(kernel[:, 0]), [1.0, 0.0], rtol=0, atol=1e-12)
        p = ProblemData(kind="null", system=system, grid=grid, y0=[1.0, 1.0], ops=ops)
        v, diag = minimize(p)
        assert diag.verdict == "converged"
        assert np.all(kernel.T @ p.blocks(v)[0] == 0.0)
        sol = recover_primal(p, v)
        assert sol.residuals.final_state_error < 1e-10
        assert np.max(np.abs(sol.u)) == pytest.approx(1.2545, abs=1e-4)


def least_subgradient_norm(p, v):
    """Norm of the least-norm subgradient of the full approximate functional
    at v, from grad_smooth and p.E; a block below 1e-12 of z_T's scale
    counts as zero."""
    dt = p.grid.dt
    z_T, _, w_coef, _ = p.blocks(v)
    g_z_T, g_g_coef, g_w_coef, g_f = p.blocks(grad_smooth(p, v))
    zero = 1e-12 * (1.0 + np.linalg.norm(z_T))
    blocks = [(p.E.complement(z_T), p.E.complement(g_z_T))]
    total = np.sum(p.E.project(g_z_T) ** 2) + np.sum(g_g_coef**2) + dt * np.sum(g_f**2)
    if p.kind == "approx_relaxed":
        blocks.append((w_coef, g_w_coef))
    else:
        total += np.sum(g_w_coef**2)
    for x, y in blocks:
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx <= zero:
            total += max(ny - p.epsilon, 0.0) ** 2
        else:
            total += np.sum((y + p.epsilon * x / nx) ** 2)
    return math.sqrt(total)


STRESS_OPTS = SolverOptions(max_iters=5000)


@functools.lru_cache(maxsize=None)
def stress_solves(kind):
    """(p, v, diag) for the stress problems of seeds 0..399 of one kind,
    solved once for every test that reads them."""
    return [(p, *minimize(p, STRESS_OPTS))
            for p in (stress_problem(seed, kind) for seed in range(400))]


def stress_problem(seed, kind):
    """One problem of a seeded family; the approximate kinds have epsilon
    scaled by 10**(-2..2)."""
    rng = np.random.default_rng(seed)
    n, m, N, p_g, p_w = (int(rng.integers(lo, hi)) for lo, hi in
                         ((1, 6), (1, 4), (2, 30), (0, 3), (0, 3)))
    p = random_problem(rng, kind, n=n, m=m, n_steps=N, p_g=p_g, p_w=p_w)
    if kind in APPROX_KINDS:
        p.epsilon *= 10 ** rng.uniform(-2, 2)
    return p


class TestProximalKinds:
    @pytest.mark.parametrize("kind", ["approx", "approx_relaxed"])
    @pytest.mark.parametrize("max_iters", [1, 2])
    def test_cap_reports_residual_of_returned_point(self, kind, max_iters):
        # the reported residual is the least-norm subgradient at the point
        # returned at the cap
        p = random_problem(np.random.default_rng(15), kind)
        v, diag = minimize(p, SolverOptions(max_iters=max_iters))
        assert diag.verdict == "max_iters"
        assert diag.iterations == max_iters
        assert diag.final_residual == pytest.approx(least_subgradient_norm(p, v), rel=1e-9)

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

    def test_determinism(self):
        rng1 = np.random.default_rng(16)
        rng2 = np.random.default_rng(16)
        p1 = random_problem(rng1, "approx_relaxed")
        p2 = random_problem(rng2, "approx_relaxed")
        v1, d1 = minimize(p1)
        v2, d2 = minimize(p2)
        assert d1.iterations == d2.iterations
        assert np.array_equal(p1.blocks(v1)[2], p2.blocks(v2)[2])

    def test_large_epsilon_gives_interior_solution(self):
        # with a huge tolerance the unconstrained optimum is feasible and the
        # nonsmooth block is held at zero
        rng = np.random.default_rng(17)
        p = random_problem(rng, "approx", n=2, m=1, n_steps=8)
        p.epsilon = 1e3
        v, diag = minimize(p, SolverOptions(grad_tol=1e-10, max_iters=5000))
        assert diag.verdict == "converged"
        z_T = p.blocks(v)[0]
        z_perp = z_T - p.E.project(z_T)
        assert np.linalg.norm(z_perp) < 1e-9


class TestSecularEquation:
    def test_least_subgradient_vanishes_when_converged(self):
        # Both kinds, p_w from 0 to 2 and epsilon scaled by 1e-2, 1 and 1e2,
        # so that some eps blocks end at zero and some do not.
        held = converged = 0
        for seed in range(24):
            kind = ("approx", "approx_relaxed")[seed % 2]
            rng = np.random.default_rng(100 + seed)
            p = random_problem(rng, kind, p_w=seed % 3)
            p.epsilon *= (1e-2, 1.0, 1e2)[(seed // 2) % 3]
            opts = SolverOptions()
            v, diag = minimize(p, opts)
            if diag.verdict != "converged":
                continue
            converged += 1
            assert least_subgradient_norm(p, v) <= 10 * opts.grad_tol
            z_T = p.blocks(v)[0]
            held += np.linalg.norm(p.E.complement(z_T)) <= 1e-12 * (1 + np.linalg.norm(z_T))
        assert converged >= 20 and held >= 3

    def test_identically_zero_block(self):
        # n = 1 and dim E = 1, so (I - P_E) z_T is zero for every z_T
        p = stress_problem(310, "approx_relaxed")
        assert p.system.n == 1 and p.E.dim == 1
        v, diag = minimize(p, SolverOptions(max_iters=5000))
        assert diag.verdict == "converged"
        assert diag.iterations <= 20
        assert least_subgradient_norm(p, v) <= 10 * SolverOptions().grad_tol

    def test_eps_terms_restore_coercivity(self):
        # the exact kind on the same data is coercive (its uniqueness map
        # holds, sigma_min 3.4e-4), but its minimizer is so large (||v|| ~
        # 2e7) that the true gradient stalls near 1e-8, above grad_tol, so it
        # ends diverged_infeasible; the eps norm of the approximate kind
        # keeps its minimizer small
        p = stress_problem(85, "approx")
        q = ProblemData(kind="exact", system=p.system, grid=p.grid, y0=p.y0, y1=p.y1, G=p.G,
                        W=p.W, g_star=p.g_star, w_star=p.w_star, ops=p.ops)
        assert minimize(q, SolverOptions(max_iters=5000))[1].verdict == "diverged_infeasible"
        v, diag = minimize(p, SolverOptions(max_iters=5000))
        assert diag.verdict == "converged"
        assert diag.objective == pytest.approx(eval_J(p, v), rel=1e-12)
        # the objective is read off the gradient pair, not evaluated: it is
        # the functional of the returned point
        for seed in range(8):
            for kind in ("approx", "approx_relaxed"):
                p = random_problem(np.random.default_rng(200 + seed), kind)
                v, diag = minimize(p)
                assert diag.objective == pytest.approx(eval_J(p, v), rel=1e-12)

    def test_zero_free_block_is_held(self):
        # at v = 0 the block (I - P_E) z_T is exactly zero; free, it has no
        # direction, so it counts as held at zero
        p = random_problem(np.random.default_rng(3), "approx")
        v = p.zero_variable()
        g = grad_smooth(p, v)
        free, held = (_least_subgradient(p, v, g, [at_zero]) for at_zero in (False, True))
        assert np.array_equal(free, held)

    def test_converges_at_the_origin(self):
        # y(T) = 0 lies within eps = 0.1 of y1 = 0.05: the least subgradient
        # vanishes at v = 0, so the solve returns before any CG solve
        p = ProblemData(kind="approx", system=scalar_system(), grid=TimeGrid(1.0, 8),
                        y0=[0.0], y1=[0.05], epsilon=0.1)
        v, diag = minimize(p)
        assert (diag.iterations, diag.verdict, diag.objective) == (0, "converged", 0.0)
        assert np.array_equal(v, p.zero_variable())

    @pytest.mark.parametrize("seed, kind", [(310, "approx"), (5, "approx"), (5, "approx_relaxed")])
    def test_divergence_exits(self, seed, kind):
        # a shifted solve meets a vanishing curvature, which ends the solve:
        # the kernel of S + mu Pi is the common kernel of S and Pi for every
        # finite mu, so no other s helps; both uniqueness maps fail, so the
        # verdict is certified
        p = stress_problem(seed, kind)
        _, diag = minimize(p, SolverOptions(max_iters=5000))
        assert diag.verdict == "diverged_infeasible"
        assert diag.iterations <= 5
        assert not uc_verdict(p.system, p.grid, p.G, p.W, p.ops).holds

    @pytest.mark.parametrize("kind", APPROX_KINDS)
    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.99, 1.5])
    def test_divergence_exits_with_constants_in_G(self, eps, kind):
        # the scalar integrator with G the constants: every control ends at
        # y(T) = y0 = 0, so the target y1 = 1 is out of reach for eps < 1.
        # S vanishes on the kernel of the uniqueness map, but Pi = z_T does
        # not, so every shifted operator is definite: the shifted solves walk
        # out until mu falls below rounding against S and CG sees the kernel
        grid = TimeGrid(1.0, 32)
        G = orthonormalize([np.ones((32, 1))], SignalAmbient(1, grid))
        p = ProblemData(kind=kind, system=scalar_system(), grid=grid, y0=[0.0], y1=[1.0], G=G,
                        epsilon=eps)
        assert not uc_verdict(p.system, p.grid, p.G, p.W, p.ops).holds
        v, diag = minimize(p, SolverOptions(max_iters=5000))
        if eps < 1.0:
            assert diag.verdict == "diverged_infeasible"
            assert diag.iterations <= 5
        else:
            assert (diag.iterations, diag.verdict) == (0, "converged")
            assert np.array_equal(v, p.zero_variable())

    @pytest.mark.parametrize("kind", ["approx", "approx_relaxed"])
    def test_wave_with_W_generator_in_few_outer_steps(self, kind):
        system, _ = make_wave1d(8, (0.3, 0.7), 201)
        grid = TimeGrid(2.5, 64)
        n, m = system.n, system.m
        rng = np.random.default_rng(2)
        decay = 1.0 / np.repeat(np.arange(1, 9), 2)
        y0, y1 = rng.standard_normal(n) * decay, rng.standard_normal(n) * decay
        G = orthonormalize([exponential_profile_signal(grid, rng.uniform(-2, 2),
                                                       rng.standard_normal(m))],
                           SignalAmbient(m, grid))
        W = orthonormalize([exponential_profile_signal(grid, rng.uniform(-2, 2),
                                                       rng.standard_normal(n))],
                           SignalAmbient(n, grid))
        E = orthonormalize([rng.standard_normal(n) for _ in range(2)], VectorAmbient(n))
        p = ProblemData(kind=kind, system=system, grid=grid, y0=y0, y1=y1,
                        epsilon=0.05 * np.linalg.norm(y1), G=G, W=W, E=E,
                        g_star=G.lift([1.0]), w_star=W.lift([1.0]))
        v, diag = minimize(p, SolverOptions(max_iters=20000))
        assert diag.verdict == "converged"
        assert diag.iterations <= 20
        sol = recover_primal(p, v)
        assert sol.residuals.final_state_error <= p.epsilon * (1 + 1e-8)


class TestOneChainPerStep:
    @pytest.mark.parametrize("kind", ["approx", "approx_relaxed", "exact", "null"])
    def test_every_adjoint_solve_has_its_forward_solve(self, kind, monkeypatch):
        # every solve runs inside a transpose chain: one adjoint and one
        # forward solve, with no evaluation-only adjoint solves beside them
        counts = {"adjoint_solve": 0, "forward_solve": 0}
        for name in counts:
            def counted(*args, _name=name, _solve=getattr(functionals, name), **kwargs):
                counts[_name] += 1
                return _solve(*args, **kwargs)
            monkeypatch.setattr(functionals, name, counted)
        p = random_problem(np.random.default_rng(21), kind)
        _, diag = minimize(p)
        assert diag.verdict == "converged"
        assert counts["adjoint_solve"] == counts["forward_solve"] > 1

    @pytest.mark.parametrize("kind", ["exact", "null"])
    def test_exact_and_null_take_two_chains_beside_the_iterations(self, kind, monkeypatch):
        # one chain for the gradient at zero, one per CG iteration and one
        # for the true gradient at the returned point, for every verdict: CG
        # from zero takes that first gradient for its residual.  Below 50
        # iterations no residual refresh adds one
        calls = 0

        def counted(*args, _chain=functionals._transpose_chain, **kwargs):
            nonlocal calls
            calls += 1
            return _chain(*args, **kwargs)

        monkeypatch.setattr(functionals, "_transpose_chain", counted)
        grid = TimeGrid(1.0, 32)
        G = orthonormalize([np.ones((32, 1))], SignalAmbient(1, grid))
        # u in G-perp has mean 0, so y(T) = y0: y1 = 1 from 0 is unreachable, as is 0 from 1
        data = {"y0": [0.0], "y1": [1.0]} if kind == "exact" else {"y0": [1.0]}
        infeasible = ProblemData(kind=kind, system=scalar_system(), grid=grid, G=G, **data)
        cases = [(random_problem(np.random.default_rng(seed), kind), SolverOptions())
                 for seed in range(6)]
        cases += [(cases[0][0], SolverOptions(max_iters=2)), (infeasible, SolverOptions())]
        verdicts = set()
        for p, opts in cases:
            calls = 0
            _, diag = minimize(p, opts)
            verdicts.add(diag.verdict)
            assert diag.iterations < 50
            assert calls == diag.iterations + 2
        assert verdicts == {"converged", "max_iters", "diverged_infeasible"}


class TestCertifyInfeasibility:
    # the witness blocks (z_T, g, w) have sizes n, p_g and the rest
    def test_hand_radius(self):
        r = _infeasibility_radius(np.array([1.0, 1.0]), 1, 1)
        assert r == pytest.approx(2.0, abs=1e-12)

    def test_zero_final_datum_gives_infinity(self):
        r = _infeasibility_radius(np.array([0.0, 0.0, 0.0, 1.0, 0.0]), 3, 1)
        assert math.isinf(r)

    def test_degree_one_homogeneity(self):
        rng = np.random.default_rng(19)
        w = np.concatenate([rng.normal(size=3), rng.normal(size=1), rng.normal(size=1)])
        r1 = _infeasibility_radius(w, 3, 1)
        r2 = _infeasibility_radius(2.0 * w, 3, 1)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


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
