"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math

import numpy as np

from pccontrol import (
    ProblemData,
    SignalAmbient,
    SolverOptions,
    TimeGrid,
    VectorAmbient,
    adjoint_solve,
    assemble_uc_map,
    build_propagator,
    certify_infeasibility,
    control_observation,
    duality_residual,
    dual_dot,
    eval_smooth,
    exponential_profile_signal,
    forward_solve,
    grad_smooth,
    make_heat1d,
    make_ode,
    make_wave1d,
    minimize,
    observability_constant,
    orthonormalize,
    recover_primal,
    signal_inner,
    spectral_uc_classify,
    two_time_check,
    uc_check,
)
from pccontrol.functionals import DualVariable

from oracles import kkt_control, random_problem


def record(number: int, ok: bool, label: str):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def heat_exact_setup(n_steps=64):
    """heat1d(8 modes), 2-dim G and W with decoupled exponential rates."""
    system, model = make_heat1d(8, (0.3, 0.7), 201)
    grid = TimeGrid(1.0, n_steps)
    G = orthonormalize(
        [
            exponential_profile_signal(grid, 2.0, system.B.T @ np.eye(8)[0]),
            exponential_profile_signal(grid, 3.0, system.B.T @ np.eye(8)[1]),
        ],
        SignalAmbient(system.m, grid),
    )
    W = orthonormalize(
        [
            exponential_profile_signal(grid, 0.0, np.eye(8)[0]),
            exponential_profile_signal(grid, -1.0, np.eye(8)[1]),
        ],
        SignalAmbient(8, grid),
    )
    return system, model, grid, G, W


def test_criterion_01_analytic_null_control():
    system = make_ode([[0.0]], [[1.0]])
    grid = TimeGrid(1.0, 512)
    p = ProblemData(kind="null", system=system, grid=grid, y0=[1.0])
    v, diag = minimize(p)  # default grad_tol 1e-9
    sol = recover_primal(p, v)
    t_mid = grid.midpoints()
    u_ref = -np.cosh(1.0 - t_mid) / math.sinh(1.0)
    sup_err = float(np.max(np.abs(sol.u[:, 0] - u_ref)))
    ok = (
        diag.verdict == "converged"
        and sup_err <= 1e-4
        and sol.residuals.final_state_error <= 1e-8
    )
    record(1, ok, f"analytic null control: sup|u - u*| = {sup_err:.2e}, "
                  f"|y(T)| = {sol.residuals.final_state_error:.2e}")


def test_criterion_02_duality_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 4))
        n_steps = int(rng.integers(2, 65))
        system = make_ode(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
        grid = TimeGrid(float(rng.uniform(0.2, 3.0)), n_steps)
        ops = build_propagator(system, grid)
        y0 = rng.normal(size=n)
        u = rng.normal(size=(n_steps, m))
        z_T = rng.normal(size=n)
        f = rng.normal(size=(n_steps, n))
        res = duality_residual(system, ops, y0, u, z_T, f)
        y = forward_solve(system, ops, y0, u)
        z = adjoint_solve(system, ops, z_T, f)
        scale = (
            abs(float(y.final @ z_T))
            + abs(float(y0 @ z.initial))
            + abs(signal_inner(y.interval_averages, f, grid.dt))
            + abs(signal_inner(u, control_observation(system, z), grid.dt))
            + 1e-300
        )
        worst = max(worst, abs(res) / scale)
    ok = worst <= 1e-12
    record(2, ok, f"duality identity on 100 random systems: worst |res|/scale = {worst:.2e}")


def test_criterion_03_gradient_check():
    rng = np.random.default_rng(3)
    worst = 0.0
    for kind in ("approx", "approx_relaxed", "exact", "null"):
        for _ in range(5):
            p = random_problem(rng, kind)
            n, p_g, p_w, N = p.dims
            v = DualVariable(rng.normal(size=n), rng.normal(size=p_g),
                             rng.normal(size=p_w), rng.normal(size=(N, n)))
            d = DualVariable(rng.normal(size=n), rng.normal(size=p_g),
                             rng.normal(size=p_w), rng.normal(size=(N, n)))
            grad = grad_smooth(p, v)
            analytic = dual_dot(grad, d, p.grid.dt)
            h = 1e-5
            fd = (eval_smooth(p, v + h * d) - eval_smooth(p, v - h * d)) / (2 * h)
            worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-12))
    ok = worst <= 1e-6
    record(3, ok, f"smooth-part gradient vs central differences on 20 problems: "
                  f"worst rel err = {worst:.2e}")


def test_criterion_04_exact_constraint_exactness():
    system, _, grid, G, W = heat_exact_setup()
    rep = uc_check(assemble_uc_map(system, grid, G, W))
    rng = np.random.default_rng(4)
    p = ProblemData(
        kind="exact", system=system, grid=grid,
        y0=rng.normal(size=8), y1=0.3 * rng.normal(size=8),
        G=G, W=W,
        g_star=G.lift([0.2, -0.1]), w_star=W.lift([0.1, 0.05]),
    )
    v, diag = minimize(p, SolverOptions(grad_tol=1e-10, max_iters=20000))
    sol = recover_primal(p, v)
    r = sol.residuals
    ok = (
        rep.holds
        and G.dim == 2 and W.dim == 2
        and diag.verdict == "converged"
        and r.proj_u_error <= 1e-7
        and r.proj_y_error <= 1e-7
        and r.final_state_error <= 1e-6
    )
    record(4, ok, f"exact control on heat1d: |P_G u - g*| = {r.proj_u_error:.2e}, "
                  f"|P_W y - w*| = {r.proj_y_error:.2e}, |y(T) - y1| = {r.final_state_error:.2e}")


def test_criterion_05_approximate_contract():
    system, _, grid, G, W = heat_exact_setup()
    E = orthonormalize([np.eye(8)[0], np.eye(8)[1], np.eye(8)[2]], VectorAmbient(8))
    rng = np.random.default_rng(5)
    y0 = rng.normal(size=8)
    y1 = 0.3 * rng.normal(size=8)
    eps = 1e-2
    results = {}
    for kind in ("approx", "approx_relaxed"):
        p = ProblemData(
            kind=kind, system=system, grid=grid, y0=y0, y1=y1, epsilon=eps,
            G=G, W=W, E=E,
            g_star=G.lift([0.2, -0.1]), w_star=W.lift([0.1, 0.05]),
        )
        v, diag = minimize(p, SolverOptions(grad_tol=1e-10, max_iters=50000))
        sol = recover_primal(p, v)
        results[kind] = (diag, sol.residuals)
    d1, r1 = results["approx"]
    d2, r2 = results["approx_relaxed"]
    ok = (
        E.dim == 3
        and d1.verdict == "converged" and d2.verdict == "converged"
        and r1.final_state_error <= eps + 1e-9
        and r1.proj_E_error <= 1e-8
        and r2.final_state_error <= eps + 1e-9
        and r2.proj_E_error <= 1e-8
        and r2.proj_y_error <= eps + 1e-9
    )
    record(5, ok, f"approximate control: |y(T)-y1| = {r1.final_state_error:.6e} (eps + 1e-9), "
                  f"|P_E(y(T)-y1)| = {r1.proj_E_error:.2e}, "
                  f"relaxed |P_W y - w*| = {r2.proj_y_error:.6e}")


def test_criterion_06_kkt_cross_validation():
    rng = np.random.default_rng(6)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 10 and attempts < 200:
        attempts += 1
        kind = ("exact", "null")[checked % 2]
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        n_steps = int(rng.integers(12, 33))
        if n * n_steps > 2000:
            continue
        p = random_problem(rng, kind, n=n, m=m, n_steps=n_steps)
        rep = uc_check(assemble_uc_map(p.system, p.grid, p.G, p.W, ops=p.ops))
        if not rep.holds or rep.sigma_min < 1e-3:
            continue
        v, diag = minimize(p, SolverOptions(grad_tol=1e-11, max_iters=20000))
        if diag.verdict != "converged":
            continue
        u = recover_primal(p, v).u
        u_ref = kkt_control(p)
        rel = float(np.linalg.norm(u - u_ref) / max(np.linalg.norm(u_ref), 1e-300))
        worst = max(worst, rel)
        checked += 1
    ok = checked == 10 and worst <= 1e-6
    record(6, ok, f"dual control vs dense KKT on {checked} certified problems: "
                  f"worst rel diff = {worst:.2e}")


def test_criterion_07_infeasibility_detection():
    system = make_ode([[0.0]], [[1.0]])
    grid = TimeGrid(1.0, 64)
    G = orthonormalize([np.ones((64, 1))], SignalAmbient(1, grid))
    W = orthonormalize([], SignalAmbient(1, grid))
    rep = uc_check(assemble_uc_map(system, grid, G, W), block_dims=(1, 1, 0))
    p = ProblemData(kind="exact", system=system, grid=grid, y0=[0.0], y1=[1.0], G=G)
    _, diag = minimize(p)
    radius = certify_infeasibility((np.array([1.0]), np.array([1.0]), np.zeros(0)))
    ok = (
        rep.sigma_min <= 1e-12
        and diag.verdict == "diverged_infeasible"
        and abs(radius - 2.0) <= 1e-10
    )
    record(7, ok, f"constants-in-G instance: sigma_min = {rep.sigma_min:.2e}, "
                  f"verdict = {diag.verdict}, radius = {radius:.12f}")


def test_criterion_08_two_time_pipeline():
    system, _, _, _, _ = heat_exact_setup()
    grid = TimeGrid(1.0, 128)
    W = orthonormalize(
        [exponential_profile_signal(grid, 0.0, np.eye(8)[0])], SignalAmbient(8, grid)
    )
    G = orthonormalize([], SignalAmbient(system.m, grid))
    rep = two_time_check(system, grid, G, W, 0.5)
    p = ProblemData(kind="null", system=system, grid=grid,
                    y0=np.ones(8) / math.sqrt(8.0), G=G, W=W,
                    w_star=W.lift([0.05]))
    v, diag = minimize(p, SolverOptions(grad_tol=1e-10, max_iters=20000))
    sol = recover_primal(p, v)
    r = sol.residuals
    late = orthonormalize(
        [exponential_profile_signal(grid, 0.0, system.B.T @ np.eye(8)[0],
                                    support=(0.5, 1.0))],
        SignalAmbient(system.m, grid),
    )
    rep_late = two_time_check(system, grid, late, W, 0.5)
    ok = (
        rep.certified
        and diag.verdict == "converged"
        and r.proj_u_error <= 1e-7
        and r.proj_y_error <= 1e-7
        and r.final_state_error <= 1e-6
        and not rep_late.restriction_ok
    )
    record(8, ok, f"two-time reduction: certified = {rep.certified}, null solve "
                  f"|y(T)| = {r.final_state_error:.2e}, late-support restriction_ok = "
                  f"{rep_late.restriction_ok}")


def test_criterion_09_spectral_classification():
    _, model = make_heat1d(8, (0.3, 0.7), 201)
    v1 = spectral_uc_classify(0.0, np.eye(8)[0], model).verdict
    v2 = spectral_uc_classify(math.pi**2, np.eye(8)[0], model).verdict
    v3 = spectral_uc_classify(math.pi**2, np.eye(8)[1], model).verdict
    ok = (
        v1 == "UC_holds_nonresonant"
        and v2 == "UC_holds_no_solution"
        and v3 == "UC_holds_inf_positive"
    )
    record(9, ok, f"stationary classification: {v1}, {v2}, {v3}")


def test_criterion_10_wave_exact_control():
    system, _ = make_wave1d(6, (0.3, 0.7), 201)
    grid = TimeGrid(4.0, 128)
    G = orthonormalize(
        [
            exponential_profile_signal(grid, 0.0, system.B.T @ np.eye(12)[1],
                                       support=(0.0, 1.5)),
            exponential_profile_signal(grid, 0.5, system.B.T @ np.eye(12)[3],
                                       support=(0.0, 1.5)),
        ],
        SignalAmbient(system.m, grid),
    )
    W = orthonormalize([], SignalAmbient(12, grid))
    rep = uc_check(assemble_uc_map(system, grid, G, W))
    rng = np.random.default_rng(10)
    y0 = rng.normal(size=12)
    y0 /= np.linalg.norm(y0)
    target = rng.normal(size=12)
    target /= np.linalg.norm(target)
    p = ProblemData(kind="exact", system=system, grid=grid, y0=y0, y1=target,
                    G=G, W=W, g_star=G.lift([0.05, -0.03]))
    v, diag = minimize(p, SolverOptions(grad_tol=1e-8, max_iters=20000))
    sol = recover_primal(p, v)
    r = sol.residuals
    ok = (
        G.dim == 2
        and rep.holds
        and diag.verdict == "converged"
        and r.final_state_error <= 1e-5
        and r.proj_u_error <= 1e-7
    )
    record(10, ok, f"wave exact control: UC sigma_min = {rep.sigma_min:.2e}, "
                   f"|Y(T) - Y_target| = {r.final_state_error:.2e}, "
                   f"|P_G u - g*| = {r.proj_u_error:.2e}")


def test_criterion_11_observability_constants():
    worst = 0.0
    for horizon in (0.25, 1.0, 4.0):
        system = make_ode([[0.0]], [[1.0]])
        grid = TimeGrid(horizon, 64)
        G = orthonormalize([], SignalAmbient(1, grid))
        W = orthonormalize([], SignalAmbient(1, grid))
        rep = observability_constant(system, grid, G, W, "final_state")
        worst = max(worst, abs(rep.constant_C - 1.0 / math.sqrt(horizon)))
    ok = worst <= 1e-10
    record(11, ok, f"final-state constants equal 1/sqrt(T): worst |C - 1/sqrt(T)| = {worst:.2e}")
