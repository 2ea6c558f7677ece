"""Independent oracles used by the test suite.

The dense KKT oracle assembles the discretized primal program

    min 1/2 int ||y||^2 + 1/2 int ||u||^2
    s.t. dynamics, final-state condition, P_G u = g*, P_W y_avg = w*

directly from the step matrices (block-Toeplitz impulse responses, not the
library's forward solver) and solves its optimality system by a dense
factorization.  The dual-method control must agree with it to solver
tolerance because the discretization keeps the forward/adjoint pairing
exact.

The dual functional (:func:`eval_smooth`, :func:`eval_J`) and the pairing
identity (:func:`duality_residual`) are evaluated here from their
definitions; the library itself only differentiates the functional.
"""

from __future__ import annotations

import math

import numpy as np

from pccontrol import (
    ProblemData,
    SignalAmbient,
    TimeGrid,
    adjoint_solve,
    apply_quadratic,
    control_observation,
    forward_solve,
    make_ode,
    nonsmooth_value,
    orthonormalize,
    signal_inner,
)
from pccontrol.solvers import _shift


def duality_residual(system, ops, y0, u, z_T, f) -> float:
    """Defect of the forward/adjoint pairing identity.

    Returns <y(T), z_T> - <y0, z(0)> - int <y, f> - int <u, B* z>, all time
    integrals evaluated with exact interval averages.  For the transpose
    scheme of :mod:`pccontrol.core` this vanishes up to roundoff for every
    input.
    """
    y = forward_solve(system, ops, y0, u)
    z = adjoint_solve(system, ops, z_T, f)
    dt = ops.dt
    return (
        float(y.final @ np.asarray(z_T, dtype=float))
        - float(np.asarray(y0, dtype=float) @ z.initial)
        - signal_inner(y.interval_averages, f, dt)
        - signal_inner(u, control_observation(system, z), dt)
    )


def eval_smooth(p: ProblemData, v: np.ndarray) -> float:
    """Smooth part of the dual functional (everything but the eps norms)."""
    z_T, g_coef, w_coef, f = p.blocks(v)
    dt = p.grid.dt
    z = adjoint_solve(p.system, p.ops, z_T, f)
    q = control_observation(p.system, z)
    g = p.G.lift(g_coef)
    w = p.W.lift(w_coef)
    val = 0.5 * signal_inner(q + g, q + g, dt)
    val += 0.5 * signal_inner(f + w, f + w, dt)
    val += float(p.y0 @ z.initial)
    val -= float(p.y1 @ z_T)
    val += signal_inner(q, p.g_star, dt)
    val += signal_inner(f, p.w_star, dt)
    return val


def eval_J(p: ProblemData, v: np.ndarray) -> float:
    """Full dual functional for the problem's kind."""
    return eval_smooth(p, v) + nonsmooth_value(p, v)


def impulse_responses(ops, B: np.ndarray, n_steps: int):
    """Interval-average and final-state responses to a unit control interval.

    avg[j] is the (n, m) map from the control value on interval 0 to the
    trajectory average on interval j; fin[j] maps it to the state at the
    final node when the impulse sits j intervals before the end.
    """
    E, Phi, Psi, dt = ops.E, ops.Phi, ops.Psi, ops.dt
    PhiB = Phi @ B
    avg = [Psi @ B]
    node = PhiB.copy()
    for _ in range(1, n_steps):
        avg.append((Phi / dt) @ node)
        node = E @ node
    fin = [PhiB]
    for _ in range(1, n_steps):
        fin.append(E @ fin[-1])
    return avg, fin


def loop_forward_nodes(system, ops, y0, u) -> np.ndarray:
    """Forward node values y_{k+1} = E y_k + Phi B u_k, one step at a time."""
    nodes = np.empty((u.shape[0] + 1, system.n))
    nodes[0] = y0
    for k in range(u.shape[0]):
        nodes[k + 1] = ops.E @ nodes[k] + ops.Phi @ (system.B @ u[k])
    return nodes


def loop_adjoint_nodes(ops, z_T, f) -> np.ndarray:
    """Backward node values z_k = E^T z_{k+1} - Phi^T f_k, one step at a time."""
    nodes = np.empty((f.shape[0] + 1, f.shape[1]))
    nodes[-1] = z_T
    for k in range(f.shape[0] - 1, -1, -1):
        nodes[k] = ops.E.T @ nodes[k + 1] - ops.Phi.T @ f[k]
    return nodes


def loop_observation(system, ops, z_T, f):
    """sqrt(dt)-scaled B* z signal (flattened) and z(0) of one adjoint solve."""
    z = adjoint_solve(system, ops, z_T, f)
    return math.sqrt(ops.dt) * (z.interval_averages @ system.B).ravel(), z.initial


def loop_uc_map(system, ops, G_basis, W_basis) -> np.ndarray:
    """(z_T, g, w) -> B* z - g over the horizon of the bases, one adjoint
    solve per column."""
    n, N = system.n, W_basis.shape[1]
    cols = [loop_observation(system, ops, e, np.zeros((N, n)))[0] for e in np.eye(n)]
    cols += [-math.sqrt(ops.dt) * g.ravel() for g in G_basis]
    cols += [loop_observation(system, ops, np.zeros(n), w)[0] for w in W_basis]
    return np.column_stack(cols)


def loop_theta(system, ops, n_steps: int) -> np.ndarray:
    """The homogeneous observation Theta: z_T -> sqrt(dt)-scaled B* z, one
    unit z_T and one backward step z <- E^T z at a time, the interval
    average on interval k being (Phi^T/dt) z_{k+1}.  Plain coordinates,
    (N*m, n): an orthogonal transform of the rows away from the output
    frame, so the singular values are those of the framed Theta."""
    H = math.sqrt(ops.dt) * system.B.T @ (ops.Phi.T / ops.dt)
    cols = []
    for z in np.eye(system.n):
        rows = []
        for _ in range(n_steps):  # from the last interval back to the first
            rows.append(H @ z)
            z = ops.E.T @ z
        cols.append(np.concatenate(rows[::-1]))
    return np.column_stack(cols)


def loop_invisible_final_data(system, ops, n_steps: int) -> np.ndarray:
    """Orthonormal basis (n, k) of the final data z_T invisible to the
    homogeneous observation: B* z = 0 on every interval and z(0) = 0.  The
    map z_T -> (B* z on each interval, z(0)) is assembled one unit z_T and
    one backward step at a time (interval averages (Phi^T/dt) z_{k+1});
    its kernel is read off a full SVD at numpy's default rank."""
    n = system.n
    cols = []
    for e in np.eye(n):
        nodes = loop_adjoint_nodes(ops, e, np.zeros((n_steps, n)))
        signal = [system.B.T @ (ops.Phi.T / ops.dt) @ z for z in nodes[1:]]
        cols.append(np.concatenate(signal + [nodes[0]]))
    M = np.column_stack(cols)
    return np.linalg.svd(M)[2][np.linalg.matrix_rank(M):].T


def loop_general_maps(system, ops, G, W):
    """The general observation map M over (z_T, g, w, f) and the measured
    map D over (z(0), g, w, f), one adjoint solve per column; f is in
    sqrt(dt)-scaled coordinates."""
    n, m, N = system.n, system.m, G.basis.shape[1]
    sqrt_dt = math.sqrt(ops.dt)
    n_cols = n + G.dim + W.dim + n * N
    M = np.zeros((N * m + N * n, n_cols))
    D = np.zeros((n_cols, n_cols))
    for i in range(n):
        M[:N * m, i], D[:n, i] = loop_observation(system, ops, np.eye(n)[i], np.zeros((N, n)))
    for j in range(G.dim):
        M[:N * m, n + j] = sqrt_dt * G.basis[j].ravel()
    for j in range(W.dim):
        M[N * m:, n + G.dim + j] = sqrt_dt * W.basis[j].ravel()
    for col in range(n, n_cols):
        D[col, col] = 1.0
    for k in range(N):
        for i in range(n):
            col = n + G.dim + W.dim + k * n + i
            f = np.zeros((N, n))
            f[k, i] = 1.0 / sqrt_dt
            M[:N * m, col], D[:n, col] = loop_observation(system, ops, np.zeros(n), f)
            M[N * m:, col] = sqrt_dt * f.ravel()
    return M, D


def loop_weak_stacked_map(W, G, model, node_vals, h):
    """The weak-form stacked restriction map, one basis element and one
    interior time hat at a time: rows (time hat, interior space hat), W
    columns (trapezoid restriction pairing) then G columns (d_t + Laplace
    pairing on linearly interpolated node values)."""
    grid = W.ambient.grid
    N, dt = grid.n_steps, grid.dt
    n_masked = node_vals.shape[0]
    xq = model.x_omega
    x = model.x_full[model.mask]
    left = np.clip(np.searchsorted(xq, x) - 1, 0, xq.shape[0] - 2)
    frac = (x - xq[left]) / (xq[left + 1] - xq[left])
    inv_sqrt_w = 1.0 / np.sqrt(model.w_omega)
    interp = np.zeros((n_masked, xq.shape[0]))
    interp[np.arange(n_masked), left] = (1.0 - frac) * inv_sqrt_w[left]
    interp[np.arange(n_masked), left + 1] = frac * inv_sqrt_w[left + 1]
    cols = []
    for j in range(W.dim):
        w_nodes = W.basis[j] @ node_vals.T
        rows = []
        for r in range(1, N):
            pair = 0.5 * dt * h * (w_nodes[r - 1] + w_nodes[r])
            rows.append(pair[1:-1])
        cols.append(np.concatenate(rows))
    for j in range(G.dim):
        g_nodes = G.basis[j] @ interp.T
        lap = np.zeros_like(g_nodes)
        lap[:, 1:-1] = (g_nodes[:, :-2] - 2.0 * g_nodes[:, 1:-1] + g_nodes[:, 2:]) / h
        rows = []
        for r in range(1, N):
            time_deriv = h * (g_nodes[r] - g_nodes[r - 1])
            stiffness = 0.5 * dt * (lap[r - 1] + lap[r])
            rows.append((time_deriv + stiffness)[1:-1])
        cols.append(np.concatenate(rows))
    return np.column_stack(cols)


def primal_matrices(p: ProblemData):
    """Dense maps u -> (trajectory averages, final state) plus free responses."""
    n, m, N = p.system.n, p.system.m, p.grid.n_steps
    ops = p.ops
    avg, fin = impulse_responses(ops, p.system.B, N)
    L = np.zeros((N * n, N * m))
    Theta = np.zeros((n, N * m))
    for k in range(N):  # impulse on interval k
        for j in range(k, N):
            L[j * n:(j + 1) * n, k * m:(k + 1) * m] = avg[j - k]
        Theta[:, k * m:(k + 1) * m] = fin[N - 1 - k]
    free_nodes = [np.asarray(p.y0, dtype=float)]
    for _ in range(N):
        free_nodes.append(ops.E @ free_nodes[-1])
    h = np.concatenate([(ops.Phi / ops.dt) @ free_nodes[j] for j in range(N)])
    theta0 = free_nodes[-1]
    return L, Theta, h, theta0


def kkt_control(p: ProblemData) -> np.ndarray:
    """Solve the equality-constrained quadratic program for the control."""
    if p.kind not in ("exact", "null"):
        raise ValueError("the KKT oracle covers the exact and null kinds")
    n, m, N = p.system.n, p.system.m, p.grid.n_steps
    dt = p.grid.dt
    L, Theta, h, theta0 = primal_matrices(p)
    Q = dt * (L.T @ L + np.eye(N * m))
    c = dt * (L.T @ h)
    target = p.y1 if p.kind == "exact" else np.zeros(n)
    rows = [Theta]
    rhs = [target - theta0]
    if p.G.dim:
        G_flat = p.G.basis.reshape(p.G.dim, -1)
        rows.append(dt * G_flat)
        rhs.append(p.G.coords(p.g_star))
    if p.W.dim:
        W_flat = p.W.basis.reshape(p.W.dim, -1)
        rows.append(dt * (W_flat @ L))
        rhs.append(p.W.coords(p.w_star) - dt * (W_flat @ h))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    k = A.shape[0]
    kkt = np.block([[Q, A.T], [A, np.zeros((k, k))]])
    sol = np.linalg.solve(kkt, np.concatenate([-c, b]))
    return sol[:N * m].reshape(N, m)


def random_system(rng: np.random.Generator, n: int, m: int):
    A = 0.5 * rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    return make_ode(A, B)


def random_signal_subspace(rng, dim: int, grid: TimeGrid, p: int):
    raw = [rng.normal(size=(grid.n_steps, dim)) for _ in range(p)]
    return orthonormalize(raw, SignalAmbient(dim, grid))


def random_problem(rng, kind: str, n: int = 3, m: int = 2, n_steps: int = 16,
                   horizon: float = 1.0, p_g: int = 1, p_w: int = 1):
    system = random_system(rng, n, m)
    grid = TimeGrid(horizon, n_steps)
    G = random_signal_subspace(rng, m, grid, p_g)
    W = random_signal_subspace(rng, n, grid, p_w)
    kwargs = dict(
        system=system,
        grid=grid,
        y0=rng.normal(size=n),
        G=G,
        W=W,
        g_star=G.lift(0.3 * rng.normal(size=G.dim)),
        w_star=W.lift(0.3 * rng.normal(size=W.dim)),
    )
    if kind != "null":
        kwargs["y1"] = rng.normal(size=n)
    if kind in ("approx", "approx_relaxed"):
        kwargs["epsilon"] = 0.05 + 0.1 * rng.random()
        from pccontrol import VectorAmbient

        kwargs["E"] = orthonormalize([rng.normal(size=n)], VectorAmbient(n))
    return ProblemData(kind=kind, **kwargs)


def plain_cg(p: ProblemData, b: np.ndarray, x0: np.ndarray, tol: float, max_iters: int,
             mu=()):
    """Unpreconditioned CG on (S + sum_i mu_i Pi_i) x = b, with the stopping
    and curvature rules of ``solvers._cg_core`` in the Euclidean norm;
    returns what ``_cg_core`` returns."""
    held = [m if m == math.inf else 0.0 for m in mu]

    def P(x):
        return _shift(p, x, x, held) if math.inf in held else x

    def apply_S(x):
        Sx = apply_quadratic(p, x)
        return _shift(p, Sx, x, mu) if mu else Sx

    b = P(b)
    x = P(x0).copy()
    r = b - apply_S(x)
    rr = r @ r
    if math.sqrt(rr) <= tol:
        return P(x), math.sqrt(rr), 0, "converged", 0.0
    pdir = r.copy()
    curvature_scale = 0.0
    verdict = "max_iters"
    iters = 0
    for it in range(1, max_iters + 1):
        iters = it
        Sp = apply_S(pdir)
        pSp = pdir @ Sp
        pp = pdir @ pdir
        if pSp > 0.0:
            curvature_scale = max(curvature_scale, pSp / pp)
        if pSp <= 1e-14 * pp * max(curvature_scale, 1e-300):
            verdict = "diverged_infeasible"
            break
        alpha = rr / pSp
        x = x + alpha * pdir
        r = b - apply_S(x) if it % 50 == 0 else r - alpha * Sp
        rr_new = r @ r
        if math.sqrt(rr_new) <= tol:
            rr = rr_new
            verdict = "converged"
            break
        beta = rr_new / rr
        rr = rr_new
        pdir = r + beta * pdir
    return P(x), math.sqrt(rr), iters, verdict, curvature_scale
