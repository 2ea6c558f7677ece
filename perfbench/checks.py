"""Output checks of one `pccontrol solve`, computed apart from the program.

The model is rebuilt here from its definition: Dirichlet sine modes on
(0, 1), control through composite 4-point Gauss-Legendre rows on the window
omega with the weights absorbed, heat A = -diag(lambda_k), and wave blocks
[[0, s_k], [-s_k, 0]] with the control on the velocity.  Propagation over
one interval uses closed forms (exp(-lambda dt) per heat mode, 2x2
rotations per wave mode), not a matrix exponential, and subspace bases are
orthonormalized by a QR factorization, not by Gram-Schmidt.  Nothing here
imports pccontrol.

Each check compares the CSV files and report.json of one operation with the
configuration that produced it; `check_operation` returns the list of the
checks that failed, empty when all hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tolerances, set from the solver's stopping rule: the dual gradient blocks
# are the primal residuals, and the solver stops when their norm is below
# grad_tol (1e-9).  Residuals of 3e-10 to 5e-10 are typical; the checks
# allow 1e-7 times the data scale (about 1e-6).
RESIDUAL_RTOL = 1e-7
# The closed forms and the program's matrix exponentials agree to about
# 1e-15 relative to the largest state entry.
SIMULATION_RTOL = 1e-9
# Relative slack on the epsilon balls of the approximate kinds (the final
# error sits on the ball's boundary to about 1e-10 relative).
EPS_SLACK = 1e-8
# Singular values of the two assemblies agree to about 1e-14 relative.
SIGMA_RTOL = 1e-8
SIGMA_ATOL_SHARE = 1e-12


@dataclass(frozen=True)
class Model:
    """A, B and the closed-form one-interval propagators."""

    family: str
    B: np.ndarray  # (n, m)
    rates: np.ndarray  # lambda_k (heat) or s_k = sqrt(lambda_k) (wave)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def step_matrices(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """E = exp(A dt), Phi = int_0^dt exp(A r) dr, Psi = (1/dt) int int exp(A r)."""
        if self.family == "heat1d":
            x = self.rates * dt
            phi = -np.expm1(-x) / self.rates
            # (dt - phi) / lambda / dt, with the series for small x
            series = dt * (0.5 - x / 6.0 + x * x / 24.0)
            psi = np.where(x > 1e-3, (dt - phi) / (self.rates * dt), series)
            return np.diag(np.exp(-x)), np.diag(phi), np.diag(psi)
        n = self.n
        E, Phi, Psi = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
        for k, s in enumerate(self.rates):
            c, sn = math.cos(s * dt), math.sin(s * dt)
            i = slice(2 * k, 2 * k + 2)
            E[i, i] = [[c, sn], [-sn, c]]
            one_minus_c = 2.0 * math.sin(0.5 * s * dt) ** 2
            Phi[i, i] = [[sn / s, one_minus_c / s], [-one_minus_c / s, sn / s]]
            a = one_minus_c / (s * s * dt)
            b = (dt - sn / s) / (s * dt)
            Psi[i, i] = [[a, b], [-b, a]]
        return E, Phi, Psi


def sine_control_rows(n_modes: int, omega, n_quad: int) -> np.ndarray:
    """Rows sqrt(w_q) * sqrt(2) sin(k pi x_q) over the window's Gauss nodes."""
    a, b = float(omega[0]), float(omega[1])
    cells = max(n_modes, int(round((n_quad - 1) * (b - a) / 4.0)))
    ref_x, ref_w = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(a, b, cells + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * ref_x).ravel()
    w = (half[:, None] * ref_w).ravel()
    k = np.arange(1, n_modes + 1)
    return math.sqrt(2.0) * np.sin(np.outer(k, math.pi * x)) * np.sqrt(w)


def model_of(config: dict) -> Model:
    spec = config["model"]
    n_modes = spec["n_modes"]
    rows = sine_control_rows(n_modes, spec.get("omega", [0.3, 0.7]), spec.get("n_quad", 201))
    lam = (np.arange(1, n_modes + 1) * math.pi) ** 2
    if spec["family"] == "heat1d":
        return Model("heat1d", rows, lam)
    if spec["family"] != "wave1d":
        raise ValueError(f"no closed form for family {spec['family']!r}")
    B = np.zeros((2 * n_modes, rows.shape[1]))
    B[1::2] = rows
    return Model("wave1d", B, np.sqrt(lam))


def forward(E, Phi, Psi, dt, y0, c) -> tuple[np.ndarray, np.ndarray]:
    """Node values and exact interval averages of y' = A y + c, c piecewise constant."""
    nodes = np.empty((c.shape[0] + 1, y0.shape[0]))
    nodes[0] = y0
    for k in range(c.shape[0]):
        nodes[k + 1] = E @ nodes[k] + Phi @ c[k]
    return nodes, nodes[:-1] @ (Phi.T / dt) + c @ Psi.T


def backward(E, Phi, Psi, dt, z_T, f) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and interval averages of z' + A^T z = f from z(T) = z_T."""
    nodes = np.empty((f.shape[0] + 1, z_T.shape[0]))
    nodes[-1] = z_T
    for k in range(f.shape[0] - 1, -1, -1):
        nodes[k] = E.T @ nodes[k + 1] - Phi.T @ f[k]
    return nodes, nodes[1:] @ (Phi / dt) - f @ Psi


def profile_signal(entry: dict, T: float, N: int) -> np.ndarray:
    """Exact interval averages of exp(rate t) * vector, the only generator form used."""
    dt = T / N
    r = float(entry["rate"])
    t = np.arange(N) * dt
    prof = np.ones(N) if r == 0.0 else np.exp(r * t) * np.expm1(r * dt) / (r * dt)
    return prof[:, None] * np.asarray(entry["vector"], dtype=float)[None, :]


def signal_basis(entries: list, dim: int, T: float, N: int) -> np.ndarray:
    """Orthonormal basis (p, N, dim) of the span, dt-weighted; Gram-Schmidt order and signs."""
    if not entries:
        return np.zeros((0, N, dim))
    dt = T / N
    X = np.stack([profile_signal(e, T, N).ravel() for e in entries], axis=1) * math.sqrt(dt)
    Q, R = np.linalg.qr(X)
    Q = Q * np.sign(np.diag(R))
    return (Q.T / math.sqrt(dt)).reshape(len(entries), N, dim)


def coords(basis: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    return dt * np.tensordot(basis, x, axes=([1, 2], [0, 1])) if basis.size else np.zeros(0)


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def uc_map(model: Model, T: float, N: int, G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(z_T, g, w) -> sqrt(dt) (B^T z - g), z driven backward by the source w."""
    dt = T / N
    E, Phi, Psi = model.step_matrices(dt)
    n = model.n
    cols = []
    for i in range(n):
        _, avg = backward(E, Phi, Psi, dt, np.eye(n)[i], np.zeros((N, n)))
        cols.append((avg @ model.B).ravel())
    cols += [-g.ravel() for g in G]
    for w in W:
        _, avg = backward(E, Phi, Psi, dt, np.zeros(n), w)
        cols.append((avg @ model.B).ravel())
    return math.sqrt(dt) * np.column_stack(cols)


def _sigma_agrees(mine: float, reported, scale: float) -> bool:
    if not isinstance(reported, (int, float)):
        return False
    return abs(mine - reported) <= SIGMA_RTOL * mine + SIGMA_ATOL_SHARE * scale


def check_certificates(config: dict, report: dict, model: Model) -> list[str]:
    """uc and final_state sigma_min against the benchmark's own maps; and
    the general_final constant at least the final_state constant."""
    failed = []
    T, N = config["grid"]["T"], config["grid"]["n_steps"]
    prob = config["problem"]
    G = signal_basis(prob.get("G", []), model.B.shape[1], T, N)
    W = signal_basis(prob.get("W", []), model.n, T, N)
    checks = report.get("checks", {})
    if config["checks"].get("uc"):
        s = np.linalg.svd(uc_map(model, T, N, G, W), compute_uv=False)
        if not _sigma_agrees(float(s[-1]), checks.get("uc", {}).get("sigma_min"), float(s[0])):
            failed.append("uc sigma_min")
    obs = checks.get("observability", {})
    if "final_state" in obs:
        theta = uc_map(model, T, N, G[:0], W[:0])
        s = np.linalg.svd(theta, compute_uv=False)
        if not _sigma_agrees(float(s[-1]), obs["final_state"].get("sigma_min"), float(s[0])):
            failed.append("final_state sigma_min")
        if "general_final" in obs:
            c_gen = obs["general_final"].get("constant")
            c_fin = obs["final_state"].get("constant")
            if not (isinstance(c_gen, (int, float)) and isinstance(c_fin, (int, float))
                    and c_gen >= c_fin * (1.0 - SIGMA_RTOL)):
                failed.append("general_final constant below final_state constant")
    return failed


def check_operation(config: dict, out_dir: Path, exit_code: int) -> list[str]:
    """Names of the checks the operation's outputs fail (empty list: all hold)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads((out_dir / "report.json").read_text())
        traj = read_csv(out_dir / "trajectory.csv")
        ctrl = read_csv(out_dir / "control.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    failed = []
    solve = report.get("solve", {})
    if solve.get("verdict") != "converged":
        failed.append(f"verdict {solve.get('verdict')!r}")
    model = model_of(config)
    prob = config["problem"]
    kind = prob["kind"]
    T, N = config["grid"]["T"], config["grid"]["n_steps"]
    dt = T / N
    n, m = model.n, model.B.shape[1]
    if traj.shape != (N + 1, n + 1) or ctrl.shape != (N, m + 1):
        return failed + ["csv shapes"]
    if np.max(np.abs(traj[:, 0] - np.linspace(0.0, T, N + 1))) > 1e-12 * T or np.max(
        np.abs(ctrl[:, 0] - (np.arange(N) + 0.5) * dt)
    ) > 1e-12 * T:
        failed.append("time columns")
    u, y_csv = ctrl[:, 1:], traj[:, 1:]
    y0 = np.asarray(prob["y0"], dtype=float)
    E, Phi, Psi = model.step_matrices(dt)
    nodes, avg = forward(E, Phi, Psi, dt, y0, u @ model.B.T)
    scale = 1.0 + float(np.max(np.abs(nodes)))
    if float(np.max(np.abs(nodes - y_csv))) > SIMULATION_RTOL * scale:
        failed.append("trajectory.csv differs from the re-simulated control.csv")

    # Data scale as in the solver's divergence bound, for relative tolerances.
    y1 = np.asarray(prob["y1"], dtype=float) if "y1" in prob else np.zeros(n)
    G = signal_basis(prob.get("G", []), m, T, N)
    W = signal_basis(prob.get("W", []), n, T, N)
    g_star = np.asarray(prob.get("g_star", [0.0] * len(G)), dtype=float)
    w_star = np.asarray(prob.get("w_star", [0.0] * len(W)), dtype=float)
    data = 1.0 + sum(float(np.linalg.norm(x)) for x in (y0, y1, g_star, w_star))
    tol = RESIDUAL_RTOL * data
    final_err = nodes[-1] - y1
    if kind in ("exact", "null"):
        if np.linalg.norm(final_err) > tol:
            failed.append("final state")
    else:
        eps = float(prob["epsilon"])
        if np.linalg.norm(final_err) > eps * (1.0 + EPS_SLACK) + tol:
            failed.append("final state outside the epsilon ball")
        E_basis = np.linalg.qr(np.asarray(prob["E"], dtype=float).T)[0]
        if np.linalg.norm(E_basis.T @ final_err) > tol:
            failed.append("P_E of the final error")
    if np.linalg.norm(coords(G, u, dt) - g_star) > tol:
        failed.append("P_G u = g*")
    w_err = np.linalg.norm(coords(W, avg, dt) - w_star)
    if kind == "approx_relaxed":
        if w_err > float(prob["epsilon"]) * (1.0 + EPS_SLACK) + tol:
            failed.append("|P_W y - w*| <= epsilon")
    elif w_err > tol:
        failed.append("P_W y = w*")
    if config["checks"].get("observability"):
        failed += check_certificates(config, report, model)
    return failed
