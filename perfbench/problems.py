"""Problem lists of the three workloads, generated from a seed.

Every workload is a fixed-length list of configurations of one size; the
seed draws the data (initial states, targets, subspace generators and
prescribed projections), never the sizes or the kinds.  The configurations
are plain JSON documents in the format `pccontrol solve --config` reads.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("heat-exact", "wave-approx", "certify-dense")

# Workload sizes.  One size per workload, so that every operation of a
# workload does the same amount of work up to the data-dependent number of
# solver iterations.
HEAT_MODES, HEAT_STEPS, HEAT_T = 16, 1024, 1.0
HEAT_KINDS = ("exact", "null", "exact", "null", "exact", "null")
WAVE_MODES, WAVE_STEPS, WAVE_T = 32, 512, 2.5
WAVE_KINDS = ("approx", "approx_relaxed") * 4
WAVE_EPS_SHARE = 0.05  # epsilon as a share of |y1|
CERT_MODES, CERT_STEPS, CERT_T = 6, 96, 1.0
CERT_PROBLEMS = 3
CERT_OBSERVABILITY = ["final_state", "initial_state", "general_final", "general_initial"]
GRAD_TOL = 1e-9
OMEGA = (0.3, 0.7)
N_QUAD = 201


def control_dim(n_modes: int, omega=OMEGA, n_quad: int = N_QUAD) -> int:
    """Number of control coordinates: 4 Gauss nodes on each window cell."""
    a, b = omega
    return 4 * max(n_modes, int(round((n_quad - 1) * (b - a) / 4.0)))


def _floats(x) -> list[float]:
    return [float(v) for v in np.asarray(x).ravel()]


def _control_generator(rng: np.random.Generator, m: int) -> dict:
    """One exponential-profile generator of G, with g*."""
    return {
        "G": [{"rate": float(rng.uniform(-2.0, 2.0)), "vector": _floats(rng.standard_normal(m))}],
        "g_star": [float(rng.standard_normal())],
    }


def _generators(rng: np.random.Generator, n: int, m: int) -> dict:
    """One exponential-profile generator each for G and W, with g*, w*."""
    out = _control_generator(rng, m)
    out["W"] = [{"rate": float(rng.uniform(-2.0, 2.0)), "vector": _floats(rng.standard_normal(n))}]
    out["w_star"] = [float(rng.standard_normal())]
    return out


def _config(family: str, n_modes: int, T: float, n_steps: int, problem: dict, checks: dict) -> dict:
    return {
        "model": {"family": family, "n_modes": n_modes, "omega": list(OMEGA), "n_quad": N_QUAD},
        "grid": {"T": T, "n_steps": n_steps},
        "problem": problem,
        "solver": {"max_iters": 20000, "grad_tol": GRAD_TOL},
        "checks": checks,
    }


def heat_exact(rng: np.random.Generator) -> list[dict]:
    """heat1d, 16 modes, N = 1024, exact and null kinds, uc check.

    Exact targets are reachable: mode k of y1 is a standard normal damped
    by exp(-lambda_k T / 2), the decay a heat trajectory has by time T/2.
    Generic (undamped) targets make the dual minimizer large enough to
    cross the solver's fixed divergence bound, so the CLI exits 3.
    """
    n = HEAT_MODES
    m = control_dim(n)
    lam = (np.arange(1, n + 1) * math.pi) ** 2
    out = []
    for kind in HEAT_KINDS:
        problem = {"kind": kind, "y0": _floats(rng.standard_normal(n))}
        if kind == "exact":
            problem["y1"] = _floats(rng.standard_normal(n) * np.exp(-lam * HEAT_T / 2.0))
        problem.update(_generators(rng, n, m))
        out.append(_config("heat1d", n, HEAT_T, HEAT_STEPS, problem, {"uc": True}))
    return out


def wave_approx(rng: np.random.Generator) -> list[dict]:
    """wave1d, 32 modes (n = 64), N = 512, T = 2.5, approx kinds, uc check.

    States decay like 1/k in mode k (finite energy); epsilon is 5% of
    |y1| and E is spanned by two random state vectors.  G has one
    generator; W is left out, because with a W generator the proximal
    solver's iteration count is heavy-tailed (39 to 151 with G and W, up to
    1353 with W alone), so the mean over a list of 8 moves by about 19%
    from seed to seed.
    """
    n_modes = WAVE_MODES
    n = 2 * n_modes
    m = control_dim(n_modes)
    decay = 1.0 / np.repeat(np.arange(1, n_modes + 1), 2)
    out = []
    for kind in WAVE_KINDS:
        y0 = rng.standard_normal(n) * decay
        y1 = rng.standard_normal(n) * decay
        problem = {
            "kind": kind,
            "y0": _floats(y0),
            "y1": _floats(y1),
            "epsilon": float(WAVE_EPS_SHARE * np.linalg.norm(y1)),
            "E": [_floats(rng.standard_normal(n)) for _ in range(2)],
        }
        problem.update(_control_generator(rng, m))
        out.append(_config("wave1d", n_modes, WAVE_T, WAVE_STEPS, problem, {"uc": True}))
    return out


def certify_dense(rng: np.random.Generator) -> list[dict]:
    """heat1d, 6 modes, N = 96, every check, and a null solve."""
    n = CERT_MODES
    m = control_dim(n)
    checks = {
        "uc": True,
        "observability": list(CERT_OBSERVABILITY),
        "two_time": {"t_tilde": CERT_T / 2.0},
    }
    out = []
    for _ in range(CERT_PROBLEMS):
        problem = {"kind": "null", "y0": _floats(rng.standard_normal(n))}
        problem.update(_generators(rng, n, m))
        out.append(_config("heat1d", n, CERT_T, CERT_STEPS, problem, dict(checks)))
    return out


_MAKERS = {"heat-exact": heat_exact, "wave-approx": wave_approx, "certify-dense": certify_dense}


def make(workload: str, seed: int) -> list[dict]:
    """The problem list of ``workload`` for ``seed``; equal seeds give equal lists."""
    return _MAKERS[workload](np.random.default_rng(seed))
