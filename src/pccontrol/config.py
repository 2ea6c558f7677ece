"""Strict JSON run configurations: loading, and problem building.

A configuration has sections ``model``, ``grid``, ``problem`` and optional
``solver`` and ``checks``.  :meth:`RunConfig.build` checks and converts the
document in one pass: each section is checked by the function that converts
it.  Unknown and repeated keys are fatal; every error names the offending
key.  Which data a problem kind takes (y1, epsilon, E) is decided by
:class:`~pccontrol.functionals.ProblemData` alone.

Vectors are given literally or sparsely (``{"coords": [[index, value],
...]}``, each index at most once); subspace generators are either
exponential profiles ``{"rate": r, "vector"|"coords": ..., "support":
[t0, t1]}`` realized by exact interval averages, or literal grid signals
``{"signal": [[...], ...]}``.  ``g_star``/``w_star`` are coefficient lists
against the orthonormalized subspace bases (orthonormalization is
deterministic, so coefficients are reproducible).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .certificates import OBS_KINDS, _t_tilde_node
from .core import LinearSystem, TimeGrid
from .errors import ConfigError, GridAlignmentError, ShapeError
from .functionals import ProblemData
from .models import exponential_profile_signal, make_heat1d, make_ode, make_wave1d, support_mask
from .solvers import SolverOptions
from .subspaces import SignalAmbient, Subspace, VectorAmbient, orthonormalize

__all__ = ["RunConfig", "BuildResult"]

_TOP_KEYS = {"model", "grid", "problem", "solver", "checks"}
_MODEL_KEYS = {
    "ode": {"family", "A", "B", "name"},
    "heat1d": {"family", "n_modes", "omega", "n_quad"},
    "wave1d": {"family", "n_modes", "omega", "n_quad"},
}
_GRID_KEYS = {"T", "n_steps"}
_PROBLEM_KEYS = {"kind", "y0", "y1", "epsilon", "G", "W", "E", "g_star", "w_star"}
_SOLVER_KEYS = {"max_iters", "grad_tol"}
_CHECKS_KEYS = {"uc", "observability", "two_time"}
_ENTRY_KEYS = {"rate", "vector", "coords", "signal", "support"}
_TWO_TIME_KEYS = {"t_tilde"}


def _check_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {key!r} in {where}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct: a repeated key is an
    error, where ``json`` would keep its last value."""
    section = {}
    for key, value in pairs:
        if key in section:
            raise ConfigError(f"duplicate key {key!r} in config")
        section[key] = value
    return section


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number")
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _number_list(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _matrix(value, where: str) -> np.ndarray:
    """A nonempty list of equal-length rows of numbers (rows may be empty)."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list of rows")
    rows = [_number_list(row, f"{where}[{i}]") for i, row in enumerate(value)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ConfigError(f"{where}[{i}] must have {len(rows[0])} entries, got {len(row)}")
    return np.array(rows)


@dataclass(frozen=True)
class RunConfig:
    """A configuration document, held verbatim; :meth:`build` checks and
    converts it in one pass."""

    data: dict

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh, object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls(raw)

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def build(self) -> "BuildResult":
        data = self.data
        _check_keys(data, _TOP_KEYS, {"model", "grid", "problem"}, "config")
        system = _build_model(data["model"])
        grid = _build_grid(data["grid"])
        return BuildResult(
            _build_problem(data["problem"], system, grid),
            _build_solver(data.get("solver", {})),
            _build_checks(data.get("checks", {}), grid),
        )


@dataclass
class BuildResult:
    problem: ProblemData
    solver: SolverOptions
    checks: dict


def _vector(value, dim: int, where: str) -> np.ndarray:
    if isinstance(value, list):
        values = _number_list(value, where)
        if len(values) != dim:
            raise ConfigError(f"{where} must have {dim} entries, got {len(values)}")
        return np.array(values)
    if isinstance(value, dict):
        _check_keys(value, {"coords"}, {"coords"}, where)
        out, seen = np.zeros(dim), set()
        pairs = value["coords"]
        if not isinstance(pairs, list):
            raise ConfigError(f"{where}.coords must be a list of [index, value] pairs")
        for i, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(f"{where}.coords[{i}] must be an [index, value] pair")
            idx = _integer(pair[0], f"{where}.coords[{i}][0]")
            if not (0 <= idx < dim):
                raise ConfigError(f"{where}.coords[{i}] index {idx} out of range 0..{dim - 1}")
            if idx in seen:
                raise ConfigError(f"{where}.coords[{i}] repeats index {idx}")
            seen.add(idx)
            out[idx] = _number(pair[1], f"{where}.coords[{i}][1]")
        return out
    raise ConfigError(f"{where} must be a list or a coords mapping")


def _entry_signal(entry: dict, dim: int, grid: TimeGrid, where: str) -> np.ndarray:
    _check_keys(entry, _ENTRY_KEYS, set(), where)
    if ("rate" in entry) == ("signal" in entry):
        raise ConfigError(f"{where} must give either 'rate' (with a vector) or 'signal'")
    support = None
    if "support" in entry:
        window = _number_list(entry["support"], f"{where}.support")
        if len(window) != 2 or not window[0] < window[1]:
            raise ConfigError(f"{where}.support must be [t0, t1] with t0 < t1")
        support = (window[0], window[1])
    if "signal" in entry:
        if "vector" in entry or "coords" in entry:
            raise ConfigError(f"{where} mixes 'signal' with vector data")
        sig = entry["signal"]
        if not isinstance(sig, list) or len(sig) != grid.n_steps:
            raise ConfigError(f"{where}.signal must have {grid.n_steps} rows")
        arr = np.array([_vector(row, dim, f"{where}.signal[{k}]") for k, row in enumerate(sig)])
        if support is not None:
            arr = arr * support_mask(grid, support)[:, None]
        return arr
    if ("vector" in entry) == ("coords" in entry):
        raise ConfigError(f"{where} needs exactly one of 'vector' or 'coords'")
    rate = _number(entry["rate"], f"{where}.rate")
    if "vector" in entry:
        vec = _vector(entry["vector"], dim, f"{where}.vector")
    else:
        vec = _vector({"coords": entry["coords"]}, dim, where)
    with np.errstate(over="ignore", invalid="ignore"):
        signal = exponential_profile_signal(grid, rate, vec, support)
    if not np.all(np.isfinite(signal)):
        raise ConfigError(f"{where} is not finite on the grid (rate {rate} overflows)")
    return signal


def _build_model(model: dict) -> LinearSystem:
    if not isinstance(model, dict) or "family" not in model:
        raise ConfigError("model section must declare a 'family'")
    family = model["family"]
    if not isinstance(family, str) or family not in _MODEL_KEYS:
        raise ConfigError(f"unknown model family {family!r}")
    _check_keys(
        model,
        _MODEL_KEYS[family],
        {"family", "A", "B"} if family == "ode" else {"family", "n_modes"},
        "model",
    )
    if family == "ode":
        A, B = _matrix(model["A"], "model.A"), _matrix(model["B"], "model.B")
        name = model.get("name", "ode")
        if not isinstance(name, str):
            raise ConfigError("model.name must be a string")
        return make_ode(A, B, name=name)
    n_modes = _integer(model["n_modes"], "model.n_modes")
    omega = tuple(_number_list(model.get("omega", [0.3, 0.7]), "model.omega"))
    if len(omega) != 2:
        raise ConfigError("model.omega must be [a, b]")
    kwargs = {"omega": omega}
    if "n_quad" in model:
        kwargs["n_quad"] = _integer(model["n_quad"], "model.n_quad")
    maker = make_heat1d if family == "heat1d" else make_wave1d
    return maker(n_modes, **kwargs)[0]


def _build_grid(section: dict) -> TimeGrid:
    _check_keys(section, _GRID_KEYS, _GRID_KEYS, "grid")
    horizon = _number(section["T"], "grid.T")
    n_steps = _integer(section["n_steps"], "grid.n_steps")
    if horizon <= 0.0:
        raise ConfigError(f"grid.T must be positive, got {horizon}")
    if n_steps < 2:
        raise ConfigError(f"grid.n_steps must be at least 2, got {n_steps}")
    return TimeGrid(horizon, n_steps)


def _build_problem(prob: dict, system: LinearSystem, grid: TimeGrid) -> ProblemData:
    """The problem section as ProblemData, which decides what each kind takes."""
    _check_keys(prob, _PROBLEM_KEYS, {"kind", "y0"}, "problem")
    n, m = system.n, system.m
    y0 = _vector(prob["y0"], n, "problem.y0")
    y1 = _vector(prob["y1"], n, "problem.y1") if "y1" in prob else None
    G = _build_subspace(prob.get("G", []), m, grid, "problem.G")
    W = _build_subspace(prob.get("W", []), n, grid, "problem.W")
    E = None
    if "E" in prob:
        vectors = prob["E"]
        if not isinstance(vectors, list):
            raise ConfigError("problem.E must be a list of state vectors")
        E = orthonormalize(
            [_vector(v, n, f"problem.E[{i}]") for i, v in enumerate(vectors)], VectorAmbient(n)
        )
    g_star = _star(prob.get("g_star"), G, "problem.g_star")
    w_star = _star(prob.get("w_star"), W, "problem.w_star")
    epsilon = _number(prob["epsilon"], "problem.epsilon") if "epsilon" in prob else None
    try:
        return ProblemData(
            kind=prob["kind"],
            system=system,
            grid=grid,
            y0=y0,
            y1=y1,
            epsilon=epsilon,
            G=G,
            W=W,
            E=E,
            g_star=g_star,
            w_star=w_star,
        )
    except ShapeError as exc:
        raise ConfigError(f"problem: {exc}") from exc


def _build_solver(section: dict) -> SolverOptions:
    _check_keys(section, _SOLVER_KEYS, set(), "solver")
    kwargs = {}
    if "max_iters" in section:
        kwargs["max_iters"] = _integer(section["max_iters"], "solver.max_iters")
    if "grad_tol" in section:
        kwargs["grad_tol"] = _number(section["grad_tol"], "solver.grad_tol")
    return SolverOptions(**kwargs)


def _build_checks(section: dict, grid: TimeGrid) -> dict:
    _check_keys(section, _CHECKS_KEYS, set(), "checks")
    uc = section.get("uc", False)
    if not isinstance(uc, bool):
        raise ConfigError("checks.uc must be true or false")
    kinds = section.get("observability", [])
    if not isinstance(kinds, list):
        raise ConfigError("checks.observability must be a list of kinds")
    for k in kinds:
        if k not in OBS_KINDS:
            raise ConfigError(f"unknown observability kind {k!r}")
    two_time = None
    if "two_time" in section:
        _check_keys(section["two_time"], _TWO_TIME_KEYS, _TWO_TIME_KEYS, "checks.two_time")
        two_time = _number(section["two_time"]["t_tilde"], "checks.two_time.t_tilde")
        try:
            _t_tilde_node(grid, two_time)
        except (ShapeError, GridAlignmentError) as exc:
            raise ConfigError(f"checks.two_time.t_tilde: {exc}") from exc
    return {"uc": uc, "observability": list(kinds), "two_time": two_time}


def _build_subspace(entries: list, dim: int, grid: TimeGrid, where: str) -> Subspace:
    if not isinstance(entries, list):
        raise ConfigError(f"{where} must be a list of generator entries")
    signals = [
        _entry_signal(entry, dim, grid, f"{where}[{i}]") for i, entry in enumerate(entries)
    ]
    return orthonormalize(signals, SignalAmbient(dim, grid))


def _star(coeffs, space: Subspace, where: str):
    if coeffs is None:
        return None
    values = _number_list(coeffs, where)
    if len(values) != space.dim:
        raise ConfigError(
            f"{where} must have one coefficient per basis element ({space.dim}), got {len(values)}"
        )
    return space.lift(np.array(values))
