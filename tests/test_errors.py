"""Error branches, one table: each case is a call that the package refuses,
the error class it raises and the key or argument its message names."""

import copy

import numpy as np
import pytest

from pccontrol import (
    ProblemData,
    RunConfig,
    SignalAmbient,
    Subspace,
    TimeGrid,
    VectorAmbient,
    adjoint_solve,
    build_propagator,
    exponential_profile_signal,
    forward_solve,
    make_heat1d,
    make_ode,
    orthonormalize,
    restriction_kernel_check,
    spectral_uc_classify,
)
from pccontrol.errors import ConfigError, ShapeError

_DELETE = object()


def scalar_config():
    """The scalar integrator on four intervals, null kind."""
    return {
        "model": {"family": "ode", "A": [[0.0]], "B": [[1.0]]},
        "grid": {"T": 1.0, "n_steps": 4},
        "problem": {"kind": "null", "y0": [1.0]},
    }


def build_with(*edits):
    """A call that builds the scalar config after the edits (key path,
    value); the value ``_DELETE`` removes the key."""
    cfg = copy.deepcopy(scalar_config())
    for path, value in edits:
        *parents, key = path
        section = cfg
        for name in parents:
            section = section.setdefault(name, {})
        if value is _DELETE:
            del section[key]
        else:
            section[key] = value
    return lambda tmp_path: RunConfig(cfg).build()


def read_text(text):
    def read(tmp_path):
        path = tmp_path / "config.json"
        path.write_text(text)
        RunConfig.from_file(path)

    return read


ONE_G = [{"rate": 0.0, "vector": [1.0]}]

GRID = TimeGrid(1.0, 4)
SYSTEM = make_ode([[0.0]], [[1.0]])
OPS = build_propagator(SYSTEM, GRID)


def problem(**kwargs):
    args = {"kind": "null", "system": SYSTEM, "grid": GRID, "y0": [1.0]} | kwargs
    return lambda tmp_path: ProblemData(**args)


def heat_model(n_modes=2, n_quad=201):
    return make_heat1d(n_modes, (0.3, 0.7), n_quad)


def restriction(G_vector=False, coarse=False):
    def check(tmp_path):
        # n_quad = 4 keeps two uniform nodes in omega, too few for the stacked test
        system, model = heat_model(1, 4) if coarse else heat_model()
        W = orthonormalize([exponential_profile_signal(GRID, 0.0, np.eye(system.n)[0])],
                           SignalAmbient(system.n, GRID))
        if G_vector:
            G = orthonormalize([np.ones(system.m)], VectorAmbient(system.m))
        else:
            G = orthonormalize([], SignalAmbient(system.m, GRID))
        restriction_kernel_check(W, model, G=G)

    return check


CASES = {
    # configuration sections and keys
    "section-not-a-mapping": (build_with((("grid",), 5)), ConfigError, "'grid'"),
    "missing-key": (build_with((("grid", "n_steps"), _DELETE)), ConfigError, "'n_steps'"),
    "invalid-json": (read_text('{"model": '), ConfigError, "not valid JSON"),
    "model-without-family": (build_with((("model", "family"), _DELETE)), ConfigError,
                             "'family'"),
    "omega-not-a-pair": (build_with((("model",), {"family": "heat1d", "n_modes": 2,
                                                  "omega": [0.3]})),
                         ConfigError, "model.omega"),
    # vectors
    "vector-length": (build_with((("problem", "y0"), [1.0, 2.0])), ConfigError, "problem.y0"),
    "coords-not-a-list": (build_with((("problem", "y0"), {"coords": 5})), ConfigError,
                          "problem.y0.coords"),
    "coords-bad-pair": (build_with((("problem", "y0"), {"coords": [[0]]})), ConfigError,
                        "problem.y0.coords[0]"),
    "vector-not-list-or-mapping": (build_with((("problem", "y0"), 5)), ConfigError,
                                   "problem.y0"),
    # subspace generators
    "subspace-not-a-list": (build_with((("problem", "W"), {})), ConfigError, "problem.W"),
    "support-not-increasing": (
        build_with((("problem", "G"), [{"rate": 0.0, "vector": [1.0], "support": [0.5, 0.5]}])),
        ConfigError, "problem.G[0].support"),
    "signal-mixed-with-vector": (
        build_with((("problem", "G"), [{"signal": [[1.0]] * 4, "vector": [1.0]}])),
        ConfigError, "problem.G[0]"),
    "signal-row-count": (build_with((("problem", "G"), [{"signal": [[1.0]]}])), ConfigError,
                         "problem.G[0].signal"),
    "g-star-length": (build_with((("problem", "G"), ONE_G), (("problem", "g_star"), [1.0, 2.0])),
                      ConfigError, "problem.g_star"),
    "E-not-a-list": (build_with((("problem", "E"), 5)), ConfigError, "problem.E"),
    # checks
    "observability-not-a-list": (build_with((("checks", "observability"), "final_state")),
                                 ConfigError, "checks.observability"),
    "observability-unknown-kind": (build_with((("checks", "observability"), ["final"])),
                                   ConfigError, "'final'"),
    # ProblemData
    "problem-kind": (problem(kind="exactly"), ShapeError, "kind"),
    "problem-y0-shape": (problem(y0=[1.0, 2.0]), ShapeError, "y0"),
    "problem-y1-shape": (problem(kind="exact", y1=[1.0, 2.0]), ShapeError, "y1"),
    "problem-E-space": (problem(kind="approx", y1=[0.0], epsilon=0.1,
                                E=orthonormalize([], VectorAmbient(2))), ShapeError, "E"),
    "problem-g-star-shape": (problem(g_star=np.zeros((3, 1))), ShapeError, "g_star"),
    "problem-w-star-shape": (problem(w_star=np.zeros((4, 2))), ShapeError, "w_star"),
    "problem-G-grid": (problem(G=orthonormalize([], SignalAmbient(1, TimeGrid(1.0, 8)))),
                       ShapeError, "G"),
    # subspaces, solves and certificates
    "subspace-basis-shape": (lambda tmp_path: Subspace(VectorAmbient(2), np.ones((1, 3))),
                             ShapeError, "basis"),
    "forward-solve-ndim": (lambda tmp_path: forward_solve(SYSTEM, OPS, [1.0], np.zeros(4)),
                           ShapeError, "u"),
    "adjoint-solve-ndim": (lambda tmp_path: adjoint_solve(SYSTEM, OPS, [1.0], np.zeros(4)),
                           ShapeError, "f"),
    "restriction-G-not-a-signal": (restriction(G_vector=True), ShapeError, "G"),
    "restriction-mask-too-coarse": (restriction(coarse=True), ShapeError, "mask"),
    "spectral-w-mu-length": (
        lambda tmp_path: spectral_uc_classify(0.0, np.ones(3), heat_model()[1]),
        ShapeError, "w_mu"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refused(case, tmp_path):
    call, error, named = CASES[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert named in str(info.value)


def test_restriction_of_two_empty_spaces_holds():
    system, model = heat_model()
    W = orthonormalize([], SignalAmbient(system.n, GRID))
    G = orthonormalize([], SignalAmbient(system.m, GRID))
    assert restriction_kernel_check(W, model, G=G)
