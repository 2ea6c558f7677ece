"""Configuration-driven batch front end.

Commands
--------
solve --config FILE --out DIR
    Run the requested certifications, minimize the dual functional,
    recover the control, and write report.json, control.csv (interval
    midpoints and values) and trajectory.csv (node values).
check-uc --config FILE
    Assemble the uniqueness map and print its verdict.
obs-constant --config FILE --kind KIND
    Print one observability constant.
models list
    List the available model families.

Exit codes: 0 success, 1 configuration error, 2 certification failure
(witness serialized into the report), 3 diverged minimization
(diverged_infeasible; certified non-coercive only when the report's
infeasibility section holds a uniqueness witness), 4 iteration cap
reached.  Verbosity is controlled by the PCCONTROL_LOG environment
variable only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import certificates
from .config import BuildResult, RunConfig
from .errors import PccontrolError
from .functionals import ControlSolution, recover_primal
from .solvers import SolveDiagnostics, certify_infeasibility, minimize

__all__ = ["main", "run_config", "emit_report"]

log = logging.getLogger("pccontrol")

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_CERTIFICATION = 2
_EXIT_INFEASIBLE = 3
_EXIT_MAX_ITERS = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: list[str], rows: np.ndarray):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            np.savetxt(fh, np.atleast_2d(rows), fmt="%.17g", delimiter=",")
    except OSError as exc:
        raise PccontrolError(f"cannot write {path}: {exc}") from exc


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _uc_report(build: BuildResult) -> certificates.UCReport:
    """Assemble the uniqueness map of the configured problem and decide it."""
    problem = build.problem
    M = certificates.assemble_uc_map(
        build.system, build.grid, problem.G, problem.W, ops=problem.ops
    )
    return certificates.uc_check(
        M, build.checks["tol_uc"], block_dims=(build.system.n, problem.G.dim, problem.W.dim)
    )


def _run_checks(build: BuildResult) -> tuple[dict, bool, certificates.UCReport | None]:
    """Run the requested certifications; returns (report section, all passed,
    the uniqueness verdict when that check ran)."""
    checks = build.checks
    problem = build.problem
    section: dict = {}
    passed = True
    uc = None
    if checks["uc"]:
        uc = _uc_report(build)
        entry = {
            "sigma_min": uc.sigma_min,
            "holds": uc.holds,
            "map_dims": list(uc.map_dims),  # N*min(m, n) + p_g rows: the frame of B^T
            "witness": uc.witness,
        }
        if not uc.holds:
            passed = False
            entry["infeasibility_radius"] = certify_infeasibility(uc.witness_parts())
        section["uc"] = entry
    if checks["observability"]:
        obs = {}
        for kind in checks["observability"]:
            rep = certificates.observability_constant(
                build.system, build.grid, problem.G, problem.W, kind, ops=problem.ops
            )
            obs[kind] = {"constant": rep.constant_C, "sigma_min": rep.sigma_min}
            if not math.isfinite(rep.constant_C):
                passed = False
        section["observability"] = obs
    if checks["two_time"] is not None:
        rep = certificates.two_time_check(
            build.system,
            build.grid,
            problem.G,
            problem.W,
            checks["two_time"],
            tol_uc=checks["tol_uc"],
            ops=problem.ops,
        )
        section["two_time"] = {
            "t_tilde": checks["two_time"],
            "restriction_ok": rep.restriction_ok,
            "uc_tilde_sigma_min": rep.uc_tilde.sigma_min,
            "uc_tilde_holds": rep.uc_tilde.holds,
            "obs_tilde_constant": rep.obs_tilde.constant_C,
            "certified": rep.certified,
        }
        if not rep.certified:
            passed = False
    if section:
        # these verdicts speak about the discretized system on its grid, not
        # about any continuous limit
        section["certificate_level"] = "discrete"
    return section, passed, uc


def emit_report(
    out_dir,
    config: RunConfig,
    checks_section: dict,
    solution: ControlSolution | None = None,
    diagnostics: SolveDiagnostics | None = None,
    grid=None,
    extra: dict | None = None,
):
    """Write report.json (always) and the CSV pair (when a solve ran)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PccontrolError(f"cannot create output directory {out}: {exc}") from exc
    report: dict = {"config": config.to_dict(), "checks": checks_section}
    if diagnostics is not None:
        report["solve"] = {
            "verdict": diagnostics.verdict,
            "iterations": diagnostics.iterations,
            "final_residual": diagnostics.final_residual,
            "objective": diagnostics.objective_history[-1],
            "residuals": dataclasses.asdict(solution.residuals),
        }
    if extra:
        report.update(extra)
    try:
        with open(out / "report.json", "w") as fh:
            json.dump(_json_ready(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise PccontrolError(f"cannot write report: {exc}") from exc
    if solution is not None and grid is not None:
        n = solution.y.node_values.shape[1]
        m = solution.u.shape[1]
        traj_rows = np.column_stack([grid.nodes(), solution.y.node_values])
        _write_csv(
            out / "trajectory.csv", ["t"] + [f"y_{i + 1}" for i in range(n)], traj_rows
        )
        ctrl_rows = np.column_stack([grid.midpoints(), solution.u]) if m else np.column_stack(
            [grid.midpoints()]
        )
        _write_csv(out / "control.csv", ["t_mid"] + [f"u_{i + 1}" for i in range(m)], ctrl_rows)


def _load(config_path) -> tuple[RunConfig, BuildResult] | None:
    """The configuration and its built problem, or None after reporting a
    configuration error."""
    try:
        config = RunConfig.from_file(config_path)
        return config, config.build()
    except PccontrolError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return None


def run_config(config_path, out_dir) -> int:
    """Execute certifications and the solve for one configuration."""
    loaded = _load(config_path)
    if loaded is None:
        return _EXIT_CONFIG
    config, build = loaded
    log.info("model %s built, grid T=%s n_steps=%s", build.system.name,
             build.grid.horizon, build.grid.n_steps)
    try:
        checks_section, checks_passed, uc = _run_checks(build)
    except PccontrolError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    if not checks_passed:
        try:
            emit_report(out_dir, config, checks_section)
        except PccontrolError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return _EXIT_CONFIG
        print("certification failed; witness serialized in report.json", file=sys.stderr)
        return _EXIT_CERTIFICATION
    problem = build.problem
    v, diag = minimize(problem, build.solver)
    solution = recover_primal(problem, v)
    extra = None
    if diag.verdict == "diverged_infeasible":
        rep = uc if uc is not None else _uc_report(build)
        infeasibility = {"sigma_min": rep.sigma_min}
        if rep.witness is not None:
            infeasibility["witness"] = rep.witness
            infeasibility["radius"] = certify_infeasibility(rep.witness_parts())
        extra = {"infeasibility": infeasibility}
    try:
        emit_report(out_dir, config, checks_section, solution, diag, build.grid, extra)
    except PccontrolError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    if diag.verdict == "diverged_infeasible":
        if "witness" in extra["infeasibility"]:
            print("minimization diverged: problem certified non-coercive", file=sys.stderr)
        else:
            print("minimization diverged; not certified: the uniqueness map has no witness",
                  file=sys.stderr)
        return _EXIT_INFEASIBLE
    if diag.verdict == "max_iters":
        print("iteration cap reached before the tolerance", file=sys.stderr)
        return _EXIT_MAX_ITERS
    return _EXIT_OK


def _cmd_check_uc(args) -> int:
    loaded = _load(args.config)
    if loaded is None:
        return _EXIT_CONFIG
    rep = _uc_report(loaded[1])
    print(f"uc sigma_min = {_fmt(rep.sigma_min)}")
    print(f"uc holds = {rep.holds}")
    if rep.witness is not None:
        print("witness = " + " ".join(_fmt(v) for v in rep.witness))
        return _EXIT_CERTIFICATION
    return _EXIT_OK


def _cmd_obs_constant(args) -> int:
    loaded = _load(args.config)
    if loaded is None:
        return _EXIT_CONFIG
    build = loaded[1]
    try:
        rep = certificates.observability_constant(
            build.system,
            build.grid,
            build.problem.G,
            build.problem.W,
            args.kind,
            ops=build.problem.ops,
        )
    except PccontrolError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    print(f"{args.kind} constant = {_fmt(rep.constant_C)}")
    print(f"{args.kind} sigma_min = {_fmt(rep.sigma_min)}")
    return _EXIT_OK


def _cmd_models(args) -> int:
    if args.action != "list":
        print("usage: pccontrol models list", file=sys.stderr)
        return _EXIT_CONFIG
    print("heat1d    heat equation on (0,1), Dirichlet, modal truncation, control on omega")
    print("wave1d    wave equation on (0,1), first-order energy form, control on omega")
    print("ode       explicit (A, B) matrices")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pccontrol",
        description="Controls under exact projection constraints: solve and certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run certifications and the solve")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_uc = sub.add_parser("check-uc", help="uniqueness-map verdict for a config")
    p_uc.add_argument("--config", required=True)
    p_obs = sub.add_parser("obs-constant", help="one observability constant")
    p_obs.add_argument("--config", required=True)
    p_obs.add_argument("--kind", required=True, choices=certificates.OBS_KINDS)
    p_models = sub.add_parser("models", help="model families")
    p_models.add_argument("action", choices=["list"])
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PCCONTROL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return run_config(args.config, args.out)
    if args.command == "check-uc":
        return _cmd_check_uc(args)
    if args.command == "obs-constant":
        return _cmd_obs_constant(args)
    return _cmd_models(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
