"""Configuration-driven batch front end.

Commands
--------
solve --config FILE --out DIR
    Run the requested certifications, minimize the dual functional,
    recover the control, and write report.json, control.csv (interval
    midpoints and values) and trajectory.csv (node values).
check-uc --config FILE
    Decide the uniqueness property and print its verdict.
obs-constant --config FILE --kind KIND
    Print one observability constant.
models list
    List the available model families.

Exit codes: 0 success, 1 configuration or output error (one line
``error: <message>`` on stderr), 2 a failed certificate, for every command
(all run one check stage; ``solve`` names the failed checks on stderr and
serializes a failed uniqueness check's witness into the report,
``check-uc`` prints that witness, ``obs-constant`` exits 2 on an infinite
constant), 3 diverged minimization (diverged_infeasible; ``solve`` then
writes ``checks.uc`` whether or not the config asked for it, and the
divergence is certified non-coercive only when that entry holds a
uniqueness witness), 4 iteration cap reached.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certificates
from .config import RunConfig
from .errors import PccontrolError
from .functionals import ControlSolution, ProblemData, recover_primal
from .solvers import minimize

__all__ = ["main", "run_config", "emit_report"]

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
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf", "-inf" or "nan": JSON has no such number
    return value


def _run_checks(problem: ProblemData, checks: dict) -> tuple[dict, list[str]]:
    """Run the requested certifications, the only place where the CLI calls a
    certificate; ``checks`` maps a check to its request as
    :meth:`RunConfig.build` reads it, and an absent check is not run.
    Returns (report section, the names of the failed checks)."""
    section: dict = {}
    failed: list[str] = []
    if checks.get("uc"):
        uc = certificates.uc_verdict(
            problem.system, problem.grid, problem.G, problem.W, ops=problem.ops
        )
        entry = {
            "sigma_min": uc.sigma_min,
            "holds": uc.holds,
            "map_dims": list(uc.map_dims),  # N*min(m, n) + p_g rows: the frame of B^T
            "witness": uc.witness,
        }
        if not uc.holds:
            failed.append("uc")
            entry["infeasibility_radius"] = uc.infeasibility_radius
        section["uc"] = entry
    if checks.get("observability"):
        reports = certificates.observability_constants(
            problem.system, problem.grid, problem.G, problem.W, checks["observability"],
            ops=problem.ops,
        )
        obs = {kind: {"constant": rep.constant_C, "sigma_min": rep.sigma_min}
               for kind, rep in reports.items()}
        section["observability"] = obs
        if not all(math.isfinite(entry["constant"]) for entry in obs.values()):
            failed.append("observability")
    if checks.get("two_time") is not None:
        rep = certificates.two_time_check(
            problem.system,
            problem.grid,
            problem.G,
            problem.W,
            checks["two_time"],
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
            failed.append("two_time")
    if section:
        # these verdicts speak about the discretized system on its grid, not
        # about any continuous limit
        section["certificate_level"] = "discrete"
    return section, failed


def _output_dir(out_dir) -> Path:
    """Create the output directory (and its parents) if missing."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PccontrolError(f"cannot create output directory {out}: {exc}") from exc
    return out


def emit_report(out_dir, report: dict, solution: ControlSolution | None = None, grid=None):
    """Write ``report`` as report.json and, given a solution, the CSV pair."""
    out = _output_dir(out_dir)
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
        ctrl_rows = np.column_stack([grid.midpoints(), solution.u])  # m = 0: t_mid alone
        _write_csv(out / "control.csv", ["t_mid"] + [f"u_{i + 1}" for i in range(m)], ctrl_rows)


def _one_error_exit(command):
    """Run a command so that any package error ends it with one line
    ``error: <message>`` on stderr and exit code 1."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except PccontrolError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_CONFIG

    return run


@_one_error_exit
def run_config(config_path, out_dir) -> int:
    """Run the checks and the solve of one configuration, and build the whole
    report (``config``, ``checks``, ``solve``) that :func:`emit_report` writes."""
    config = RunConfig.from_file(config_path)
    build = config.build()
    _output_dir(out_dir)  # an unwritable one fails before the checks and the solve
    problem = build.problem
    checks, failed = _run_checks(problem, build.checks)
    report = {"config": config.data, "checks": checks}
    if failed:
        emit_report(out_dir, report)
        witness = "; witness serialized in report.json" if "uc" in failed else ""
        print(f"certification failed: {', '.join(failed)}{witness}", file=sys.stderr)
        return _EXIT_CERTIFICATION
    v, diag = minimize(problem, build.solver)
    solution = recover_primal(problem, v)
    report["solve"] = {**dataclasses.asdict(diag),
                       "residuals": dataclasses.asdict(solution.residuals)}
    if diag.verdict == "diverged_infeasible" and "uc" not in checks:
        # the uniqueness verdict decides whether the divergence is certified
        checks.update(_run_checks(problem, {"uc": True})[0])
    emit_report(out_dir, report, solution, problem.grid)
    if diag.verdict == "diverged_infeasible":
        if checks["uc"]["witness"] is not None:
            print("minimization diverged: problem certified non-coercive", file=sys.stderr)
        else:
            print("minimization diverged; not certified: the uniqueness map has no witness",
                  file=sys.stderr)
        return _EXIT_INFEASIBLE
    if diag.verdict == "max_iters":
        print("iteration cap reached before the tolerance", file=sys.stderr)
        return _EXIT_MAX_ITERS
    return _EXIT_OK


@_one_error_exit
def _cmd_check_uc(args) -> int:
    problem = RunConfig.from_file(args.config).build().problem
    section, failed = _run_checks(problem, {"uc": True})
    uc = section["uc"]
    print(f"uc sigma_min = {_fmt(uc['sigma_min'])}")
    print(f"uc holds = {uc['holds']}")
    if uc["witness"] is not None:
        print("witness = " + " ".join(_fmt(v) for v in uc["witness"]))
    return _EXIT_CERTIFICATION if failed else _EXIT_OK


@_one_error_exit
def _cmd_obs_constant(args) -> int:
    problem = RunConfig.from_file(args.config).build().problem
    section, failed = _run_checks(problem, {"observability": [args.kind]})
    entry = section["observability"][args.kind]
    print(f"{args.kind} constant = {_fmt(entry['constant'])}")
    print(f"{args.kind} sigma_min = {_fmt(entry['sigma_min'])}")
    return _EXIT_CERTIFICATION if failed else _EXIT_OK


def _cmd_models() -> int:
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
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return run_config(args.config, args.out)
    if args.command == "check-uc":
        return _cmd_check_uc(args)
    if args.command == "obs-constant":
        return _cmd_obs_constant(args)
    return _cmd_models()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
