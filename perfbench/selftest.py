#!/usr/bin/env python3
"""Self-test of the output checks in `checks.py`.

    python3 perfbench/selftest.py

Solves one problem of each kind from the workloads (seed 0) through the
CLI, asserts that `checks.check_operation` accepts every output, then
breaks one thing at a time (a control column, a reported singular value,
the target, a prescribed projection, a certificate constant) and asserts
that the checks reject each broken output.  Exits 0 when every case
behaves, 1 otherwise.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import problems  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench" / f"selftest-p{os.getpid()}"


def solve(config: dict, name: str) -> Path:
    from pccontrol import cli

    out = WORK / name
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(config))
    code = cli.main(["solve", "--config", str(path), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{name}: pccontrol solve exited {code}")
    return out


def broken_copy(out: Path, name: str) -> Path:
    target = WORK / name
    shutil.copytree(out, target)
    return target


def perturb_control_column(out: Path) -> Path:
    """Adds 1e-6 of the control's largest entry to one control column."""
    bad = broken_copy(out, out.name + "-control")
    path = bad / "control.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    scale = max(abs(float(v)) for row in rows for v in row[1:])
    for row in rows:
        row[3] = repr(float(row[3]) + 1e-6 * scale)
    path.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
    return bad


def edit_report(out: Path, suffix: str, edit) -> Path:
    bad = broken_copy(out, out.name + suffix)
    report = json.loads((bad / "report.json").read_text())
    edit(report)
    (bad / "report.json").write_text(json.dumps(report))
    return bad


def main() -> int:
    root_src = ROOT / "src"
    if not (root_src / "pccontrol" / "cli.py").is_file():
        print(f"no pccontrol sources under {root_src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root_src))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    heat = problems.make("heat-exact", 0)
    wave = problems.make("wave-approx", 0)
    cert = problems.make("certify-dense", 0)[0]
    exact = next(c for c in heat if c["problem"]["kind"] == "exact")
    other_exact = [c for c in heat if c["problem"]["kind"] == "exact"][1]
    null = next(c for c in heat if c["problem"]["kind"] == "null")
    approx = next(c for c in wave if c["problem"]["kind"] == "approx")
    relaxed = next(c for c in wave if c["problem"]["kind"] == "approx_relaxed")
    outs = {
        "exact": (exact, solve(exact, "exact")),
        "null": (null, solve(null, "null")),
        "approx": (approx, solve(approx, "approx")),
        "approx_relaxed": (relaxed, solve(relaxed, "approx_relaxed")),
        "certify": (cert, solve(cert, "certify")),
    }

    def with_problem(config, **changes):
        changed = copy.deepcopy(config)
        changed["problem"].update(changes)
        return changed

    def scale_sigma(section, key, factor):
        def edit(report):
            entry = report["checks"][section] if key is None else report["checks"][section][key]
            entry["sigma_min"] *= factor
        return edit

    def shrink_general(report):
        obs = report["checks"]["observability"]
        obs["general_final"]["constant"] = 0.5 * obs["final_state"]["constant"]

    def shifted_star(config, key):
        return with_problem(config, **{key: [config["problem"][key][0] + 1e-3]})

    cases = [(f"{name} output passes", config, out, True) for name, (config, out) in outs.items()]
    exact_cfg, exact_out = outs["exact"]
    null_cfg, null_out = outs["null"]
    cert_cfg, cert_out = outs["certify"]
    approx_cfg, approx_out = outs["approx"]
    cases += [
        ("perturbed control column (exact)", exact_cfg, perturb_control_column(exact_out), False),
        ("perturbed control column (approx)", approx_cfg, perturb_control_column(approx_out),
         False),
        ("swapped target (exact)", with_problem(exact_cfg, y1=other_exact["problem"]["y1"]),
         exact_out, False),
        ("swapped target (approx)", with_problem(approx_cfg, y1=relaxed["problem"]["y1"]),
         approx_out, False),
        ("shifted g* (exact)", shifted_star(exact_cfg, "g_star"), exact_out, False),
        ("shifted w* (null)", shifted_star(null_cfg, "w_star"), null_out, False),
        ("shifted uc sigma_min", cert_cfg,
         edit_report(cert_out, "-uc", scale_sigma("uc", None, 1.001)), False),
        ("shifted final_state sigma_min", cert_cfg,
         edit_report(cert_out, "-fs", scale_sigma("observability", "final_state", 0.999)), False),
        ("general_final constant below final_state", cert_cfg,
         edit_report(cert_out, "-gf", shrink_general), False),
        ("nonzero exit code", exact_cfg, exact_out, False),
    ]
    bad = 0
    for label, config, out, should_pass in cases:
        code = 3 if label == "nonzero exit code" else 0
        faults = checks.check_operation(config, out, code)
        ok = (not faults) == should_pass
        bad += not ok
        verdict = "accepted" if not faults else f"rejected ({'; '.join(faults)})"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(cases) - bad}/{len(cases)} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
