#!/usr/bin/env python3
"""Reference figures: run the benchmark over several seeds and summarize.

    python3 perfbench/spread.py --seeds 1-10 --seconds 36
    python3 perfbench/spread.py --workloads wave-approx --seeds 1-5 --trace 1

For each workload, runs `run.py` once per seed (one process at a time)
and prints every metric's median, first and third quartile and the
quartile distance as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them, plus the failed and
attempted operations of every run.  Exits 1 if any run fails or reports
incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    sys.path.insert(0, str(HERE))
    import problems

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(problems.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="36")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    bad = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                bad = True
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            bad |= not result["correct"] or result["failed"] > 0
            runs.append((seed, result["failed"], result["attempted"], result["correct"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"## {workload}: {len(runs)} runs (seed, failed, attempted, correct): {runs}")
        header = ("metric", "unit", "median", "q1", "q3", "iqr/median")
        print("{:38s} {:>10s} {:>12s} {:>12s} {:>12s} {:>10s}".format(*header))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            print(f"{name:38s} {units[name]:>10s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:10.4f}")
        print(flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
