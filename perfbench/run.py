#!/usr/bin/env python3
"""Benchmark of `pccontrol solve`, end to end (tracing off) or per layer.

    python3 perfbench/run.py --workload heat-exact --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One operation is one `pccontrol solve` of one configuration,
called in process through the CLI entry point, with BLAS pinned to one
thread.  A run builds its workload's problem list from the seed, times the
set-up of every problem, then runs whole rounds of the list for about
``--seconds`` seconds (at least two rounds) and checks every operation's
outputs with `checks.py`.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
`tracing.py` with ``--trace 1``.
"""

import os

# Pinned before numpy is imported anywhere in the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import problems  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_ROUNDS = 2
# Set-up is repeated SETUP_REPEATS times in this process before the first
# operation and in each of SETUP_PROCESSES fresh processes, and once after
# every operation.  The fresh processes average over the process-to-process
# differences a few-millisecond build shows (30-40% between runs measured in
# one process); the repetitions after operations sample the machine over the
# whole run.
SETUP_REPEATS = 10
SETUP_PROCESSES = 3
# The self times of all spans must cover the traced operation time to 1%.
SELF_SHARE_MARGIN = 0.01


class Runner:
    """Runs operations of one problem list and checks their outputs."""

    def __init__(self, configs: list[dict], work: Path):
        from pccontrol import cli

        self.cli = cli
        self.configs = configs
        self.work = work
        self.paths = []
        (work / "configs").mkdir(parents=True)
        for i, config in enumerate(configs):
            path = work / "configs" / f"p{i:02d}.json"
            path.write_text(json.dumps(config))
            self.paths.append(path)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digests: dict[int, str] = {}
        self.iterations: dict[int, int] = {}
        self.output_bytes: list[int] = []

    def setup(self) -> float:
        """Wall time of building every problem from its config file."""
        from pccontrol.config import RunConfig

        t0 = time.perf_counter()
        for path in self.paths:
            RunConfig.from_file(path).build()
        return time.perf_counter() - t0

    def operation(self, i: int) -> float:
        """One `pccontrol solve` of problem i; returns its wall time."""
        out = self.work / "out" / f"p{i:02d}"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["solve", "--config", str(self.paths[i]), "--out", str(out)]
        t0 = time.perf_counter()
        code = self.cli.main(argv)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        faults = checks.check_operation(self.configs[i], out, code)
        report = out / "report.json"
        if report.is_file():
            text = report.read_bytes()
            digest = hashlib.sha256(text).hexdigest()
            if self.digests.setdefault(i, digest) != digest:
                faults.append("report.json differs from an earlier run of the same config")
            solve = json.loads(text).get("solve")
            if solve is not None:
                self.iterations.setdefault(i, solve["iterations"])
        if faults:
            self.failed += 1
            # A nonzero exit code is the program reporting its own failure;
            # exit 0 with a failed check is a wrong result.
            if code == 0:
                self.correct = False
            print(f"problem {i} ({self.configs[i]['problem']['kind']}): {'; '.join(faults)}",
                  file=sys.stderr)
        written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
        self.output_bytes.append(written)
        return elapsed

    def rounds(self, seconds: float, min_rounds: int, operation):
        """Whole passes of ``operation`` over the list while the next fits in ``seconds``."""
        start = time.perf_counter()
        done = 0
        while True:
            round_start = time.perf_counter()
            for i in range(len(self.paths)):
                operation(i)
            done += 1
            now = time.perf_counter()
            if done >= min_rounds and (now - start) + (now - round_start) > seconds:
                return

    def mean_iterations(self) -> float:
        """Mean solver iterations over the first run of each problem."""
        return statistics.fmean(self.iterations.values()) if self.iterations else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_in_fresh_processes(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples += json.loads(proc.stdout.splitlines()[-1])
    return samples


def timed_run(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    setup = [runner.setup() for _ in range(SETUP_REPEATS)]
    setup += setup_in_fresh_processes(workload, seed)
    times = []

    def operation(i: int):
        times.append(runner.operation(i))
        setup.append(runner.setup())

    runner.rounds(seconds, MIN_ROUNDS, operation)
    return {
        "solve_s.p50": (statistics.median(times), "s"),
        "solves_per_min": (60.0 * len(times) / sum(times), "1/min"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "solver_iters": (runner.mean_iterations(), "iterations"),
    }


def traced_run(runner: Runner, seconds: float, trace_path: Path) -> dict:
    tracer = tracing.Tracer()
    untraced, traced = [], []

    def paired(i: int):
        # Each problem runs untraced, then traced, so the two samples of the
        # overhead see the same problems under the same machine load.
        untraced.append(runner.operation(i))
        tracer.operation = len(traced)
        tracer.install()
        try:
            traced.append(runner.operation(i))
        finally:
            tracer.uninstall()

    runner.rounds(seconds, 1, paired)
    tracer.write(trace_path)
    output_mb = statistics.fmean(runner.output_bytes) / (1024.0 * 1024.0)
    metrics = tracing.layer_metrics(
        tracer, len(traced), runner.mean_iterations(), output_mb, statistics.fmean(traced),
        statistics.median(traced) - statistics.median(untraced),
    )
    share = metrics["trace.self_share"][0]
    if abs(1.0 - share) > SELF_SHARE_MARGIN:
        runner.correct = False
        print(f"span self times cover {share:.4f} of the traced operation time", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up times of one process (used by timed runs)")
    args = parser.parse_args(argv)
    if not (SRC / "pccontrol" / "cli.py").is_file():
        print(f"no pccontrol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(problems.make(args.workload, args.seed), work)
        if args.setup_only:
            print(json.dumps([runner.setup() for _ in range(SETUP_REPEATS)]))
            return 0
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-s{args.seed}.jsonl"
            metrics = traced_run(runner, args.seconds, trace_path)
        else:
            metrics = timed_run(runner, args.seconds, args.workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
