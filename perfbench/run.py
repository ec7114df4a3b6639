"""Benchmark launcher: generate seeded inputs, run one workload, print its metrics.

    python3 perfbench/run.py --workload predict_roi --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from anywhere; paths resolve against the checkout this file sits in.
Inputs go to `.perfbench_work/` (removed afterwards), results and span files
to `.perfbench_out/`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every output passed its check.

The input generator and the measured workload each run in a child process
whose environment pins every BLAS/OpenMP pool to one thread; the workload
child records that setting in its environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("predict_roi", "eval_ert_vga", "train_ert")
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
RUN_LIMIT_S = 170  # a run, generation included, must end well within 180 s


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    """Generates inputs and runs one workload; returns (exit code, result)."""
    started = time.monotonic()
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-seed{seed}-pid{os.getpid()}")
    out = os.path.join(ROOT, ".perfbench_out")
    env = child_env()
    try:
        gen = subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"),
             "--workload", workload, "--seed", str(seed), "--out", work],
            env=env, cwd=ROOT, timeout=RUN_LIMIT_S, capture_output=True, text=True,
        )
        if gen.returncode != 0:
            sys.stderr.write(gen.stderr)
            print(f"error: input generation failed for {workload}", file=sys.stderr)
            return gen.returncode or 1, None
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--inputs", work, "--out", out, "--root", ROOT],
            env=env, cwd=ROOT, timeout=remaining, capture_output=True, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran past {RUN_LIMIT_S} s", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run's inputs are still there
            pass
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    # exit 1 with a result means a check failed; anything else is a crash
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stdout.write(proc.stdout)
        print(f"error: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, None
    print("\n".join(lines[:-1]))
    return proc.returncode, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in (0, 60]")
    if not os.path.isfile(os.path.join(ROOT, "src", "gazedir", "__init__.py")):
        print(f"error: no gazedir package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # every workload in turn, then one combined line keyed "<workload>.<metric>"
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        worst = worst or code
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, rec in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = rec
        print()
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
