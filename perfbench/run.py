#!/usr/bin/env python3
"""Campaign pipeline benchmark: build it, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mixed_grid --seed 1 \
        --seconds 30 --trace 0

Builds libdring, dring_report and dring_pipeline_bench (perfbench/src) into
.bench_build/ with CMake (Release), then runs the workload.  Build output
and progress go to stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}.  --trace 1 runs the traced
pipeline and reports the per-layer metrics instead of the end-to-end ones.
Extra flags for the self-test: --scale tiny (small grids), --corrupt-store
(flip a byte of each store before its digest check, so the checks fail).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure, then (re)build dring_pipeline_bench and dring_report."""
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "dring_pipeline_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mixed_grid", "engine_grid", "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--corrupt-store", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(BUILD_DIR, "dring_pipeline_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--bench-dir", BENCH_DIR,
           "--work-dir", work_dir,
           "--report-tool", os.path.join(BUILD_DIR, "dring", "dring_report")]
    if args.corrupt_store:
        cmd.append("--corrupt-store")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: dring_pipeline_bench exited with "
              f"{proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
