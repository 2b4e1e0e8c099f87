#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. The first run configures and builds
perfbench/ (which compiles the repository's src/ libraries) into
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to standard error. The benchmark binary then runs the workload and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. Traced runs (--trace 1) write their
per-layer metrics and a Chrome trace under .bench_out/<workload>/.

Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["redshift-scan", "github-groups", "twitter-symbolic", "github-spill"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--out", OUT_DIR], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
