#!/usr/bin/env python3
"""Runs one workload N times and reports how steady its end-to-end metrics are.

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--first-seed 1]
                                    [--seconds S] [--save FILE] [--compare FILE]

Each run uses its own seed (first-seed, first-seed+1, ...) and the run length
from BENCHMARK.json unless --seconds is given. For every end-to-end metric it
prints the median, the first and third quartile (statistics.quantiles, n=4),
the spread (Q3 - Q1) / median, and the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged; setup_s is timed cold once
per run and is judged on its median only, so its spread is not flagged.

--save writes the per-run values as JSON. --compare reads such a file from an
earlier set and also reports, per metric, how far this set's median moved
from that set's, in the metric's worse direction, against the bound.
Exits 1 if a run fails, is incorrect, or a flagged check is exceeded.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    values = {m["name"]: [] for m in metrics}
    shares = []
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, seconds)
        if not result["correct"]:
            print(f"seed {seed}: incorrect output")
            ok = False
        shares.append(result["failed"] / result["attempted"])
        for m in metrics:
            values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              flush=True)

    if len(set(shares)) != 1:
        print(f"failed share differs between runs: {sorted(set(shares))}")
        ok = False
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["values"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, failed share {shares[0]:.6g}")
    header = f"{'metric':26s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}"
    if earlier:
        header += f" {'moved':>8s}"
    print(header)
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        line = f"{m['name']:26s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {m['bound']:6.3f}"
        flag = m["name"] != "setup_s" and spread > m["bound"] / 3
        if earlier:
            old = statistics.median(earlier[m["name"]])
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            line += f" {worse:8.4f}"
            flag = flag or worse > m["bound"]
        print(line + ("  <-- over" if flag else ""))
        ok = ok and not flag

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "values": values},
                      f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
