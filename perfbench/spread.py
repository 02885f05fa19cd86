#!/usr/bin/env python3
"""Measures the benchmark's seed-to-seed spread.

    python3 perfbench/spread.py --workloads abcast_stream txn_contention \
        --seeds 10 --first-seed 1 --trace 0

Runs perfbench/run.py once per (workload, seed), sequentially, and prints
for every metric its median and its quartile spread: (Q3 - Q1) / median,
with the quartiles of statistics.quantiles(values, n=4). With --trace 0 it
flags every end-to-end metric whose spread is above a third of its bound in
BENCHMARK.json. Exits 1 when a run fails or a metric is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, timeout=400)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: correct=false")
    return result


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            try:
                result = run_once(workload, seed, seconds, args.trace)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                print(f"FAIL {e}")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}, {seconds} s, "
              f"trace {args.trace}")
        for name, vals in values.items():
            s = spread(vals)
            mark = ""
            if args.trace == 0 and name in bounds:
                if s > bounds[name] / 3:
                    mark = f"  > bound/3 ({bounds[name] / 3:.4f})"
                    flagged += 1
            print(f"  {name:44s} median {statistics.median(vals):14.6g}  "
                  f"spread {s:8.4f}{mark}")
            if args.values:
                print("      " + " ".join(f"{v:.6g}" for v in vals))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
