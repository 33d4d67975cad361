#!/usr/bin/env python3
"""Checks how steady the PStorM benchmark's end-to-end metrics are.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--seed 1] [--workloads a,b]

Runs every workload of BENCHMARK.json --runs times, one seed per round
(seed, seed+1, ...), alternating the workload order between rounds. For
each end-to-end metric it prints the median, the quartiles and the spread
(Q3-Q1)/median next to the metric's bound, and flags a spread above the
bound or above a third of it. It then repeats round 0's seed once per
workload, whose tuned_speedup must read exactly as before, and runs one
more, unseen seed, whose outcome checks must pass. Exits nonzero when a
spread (other than setup_s's) exceeds its bound or a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    took = time.monotonic() - start
    if run.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {run.returncode}")
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload:14s} seed {seed:<6d} {took:6.1f} s  " +
          " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    samples = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            samples[w].append(run_once(spec, w, args.seed + r, seconds))

    steady = True
    for w in workloads:
        print(f"\n{w} ({len(samples[w])} runs)")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m in metrics:
            values = [s[m["name"]] for s in samples[w]]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "  <-- above bound"
                steady = False
            elif spread > m["bound"] / 3:
                flag = "  <-- above bound/3"
            print(f"  {m['name']:16s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.2f}{flag}")

    print("\nrepeat of round 0's seed, then one unseen seed:")
    for w in workloads:
        again = run_once(spec, w, args.seed, seconds)
        if args.runs and again["tuned_speedup"] != samples[w][0]["tuned_speedup"]:
            print(f"  {w}: tuned_speedup did not repeat exactly")
            steady = False
        run_once(spec, w, args.seed + 1000, seconds)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
