#!/usr/bin/env python3
"""Builds the PStorM benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload recurring-rpc --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the compiler's temporary files stay there too. The report
and, as its last line, one JSON object go to standard output. With
--trace 1 the spans of the traced run are written to <build>/spans/.
Exits nonzero, printing no result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
TARGET = "pstorm_perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures and builds pstorm_perfbench; returns its path."""
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                check=True, stdout=sys.stderr, env=env)
        subprocess.run(
            ["cmake", "--build", out, "--target", TARGET, "-j", "4"],
            check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans",
                    os.path.join(spans, f"{args.workload}-{args.seed}.tsv")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: {TARGET} exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
