#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fabric-read --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn and exits non-zero if any run
did.

The benchmark crate (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root). The last
line of standard output is the result as one JSON object; build and run
logs go to standard error. The full record of the run, with host facts and
the base counts behind every metric, is written to .perfbench_out/.

Exit status: 0 on a correct run, 1 when a correctness gate tripped, 2 when
the benchmark could not be built or run, 3 on a timeout.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fabric-read", "fabric-write", "net-openloop")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be within 1..120")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        print("cargo is not on PATH", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print("build timed out", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(binary, w, args, env, out_dir) for w in workloads)


def run_one(binary, workload, args, env, out_dir):
    """Runs one workload; echoes its output and returns the exit status."""
    record = os.path.join(
        out_dir, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", record,
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return 1 if run.returncode == 1 else 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        print(f"{workload}: the run printed no result line", file=sys.stderr)
        return 2
    if result.get("correct") is not True:
        sys.stderr.write(run.stdout)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
