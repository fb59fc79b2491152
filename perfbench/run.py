#!/usr/bin/env python3
"""Runs one workload of the avqdb benchmark.

    python3 perfbench/run.py --workload lookup|scan|mixed_rw --seed N \
        --seconds S --trace 0|1 [--tuples N]

Run from the root of a checkout. Builds the engine library from src/ and
the load generator from perfbench/src/ into $CARGO_TARGET_DIR (default
.bench_build) on first use, runs the workload against an in-process
server over loopback TCP, and prints the load generator's output. Its
last line is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). Exits non-zero without a result when the
program cannot be built or run.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures and builds once; later calls are no-op rebuilds."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out_dir, "-j4"], check=True,
                       stdout=sys.stderr)
    return os.path.join(out_dir, "avqdb_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["lookup", "scan", "mixed_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tuples", type=int, default=200000)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/")
        return 2
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    work_dir = os.path.join(build_dir(), "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tuples", str(args.tuples), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        log("load generator exited with %d" % proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result line")
        return 1
    missing = [name for name, unit in expected_metrics(args.trace).items()
               if result["metrics"].get(name, {}).get("unit") != unit]
    if missing:
        log("metrics missing or with the wrong unit: %s" % ", ".join(missing))
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
