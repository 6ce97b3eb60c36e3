#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload dense_window|city_window|coexist_plan
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The runner and the library it measures
are compiled (Release) into .bench_build/perfbench; later runs rebuild
incrementally. The last line of standard output is the runner's JSON
result; build output goes to standard error.

Per-window fate digests are kept in .bench_build/perfbench/digests, one
file per (binary, workload, seed), so a second run of the same build on
the same seed fails any window whose digest changed. A traced run writes
its spans to .bench_build/perfbench/traces/<workload>-<seed>.jsonl.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def binary_id():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if not build():
            return 1
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1

    digests = os.path.join(BUILD, "digests", binary_id())
    traces = os.path.join(BUILD, "traces")
    os.makedirs(digests, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digests",
           os.path.join(digests, f"{args.workload}-{args.seed}.txt")]
    if args.trace:
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    try:
        # subprocess.run kills and reaps the runner if it overruns.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
