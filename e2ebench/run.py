#!/usr/bin/env python3
"""One command for the end-to-end VOS pipeline benchmark.

Usage (from the repository root):
  python3 e2ebench/run.py --workload paper-replay|allpairs-sweep|churn-topk \
      --seed N --seconds S --trace 0|1

Builds the benchmark and the library it drives from source into
.bench_build/ (incremental after the first run), runs one workload and
prints its result object as the last line of stdout:
  {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}
The lines before it are the stream digest and the run context. Build
output goes to stderr. Exits non-zero, printing no result, when the build
fails or any correctness check fails. With --trace 1 the span dump of the
last traced rep is written to .bench_build/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-replay", "allpairs-sweep", "churn-topk")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures and builds e2e_pipeline; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "e2e_pipeline"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD_DIR, "e2e_pipeline")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests only")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--scale={args.scale}"]
    if args.trace:
        command.append(f"--spans={BUILD_DIR}/spans-{args.workload}-"
                       f"{args.seed}.jsonl")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"e2ebench: e2e_pipeline exited {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        print("e2ebench: malformed or incorrect result", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
