#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

The first call configures and builds the wakeup library and the perfbench
binary (Release) under .bench_build/perfbench; later calls only re-check
the build.  Build output goes to stderr.  The binary's output is passed
through, so the last stdout line is the result JSON object.  The exit
status is the binary's: 0 when its outputs were correct, non-zero
otherwise, or when the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("figures", "crossover", "traffic", "channels")


def build(build_dir):
    """Configure (once) and build the binary; return its path."""
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = os.path.abspath(".bench_build")
    try:
        binary = build(os.path.join(work, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join(work, "perfbench-out"),
         "--pins", os.path.join(HERE, "digests.txt")],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: the binary printed no result line", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
