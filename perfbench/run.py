#!/usr/bin/env python3
"""Builds pf-bench from source and runs one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

The library and the benchmark are built (Release) into the directory named
by CARGO_TARGET_DIR, or .bench_build at the checkout root when it is unset;
the first run builds, later runs only re-check the build. Build output goes
to stderr. The benchmark's report goes to stdout, and its last line is the
JSON result. The exit code is the benchmark's: 0 only when every
correctness check passed. Without the library sources next to perfbench/
nothing can be built, and the script exits with code 2 without a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself must end within this many seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("pf-bench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.abspath(configured)
    return os.path.join(ROOT, ".bench_build")


def build(out_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources at %s: run from a checkout of the repository"
             % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "pf_bench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(step))
    return os.path.join(out_dir, "pf_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out", os.path.join(out_dir, "pfbench-out")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
