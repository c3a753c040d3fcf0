#!/usr/bin/env python3
"""Steadiness check of pf-bench: runs workloads repeatedly and reports,
per metric, the median and quartiles of the runs and their spread (the
distance between the quartiles as a share of the median) against the
metric's bound in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workloads serve-mixed --runs 5
    python3 perfbench/steady.py --trace 1 --runs 3   # per-layer metrics
    python3 perfbench/steady.py --digests            # traced == untraced

Each run uses another seed (first-seed, first-seed + 1, ...). A spread above
the bound marks the metric UNSTEADY, and one above a third of it "steady"
rather than "ok". With --digests, each seed also runs
traced, and the script checks that both runs released the same digest.
The exit code is 1 if any run failed or any bounded spread is too wide.
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
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, universal_newlines=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("digest:")),
                  None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result, digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--digests", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result, digest = run_once(workload, seed, args.seconds,
                                             args.trace)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, code))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, metric["value"])
                for name, metric in result["metrics"].items())), flush=True)
            if args.digests:
                _, _, traced = run_once(workload, seed, args.seconds,
                                        1 - args.trace)
                same = digest is not None and digest == traced
                ok = ok and same
                print("%s seed %d: digest %s / %s %s" %
                      (workload, seed, digest, traced,
                       "equal" if same else "DIFFERENT"))
        print("%s: %d runs of %d s, trace %d" %
              (workload, len(next(iter(values.values()), [])), args.seconds,
               args.trace))
        print("  %-44s %12s %12s %12s %8s %7s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, vs in values.items():
            if len(vs) >= 2:
                q1, median, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = median = q3 = vs[0]
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None:
                steady = spread <= bound
                verdict = "ok" if spread <= bound / 3 else (
                    "steady" if steady else "UNSTEADY")
                ok = ok and steady
            print("  %-44s %12.6g %12.6g %12.6g %8.4f %7s %s" %
                  (name, q1, median, q3, spread,
                   "" if bound is None else bound, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
