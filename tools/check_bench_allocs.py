#!/usr/bin/env python3
"""Fails when a zero-allocation benchmark counter is not zero.

    python3 tools/check_bench_allocs.py BENCH_hot_path.json

Reads google-benchmark JSON output (--benchmark_format=json) and checks
every counter whose name starts with "allocs_per_": the heap allocations
per measured call that bench_hot_path counts with its operator-new
interposer, which must read 0 on the warm paths it measures. Exit codes:
0 when every such counter is 0; 1 when one is not, when a benchmark that
reports them failed, or when the file holds none at all; 2 when the file
cannot be read.
"""
import json
import sys

PREFIX = "allocs_per_"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            report = json.load(f)
    except (OSError, ValueError) as error:
        print("check_bench_allocs: cannot read %s: %s" % (argv[1], error),
              file=sys.stderr)
        return 2
    checked = 0
    failures = []
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "?")
        if bench.get("error_occurred") and "Allocs" in name:
            failures.append("%s: failed: %s" % (name, bench.get("error_message")))
        for key, value in sorted(bench.items()):
            if not key.startswith(PREFIX):
                continue
            checked += 1
            if value != 0:
                failures.append("%s: %s = %s (must be 0)" % (name, key, value))
            else:
                print("ok   %s: %s = 0" % (name, key))
    for failure in failures:
        print("FAIL " + failure)
    if checked == 0:
        print("FAIL no %s* counters in %s" % (PREFIX, argv[1]))
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
