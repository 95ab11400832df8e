"""Exact-repeat check: two traced runs with one seed must count the same work.

Usage, from the root of a checkout::

    python3 perfbench/repeat_check.py --workload cli-fit-20k --seed 1

Runs the traced benchmark twice and compares the machine-independent counts
of `tracing.EXACT` (BVN rows, likelihood calls, TR iterations and
rejections, inner fits per fit, ...).  Exits 1 if any differs.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def mismatches(first, second):
    """EXACT metrics whose values differ between two traced reports."""
    import tracing
    return [(name, first["metrics"][name]["value"],
             second["metrics"][name]["value"])
            for name in tracing.EXACT
            if first["metrics"][name]["value"]
            != second["metrics"][name]["value"]]


def repeat(workload, seed, sizes=None):
    """Two traced runs: ([(report, result, failures)] * 2, mismatches)."""
    import run
    runs = [run.run_benchmark(workload, seed, 1, 1, sizes) for _ in range(2)]
    for report, _, failures in runs:
        if not report["correct"]:
            raise RuntimeError(f"{workload}: output checks failed: {failures}")
    return runs, mismatches(runs[0][0], runs[1][0])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    import run
    if not run.use_checkout():
        return 2
    import tracing
    runs, bad = repeat(args.workload, args.seed)
    for line in run.table(args.workload, args.seed, 1, *runs[0]):
        print(line)
    print(f"{'count':40s} {'first run':>16} {'second run':>16}")
    for name in tracing.EXACT:
        values = [r[0]["metrics"][name]["value"] for r in runs]
        print(f"{name:40s} {values[0]!r:>16} {values[1]!r:>16}")
    for name, a, b in bad:
        print(f"MISMATCH {name}: {a!r} != {b!r}")
    print("repeat check:", "FAIL" if bad else "PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
