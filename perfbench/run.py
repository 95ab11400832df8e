"""endosurv benchmark: one workload per invocation, metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-fit-20k --seed 1 --seconds 10 --trace 0

The run sets up three times: it prepares the workload's inputs from the seed
and starts a fresh worker process that loads them and warms up.  The last
worker then measures whole operations for ``--seconds`` of measured time.
The run checks every operation's outputs and prints a readable table
followed by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones below; with ``--trace 1`` the worker runs
one traced operation and the metrics are the per-layer ones of
`tracing.PER_LAYER`.  See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
TIME_BUDGET_S = 170.0    # the whole run, set-up included, must end in 180 s

# name -> unit; "better" and bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# what one unit of `throughput_per_s` is, per workload
WORK_UNIT = {"cli-fit-20k": "draws_per_s", "posterior-20k": "draws_per_s",
             "study-2k": "fits_per_s"}


def nproc():
    return len(os.sched_getaffinity(0))


def bound_threads(n_jobs):
    """Thread settings so that n_jobs processes together use nproc cores."""
    per_process = str(max(1, nproc() // n_jobs))
    return {k: per_process for k in THREAD_VARS}


def use_checkout():
    """Import endosurv from this checkout's src/; False if there is none.

    Also bounds this process's threads, so call it before importing numpy.
    """
    if not os.path.isfile(os.path.join(SRC, "endosurv", "__init__.py")):
        print(f"no endosurv sources under {SRC}: run from a checkout",
              file=sys.stderr)
        return False
    os.environ.update(bound_threads(1))
    sys.path[:0] = [HERE, SRC]
    return True


def start_worker(work, n_jobs, budget_s):
    """Run worker.py on `work`; False if it failed or overran the budget."""
    env = dict(os.environ, **bound_threads(n_jobs))
    # the worker's stdout (the CLI prints progress) must not mix with ours
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             work], env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=budget_s) == 0
    except subprocess.TimeoutExpired:
        # the worker may have pool processes of its own: stop the group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"worker exceeded its {budget_s:.0f} s budget", file=sys.stderr)
        return False
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def run_benchmark(workload, seed, seconds, trace, sizes=None):
    """One benchmark run: (report, worker result, failed check messages).

    The report is the JSON object the command prints last.  Raises
    RuntimeError when the worker produced no result.
    """
    import tracing
    import workloads
    started = time.perf_counter()
    wl = workloads.WORKLOADS[workload]
    sizes = dict(sizes or workloads.SIZES[workload])
    if trace:
        sizes["n_jobs"] = 1      # pool workers cannot return their spans
    work = os.path.join(OUT, f"{workload}-seed{seed}-{os.getpid()}")
    try:
        # Each set-up prepares the inputs and starts a fresh worker that
        # loads and warms up; only the last worker goes on to measure.
        setup = []
        for rep in range(SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            t0 = time.perf_counter()
            wl.prepare(work, sizes, seed)
            prepared_s = time.perf_counter() - t0
            budget = TIME_BUDGET_S - (time.perf_counter() - started)
            spec = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "sizes": sizes, "src": SRC,
                    "nproc": nproc(), "thread_vars": THREAD_VARS,
                    "measure": rep == SETUP_REPS - 1,
                    "budget_s": budget - 10.0}
            with open(os.path.join(work, "spec.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(spec, fh)
            if not start_worker(work, sizes.get("n_jobs", 1), budget):
                raise RuntimeError(f"{workload}: the worker failed")
            with open(os.path.join(work, "result.json"), "r",
                      encoding="utf-8") as fh:
                result = json.load(fh)
            setup.append(prepared_s + result["ready_s"])

        failures = []
        for op in result["ops"]:
            failed = [op["error"].strip().splitlines()[-1]] if op["error"] \
                else wl.check(op["out"])
            op["failed"] = failed
            failures += failed
        if trace:
            os.replace(os.path.join(work, "spans.json"),
                       os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    attempted = len(ops)
    n_failed = sum(1 for op in ops if op["failed"])
    times = [op["seconds"] for op in ops]
    if trace:
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
                   for name, value in result["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(times),
            "throughput_per_s": sum(op["units"] for op in ops) / sum(times),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": (attempted - n_failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    report = {"correct": n_failed == 0, "attempted": attempted,
              "failed": n_failed, "metrics": metrics}
    return report, result, failures


def table(workload, seed, trace, report, result, failures):
    """Readable lines printed before the JSON result."""
    lines = [f"# {workload} seed={seed} trace={trace}: "
             f"{report['attempted']} operations, {report['failed']} failed",
             "# environment " + json.dumps(result["environment"],
                                            sort_keys=True)]
    if trace and workload == "study-2k":
        lines.append("# traced study ran its replicates with n_jobs=1: pool "
                     "workers cannot return spans")
    metrics = report["metrics"]
    if not trace:
        rate = metrics["throughput_per_s"]["value"]
        other = ({"draws_per_s", "fits_per_s"} - {WORK_UNIT[workload]}).pop()
        fail_frac = report["failed"] / report["attempted"]
        rows = [("setup_s", metrics["setup_s"]["value"], "s"),
                ("run_s", metrics["run_s"]["value"], "s"),
                (WORK_UNIT[workload], rate, "1/s"),
                (other, None, "1/s"),
                ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB"),
                ("fail_frac", fail_frac, "ratio")]
    else:
        rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    for name, value, unit in rows:
        shown = "n/a (no such work in this workload)" if value is None \
            else f"{value:.6g} {unit}"
        lines.append(f"#   {name:40s} {shown}")
    lines += [f"# FAILED CHECK: {f}" for f in failures]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout():
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        report, result, failures = run_benchmark(
            args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in table(args.workload, args.seed, args.trace, report, result,
                      failures):
        print(line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
