"""Worker process: warm up, then time one workload's operation.

Started by run.py in a fresh interpreter, once per set-up; only the last
one, with ``measure`` set in its spec, goes on to time operations.  The
peak resident set it reports therefore belongs to this workload alone and
excludes the input preparation done by run.py.  Usage: ``python3 worker.py <work dir>``; the
work dir holds ``spec.json`` and the prepared inputs, and the worker writes
``result.json`` there.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment(spec):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": spec["nproc"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in spec["thread_vars"]},
        "n_jobs": spec["sizes"].get("n_jobs", 1),
    }


def timed(workload, state, out):
    """Run one operation: (seconds, error or None, units of work done).

    Outputs go to `out`.
    """
    start = time.perf_counter()
    try:
        result = workload.run(state, out)
    except Exception:  # a failing operation is counted, not fatal
        return time.perf_counter() - start, traceback.format_exc(), 0
    elapsed = time.perf_counter() - start
    return elapsed, None, workload.record(state, result, out)


def main(work):
    started = time.perf_counter()
    with open(os.path.join(work, "spec.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    state = workload.load(work, spec["sizes"])
    workload.warm_up(state)
    ready_s = time.perf_counter() - started

    ops = []

    def op(index):
        out = os.path.join(work, f"op{index}")
        seconds, error, units = timed(workload, state, out)
        ops.append({"out": out, "seconds": seconds, "error": error,
                    "units": units})
        if error:
            print(error, file=sys.stderr)

    result = {"ready_s": ready_s, "environment": environment(spec)}
    if not spec["measure"]:
        write_result(work, result)
        return
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer(run_id=f"{spec['workload']}:{spec['seed']}")
        tracer.install()
        try:
            op(0)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(work, "spans.json"))
        result["layers"] = tracing.layer_metrics(tracer.spans,
                                                 tracer.overhead_s())
    else:
        # whole operations until `seconds` of measured time, at least one,
        # and never one that would overrun the time budget
        while True:
            op(len(ops))
            measured = sum(o["seconds"] for o in ops)
            elapsed = time.perf_counter() - started
            if (measured >= spec["seconds"]
                    or elapsed + max(o["seconds"] for o in ops)
                    > spec["budget_s"]):
                break
    result["ops"] = ops
    result["peak_rss_mb"] = peak_rss_mb()
    write_result(work, result)


def write_result(work, result):
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
