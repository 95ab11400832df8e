"""Small-size self-test of the benchmark itself.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.
Takes about two minutes.  It checks that

* BENCHMARK.json names exactly the metrics the benchmark emits, with the
  same units;
* every workload, traced and untraced, runs at a small size, passes its
  output checks and emits every metric with its unit;
* corrupting an operation's output makes an output check fail;
* two traced runs with one seed report identical machine-independent counts.

Exits 1 on the first failed expectation.
"""

import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

SMALL = {
    "cli-fit-20k": {"n": 600, "draws": 10, "grid_points": 20},
    "posterior-20k": {"n": 600, "draws": 10, "grid_points": 20},
    # the bias tolerance is set for n=2000; at n=500 two replicates can
    # miss it by chance
    "study-2k": {"n": 2000, "replicates": 2, "n_jobs": 2},
}
SEED = 5


class Failed(Exception):
    pass


def expect(ok, what):
    if not ok:
        raise Failed(what)
    print(f"ok   {what}")


def check_declared_metrics(run, tracing):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]}
           == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
           == tracing.PER_LAYER, "BENCHMARK.json per_layer matches tracing.py")
    expect({w["name"] for w in bench["workloads"]} == set(SMALL),
           "BENCHMARK.json lists every workload")


def check_runs(run, tracing):
    for workload, sizes in SMALL.items():
        for trace, declared in ((0, run.END_TO_END),
                                (1, {k: u for k, (u, _)
                                     in tracing.PER_LAYER.items()})):
            report = run.run_benchmark(workload, SEED, 1, trace, sizes)[0]
            label = f"{workload} trace={trace}"
            expect(report["correct"] and report["failed"] == 0
                   and report["attempted"] >= 1, f"{label}: outputs correct")
            expect({k: m["unit"] for k, m in report["metrics"].items()}
                   == declared, f"{label}: every metric emitted with its unit")
            values = [m["value"] for m in report["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values),
                   f"{label}: every value is a number")
            if not trace:
                expect(all(v > 0 for v in values),
                       f"{label}: no end-to-end metric is zero")


def _edit_json(path, edit):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _edit_tsv(path, edit):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    edit(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["\t".join(header)]
                           + ["\t".join(r[h] for h in header) for r in rows])
                 + "\n")


def _bump(rows, key, group=None, index=1, by=1e-3):
    picked = [r for r in rows if group is None or r["group"] == group]
    picked[index][key] = repr(float(picked[index][key]) + by)


def _collapse_band(rows):
    for row in rows:
        row["lo"] = row["hi"] = row["estimate"]


def _set(key, value):
    def edit(payload):
        payload[key] = value
    return edit


# workload -> [(what is broken, file, editor, words of the expected failure)]
CORRUPTIONS = {
    "cli-fit-20k": [
        ("non-zero exit code", "op.json", _set("exit_code", 4), "exit code"),
        ("summary does not parse", "summary.json", None, "does not parse"),
        ("fit not converged", "summary.json", _set("converged", False),
         "did not converge"),
        ("curve increases", "curves.tsv",
         lambda rows: _bump(rows, "estimate", "control", -1, by=0.5),
         "not non-increasing"),
        ("band misses its estimate", "curves.tsv",
         lambda rows: _bump(rows, "lo", "control", 1, by=2.0),
         "band does not contain"),
        ("band has no width", "sate.tsv", _collapse_band, "band has no width"),
        ("sate is not treated minus control", "sate.tsv",
         lambda rows: _bump(rows, "estimate", by=1e-9), "treated minus control"),
    ],
    "posterior-20k": [
        ("fit not converged", "posterior.json", _set("converged", False),
         "did not converge"),
        ("sate is not treated minus control", "posterior.json",
         lambda p: p["sate"][0].__setitem__(0, p["sate"][0][0] + 1e-9),
         "treated minus control"),
        ("curve increases", "posterior.json",
         lambda p: p["groups"]["treated_w1"][0].__setitem__(-1, 2.0),
         "not non-increasing"),
        ("band has no width", "posterior.json",
         lambda p: p["groups"]["control"].__setitem__(
             slice(1, 3), [p["groups"]["control"][0]] * 2),
         "band has no width"),
    ],
    "study-2k": [
        ("a replicate did not converge", "report.json",
         lambda p: p.__setitem__("n_converged_uni", p["replicates"] - 1),
         "converged"),
        ("bias beyond tolerance", "report.json",
         lambda p: p["beta_d_joint"].__setitem__("bias", 0.5), "bias"),
        ("report does not parse", "report.json", None, "does not parse"),
    ],
}


def check_corruptions(workloads, temp_dir):
    for workload, cases in CORRUPTIONS.items():
        wl = workloads.WORKLOADS[workload]
        work = os.path.join(temp_dir, workload)
        os.makedirs(work)
        wl.prepare(work, SMALL[workload], SEED)
        state = wl.load(work, SMALL[workload])
        out = os.path.join(work, "op")
        with contextlib.redirect_stdout(sys.stderr):
            wl.record(state, wl.run(state, out), out)
        expect(wl.check(out) == [], f"{workload}: clean output passes")
        for what, name, edit, words in cases:
            broken = os.path.join(work, "broken")
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(out, broken)
            path = os.path.join(broken, name)
            if edit is None:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("{not json")
            elif name.endswith(".tsv"):
                _edit_tsv(path, edit)
            else:
                _edit_json(path, edit)
            failed = wl.check(broken)
            expect(any(words in f for f in failed),
                   f"{workload}: {what} is caught ({failed})")


def main():
    sys.path.insert(0, HERE)
    import run
    if not run.use_checkout():
        return 2
    import repeat_check
    import tracing
    import workloads

    temp_dir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    try:
        check_declared_metrics(run, tracing)
        check_runs(run, tracing)
        check_corruptions(workloads, temp_dir)
        for workload in ("cli-fit-20k", "study-2k"):
            _, bad = repeat_check.repeat(workload, SEED, SMALL[workload])
            expect(bad == [], f"{workload}: traced counts repeat exactly")
    except Failed as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(temp_dir, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
