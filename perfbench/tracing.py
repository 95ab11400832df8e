"""Per-layer spans recorded from outside the endosurv package.

`Tracer.install` replaces every public module-level function of each traced
endosurv module with a wrapper that records a span: name, start, end, parent
span and run id, plus a few attributes (BVN rows, fit kind, TR iterations)
that the per-layer metrics need.  The package calls its own layers through
module attributes (``lk.loglik``, ``nm.bvn_cdf``) or module globals, so the
wrappers see those calls without any change to ``src/``.  Spans stay in
memory until `write` is called at the end of the run.

The stack of open spans assumes one thread, which is why a traced study runs
its replicates in-process (``n_jobs=1``): pool workers could not return their
spans.
"""

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

TRACED_MODULES = ("numerics", "splines", "design", "likelihood", "optimizer",
                  "inference", "simulate", "cli")

CALIBRATION_CALLS = 20000   # no-op calls timed per calibration round

UNIVARIATE = ("likelihood.loglik_survival", "likelihood.score_hessian_survival",
              "likelihood.loglik_probit", "likelihood.score_hessian_probit")

# Every per-layer metric: name -> (unit, better).  BENCHMARK.json lists the
# same names; the self-test checks that the two agree.
PER_LAYER = {
    "numerics.bvn_cdf.calls": ("count", "lower"),
    "numerics.bvn_cdf.rows": ("count", "lower"),
    "numerics.bvn_cdf.s": ("s", "lower"),
    "numerics.bvn_cdf.ns_per_row": ("ns", "lower"),
    "likelihood.loglik.calls": ("count", "lower"),
    "likelihood.loglik.s": ("s", "lower"),
    "likelihood.score.calls": ("count", "lower"),
    "likelihood.score.s": ("s", "lower"),
    "likelihood.hessian.calls": ("count", "lower"),
    "likelihood.hessian.s": ("s", "lower"),
    "likelihood.hessian.ms_per_call": ("ms", "lower"),
    "likelihood.univariate.calls": ("count", "lower"),
    "likelihood.univariate.s": ("s", "lower"),
    "likelihood.bvn_rows_per_accepted_step": ("rows/step", "lower"),
    "likelihood.loglik_calls_per_tr_step": ("calls/step", "lower"),
    "optimizer.tr.calls": ("count", "lower"),
    "optimizer.tr.iterations": ("count", "lower"),
    "optimizer.tr.rejections": ("count", "lower"),
    "optimizer.tr.s": ("s", "lower"),
    "optimizer.tr.self_s": ("s", "lower"),
    "optimizer.accept_ratio": ("ratio", "higher"),
    "optimizer.lambda.inner_fits_per_fit": ("fits/fit", "lower"),
    "optimizer.initial_values.s": ("s", "lower"),
    "design.assemble.calls": ("count", "lower"),
    "design.assemble.s": ("s", "lower"),
    "splines.build_smooth_term.s": ("s", "lower"),
    "splines.build_monotone_term.s": ("s", "lower"),
    "inference.covariance.calls": ("calls/fit", "lower"),
    "inference.covariance.s": ("s", "lower"),
    "inference.summary.s": ("s", "lower"),
    "inference.sate.s": ("s", "lower"),
    "inference.survival_curves.s": ("s", "lower"),
    "inference.ns_per_draw_row": ("ns", "lower"),
    "simulate.generate.s": ("s", "lower"),
    "simulate.sate_true.s": ("s", "lower"),
    "simulate.run_study.s": ("s", "lower"),
    "cli.ingest.s": ("s", "lower"),
    "cli.write.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics that depend only on the inputs, never on the machine: two traced
# runs with the same seed must report them identically.
EXACT = (
    "numerics.bvn_cdf.calls", "numerics.bvn_cdf.rows",
    "likelihood.loglik.calls", "likelihood.score.calls",
    "likelihood.hessian.calls", "likelihood.univariate.calls",
    "likelihood.bvn_rows_per_accepted_step",
    "likelihood.loglik_calls_per_tr_step",
    "optimizer.tr.calls", "optimizer.tr.iterations", "optimizer.tr.rejections",
    "optimizer.accept_ratio", "optimizer.lambda.inner_fits_per_fit",
    "design.assemble.calls", "inference.covariance.calls",
)


def _bvn_rows(bound):
    import numpy as np
    a, b, rho = (bound.arguments[k] for k in ("a", "b", "rho"))
    return {"rows": int(np.broadcast(np.asarray(a), np.asarray(b),
                                     np.asarray(rho)).size)}


def _fit_kind(bound):
    return {"kind": bound.arguments.get("kind", "joint")}


def _sate_rows(bound):
    from endosurv.inference import GroupDef
    args = bound.arguments
    rows = GroupDef("all", where=args.get("where") or {}).rows(args["fit"].bundle)
    return {"draw_rows": 2 * (max(args.get("draws", 0), 0) + 1) * int(rows.sum())}


def _curve_rows(bound):
    from endosurv.inference import GroupDef
    args = bound.arguments
    groups = args.get("groups") or [GroupDef("treated", d=1),
                                    GroupDef("control", d=0)]
    rows = sum(int(g.rows(args["fit"].bundle).sum()) for g in groups)
    return {"draw_rows": (max(args.get("draws", 0), 0) + 1) * rows}


def _tr_report(result):
    return {"iterations": result.report.iterations,
            "rejections": result.report.rejections}


# attributes taken from the bound call arguments / from the return value
_CALL_ATTRS = {
    "numerics.bvn_cdf": _bvn_rows,
    "optimizer.fit_view": _fit_kind,
    "inference.sate": _sate_rows,
    "inference.survival_curves": _curve_rows,
}
_RESULT_ATTRS = {"optimizer.trust_region_maximize": _tr_report}
# calls that factorize -H_p of their `fit` argument
_FACTORIZATIONS = ("inference.covariance", "inference.edf")


class Tracer:
    """Span recorder; `install` wraps the package, `uninstall` restores it."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index, attrs]
        self.attr_s = 0.0        # time spent computing span attributes
        self._stack = []
        self._patched = []
        # id(fit) -> (number, fit); holding each fit keeps its id from being
        # reused by a later fit of the same operation
        self._fits = {}

    def install(self):
        for short in TRACED_MODULES:
            module = importlib.import_module(f"endosurv.{short}")
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                setattr(module, name, self._wrap(f"{short}.{name}", fn))
                self._patched.append((module, name, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()
        self._fits.clear()

    def _fit_number(self, bound):
        fit = bound.arguments["fit"]
        number, _ = self._fits.setdefault(id(fit), (len(self._fits), fit))
        return {"fit": number}

    def _wrap(self, name, fn):
        call_attrs = (self._fit_number if name in _FACTORIZATIONS
                      else _CALL_ATTRS.get(name))
        result_attrs = _RESULT_ATTRS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if call_attrs is not None:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = call_attrs(bound)
                self.attr_s += time.perf_counter() - t0
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    attrs]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if result_attrs is not None:
                t0 = time.perf_counter()
                attrs.update(result_attrs(result))
                self.attr_s += time.perf_counter() - t0
            return result

        return traced

    def overhead_s(self):
        """Time the tracing added to the traced calls.

        A span without attributes costs what wrapping a no-op function adds
        to calling it, timed here in a loop (best of three); attributes cost
        the `attr_s` measured while tracing.
        """
        def noop():
            return None

        wrapped = Tracer("calibration")._wrap("calibration.noop", noop)
        per_span = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                noop()
            t1 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            t2 = time.perf_counter()
            per_span.append(((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
        return len(self.spans) * max(min(per_span), 0.0) + self.attr_s

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent][3]


def _tr_is_joint(spans, index):
    """A TR call belongs to the joint fit unless it computes starting values."""
    for span in _ancestors(spans, index):
        if span[0] == "optimizer.initial_values":
            return False
        if span[0] == "optimizer.fit_view":
            return span[4]["kind"] == "joint"
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, overhead_s):
    """Per-layer metrics of one traced operation; see PER_LAYER for units."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    child_s = defaultdict(float)
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            child_s[parent] += end - start
    for index, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_s[index]

    def attr_sum(name, key):
        return sum(s[4].get(key, 0) for s in spans if s[0] == name)

    tr = [i for i, s in enumerate(spans)
          if s[0] == "optimizer.trust_region_maximize"]
    tr_iter = sum(spans[i][4]["iterations"] for i in tr)
    tr_rej = sum(spans[i][4]["rejections"] for i in tr)
    joint = [i for i in tr if _tr_is_joint(spans, i)]
    joint_iter = sum(spans[i][4]["iterations"] for i in joint)
    joint_steps = joint_iter + sum(spans[i][4]["rejections"] for i in joint)
    inner = [i for i in tr if not any(
        s[0] == "optimizer.initial_values" for s in _ancestors(spans, i))]
    bvn_rows = attr_sum("numerics.bvn_cdf", "rows")
    factorizations = [s for s in spans if s[0] in _FACTORIZATIONS]
    fits = {s[4]["fit"] for s in factorizations}
    draw_rows = (attr_sum("inference.sate", "draw_rows")
                 + attr_sum("inference.survival_curves", "draw_rows"))
    posterior_s = total["inference.sate"] + total["inference.survival_curves"]

    values = {
        "numerics.bvn_cdf.calls": calls["numerics.bvn_cdf"],
        "numerics.bvn_cdf.rows": bvn_rows,
        "numerics.bvn_cdf.s": total["numerics.bvn_cdf"],
        "numerics.bvn_cdf.ns_per_row": 1e9 * _ratio(total["numerics.bvn_cdf"],
                                                    bvn_rows),
        "likelihood.hessian.ms_per_call": 1e3 * _ratio(
            total["likelihood.hessian"], calls["likelihood.hessian"]),
        "likelihood.univariate.calls": sum(calls[n] for n in UNIVARIATE),
        "likelihood.univariate.s": sum(total[n] for n in UNIVARIATE),
        "likelihood.bvn_rows_per_accepted_step": _ratio(bvn_rows, joint_iter),
        "likelihood.loglik_calls_per_tr_step": _ratio(
            calls["likelihood.loglik"], joint_steps),
        "optimizer.tr.calls": len(tr),
        "optimizer.tr.iterations": tr_iter,
        "optimizer.tr.rejections": tr_rej,
        "optimizer.tr.s": total["optimizer.trust_region_maximize"],
        "optimizer.tr.self_s": self_s["optimizer.trust_region_maximize"],
        "optimizer.accept_ratio": _ratio(tr_iter, tr_iter + tr_rej),
        "optimizer.lambda.inner_fits_per_fit": _ratio(
            len(inner), calls["optimizer.fit_view"]),
        "optimizer.initial_values.s": total["optimizer.initial_values"],
        "design.assemble.calls": calls["design.assemble"],
        "inference.covariance.calls": _ratio(len(factorizations), len(fits)),
        "inference.ns_per_draw_row": 1e9 * _ratio(posterior_s, draw_rows),
        "cli.write.s": total["cli.write_json"] + total["cli.write_tsv"],
        "cli.self_s": self_s["cli.main"],
        "trace.overhead_s": overhead_s,
    }
    for name in ("likelihood.loglik", "likelihood.score", "likelihood.hessian"):
        values[f"{name}.calls"] = calls[name]
    for name in ("likelihood.loglik", "likelihood.score", "likelihood.hessian",
                 "design.assemble", "splines.build_smooth_term",
                 "splines.build_monotone_term", "inference.covariance",
                 "inference.summary", "inference.sate",
                 "inference.survival_curves", "simulate.generate",
                 "simulate.sate_true", "simulate.run_study", "cli.ingest"):
        values[f"{name}.s"] = total[name]
    return {name: values[name] for name in PER_LAYER}
