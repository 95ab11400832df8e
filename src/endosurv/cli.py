"""Batch front end: CSV in, fitted model summaries and curve tables out.

Subcommands: ``fit`` (write summary.json, curves.tsv, sate.tsv, manifest),
``sate`` / ``curves`` (just the respective table), ``simulate`` (emit a
synthetic dataset or run a replication study) and ``check`` (analytic
derivatives against finite differences).

A flat ``key = value`` file and a prior run's JSON manifest share one schema,
the fields of RunConfig (text ``outcome_term``/``selection_term``/``group``
lines fill ``outcome_terms``/``selection_terms``/``group``).  Both are read
into (key, value, 'line N') triples, the flags ``--data``, ``--out``,
``--seed``, ``--sate-week`` and ``--group`` are appended as triples named by
the flag, and one check builds the RunConfig: an unknown key, a repeated one
(bar term lines, and group lines for different columns) or a bad value (a
boolean is true/false, yes/no or 1/0) is a ConfigurationError naming its
place, before any data is read.

Exit codes: 0 ok, 2 configuration error, 3 ingestion error,
4 non-convergence, 5 inference failure.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import design as dz
from . import inference
from . import likelihood as lk
from . import optimizer as op
from . import simulate as sim
from .errors import ConfigurationError, DomainError, IngestionError, InferenceError

@dataclass
class RunConfig:
    """One run's settings; its fields are the config keys of both formats."""

    data: str
    time: str
    status: str
    treatment: str
    outcome_terms: list
    selection_terms: list = field(default_factory=list)
    out_dir: str = "endosurv-out"
    seed: int = 0
    draws: int = 100
    level: float = 0.05
    grid_points: int = 100
    sate_week: float | None = None
    group: dict = field(default_factory=dict)
    fit_univariate: bool = False
    lambda_fixed: list | None = None


# numbers: (type, accepts, what a valid value is)
_NUMERIC = {
    "seed": (int, lambda v: v >= 0, "an integer >= 0"),
    "draws": (int, lambda v: v >= 0, "an integer >= 0"),
    "level": (float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)"),
    "grid_points": (int, lambda v: v >= 1, "an integer >= 1"),
    "sate_week": (float, math.isfinite, "a finite number"),
    "group": (float, math.isfinite, "a finite number"),
    "J": (int, lambda v: v >= 1, "an integer >= 1"),
    "jobs": (int, lambda v: v >= 1, "an integer >= 1"),
}
_BOOLEAN = {"true": True, "yes": True, "1": True,
            "false": False, "no": False, "0": False}
# text keys given once per item, and the RunConfig field they fill
_COLLECTED = {"outcome_term": "outcome_terms",
              "selection_term": "selection_terms", "group": "group"}
# command-line overrides: (flag, argparse attribute, RunConfig field)
_FLAGS = (("--data", "data", "data"), ("--out", "out", "out_dir"),
          ("--seed", "seed", "seed"), ("--sate-week", "sate_week", "sate_week"),
          ("--group", "group", "group"))


def _number(key, value, where):
    """``value`` as ``key``'s type, or a ConfigurationError naming ``where``."""
    kind, accepts, need = _NUMERIC[key]
    try:
        number = kind(value)
        valid = (not isinstance(value, bool) and number == float(value)
                 and accepts(number))
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ConfigurationError(f"{where}: {key} must be {need}, got {value!r}")
    return number


def _parse_term(text, where="term"):
    """A model term from its text, e.g. ``smooth:age J=12``."""
    parts = text.split() if isinstance(text, str) else []
    if not parts:
        raise ConfigurationError(f"{where}: expected a term, got {text!r}")
    kind, _, column = parts[0].partition(":")
    J = None
    for extra in parts[1:]:
        if not extra.lower().startswith("j="):
            raise ConfigurationError(f"{where}: unknown term option {extra!r}")
        J = _number("J", extra[2:], where)
    try:
        return dz.Term(kind.lower(), column or None, J)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _term_to_text(term):
    base = f"{term.kind}:{term.column}" if term.column else term.kind
    return base + (f" J={term.J}" if term.J is not None else "")


def _group(value, where):
    """Group filters {column: number} from a mapping or 'column=value' items."""
    if isinstance(value, list) and all(isinstance(v, str) and "=" in v
                                       for v in value):
        items, value = value, {}
        for text in items:
            col, val = text.split("=", 1)
            if col.strip() in value:
                raise ConfigurationError(f"{where}: group column "
                                         f"{col.strip()!r} is given twice")
            value[col.strip()] = val
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where}: group must be column=value "
                                 f"filters, got {value!r}")
    return {col.strip(): _number("group", val, where) for col, val in value.items()}


def _checked(key, value, where):
    """``value`` as RunConfig's ``key``, or a ConfigurationError naming ``where``."""
    if key == "group":
        return _group(value, where)
    if key in _NUMERIC:
        return _number(key, value, where)
    if key == "fit_univariate":
        spelled = (value if isinstance(value, bool)
                   else _BOOLEAN.get(str(value).lower()))
        if spelled is None:
            raise ConfigurationError(f"{where}: fit_univariate must be true/false, "
                                     f"yes/no or 1/0, got {value!r}")
        return spelled
    if key == "lambda_fixed":
        values = value.split(",") if isinstance(value, str) else value
        try:
            op.FitOptions(lambda_fixed=values).validate()
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        return np.asarray(values, dtype=float).tolist()
    if key.endswith("_terms"):
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}: {key} must be a list, got {value!r}")
        return [_term_to_text(_parse_term(t, where)) for t in value]
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"{where}: {key} must be non-empty text, "
                                 f"got {value!r}")
    return value


def _build(pairs):
    """The RunConfig of checked (key, value, where) triples: terms and group
    filters accumulate, other keys take the last value; null or [] is unset."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    for key, value, where in pairs:
        if key not in fields:
            raise ConfigurationError(f"{where}: unknown config key {key!r}")
        if value is None or value == []:
            continue
        value = _checked(key, value, where)
        if key == "group":
            value = {**values.get(key, {}), **value}
        elif key.endswith("_terms"):
            value = values.get(key, []) + value
        values[key] = value
    for f in fields.values():
        if (f.name not in values and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigurationError(f"config key {f.name!r} is required")
    return RunConfig(**values)


def _text_pairs(text):
    """(key, value, 'line N') per line of a key = value text."""
    pairs, lines, group_lines = [], {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if "=" not in line:
            raise ConfigurationError(f"{where}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.lower().replace("-", "_")
        if key == "group" and "=" in value:
            column = value.split("=", 1)[0].strip()
            if column in group_lines:
                raise ConfigurationError(f"{where}: group column {column!r} is "
                                         f"already set on {group_lines[column]}")
            group_lines[column] = where
        if key in _COLLECTED:
            pairs.append((_COLLECTED[key], [value], where))
            continue
        if key in lines:
            raise ConfigurationError(f"{where}: {key} is already set on "
                                     f"{lines[key]}")
        lines[key] = where
        pairs.append((key, value, where))
    return pairs


def _unique(items):
    """A JSON object from its (key, value) items; a repeated key is an error."""
    keys = [key for key, _ in items]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ConfigurationError(f"manifest: {key} is given twice")
    return dict(items)


def _json_pairs(text):
    """(key, value, 'line N') per key of a manifest's config object."""
    payload = json.loads(text, object_pairs_hook=_unique)
    cfg = payload.get("config", payload)
    if not isinstance(cfg, dict):
        raise ConfigurationError("the manifest's config must be a JSON object")
    pairs = []
    for key, value in cfg.items():
        match = re.search(rf'"{re.escape(key)}"\s*:', text)  # first mention
        line = text.count("\n", 0, match.start()) + 1 if match else None
        pairs.append((key, value, f"line {line}" if line else "manifest"))
    return pairs


def parse_config(path, overrides=()) -> RunConfig:
    """Flat key = value text, or a JSON manifest produced by a prior run,
    with ``overrides`` (command-line flags) applied: one checked RunConfig."""
    with open(path, "r", encoding="utf-8-sig") as fh:   # a BOM is dropped
        text = fh.read()
    read = _json_pairs if text.lstrip().startswith("{") else _text_pairs
    return _build(read(text) + list(overrides))


def build_model_spec(config: RunConfig) -> dz.ModelSpec:
    outcome = [_parse_term(t) for t in config.outcome_terms]
    selection = [_parse_term(t) for t in config.selection_terms]
    roles = {config.time, config.status, config.treatment}
    if len(roles) < 3:
        raise ConfigurationError("time, status and treatment must be three "
                                 "different columns")
    for t in outcome + selection:
        if t.column in roles:
            raise ConfigurationError(f"column {t.column!r} already has a role "
                                     "and cannot be a covariate")
    spec = dz.ModelSpec(outcome_terms=outcome, selection_terms=selection)
    spec.validate()   # before any data is read
    return spec


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def ingest(path, time_col, status_col, treat_col) -> dz.DataSet:
    """Strict CSV reader: typed columns, recorded level maps, row-indexed errors."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open {path!r}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path!r} is empty")
        header = [h.strip() for h in header]
        for j, h in enumerate(header):
            if h in header[:j]:
                raise IngestionError(f"column {h!r} appears twice in the header")
        for col in (time_col, status_col, treat_col):
            if col not in header:
                raise IngestionError(f"unknown column {col!r} (header: {header})")
        raw = {h: [] for h in header}
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise IngestionError(f"row {i}: expected {len(header)} fields, "
                                     f"got {len(row)}")
            for h, v in zip(header, row):
                v = v.strip()
                if v == "" or v.upper() in ("NA", "NAN"):
                    raise IngestionError(f"row {i}: missing value in column {h!r}")
                raw[h].append(v)
    if not raw[time_col]:
        raise IngestionError(f"{path!r} contains no data rows")

    def numeric_or_levels(name, values):
        try:
            return np.array([float(v) for v in values]), None
        except ValueError:
            levels = sorted(set(values))
            mapping = {lev: float(i) for i, lev in enumerate(levels)}
            return np.array([mapping[v] for v in values]), mapping

    def strict_numeric(name, values):
        out = np.empty(len(values))
        for i, v in enumerate(values):
            try:
                out[i] = float(v)
            except ValueError:
                raise IngestionError(f"row {i + 1}: column {name!r} has "
                                     f"non-numeric value {v!r}")
        return out

    time = strict_numeric(time_col, raw[time_col])
    bad = np.nonzero(~np.isfinite(time) | (time <= 0.0))[0]
    if bad.size:
        raise IngestionError(f"row {bad[0] + 1}: column {time_col!r} must be "
                             f"a positive time, got {raw[time_col][bad[0]]!r}")

    def binary(name):
        vals = strict_numeric(name, raw[name])
        bad = np.nonzero(~np.isin(vals, (0.0, 1.0)))[0]
        if bad.size:
            raise IngestionError(f"row {bad[0] + 1}: column {name!r} must be "
                                 f"0/1, got {raw[name][bad[0]]!r}")
        return vals.astype(int)

    status = binary(status_col)
    treatment = binary(treat_col)
    covariates, level_maps = {}, {}
    for h in header:
        if h in (time_col, status_col, treat_col):
            continue
        vals, mapping = numeric_or_levels(h, raw[h])
        if not np.all(np.isfinite(vals)):
            i = int(np.nonzero(~np.isfinite(vals))[0][0])
            raise IngestionError(f"row {i + 1}: column {h!r} is not finite")
        covariates[h] = vals
        if mapping is not None:
            level_maps[h] = mapping
    return dz.DataSet(time=time, status=status, treatment=treatment,
                      covariates=covariates, level_maps=level_maps)


# ---------------------------------------------------------------------------
# deterministic serialization: floats in Python's shortest round-trip form,
# so a whole value is written 1.0 and reads back as a float; a file's text is
# formed before it is opened, so a refused write leaves no file behind
# ---------------------------------------------------------------------------

def write_json(path, payload):
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise InferenceError(f"refusing to write a non-finite number to {path}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_tsv(path, header, rows, sep="\t"):
    lines = [sep.join(header)]
    for row in rows:
        if not all(math.isfinite(v) for v in row if isinstance(v, float)):
            raise InferenceError(f"refusing to write a non-finite number to {path}")
        lines.append(sep.join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def _summary_payload(fit, level, level_maps):
    s = inference.summary(fit, level=level)
    payload = s.as_dict()
    payload["lambda"] = [   # in lambda-index order, as the blocks are
        {"equation": b.eq, "name": b.name, "value": float(fit.lam[b.lambda_index])}
        for b in fit.blocks if b.lambda_index is not None]
    payload["convergence"] = {
        "converged": fit.convergence.converged,
        "iterations": fit.convergence.iterations,
        "final_grad_norm": fit.convergence.final_grad_norm,
        "trust_region_rejections": fit.convergence.rejections,
    }
    payload["case_counts"] = dict(zip(
        lk.CASE_LABELS, np.diff(fit.bundle.case_bounds).tolist()))
    if level_maps:
        payload["level_maps"] = level_maps
    return payload


def _run_pipeline(config: RunConfig, want):
    spec = build_model_spec(config)
    if config.fit_univariate and config.lambda_fixed is not None:
        # the outcome-only fit runs after the joint fit; check before either
        need = spec.penalty_count(eq=1)
        if len(config.lambda_fixed) != need:
            raise ConfigurationError(
                f"lambda_fixed has {len(config.lambda_fixed)} entries, but "
                f"fit_univariate's outcome-only fit needs {need}")
    data = ingest(config.data, config.time, config.status, config.treatment)
    bundle = dz.assemble(spec, data)
    if config.sate_week is not None and "sate" in want:
        a, b = bundle.mono_interval
        if not a <= config.sate_week <= b:
            raise ConfigurationError(
                f"sate_week {config.sate_week!r} lies outside the fitted "
                f"interval [{a:.6g}, {b:.6g}]")
    pair = [inference.GroupDef("treated", d=1, where=config.group),
            inference.GroupDef("control", d=0, where=config.group)]
    pair[0].rows(bundle)   # a bad row filter fails before the fit
    options = op.FitOptions(lambda_fixed=config.lambda_fixed)
    fit = op.fit(bundle, options)
    if not fit.convergence.converged:
        raise _NonConvergence(fit)

    os.makedirs(config.out_dir, exist_ok=True)
    outputs = {}

    manifest = {
        "tool": "endosurv",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "config": dataclasses.asdict(config),
    }
    write_json(os.path.join(config.out_dir, "manifest.json"), manifest)
    outputs["manifest"] = "manifest.json"

    if "summary" in want:
        payload = _summary_payload(fit, config.level, data.level_maps)
        if config.fit_univariate:
            ufit = op.fit_outcome_only(bundle, options)
            if ufit.convergence.converged:
                payload["univariate"] = _summary_payload(
                    ufit, config.level, {})
            else:
                payload["univariate"] = {"converged": False}
        write_json(os.path.join(config.out_dir, "summary.json"), payload)
        outputs["summary"] = "summary.json"

    grid = np.linspace(float(data.time.min()), float(data.time.max()),
                       config.grid_points)
    t, sate_t = grid, slice(None)
    if config.sate_week is not None and "sate" in want:
        # one more grid point of the same posterior pass
        t = np.append(grid if "curves" in want else [], config.sate_week)
        sate_t = slice(-1, None)
    cs = inference.posterior_curves(
        fit, t, groups=pair if "curves" in want else (),
        contrast=pair if "sate" in want else None, level=config.level,
        draws=config.draws, seed=config.seed)

    if "curves" in want:
        rows = []
        for name, (est, lo, hi) in cs.groups.items():
            for i, t_i in enumerate(grid):
                rows.append((float(t_i), name, float(est[i]), float(lo[i]),
                             float(hi[i])))
        write_tsv(os.path.join(config.out_dir, "curves.tsv"),
                  ("t", "group", "estimate", "lo", "hi"), rows)
        outputs["curves"] = "curves.tsv"

    if "sate" in want:
        est, lo, hi = (v[sate_t] for v in cs.sate)
        rows = [(float(t_i), float(est[i]), float(lo[i]), float(hi[i]))
                for i, t_i in enumerate(cs.t[sate_t])]
        write_tsv(os.path.join(config.out_dir, "sate.tsv"),
                  ("t", "estimate", "lo", "hi"), rows)
        outputs["sate"] = "sate.tsv"
    return outputs


class _NonConvergence(Exception):
    def __init__(self, fit):
        super().__init__("fit did not converge: "
                         f"{fit.convergence.message or 'iteration cap'}")
        self.fit = fit


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_pipeline(args):
    config = parse_config(args.config, [(key, getattr(args, attr, None), flag)
                                        for flag, attr, key in _FLAGS])
    outputs = _run_pipeline(config, want=args.want)
    print(f"wrote {', '.join(sorted(outputs.values()))} to {config.out_dir}")
    return 0


def _cmd_simulate(args):
    presets = {
        "strong": dict(instrument_coef=2.0),
        "weak": dict(instrument_coef=0.2),
        "null": dict(beta_1u=0.0, beta_2u=0.0),
        "misspec": dict(error_dist="t5"),
    }
    kw = presets[args.preset]
    config = sim.DgpConfig(n=args.n, beta_d=args.beta_d, **kw)
    config.validate()
    seed = _number("seed", args.seed, "--seed")
    if args.emit_data:
        data = sim.generate(config, seed=seed)
        rows = zip(data.time, data.status, data.treatment,
                   data.covariates["x"], data.covariates["w"])
        write_tsv(args.emit_data, ("time", "status", "treatment", "x", "w"),
                  rows, sep=",")
        print(f"wrote {config.n} rows to {args.emit_data}")
        return 0
    report = sim.run_study(config, replicates=args.replicates,
                           master_seed=seed,
                           n_jobs=_number("jobs", args.jobs, "--jobs"))
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "report.json"), report.as_dict())
    rows = [(float(t), float(tr), "NA" if math.isnan(b) else float(b))
            for t, tr, b in zip(report.sate_grid, report.sate_truth,
                                report.sate_bias)]
    write_tsv(os.path.join(args.out, "report.tsv"),
              ("t", "sate_truth", "sate_bias"), rows)
    print(f"study complete: {report.n_converged_joint}/{report.replicates} "
          f"joint fits converged; wrote report.json to {args.out}")
    return 0


def _cmd_check(args):
    config = sim.DgpConfig(n=args.n, monotone_J=6)
    seed = _number("seed", args.seed, "--seed")
    data = sim.generate(config, seed=seed)
    rng = np.random.default_rng(seed)
    data.covariates["x2"] = rng.normal(size=data.n)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=6),
                       dz.Term("smooth", column="x", J=6),
                       dz.Term("smooth", column="x2", J=6),
                       dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x"),
                         dz.Term("ridge", column="w")])
    bundle = dz.assemble(spec, data)
    delta0 = op.initial_values(bundle)
    delta = delta0 + rng.normal(scale=0.05, size=delta0.size)
    delta[-1] = 0.3

    _, g, h = lk.evaluate(bundle, delta)
    g_fd, h_fd = lk.finite_differences(lambda d: lk.evaluate(bundle, d), delta)
    score_err = float(np.abs(g - g_fd).max() / max(1.0, np.abs(g).max()))
    hess_err = float(np.abs(h - h_fd).max() / max(1.0, np.abs(h).max()))
    print(f"score  max relative error: {score_err:.3e} (tolerance 1e-5)")
    print(f"hessian max relative error: {hess_err:.3e} (tolerance 1e-3)")
    ok = score_err <= 1e-5 and hess_err <= 1e-3
    print("derivative self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="endosurv",
        description="Joint survival/treatment transformation model "
                    "with an endogenous binary treatment")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, want, about in (
            ("fit", ("summary", "curves", "sate"),
             "fit the joint model, write all outputs"),
            ("sate", ("sate",), "treatment-effect curve only"),
            ("curves", ("curves",), "survival curves only")):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=True, help="flat key=value config "
                       "file or a manifest.json from a previous run")
        p.add_argument("--data", help="override the config's data path")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed", help="override the config's seed")
        if name == "sate":
            p.add_argument("--sate-week",
                           help="evaluate at a single time instead of the grid")
        if name != "fit":
            p.add_argument("--group", action="append", default=[],
                           help="column=value filter, repeatable")
        p.set_defaults(func=_cmd_pipeline, want=want)

    p_sim = sub.add_parser("simulate", help="generate data or run a study")
    p_sim.add_argument("--preset", default="strong",
                       choices=("strong", "weak", "null", "misspec"))
    p_sim.add_argument("--n", type=int, default=2000)
    p_sim.add_argument("--beta-d", type=float, default=0.8)
    p_sim.add_argument("--replicates", type=int, default=50)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    p_sim.add_argument("--out", default="endosurv-out")
    p_sim.add_argument("--emit-data", default=None,
                       help="write one synthetic dataset as CSV and exit")
    p_sim.set_defaults(func=_cmd_simulate)

    p_check = sub.add_parser("check", help="gradient-vs-FD self-test")
    p_check.add_argument("--n", type=int, default=60)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, DomainError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except InferenceError as exc:
        print(f"inference error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
