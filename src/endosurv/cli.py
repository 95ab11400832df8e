"""Batch front end: CSV in, fitted model summaries and curve tables out.

Subcommands: ``fit`` (write summary.json, curves.tsv, sate.tsv, manifest),
``sate`` / ``curves`` (just the respective table), ``simulate`` (emit a
synthetic dataset or run a replication study) and ``check`` (analytic
derivatives against finite differences).

Exit codes: 0 ok, 2 configuration error, 3 ingestion error,
4 non-convergence, 5 inference failure.
"""

import argparse
import csv
import json
import math
import os
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

JOBS_ENV = "ENDOSURV_JOBS"

_CONFIG_KEYS = {
    "data", "time", "status", "treatment", "out_dir", "seed", "draws",
    "level", "grid_points", "sate_week", "group", "fit_univariate",
    "outcome_term", "selection_term", "lambda_fixed",
}


@dataclass
class RunConfig:
    data: str
    time: str
    status: str
    treatment: str
    outcome_terms: list
    selection_terms: list
    out_dir: str = "endosurv-out"
    seed: int = 0
    draws: int = 100
    level: float = 0.05
    grid_points: int = 100
    sate_week: float | None = None
    group: dict = field(default_factory=dict)
    fit_univariate: bool = False
    lambda_fixed: list | None = None

    def as_dict(self):
        return {
            "data": self.data, "time": self.time, "status": self.status,
            "treatment": self.treatment,
            "outcome_terms": self.outcome_terms,
            "selection_terms": self.selection_terms,
            "out_dir": self.out_dir, "seed": self.seed, "draws": self.draws,
            "level": self.level, "grid_points": self.grid_points,
            "sate_week": self.sate_week, "group": self.group,
            "fit_univariate": self.fit_univariate,
            "lambda_fixed": self.lambda_fixed,
        }


def _parse_term(text):
    parts = text.split()
    head = parts[0]
    J = None
    for extra in parts[1:]:
        if extra.lower().startswith("j="):
            J = int(extra[2:])
        else:
            raise ConfigurationError(f"unknown term option {extra!r}")
    if ":" in head:
        kind, column = head.split(":", 1)
    else:
        kind, column = head, None
    kind = kind.strip().lower()
    if kind == "monotone":
        return dz.Term("monotone", J=J)
    if kind == "treatment":
        return dz.Term("treatment")
    if kind == "interaction":
        if not column:
            raise ConfigurationError("interaction term needs a modifier column")
        return dz.Term("interaction", modifier=column)
    if kind in ("linear", "smooth", "ridge"):
        if not column:
            raise ConfigurationError(f"{kind} term needs a column name")
        return dz.Term(kind, column=column, J=J)
    raise ConfigurationError(f"unknown term kind {kind!r}")


def _term_to_text(term):
    if term.kind == "monotone":
        return "monotone" + (f" J={term.J}" if term.J else "")
    if term.kind == "treatment":
        return "treatment"
    if term.kind == "interaction":
        return f"interaction:{term.modifier}"
    base = f"{term.kind}:{term.column}"
    return base + (f" J={term.J}" if term.J else "")


def parse_config(path) -> RunConfig:
    """Flat key = value text, or a JSON manifest produced by a prior run."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        cfg = payload.get("config", payload)
        return RunConfig(
            data=cfg["data"], time=cfg["time"], status=cfg["status"],
            treatment=cfg["treatment"],
            outcome_terms=list(cfg["outcome_terms"]),
            selection_terms=list(cfg["selection_terms"]),
            out_dir=cfg.get("out_dir", "endosurv-out"),
            seed=int(cfg.get("seed", 0)), draws=int(cfg.get("draws", 100)),
            level=float(cfg.get("level", 0.05)),
            grid_points=int(cfg.get("grid_points", 100)),
            sate_week=cfg.get("sate_week"),
            group=dict(cfg.get("group", {})),
            fit_univariate=bool(cfg.get("fit_univariate", False)),
            lambda_fixed=cfg.get("lambda_fixed"))

    single: dict = {}
    multi: dict = {"outcome_term": [], "selection_term": [], "group": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.lower().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in multi:
            multi[key].append(value)
        else:
            single[key] = value

    for required in ("data", "time", "status", "treatment"):
        if required not in single:
            raise ConfigurationError(f"config key {required!r} is required")
    if not multi["outcome_term"]:
        raise ConfigurationError("at least one outcome_term is required")

    group = {}
    for g in multi["group"]:
        if "=" not in g:
            raise ConfigurationError(f"group filter {g!r} must be column=value")
        col, val = g.split("=", 1)
        group[col.strip()] = float(val)

    lam = None
    if "lambda_fixed" in single:
        lam = [float(v) for v in single["lambda_fixed"].split(",")]

    return RunConfig(
        data=single["data"], time=single["time"], status=single["status"],
        treatment=single["treatment"],
        outcome_terms=[_term_to_text(_parse_term(t)) for t in multi["outcome_term"]],
        selection_terms=[_term_to_text(_parse_term(t)) for t in multi["selection_term"]],
        out_dir=single.get("out_dir", "endosurv-out"),
        seed=int(single.get("seed", 0)),
        draws=int(single.get("draws", 100)),
        level=float(single.get("level", 0.05)),
        grid_points=int(single.get("grid_points", 100)),
        sate_week=float(single["sate_week"]) if "sate_week" in single else None,
        group=group,
        fit_univariate=single.get("fit_univariate", "false").lower()
        in ("true", "1", "yes"),
        lambda_fixed=lam)


def build_model_spec(config: RunConfig) -> dz.ModelSpec:
    outcome = [_parse_term(t) for t in config.outcome_terms]
    selection = [_parse_term(t) for t in config.selection_terms]
    roles = {config.time, config.status, config.treatment}
    for t in outcome + selection:
        for col in (t.column, t.modifier):
            if col in roles:
                raise ConfigurationError(
                    f"column {col!r} already has a role and cannot be a covariate")
    return dz.ModelSpec(outcome_terms=outcome, selection_terms=selection)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def ingest(path, time_col, status_col, treat_col) -> dz.DataSet:
    """Strict CSV reader: typed columns, recorded level maps, row-indexed errors."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open {path!r}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path!r} is empty")
        header = [h.strip() for h in header]
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
                             f"a positive time, got {time[bad[0]]!r}")

    def binary(name):
        vals = strict_numeric(name, raw[name])
        bad = np.nonzero(~np.isin(vals, (0.0, 1.0)))[0]
        if bad.size:
            raise IngestionError(f"row {bad[0] + 1}: column {name!r} must be "
                                 f"0/1, got {vals[bad[0]]!r}")
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
# deterministic serialization (17 significant digits)
# ---------------------------------------------------------------------------

def _fmt_float(x):
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InferenceError("refusing to write a non-finite numeric field")
        return format(x, ".17g")
    return str(x)


def _to_json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return _to_json(obj.tolist(), indent)
    return json.dumps(str(obj))


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_to_json(payload))
        fh.write("\n")


def write_tsv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt_float(v) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def _summary_payload(fit, level, level_maps):
    s = inference.summary(fit, level=level)
    payload = s.as_dict()
    payload["lambda"] = {name: float(v)
                         for name, v in zip(fit.lambda_labels, fit.lam)}
    payload["convergence"] = {
        "converged": fit.convergence.converged,
        "iterations": fit.convergence.iterations,
        "final_grad_norm": fit.convergence.final_grad_norm,
        "trust_region_rejections": fit.convergence.rejections,
    }
    payload["case_counts"] = {
        label: int(c) for label, c in zip(
            lk.CASE_LABELS,
            np.bincount(
                2 * fit.bundle.data.status + fit.bundle.data.treatment,
                minlength=4)[[0, 1, 2, 3]])
    }
    if level_maps:
        payload["level_maps"] = level_maps
    return payload


def _default_grid(bundle, points):
    return np.linspace(float(bundle.data.time.min()),
                       float(bundle.data.time.max()), points)


def _run_pipeline(config: RunConfig, want):
    spec = build_model_spec(config)
    data = ingest(config.data, config.time, config.status, config.treatment)
    bundle = dz.assemble(spec, data)
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
        "config": config.as_dict(),
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

    grid = _default_grid(bundle, config.grid_points)
    t, sate_t = grid, slice(None)
    if config.sate_week is not None and "sate" in want:
        # one more grid point of the same posterior pass
        t = np.append(grid if "curves" in want else [], config.sate_week)
        sate_t = slice(-1, None)
    pair = [inference.GroupDef("treated", d=1, where=config.group),
            inference.GroupDef("control", d=0, where=config.group)]
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
    config = _load_config(args)
    outputs = _run_pipeline(config, want=args.want)
    print(f"wrote {', '.join(sorted(outputs.values()))} to {config.out_dir}")
    return 0


def _load_config(args):
    config = parse_config(args.config)
    if args.data:
        config.data = args.data
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    if getattr(args, "sate_week", None) is not None:
        config.sate_week = args.sate_week
    if getattr(args, "group", None):
        for g in args.group:
            col, val = g.split("=", 1)
            config.group[col] = float(val)
    build_model_spec(config)  # validate before touching any data
    return config


def _cmd_simulate(args):
    presets = {
        "strong": dict(instrument_coef=2.0),
        "weak": dict(instrument_coef=0.2),
        "null": dict(beta_1u=0.0, beta_2u=0.0),
        "misspec": dict(error_dist="t5"),
    }
    if args.preset not in presets:
        raise ConfigurationError(f"unknown preset {args.preset!r}")
    kw = presets[args.preset]
    config = sim.DgpConfig(n=args.n, beta_d=args.beta_d, **kw)
    config.validate()
    if args.emit_data:
        data = sim.generate(config, seed=args.seed)
        rows = zip(data.time, data.status, data.treatment,
                   data.covariates["x"], data.covariates["w"])
        _write_csv(args.emit_data, ("time", "status", "treatment", "x", "w"),
                           rows)
        print(f"wrote {config.n} rows to {args.emit_data}")
        return 0
    jobs = args.jobs or int(os.environ.get(JOBS_ENV, "1"))
    report = sim.run_study(config, replicates=args.replicates,
                           master_seed=args.seed, n_jobs=jobs)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "report.json"), report.as_dict())
    rows = [(float(t), float(tr), float(b))
            for t, tr, b in zip(report.sate_grid, report.sate_truth,
                                report.sate_bias)]
    write_tsv(os.path.join(args.out, "report.tsv"),
              ("t", "sate_truth", "sate_bias"), rows)
    print(f"study complete: {report.n_converged_joint}/{report.replicates} "
          f"joint fits converged; wrote report.json to {args.out}")
    return 0


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_float(float(v)) if isinstance(
                v, (float, np.floating)) else str(v) for v in row) + "\n")


def _cmd_check(args):
    config = sim.DgpConfig(n=args.n, monotone_J=6)
    data = sim.generate(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
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

    g = lk.score(bundle, delta)
    g_fd = lk.finite_difference_score(bundle, delta)
    h = lk.hessian(bundle, delta)
    h_fd = lk.finite_difference_hessian(bundle, delta)
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

    def add_common(p):
        p.add_argument("--config", required=True, help="flat key=value config "
                       "file or a manifest.json from a previous run")
        p.add_argument("--data", help="override the config's data path")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed", type=int, default=None)

    p_fit = sub.add_parser("fit", help="fit the joint model, write all outputs")
    add_common(p_fit)
    p_fit.set_defaults(func=_cmd_pipeline, want=("summary", "curves", "sate"))

    p_sate = sub.add_parser("sate", help="treatment-effect curve only")
    add_common(p_sate)
    p_sate.add_argument("--sate-week", type=float, default=None,
                        help="evaluate at a single time instead of the grid")
    p_sate.add_argument("--group", action="append", default=[],
                        help="column=value filter, repeatable")
    p_sate.set_defaults(func=_cmd_pipeline, want=("sate",))

    p_curves = sub.add_parser("curves", help="survival curves only")
    add_common(p_curves)
    p_curves.add_argument("--group", action="append", default=[],
                          help="column=value filter, repeatable")
    p_curves.set_defaults(func=_cmd_pipeline, want=("curves",))

    p_sim = sub.add_parser("simulate", help="generate data or run a study")
    p_sim.add_argument("--preset", default="strong",
                       choices=("strong", "weak", "null", "misspec"))
    p_sim.add_argument("--n", type=int, default=2000)
    p_sim.add_argument("--beta-d", type=float, default=0.8)
    p_sim.add_argument("--replicates", type=int, default=50)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--jobs", type=int, default=None,
                       help=f"worker processes (default ${JOBS_ENV} or 1)")
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
            json.JSONDecodeError, KeyError) as exc:
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
