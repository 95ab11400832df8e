"""The three benchmark workloads: inputs, warm-up, measured operation, checks.

Each workload has four stages.  `prepare` runs in the benchmark's own
process and writes every input the program will see into the work directory;
only the seed decides them.  `load` and `warm_up` run in the fresh worker
process before any timing: warm-up runs the same code path on a small input,
so imports, lazy module caches and first-call costs land in set-up, not in
the measured operation.  `run` is the measured operation; `record` then
serializes what it returned, outside the timed region, and returns the
operation's units of work (posterior draws, or converged fits).  `check`
reads an operation's output directory back and returns the failed checks.

The model is the one the ROADMAP baseline uses: monotone J=10, smooth(x)
J=10 and treatment in the outcome equation; linear(x) and ridge(w) in the
selection equation (three smoothing parameters).
"""

import json
import math
import os
import pickle

import numpy as np

# Each workload's full size; the self-test passes smaller ones.
SIZES = {
    "cli-fit-20k": {"n": 20000, "draws": 100, "grid_points": 50},
    "posterior-20k": {"n": 20000, "draws": 200, "grid_points": 50},
    # 24 replicates, not 8: timing noise averages out over a longer study
    # (2-vCPU VM: spread between runs 0.12-0.25 with 8 and with 16)
    "study-2k": {"n": 2000, "replicates": 24, "n_jobs": 2},
}

OUTCOME_TERMS = ("monotone J=10", "smooth:x J=10", "treatment")
SELECTION_TERMS = ("linear:x", "ridge:w")
LAMBDA_FIXED = (1.0, 1.0, 1.0)
WARM_UP_N = 500
WARM_UP_SEED = 0         # warm-up input is fixed so its cost is seed-free
# The fits of cli-fit-20k and study-2k run on fixed data.  Across datasets
# the lambda search takes one or two coordinate sweeps, so one 20k fit costs
# about 38 s or about 52 s, and a study of 8 replicates 10.5 s or 16 s
# (2-core x86-64 VM).  With data drawn from --seed, that two-valued cost,
# not the program, would set the spread between runs.  --seed still varies
# the posterior draws of cli-fit-20k and the whole input of posterior-20k,
# whose cost does not depend on the data.
CLI_DATA_SEED = 0
STUDY_MASTER_SEED = 20240501   # criterion 6's master seed
STUDY_BIAS_TOL = 0.2     # |mean(beta_d_hat) - beta_d| over the replicates
CURVE_TOL = 1e-12        # slack for monotone curves, as in criterion 5
IDENTITY_TOL = 1e-12     # |SATE - (S_treated - S_control)|


def dgp(n):
    from endosurv import simulate as sim
    return sim.DgpConfig(n=n, transform="spline", censor_max=14.0)


def study_config(n):
    """The acceptance suite's strong-instrument configuration."""
    from endosurv import simulate as sim
    return sim.DgpConfig(n=n, beta_d=0.8, instrument_coef=2.0,
                         transform="spline", censor_max=14.0, monotone_J=10)


def model_spec():
    from endosurv import cli
    return cli.build_model_spec(cli.RunConfig(
        data="", time="time", status="status", treatment="treatment",
        outcome_terms=list(OUTCOME_TERMS),
        selection_terms=list(SELECTION_TERMS)))


def write_csv(path, data):
    cols = (data.time, data.status, data.treatment, data.covariates["x"],
            data.covariates["w"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,status,treatment,x,w\n")
        for t, s, d, x, w in zip(*cols):
            fh.write(f"{float(t)!r},{int(s)},{int(d)},"
                     f"{float(x)!r},{float(w)!r}\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _curve(values):
    return [float(v) for v in values]


def _band_failures(name, est, lo, hi):
    # endosurv clamps every band to contain its estimate, so containment
    # only guards that clamping; a band of no width anywhere means the
    # posterior draws were lost
    est, lo, hi = (np.asarray(v, dtype=float) for v in (est, lo, hi))
    failed = []
    if not (np.all(lo <= est) and np.all(est <= hi)):
        failed.append(f"{name}: band does not contain the estimate")
    if not np.any(lo < hi):
        failed.append(f"{name}: band has no width")
    return failed


def curve_failures(sate, groups):
    """Criterion 8's identity, monotone curves and bands around estimates.

    Every operation checked here draws from the posterior, so every band
    must have width somewhere on the grid.

    ``sate`` is (est, lo, hi); ``groups`` maps name -> (est, lo, hi), all on
    one grid.
    """
    failed = _band_failures("sate", *sate)
    for name, (est, lo, hi) in groups.items():
        failed += _band_failures(f"curve {name}", est, lo, hi)
        if np.any(np.diff(np.asarray(est, dtype=float)) > CURVE_TOL):
            failed.append(f"curve {name}: not non-increasing")
    treated, control = (np.asarray(groups[g][0], dtype=float)
                        for g in ("treated", "control"))
    if not np.all(np.abs(np.asarray(sate[0]) - (treated - control))
                  <= IDENTITY_TOL):
        failed.append("sate differs from treated minus control")
    return failed


def read_tsv(path):
    """Rows of a tab-separated table as dicts; ValueError if malformed."""
    name = os.path.basename(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        fields = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    if not fields:
        raise ValueError(f"{name} has no rows")
    if any(len(f) != len(header) for f in fields):
        raise ValueError(f"{name}: ragged row")
    rows = [dict(zip(header, f)) for f in fields]
    for row in rows:
        for key, value in row.items():
            if key != "group" and not math.isfinite(float(value)):
                raise ValueError(f"{name}: non-finite {key}")
    return rows


class CliFit:
    """`endosurv fit` in-process on a CSV, as a user runs it."""

    name = "cli-fit-20k"

    def prepare(self, work, sizes, seed):
        from endosurv import simulate as sim
        write_csv(os.path.join(work, "data.csv"),
                  sim.generate(dgp(sizes["n"]), seed=CLI_DATA_SEED))
        write_csv(os.path.join(work, "warm.csv"),
                  sim.generate(dgp(WARM_UP_N), seed=WARM_UP_SEED))
        common = ["time = time", "status = status", "treatment = treatment",
                  f"seed = {seed}", f"grid_points = {sizes['grid_points']}"]
        common += [f"outcome_term = {t}" for t in OUTCOME_TERMS]
        common += [f"selection_term = {t}" for t in SELECTION_TERMS]
        with open(os.path.join(work, "model.cfg"), "w", encoding="utf-8") as fh:
            fh.write("\n".join([f"data = {os.path.join(work, 'data.csv')}",
                                f"draws = {sizes['draws']}"] + common) + "\n")
        lam = ",".join(str(v) for v in LAMBDA_FIXED)
        with open(os.path.join(work, "warm.cfg"), "w", encoding="utf-8") as fh:
            fh.write("\n".join([f"data = {os.path.join(work, 'warm.csv')}",
                                "draws = 5", f"lambda_fixed = {lam}"] + common)
                     + "\n")

    def load(self, work, sizes):
        return {"work": work, "draws": sizes["draws"]}

    def warm_up(self, state):
        from endosurv import cli
        out = os.path.join(state["work"], "warm-out")
        code = cli.main(["fit", "--config",
                         os.path.join(state["work"], "warm.cfg"), "--out", out])
        if code != 0:
            raise RuntimeError(f"warm-up fit exited with code {code}")

    def run(self, state, out):
        from endosurv import cli
        return cli.main(["fit", "--config",
                         os.path.join(state["work"], "model.cfg"), "--out", out])

    def record(self, state, result, out):
        os.makedirs(out, exist_ok=True)
        write_json(os.path.join(out, "op.json"), {"exit_code": result})
        return state["draws"] if result == 0 else 0

    def check(self, out):
        op = read_json(os.path.join(out, "op.json"))
        if op["exit_code"] != 0:
            return [f"exit code {op['exit_code']}"]
        try:
            summary = read_json(os.path.join(out, "summary.json"))
            read_json(os.path.join(out, "manifest.json"))
            curves = read_tsv(os.path.join(out, "curves.tsv"))
            sate = read_tsv(os.path.join(out, "sate.tsv"))
        except (OSError, ValueError, KeyError) as exc:
            return [f"output does not parse: {exc}"]
        failed = []
        if not (summary.get("converged")
                and summary.get("convergence", {}).get("converged")):
            failed.append("fit did not converge")
        groups = {}
        for row in curves:
            est, lo, hi = groups.setdefault(row["group"], ([], [], []))
            est.append(float(row["estimate"]))
            lo.append(float(row["lo"]))
            hi.append(float(row["hi"]))
        sate_t = [float(r["t"]) for r in sate]
        curve_t = [float(r["t"]) for r in curves if r["group"] == "treated"]
        if sate_t != curve_t:
            return failed + ["sate and curves use different grids"]
        sate_cols = tuple([float(r[k]) for r in sate]
                          for k in ("estimate", "lo", "hi"))
        return failed + curve_failures(sate_cols, groups)


class Posterior:
    """Posterior simulation only: SATE and three survival curves of one fit."""

    name = "posterior-20k"

    def prepare(self, work, sizes, seed):
        from endosurv import design as dz, optimizer as op, simulate as sim
        data = sim.generate(dgp(sizes["n"]), seed=seed)
        fit = op.fit(dz.assemble(model_spec(), data),
                     op.FitOptions(lambda_fixed=list(LAMBDA_FIXED)))
        if not fit.convergence.converged:
            raise RuntimeError("set-up fit did not converge")
        grid = np.linspace(float(data.time.min()), float(data.time.max()),
                           sizes["grid_points"])
        with open(os.path.join(work, "fit.pkl"), "wb") as fh:
            pickle.dump({"fit": fit, "grid": grid, "seed": seed}, fh,
                        protocol=pickle.HIGHEST_PROTOCOL)

    def load(self, work, sizes):
        # the pickle was written by `prepare` in this same benchmark run
        with open(os.path.join(work, "fit.pkl"), "rb") as fh:
            state = pickle.load(fh)
        state["draws"] = sizes["draws"]
        return state

    @staticmethod
    def groups():
        from endosurv import inference
        return [inference.GroupDef("treated", d=1),
                inference.GroupDef("control", d=0),
                inference.GroupDef("treated_w1", d=1, where={"w": 1.0})]

    def _functionals(self, state, draws):
        from endosurv import inference
        fit, grid, seed = state["fit"], state["grid"], state["seed"]
        effect = inference.sate(fit, grid, draws=draws, seed=seed)
        curves = inference.survival_curves(fit, grid, groups=self.groups(),
                                           draws=draws, seed=seed)
        return effect, curves

    def warm_up(self, state):
        self._functionals(state, 2)

    def run(self, state, out):
        return self._functionals(state, state["draws"])

    def record(self, state, result, out):
        effect, curves = result
        os.makedirs(out, exist_ok=True)
        write_json(os.path.join(out, "posterior.json"), {
            "converged": bool(state["fit"].convergence.converged),
            "t": _curve(effect.t),
            "curves_t": _curve(curves.t),
            "sate": [_curve(v) for v in effect.sate],
            "groups": {g: [_curve(v) for v in band]
                       for g, band in curves.groups.items()},
        })
        return state["draws"]

    def check(self, out):
        try:
            res = read_json(os.path.join(out, "posterior.json"))
            sate, groups = res["sate"], res["groups"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"output does not parse: {exc}"]
        failed = [] if res["converged"] else ["fit did not converge"]
        if res["t"] != res["curves_t"]:
            return failed + ["sate and curves use different grids"]
        if set(groups) != {g.name for g in self.groups()}:
            return failed + [f"unexpected curve groups {sorted(groups)}"]
        return failed + curve_failures(sate, groups)


class Study:
    """A replication study: many small joint and outcome-only fits."""

    name = "study-2k"

    def prepare(self, work, sizes, seed):
        # The study draws its own datasets from (config, master seed); the
        # config is the whole input, so set-up here is only writing it.
        write_json(os.path.join(work, "study.json"),
                   {"n": sizes["n"], "replicates": sizes["replicates"],
                    "master_seed": STUDY_MASTER_SEED})

    def load(self, work, sizes):
        spec = read_json(os.path.join(work, "study.json"))
        spec["config"] = study_config(spec["n"])
        spec["n_jobs"] = sizes["n_jobs"]
        return spec

    def warm_up(self, state):
        from endosurv import optimizer as op, simulate as sim
        sim.run_study(study_config(WARM_UP_N), replicates=1,
                      fit_options=op.FitOptions(lambda_fixed=[1.0]),
                      master_seed=WARM_UP_SEED, n_jobs=1)

    def run(self, state, out):
        from endosurv import simulate as sim
        return sim.run_study(state["config"], replicates=state["replicates"],
                             master_seed=state["master_seed"],
                             n_jobs=state["n_jobs"])

    def record(self, state, result, out):
        os.makedirs(out, exist_ok=True)
        write_json(os.path.join(out, "report.json"), result.as_dict())
        return result.n_converged_joint + result.n_converged_uni

    def check(self, out):
        try:
            rep = read_json(os.path.join(out, "report.json"))
            reps = rep["replicates"]
            bias = rep["beta_d_joint"]["bias"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"output does not parse: {exc}"]
        failed = []
        if rep["n_converged_joint"] != reps or rep["n_converged_uni"] != reps:
            failed.append(f"{rep['n_converged_joint']}+{rep['n_converged_uni']}"
                          f" of {reps}+{reps} replicate fits converged")
        if rep["failures"]:
            failed.append(f"replicate failures: {rep['failures']}")
        if not abs(bias) <= STUDY_BIAS_TOL:
            failed.append(f"bias(beta_d) = {bias:+.4f} beyond "
                          f"{STUDY_BIAS_TOL}")
        return failed


WORKLOADS = {w.name: w for w in (CliFit(), Posterior(), Study())}
