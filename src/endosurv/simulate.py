"""Data generation from the structural model and replication studies.

The generator draws the shared confounder U and idiosyncratic errors so that
both composite errors have unit variance (the same normalization the model
assumes), produces treatment uptake from the latent selection equation and
inverts the fixed transformation to obtain event times.  The study harness
fits the joint model and the naive survival-only comparator per replicate
and reports bias, RMSE and interval coverage on the structural scale.  Its
SATE truth is exact: the survival contrast averaged over x ~ N(0, 1) by
Gauss-Hermite quadrature, with no Monte Carlo draws.
"""

import functools
import math
from dataclasses import dataclass, field, asdict
from multiprocessing import Pool

import numpy as np
from scipy import special

from . import design as dz
from . import inference
from . import numerics as nm
from . import optimizer as op
from . import splines
from .errors import ConfigurationError

STUDY_GRID_QUANTILES = (0.1, 0.3, 0.5, 0.7, 0.9)
# sate_true's Gauss-Hermite nodes: its error is at rounding level for
# |outcome_x| <= 1 and below 1e-3 (7e-4, t5 errors) up to |outcome_x| = 5
SATE_TRUE_NODES = 128

# The "spline" transform: a fixed monotone cubic spline, steep early and
# flattening late like a log, but with bounded derivatives everywhere, so a
# fitted monotone spline (whose coefficient vector is likewise
# non-decreasing) can represent it essentially exactly.
SPLINE_H_INTERVAL = (0.0, 14.0)
SPLINE_H_COEFS = np.array([-30.4057, -1.4311, -0.1792, 1.2635,
                           2.0913, 2.9965, 3.7151, 4.3285])


class _SplineTransform:
    """H, H' and H^{-1} for the fixed spline transform (module-level cache)."""

    def __init__(self):
        J = SPLINE_H_COEFS.size
        self.knots = splines.uniform_knots(J, 4, SPLINE_H_INTERVAL)
        grid = np.linspace(*SPLINE_H_INTERVAL, 20001)
        self._grid_t = grid
        self._grid_h = self.value(grid)

    def value(self, t):
        return splines.bspline_design(t, self.knots, 4) @ SPLINE_H_COEFS

    def deriv(self, t):
        return splines.bspline_design(t, self.knots, 4, nu=1) @ SPLINE_H_COEFS

    def inverse(self, z):
        z = np.clip(np.asarray(z, dtype=float),
                    self._grid_h[0] + 1e-9, self._grid_h[-1] - 1e-9)
        t = np.interp(z, self._grid_h, self._grid_t)
        for _ in range(2):  # Newton refinement on the monotone spline
            t = np.clip(t - (self.value(t) - z) / self.deriv(t),
                        *SPLINE_H_INTERVAL)
        return t


@functools.cache
def _spline_h():
    return _SplineTransform()


@dataclass
class DgpConfig:
    """Structural data-generating process with a tunable shared latent factor."""

    n: int = 2000
    beta_1u: float = math.sqrt(0.5)
    beta_2u: float = math.sqrt(0.5)
    sigma_u: float = 1.0
    outcome_intercept: float = 0.2
    outcome_x: float = 0.4
    beta_d: float = 0.8
    selection_intercept: float = -0.3
    selection_x: float = 0.5
    instrument_coef: float = 2.0
    instrument_p: float = 0.5
    censor_max: float | None = 12.0
    transform: str = "log"
    error_dist: str = "gaussian"
    monotone_J: int = 8

    def validate(self):
        if (isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer))
                or self.n < 1):
            raise ConfigurationError(f"n must be an integer >= 1, got {self.n!r}")
        if self.transform not in ("log", "spline"):
            raise ConfigurationError(
                f"transform {self.transform!r} has no registered inverse")
        if self.error_dist not in ("gaussian", "t5"):
            raise ConfigurationError(f"unknown error_dist {self.error_dist!r}")
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.censor_max is not None and not self.censor_max > 0.0:
            raise ConfigurationError(
                f"censor_max must be None or > 0, got {self.censor_max!r}")
        for name, b in (("beta_1u", self.beta_1u), ("beta_2u", self.beta_2u)):
            if b * b * self.sigma_u ** 2 >= 1.0:
                raise ConfigurationError(
                    f"{name}^2 sigma_u^2 must stay below 1 for unit error variance")
        if not -1.0 < self.rho_struct < 1.0:
            raise ConfigurationError("implied correlation must lie inside (-1, 1)")
        if not 0.0 < self.instrument_p < 1.0:
            raise ConfigurationError("instrument_p must lie inside (0, 1)")

    @property
    def rho_struct(self):
        return self.beta_1u * self.beta_2u * self.sigma_u ** 2

    @property
    def sigma_1(self):
        return math.sqrt(1.0 - self.beta_1u ** 2 * self.sigma_u ** 2)

    @property
    def sigma_2(self):
        return math.sqrt(1.0 - self.beta_2u ** 2 * self.sigma_u ** 2)


def _draw_errors(config, rng, n):
    if config.error_dist == "gaussian":
        u = rng.normal(scale=config.sigma_u, size=n)
        e1 = config.beta_1u * u + rng.normal(scale=config.sigma_1, size=n)
        e2 = config.beta_2u * u + rng.normal(scale=config.sigma_2, size=n)
        return e1, e2
    # heavy-tailed misspecification: bivariate t(5) rescaled to unit variances
    rho = config.rho_struct
    z1 = rng.normal(size=n)
    z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.normal(size=n)
    g = rng.chisquare(5, size=n) / 5.0
    scale = math.sqrt(3.0 / 5.0)  # var of t(5) is 5/3
    return scale * z1 / np.sqrt(g), scale * z2 / np.sqrt(g)


def generate(config: DgpConfig, seed=0, return_latent=False):
    """Draw one dataset: D from the selection equation, Y = min(T, C)."""
    config.validate()
    rng = np.random.default_rng(seed)
    n = config.n
    x = rng.normal(size=n)
    w = (rng.uniform(size=n) < config.instrument_p).astype(float)
    e1, e2 = _draw_errors(config, rng, n)

    eta2 = config.selection_intercept + config.selection_x * x \
        + config.instrument_coef * w
    d = (eta2 + e2 > 0.0).astype(int)
    ht = config.outcome_intercept + config.outcome_x * x + config.beta_d * d + e1
    # DataSet requires strictly positive times
    t_event = np.maximum(_transform_inverse(config, ht), 1e-9)
    if config.censor_max is None:
        y, status = t_event, np.ones(n, dtype=int)
    else:
        c = np.maximum(rng.uniform(0.0, config.censor_max, size=n), 1e-9)
        y = np.minimum(t_event, c)
        status = (t_event <= c).astype(int)

    data = dz.DataSet(time=y, status=status, treatment=d,
                      covariates={"x": x, "w": w})
    if return_latent:
        return data, {"eps1": e1, "eps2": e2, "eta2": eta2, "t_event": t_event}
    return data


def model_spec(config: DgpConfig) -> dz.ModelSpec:
    """The correctly specified fitting model for this DGP."""
    return dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=config.monotone_J),
                       dz.Term("linear", column="x"),
                       dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x"),
                         dz.Term("linear", column="w")])


def _eps1_survival(config, c):
    """P(eps1 > c) under the configured error law."""
    if config.error_dist == "gaussian":
        return nm.norm_cdf(-c)
    return special.stdtr(5, -np.asarray(c) / math.sqrt(3.0 / 5.0))


def _transform_value(config, t):
    if config.transform == "log":
        return np.log(np.asarray(t, dtype=float))
    return _spline_h().value(t)


def _transform_inverse(config, z):
    if config.transform == "log":
        return np.exp(np.asarray(z, dtype=float))
    return _spline_h().inverse(z)


def sate_true(config: DgpConfig, t_grid):
    """The averaged survival contrast E_x[P(T(1) > t) - P(T(0) > t)] on the
    grid: P(eps1 > H(t) - eta1) averaged over x ~ N(0, 1) by
    SATE_TRUE_NODES-point Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite_e.hermegauss(SATE_TRUE_NODES)
    c = (_transform_value(config, np.atleast_1d(np.asarray(t_grid, dtype=float)))
         [:, None] - config.outcome_intercept - config.outcome_x * x)
    contrast = _eps1_survival(config, c - config.beta_d) - _eps1_survival(config, c)
    return contrast @ (w / math.sqrt(2.0 * math.pi))


def default_study_grid(config: DgpConfig):
    """Five time points at marginal quantiles of the untreated transform."""
    qs = nm.norm_quantile(np.asarray(STUDY_GRID_QUANTILES))
    return _transform_inverse(config, config.outcome_intercept + qs)


# ---------------------------------------------------------------------------
# replication study
# ---------------------------------------------------------------------------

@dataclass
class ParameterSummary:
    truth: float
    mean: float
    bias: float
    rmse: float
    coverage: float

    @staticmethod
    def from_draws(truth, rows, key):
        """Over replicate results ``rows``: the estimates under ``key``, the
        interval ends under key + "_lo" and key + "_hi"."""
        est, lo, hi = (np.array([r[key + end] for r in rows], dtype=float)
                       for end in ("", "_lo", "_hi"))
        bias = float(est.mean() - truth)
        rmse = float(np.sqrt(np.mean((est - truth) ** 2)))
        cover = float(np.mean((lo <= truth) & (truth <= hi)))
        return ParameterSummary(truth=float(truth), mean=float(est.mean()),
                                bias=bias, rmse=rmse, coverage=cover)


@dataclass
class ReplicationReport:
    replicates: int
    n_converged_joint: int
    n_converged_uni: int
    beta_d_joint: ParameterSummary
    beta_d_uni: ParameterSummary
    rho_joint: ParameterSummary
    sate_grid: np.ndarray
    sate_truth: np.ndarray
    sate_bias: np.ndarray
    beta_d_joint_var: float
    beta_d_uni_var: float
    failures: list = field(default_factory=list)

    def as_dict(self):
        """The report as JSON types; a grid point no replicate covered has
        sate_bias None."""
        out = asdict(self)
        for key in ("sate_grid", "sate_truth", "sate_bias"):
            out[key] = [None if math.isnan(v) else float(v)
                        for v in getattr(self, key)]
        return out


def _beta_d_interval(fit, post, treat_col):
    """beta_d = -gamma with its 95 % Wald interval from the fit's posterior."""
    gamma = float(fit.delta[treat_col])
    half = float(nm.norm_quantile(0.975)) * math.sqrt(
        max(post.cov_tilde[treat_col, treat_col], 0.0))
    return -gamma, -(gamma + half), -(gamma - half)


def _run_replicate(args):
    config, fit_options, master_seed, index, sate_grid = args
    res = {"index": index, "joint_ok": False, "uni_ok": False,
           "sate": np.full(len(sate_grid), np.nan), "error": None}
    try:   # a dataset that cannot be assembled fails both fits
        # counter scheme: the pair seeds an independent generator per replicate
        bundle = dz.assemble(model_spec(config), generate(
            config, seed=(int(master_seed), int(index))))
    except Exception as exc:
        res["error"] = f"assemble[{index}]: {exc}"
        return res
    treat_col = bundle.treat_index
    errors = []
    try:   # fit failures are recorded, never fatal
        fit = op.fit(bundle, fit_options)
        post = inference.covariance(fit)   # raises if fit is unconverged
        res["beta_d"], res["beta_d_lo"], res["beta_d_hi"] = _beta_d_interval(
            fit, post, treat_col)
        res["rho"], res["rho_hi"], res["rho_lo"] = (
            -v for v in inference.rho_interval(fit, post=post))
        a, b = bundle.mono_interval
        ok = (sate_grid >= a) & (sate_grid <= b)
        if np.any(ok):
            curves = inference.sate(fit, sate_grid[ok], draws=0, seed=index)
            res["sate"][ok] = curves.sate[0]
        res["joint_ok"] = True
    except Exception as exc:
        errors.append(f"joint[{index}]: {exc}")
    try:
        ufit = op.fit_outcome_only(bundle, fit_options)
        res["ubeta_d"], res["ubeta_d_lo"], res["ubeta_d_hi"] = _beta_d_interval(
            ufit, inference.covariance(ufit), treat_col)
        res["uni_ok"] = True
    except Exception as exc:
        errors.append(f"uni[{index}]: {exc}")
    res["error"] = " ".join(errors) or None
    return res


def run_study(config: DgpConfig, replicates, fit_options=None, master_seed=0,
              n_jobs=1) -> ReplicationReport:
    """Fit joint and survival-only models on `replicates` fresh datasets;
    the SATE is compared with the truth on ``default_study_grid``."""
    if replicates < 1:
        raise ConfigurationError("need at least one replicate")
    config.validate()
    sate_grid = default_study_grid(config)
    truth_sate = sate_true(config, sate_grid)

    args = [(config, fit_options, master_seed, r, sate_grid)
            for r in range(replicates)]
    if n_jobs > 1:
        with Pool(n_jobs) as pool:
            results = pool.map(_run_replicate, args)
    else:
        results = [_run_replicate(a) for a in args]

    joint = [r for r in results if r["joint_ok"]]
    uni = [r for r in results if r["uni_ok"]]
    if not joint or not uni:
        raise ConfigurationError("no replicate produced a converged fit")

    sate_mat = np.vstack([r["sate"] for r in joint])
    with np.errstate(invalid="ignore"):   # 0 / 0: NaN where no fit covers t
        sate_bias = (np.nansum(sate_mat, axis=0)
                     / np.sum(~np.isnan(sate_mat), axis=0) - truth_sate)

    return ReplicationReport(
        replicates=replicates,
        n_converged_joint=len(joint),
        n_converged_uni=len(uni),
        beta_d_joint=ParameterSummary.from_draws(config.beta_d, joint, "beta_d"),
        beta_d_uni=ParameterSummary.from_draws(config.beta_d, uni, "ubeta_d"),
        rho_joint=ParameterSummary.from_draws(config.rho_struct, joint, "rho"),
        sate_grid=sate_grid,
        sate_truth=truth_sate,
        sate_bias=sate_bias,
        beta_d_joint_var=float(np.var([r["beta_d"] for r in joint])),
        beta_d_uni_var=float(np.var([r["ubeta_d"] for r in uni])),
        failures=[r["error"] for r in results if r["error"]])
