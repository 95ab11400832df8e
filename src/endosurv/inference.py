"""Post-fit uncertainty and causal summaries.

The Bayesian covariance is V = (-penalized Hessian)^(-1); the covariance of
the reparametrized coefficients is diag(E) V diag(E).  Nonlinear functionals
(survival curves, treatment-effect curves) get pointwise intervals by
posterior simulation: coefficient vectors are drawn on the working scale and
pushed through the monotone reparametrization, so every simulated transform
is itself non-decreasing.  ``posterior_curves`` computes group curves and
the SATE from one set of draws, with one survival pass per treatment arm
and draw; ``sate`` and ``survival_curves`` are calls of it.  Each pass with
draws is split by time-grid rows across every CPU in the process's affinity
set, one thread per share; every row is reduced as by a single thread, so
the results do not depend on the CPU count, and there is no setting for it.
``summary`` factorizes -H_p once and shares the factor with its edf and
rho interval.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.stats import chi2

from . import numerics as nm
from .errors import ConfigurationError, InferenceError

DEFAULT_LEVEL = 0.05
DEFAULT_DRAWS = 100


@dataclass
class Posterior:
    """Gaussian approximation on the working and reparametrized scales."""

    mean: np.ndarray
    mean_tilde: np.ndarray
    cov: np.ndarray
    cov_tilde: np.ndarray
    e_vector: np.ndarray
    factor: tuple          # cho_factor of -H_p; summary's edf reuses it


@dataclass
class EdfReport:
    total: float
    per_term: dict
    per_coef: np.ndarray


@dataclass
class GroupDef:
    """A survival-curve group: optional row filter plus a forced treatment arm."""

    name: str
    d: int | None = None
    where: dict = field(default_factory=dict)

    def rows(self, bundle):
        keep = np.ones(bundle.n, dtype=bool)
        for col, val in self.where.items():
            if col not in bundle.data.covariates:
                raise ConfigurationError(f"group {self.name!r} filters on "
                                         f"{col!r}, which is not a covariate")
            keep &= bundle.data.covariates[col] == val
        if not np.any(keep):
            raise InferenceError(f"group {self.name!r} selects no rows")
        return keep


@dataclass
class CurveSet:
    """Survival curves and/or treatment-effect curve on a time grid."""

    t: np.ndarray
    level: float
    groups: dict = field(default_factory=dict)   # name -> (est, lo, hi)
    sate: tuple | None = None                    # (est, lo, hi)
    boundary_flags: dict = field(default_factory=dict)
    seed: int | None = None


def _require_converged(fit):
    if not fit.convergence.converged:
        raise InferenceError("fit did not converge; inference is unavailable")


def _factor_neg_hp(fit):
    """(-H_p, its Cholesky factor); InferenceError if -H_p is not PD."""
    _require_converged(fit)
    neg_hp = -fit.penalized_hessian
    neg_hp = 0.5 * (neg_hp + neg_hp.T)
    try:
        return neg_hp, cho_factor(neg_hp, lower=True)
    except LinAlgError:
        smallest = float(np.linalg.eigvalsh(neg_hp).min())
        raise InferenceError(
            f"penalized information matrix is not positive definite "
            f"(smallest eigenvalue {smallest:.3e})")


def covariance(fit) -> Posterior:
    """V = (-H_p)^(-1) with an iterative-refinement residual below 1e-8."""
    neg_hp, factor = _factor_neg_hp(fit)
    eye = np.eye(neg_hp.shape[0])
    cov = cho_solve(factor, eye)
    for _ in range(3):
        resid = neg_hp @ cov - eye
        if np.abs(resid).max() <= 1e-8:
            break
        cov = cov - cho_solve(factor, resid)
    if np.abs(neg_hp @ cov - eye).max() > 1e-8:
        raise InferenceError("covariance solve failed its residual bound")
    cov = 0.5 * (cov + cov.T)
    e = np.where(fit.exp_mask, np.exp(fit.delta), 1.0)
    cov_tilde = cov * e[:, None] * e[None, :]
    mean_tilde = np.where(fit.exp_mask, e, fit.delta)
    return Posterior(mean=fit.delta.copy(), mean_tilde=mean_tilde,
                     cov=cov, cov_tilde=cov_tilde, e_vector=e, factor=factor)


def edf(fit) -> EdfReport:
    """Effective degrees of freedom: total, per term, per coefficient."""
    return _edf(fit, _factor_neg_hp(fit)[1])


def _edf(fit, factor):
    fmat = cho_solve(factor, -fit.hess)
    per_coef = np.diag(fmat).copy()
    per_term = {}
    for b in fit.blocks:
        # keyed by (equation, label): both equations have an intercept
        per_term[(b.eq, b.name)] = float(per_coef[b.sl].sum())
    return EdfReport(total=float(per_coef.sum()), per_term=per_term,
                     per_coef=per_coef)


def rho_interval(fit, level=DEFAULT_LEVEL, post=None):
    """(rho_hat, lo, hi): Wald interval on rho_star mapped through tanh.

    ``post`` is the fit's ``covariance``, computed here when not given.
    """
    if fit.kind != "joint":
        raise InferenceError("rho is only defined for the joint model")
    if post is None:
        post = covariance(fit)
    idx = fit.delta.size - 1
    rs = float(fit.delta[idx])
    se = math.sqrt(max(post.cov[idx, idx], 0.0))
    z = float(nm.norm_quantile(1.0 - level / 2.0))
    return math.tanh(rs), math.tanh(rs - z * se), math.tanh(rs + z * se)


def _term_design(fit, block):
    bundle = fit.bundle
    if fit.kind == "joint":
        if block.eq == 1:
            return bundle.X[:, block.sl]
        if block.sl.stop <= bundle.layout.psi - 1:
            sl = slice(block.sl.start - bundle.layout.p1,
                       block.sl.stop - bundle.layout.p1)
            return bundle.Z[:, sl]
        raise InferenceError("rho has no design columns")
    return (bundle.X if fit.kind == "outcome" else bundle.Z)[:, block.sl]


def _smooth_term_test(fit, block, post, edf_k):
    """Rank-r pseudoinverse Wald test of a penalized term, Wood-style."""
    x_k = _term_design(fit, block)
    tilde_k = post.mean_tilde[block.sl]
    v_k = post.cov_tilde[block.sl, block.sl]
    f_vals = x_k @ tilde_k
    eigval, eigvec = np.linalg.eigh(0.5 * (v_k + v_k.T))
    eigval = np.clip(eigval, 0.0, None)
    a_mat = x_k @ (eigvec * np.sqrt(eigval)[None, :])
    u, svals, _ = np.linalg.svd(a_mat, full_matrices=False)
    tol = svals.max(initial=0.0) * 1e-10
    usable = int(np.sum(svals > tol))
    if usable == 0:
        # the term is pinned to zero; no evidence either way
        return 0.0, 1, 1.0
    r = int(np.clip(round(edf_k), 1, usable))
    proj = u[:, :r].T @ f_vals
    stat = float(np.sum((proj / svals[:r]) ** 2))
    pval = float(chi2.sf(stat, r))
    return stat, r, pval


@dataclass
class SummaryRow:
    equation: int
    name: str
    kind: str
    estimate: float | None = None
    std_error: float | None = None
    z_value: float | None = None
    p_value: float | None = None
    edf: float | None = None
    statistic: float | None = None
    rank: int | None = None


@dataclass
class FitSummary:
    rows: list
    rho: tuple | None
    loglik: float
    edf_total: float
    aic: float
    n: int
    converged: bool

    def as_dict(self):
        out = {
            "n": self.n,
            "loglik": self.loglik,
            "edf_total": self.edf_total,
            "aic": self.aic,
            "converged": self.converged,
            "terms": [vars(r) for r in self.rows],
        }
        if self.rho is not None:
            out["rho"] = {"estimate": self.rho[0], "lo": self.rho[1],
                          "hi": self.rho[2]}
        return out


def summary(fit, level=DEFAULT_LEVEL) -> FitSummary:
    """Coefficient table: Wald rows for parametric terms, edf tests for smooths."""
    post = covariance(fit)
    ed = _edf(fit, post.factor)
    rows = []
    for b in fit.blocks:
        if b.kind == "parametric":
            for j in range(b.sl.start, b.sl.stop):
                est = float(post.mean_tilde[j])
                se = math.sqrt(max(post.cov_tilde[j, j], 0.0))
                z = est / se if se > 0 else 0.0
                p = float(2.0 * nm.norm_cdf(-abs(z))) if se > 0 else 1.0
                if est == 0.0:
                    p = 1.0
                rows.append(SummaryRow(equation=b.eq, name=b.name,
                                       kind="parametric", estimate=est,
                                       std_error=se, z_value=z, p_value=p))
        else:
            edf_k = ed.per_term[(b.eq, b.name)]
            stat, r, p = _smooth_term_test(fit, b, post, edf_k)
            rows.append(SummaryRow(equation=b.eq, name=b.name, kind=b.kind,
                                   edf=edf_k, statistic=stat,
                                   rank=r, p_value=p))
    rho = rho_interval(fit, level, post) if fit.kind == "joint" else None
    return FitSummary(rows=rows, rho=rho, loglik=fit.loglik,
                      edf_total=ed.total, aic=-2.0 * fit.loglik + 2.0 * ed.total,
                      n=fit.bundle.n, converged=fit.convergence.converged)


# ---------------------------------------------------------------------------
# posterior simulation for nonlinear functionals
# ---------------------------------------------------------------------------

def _beta1_part(fit, delta):
    if fit.kind == "joint":
        return delta[fit.bundle.layout.eq1]
    if fit.kind == "outcome":
        return delta
    raise InferenceError("survival functionals need the outcome equation")


def _check_grid(fit, t_grid):
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise InferenceError("time grid is empty")
    a, b = fit.bundle.mono_interval
    if np.any(t_grid < a) or np.any(t_grid > b):
        raise InferenceError(
            f"time grid must stay within the fitted interval [{a:.6g}, {b:.6g}]")
    return t_grid


def _posterior_draws(fit, draws, seed):
    post = covariance(fit)
    cov = post.cov
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.trace(cov)) / cov.shape[0]
        chol = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(size=(draws, cov.shape[0]))
    return post.mean[None, :] + z @ chol.T


def _worker_count():
    """CPUs this process may run on: the threads of one posterior pass."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _mean_survival(fit, t_grid, groups, deltas):
    """Mean survival curve of each group per delta: key -> (len(deltas), T).

    ``groups`` maps keys to GroupDefs.  Each distinct arm d costs one Phi
    pass per delta, over the union of its groups' rows and into one reused
    buffer; a group is averaged over its own C-contiguous selection, so the
    summation order is that of a pass over its rows alone.  With draws, each
    pass is split by grid rows across the process's CPUs: every thread fills
    and reduces its own rows of the same buffers, so each row is computed
    exactly as by one thread.  Without draws, or on one grid point or CPU,
    the pass is one block, filled on the calling thread.
    """
    bundle = fit.bundle
    arms = {}
    for key, g in groups.items():
        arms.setdefault(g.d, []).append((key, g.rows(bundle)))
    plan = []
    for d, parts in arms.items():
        union = np.logical_or.reduce([rows for _, rows in parts])
        picks = [(key, None if np.array_equal(rows, union)
                  else np.flatnonzero(rows[union])) for key, rows in parts]
        plan.append((d, union, picks, np.empty((t_grid.size, union.sum()))))
    out = {key: np.empty((len(deltas), t_grid.size)) for key in groups}
    cols = bundle.time_columns(t_grid)

    def prepare(delta):
        """The serial part of a pass: time curve and each arm's offsets."""
        beta1 = _beta1_part(fit, delta)
        tilde = bundle.beta1_tilde(beta1)
        neg_curve = -(cols @ tilde[bundle.time_slice])[:, None]
        return neg_curve, [bundle.offsets(beta1, d=d)[union][None, :]
                           for d, union, _, _ in plan]

    def fill(v, neg_curve, offs, lo, hi):
        """Rows [lo, hi) of every arm's pass for delta number v."""
        for (_, _, picks, buf), off in zip(plan, offs):
            rows = buf[lo:hi]
            np.subtract(neg_curve[lo:hi], off, out=rows)
            nm.norm_cdf(rows, out=rows)
            for key, sel in picks:
                part = rows if sel is None else np.take(rows, sel, axis=1)
                out[key][v, lo:hi] = part.mean(axis=1)

    n_blocks = min(_worker_count(), t_grid.size) if len(deltas) > 1 else 1
    edges = [t_grid.size * k // n_blocks for k in range(n_blocks + 1)]
    blocks = list(zip(edges[:-1], edges[1:]))
    # with one block nothing is submitted, so the pool starts no thread
    with ThreadPoolExecutor(max_workers=max(n_blocks - 1, 1)) as pool:
        for v, delta in enumerate(deltas):
            neg_curve, offs = prepare(delta)
            futures = [pool.submit(fill, v, neg_curve, offs, lo, hi)
                       for lo, hi in blocks[1:]]
            fill(v, neg_curve, offs, *blocks[0])
            for future in futures:
                future.result()
    return out


def _band(sims, est, level):
    """Pointwise quantile band over draws, widened to contain the estimate."""
    if sims.shape[0] == 0:
        return est, est.copy(), est.copy()
    lo = np.quantile(sims, level / 2.0, axis=0)
    hi = np.quantile(sims, 1.0 - level / 2.0, axis=0)
    return est, np.minimum(lo, est), np.maximum(hi, est)


def posterior_curves(fit, t_grid, groups=(), contrast=None,
                     level=DEFAULT_LEVEL, draws=DEFAULT_DRAWS,
                     seed=0) -> CurveSet:
    """Group survival curves and a SATE from one posterior simulation.

    ``contrast`` is a (treated, control) pair of groups; the SATE is the
    difference of their mean curves.  Estimates use the fitted coefficients,
    bands the ``draws`` coefficient vectors drawn once from ``seed`` and
    shared by every curve.
    """
    _require_converged(fit)
    if draws < 0:
        raise ConfigurationError(f"draws must be >= 0, got {draws}")
    t_grid = _check_grid(fit, t_grid)
    named = {("group", g.name): g for g in groups}
    if contrast is not None:
        named.update({("sate", i): g for i, g in enumerate(contrast)})
    deltas = fit.delta[None, :]
    if draws > 0:
        deltas = np.vstack([deltas, _posterior_draws(fit, draws, seed)])
    means = _mean_survival(fit, t_grid, named, deltas)

    out = CurveSet(t=t_grid, level=level, seed=seed)
    near_zero = t_grid <= fit.bundle.mono_interval[0] + 1e-12
    for g in groups:
        mat = means[("group", g.name)]
        out.groups[g.name] = _band(mat[1:], mat[0], level)
        if np.any(near_zero):
            out.boundary_flags[g.name] = bool(mat[0][near_zero].max() < 0.99)
    if contrast is not None:
        mat = means[("sate", 0)] - means[("sate", 1)]
        out.sate = _band(mat[1:], mat[0], level)
    return out


def sate(fit, t_grid, level=DEFAULT_LEVEL, draws=DEFAULT_DRAWS, seed=0,
         where=None, treated=1, control=0) -> CurveSet:
    """Average survival contrast Phi[-eta1(t,x,1)] - Phi[-eta1(t,x,0)].

    Pointwise bands are empirical quantiles over posterior draws pushed
    through the monotone reparametrization.  ``where`` restricts the
    averaging population, ``treated``/``control`` pick the contrasted arms.
    """
    pair = (GroupDef("treated", d=treated, where=where or {}),
            GroupDef("control", d=control, where=where or {}))
    return posterior_curves(fit, t_grid, contrast=pair, level=level,
                            draws=draws, seed=seed)


def survival_curve_draws(fit, t_grid, d, draws=DEFAULT_DRAWS, seed=0,
                         where=None):
    """Posterior-simulated mean survival curves, one row per draw."""
    group = GroupDef("all", d=d, where=where or {})
    return _mean_survival(fit, _check_grid(fit, t_grid), {"all": group},
                          _posterior_draws(fit, draws, seed))["all"]


def survival_curves(fit, t_grid, groups=None, level=DEFAULT_LEVEL,
                    draws=DEFAULT_DRAWS, seed=0) -> CurveSet:
    """Per-group mean survival curves with posterior-simulation bands."""
    if groups is None:
        groups = [GroupDef("treated", d=1), GroupDef("control", d=0)]
    return posterior_curves(fit, t_grid, groups=groups, level=level,
                            draws=draws, seed=seed)
