"""Reference code that only the tests use.

The package computes these quantities in fused or batched form; the tests
compare against the plain versions kept here: the predictors of a design
bundle, the per-row joint likelihood, the AIC at a fixed lambda, posterior-
simulated mean survival curves, and a smooth term evaluated at new points;
and a trust-region iteration cap that records each run's iterations.
"""

import math
from dataclasses import dataclass

import numpy as np

from endosurv import inference as inf
from endosurv import likelihood as lk
from endosurv import numerics as nm
from endosurv import optimizer as op
from endosurv import splines as sp


# ---------------------------------------------------------------------------
# predictors of a design bundle
# ---------------------------------------------------------------------------

def eta1(bundle, beta1):
    return bundle.X @ bundle.beta1_tilde(beta1)


def eta2(bundle, beta2):
    return bundle.Z @ np.asarray(beta2, dtype=float)


def deta1_dy(bundle, beta1):
    """d(eta1)/dy on every row (the bundle's Xt holds the event rows only)."""
    xt = sp.monotone_columns(bundle.data.time, bundle.mono_knots,
                             bundle.mono_order, nu=1)
    return xt @ bundle.beta1_tilde(beta1)[bundle.time_slice]


def time_curve(bundle, beta1, t):
    """Monotone-block contribution to eta1 at times t (same for all rows)."""
    tilde = bundle.beta1_tilde(beta1)
    return bundle.time_columns(t) @ tilde[bundle.time_slice]


def offsets(bundle, beta1, d=None):
    """Non-time part of eta1 per row, optionally forcing treatment to d:
    X with its treatment column set to d and each interaction column to
    d times its modifier, times beta1_tilde with the time block zeroed."""
    x = bundle.X.copy()
    if d is not None:
        x[:, bundle.treat_index] = d
        for col, modvals in bundle.interaction_cols:
            x[:, col] = d * modvals
    tilde = bundle.beta1_tilde(beta1)
    tilde[bundle.time_slice] = 0.0
    return x @ tilde


# ---------------------------------------------------------------------------
# the per-row joint likelihood
# ---------------------------------------------------------------------------

def predictors(bundle, delta):
    lay = bundle.layout
    delta = np.asarray(delta, dtype=float)
    beta1 = delta[lay.eq1]
    rho = float(np.clip(math.tanh(float(delta[lay.rho_index])),
                        -nm.RHO_DEGENERATE, nm.RHO_DEGENERATE))
    return (eta1(bundle, beta1), eta2(bundle, delta[lay.eq2]),
            deta1_dy(bundle, beta1), rho)


@dataclass
class LikelihoodParts:
    """Per-row quantities entering Eq. (5)-style contributions."""

    case: np.ndarray          # index into CASE_LABELS
    P00: np.ndarray
    P01: np.ndarray
    S: np.ndarray
    contributions: np.ndarray
    valid: bool

    def labels(self):
        return np.asarray(lk.CASE_LABELS, dtype=object)[self.case]


def likelihood_parts(bundle, delta) -> LikelihoodParts:
    """Full per-row breakdown, coded independently of ``lk.evaluate``."""
    u, v, h, rho = predictors(bundle, delta)
    a, b = -v, -u
    q = math.sqrt((1.0 - rho) * (1.0 + rho))

    S = nm.norm_cdf(b)
    P00 = nm.bvn_cdf(a, b, rho)
    SP = nm.bvn_cdf(-a, b, -rho)
    c = (a - rho * b) / q
    dens = np.exp(lk._log_phi(b)) * h
    P01 = dens * nm.norm_cdf(c)
    ev1 = dens * nm.norm_cdf(-c)

    case = 2 * bundle.data.status + bundle.data.treatment
    prob = np.choose(case, [P00, SP, P01, ev1])
    contrib = np.log(np.maximum(prob, lk.LOG_FLOOR))

    valid = bool(np.all(np.isfinite(u)) and np.all(np.isfinite(v))
                 and np.all(np.isfinite(h))
                 and np.all(h[case >= 2] > 1e-290)
                 and np.all(np.isfinite(contrib)))
    return LikelihoodParts(case=case, P00=P00, P01=P01, S=S,
                           contributions=contrib, valid=valid)


# ---------------------------------------------------------------------------
# smoothing criterion, posterior curve draws, smooth terms at new points
# ---------------------------------------------------------------------------

def aic(view, lam, x0):
    """(criterion, inner result) of the inner fit at ``lam`` from x0."""
    res = op._fit_at_lambda(view, lam, x0)
    return op._criterion(view, lam, res)[0], res


def smoothing_criterion(bundle, lam, kind="joint"):
    """AIC(lambda) = -2 loglik(delta_hat_lambda) + 2 edf(lambda)."""
    view = op.ObjectiveView(bundle, kind)
    return aic(view, np.asarray(lam, dtype=float), op._start(view))[0]


def survival_curve_draws(fit, t_grid, d, draws=inf.DEFAULT_DRAWS, seed=0,
                         where=None):
    """Posterior-simulated mean survival curves, one row per draw."""
    group = inf.GroupDef("all", d=d, where=where or {})
    return inf._mean_survival(fit, inf._check_grid(fit, t_grid),
                              inf._row_filters(fit.bundle, {"all": group}),
                              inf._posterior_draws(fit, draws, seed))["all"]


def smooth_term_rows(basis, x_new):
    """Evaluate a built smooth term's centered columns at new covariate values
    by the direct radial sum, sum_k u_k |z - c_k|^3 / 12 for each column, in
    the term's standardized coordinate z = (x - shift) / scale."""
    z = (np.asarray(x_new, dtype=float) - basis.meta["shift"]) / basis.meta["scale"]
    r = z[:, None] - basis.meta["centers"][None, :]
    wiggle = (np.abs(r) ** 3 / 12.0) @ basis.meta["u"]
    raw = np.column_stack([wiggle, np.ones(z.size), z])
    return raw @ basis.centering


def capped_tr_iterations(monkeypatch, cap):
    """Cap MAX_TR_ITERS; the list collects each trust-region run's iterations."""
    monkeypatch.setattr(op, "MAX_TR_ITERS", cap)
    iterations = []
    real = op.trust_region_maximize

    def recorded(*args, **kw):
        res = real(*args, **kw)
        iterations.append(res.report.iterations)
        return res

    monkeypatch.setattr(op, "trust_region_maximize", recorded)
    return iterations
