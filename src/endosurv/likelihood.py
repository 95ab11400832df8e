"""Censored joint log-likelihood and its analytic derivatives.

Per-row contributions split into four cases by (treatment d, event status):

* d=0 censored:  log P00,           P00 = Phi2(-eta2, -eta1; rho)
* d=1 censored:  log(S - P00),      S   = Phi(-eta1)
* d=0 event:     log P01,           P01 = phi(eta1) * deta1/dy * Phi(c)
* d=1 event:     log(phi(eta1) * deta1/dy - P01)
                                    = same with Phi(-c)

with c = (-eta2 + rho*eta1) / sqrt(1 - rho^2) and rho = tanh(rho_star).

The bundle stores its rows in case order, so each case is a slice of them
(``DesignBundle.case_bounds``), and d(eta1)/dy is formed on the event rows
only.  ``evaluate(bundle, delta)`` is the one joint entry point: a single
pass forms the predictors, calls the bivariate CDF once per censored case
(S - P00 is evaluated directly as Phi2(eta2, -eta1; -rho)) and returns the
value, the score and the Hessian.  ``evaluate_outcome`` (survival model of
the outcome equation alone) and ``evaluate_selection`` (its probit
selection model) are the same pass for the univariate views.  An invalid
evaluation (non-finite predictor, vanishing event rate) returns
``nan_result``; the optimizer treats such a point as a rejected step, never
an abort.  ``finite_differences`` checks any of these passes by central
differences.

The chain rule through the monotone reparametrization uses
dEta1/dBeta1 = row * E1 and d2Eta1/dBeta1^2 = diag(row) * E1bar, where E1
holds exp(coef) on the time block (``bundle.time_slice``, the exp-coded
coefficients) and 1 elsewhere, and E1bar is E1 on the time block and 0
elsewhere.  Only the time block has nonzero d(eta1)/dy columns.  The joint
and outcome passes share this chain rule.
"""

import math

import numpy as np

from . import numerics as nm

LOG_FLOOR = 1e-300
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# the likelihood cases in the order of DesignBundle.case_bounds
CASE_LABELS = ("d0_cens", "d1_cens", "d0_event", "d1_event")


def _log_phi(x):
    return -0.5 * x * x - _LOG_SQRT_2PI


def nan_result(psi):
    """The (ll, g, H) of an invalid point, NaN throughout."""
    return float("nan"), np.full(psi, np.nan), np.full((psi, psi), np.nan)


def _outcome_predictors(bundle, beta1):
    """(e1, u, h) at beta1, or None if any is non-finite: e1 holds exp(coef)
    on the time block and 1 elsewhere, u = eta1, h = d(eta1)/dy on the
    event rows."""
    ts = bundle.time_slice
    tilde = bundle.beta1_tilde(beta1)
    if not np.all(np.isfinite(tilde)):
        return None
    e1 = np.ones(tilde.size)
    e1[ts] = tilde[ts]
    u = bundle.X @ tilde
    h = bundle.Xt @ tilde[ts]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(h))):
        return None
    return e1, u, h


def _outcome_score(bundle, l1, inv_h):
    """X'l1 + Xt'inv_h: the beta1 score before the exp chain rule, with
    l1 = d ll / d eta1 per row and inv_h = 1/h per event row."""
    r1 = bundle.X.T @ l1
    r1[bundle.time_slice] += bundle.Xt.T @ inv_h
    return r1


def _outcome_hessian(bundle, e1, r1, l11, inv_h):
    """The beta1 Hessian block from l11 = d2 ll / d eta1^2 and r1, inv_h."""
    ts, xt, X = bundle.time_slice, bundle.Xt, bundle.X
    h11 = X.T @ (l11[:, None] * X)
    h11[ts, ts] -= xt.T @ ((inv_h * inv_h)[:, None] * xt)
    h11 *= np.outer(e1, e1)
    diag = np.arange(ts.start, ts.stop)
    h11[diag, diag] += e1[ts] * r1[ts]
    return h11


def evaluate(bundle, delta):
    """Joint log-likelihood with its score and Hessian.

    Returns (ll, g, H) in delta = (beta1, beta2, rho_star); an invalid point
    returns ``nan_result``.
    """
    lay = bundle.layout
    psi = lay.psi
    delta = np.asarray(delta, dtype=float)
    pred = _outcome_predictors(bundle, delta[lay.eq1])
    if pred is None:
        return nan_result(psi)
    e1, u, h = pred
    v = bundle.Z @ delta[lay.eq2]
    if not np.all(np.isfinite(v)) or np.any(h <= 1e-290):
        return nan_result(psi)
    rho = float(np.clip(math.tanh(float(delta[lay.rho_index])),
                        -nm.RHO_DEGENERATE, nm.RHO_DEGENERATE))
    q2 = (1.0 - rho) * (1.0 + rho)
    q = math.sqrt(q2)

    # the bundle's rows are in case order: censored d=0, d=1, then events
    # d=0, d=1; the sign s = 1 - 2d turns each d=1 case into its d=0
    # counterpart
    bounds = bundle.case_bounds
    nc = bounds[2]
    a, b = -v, -u
    s = np.repeat([1.0, -1.0, 1.0, -1.0], np.diff(bounds))
    c = (a - rho * b) / q

    ac, bc, sc, cc = a[:nc], b[:nc], s[:nc], c[:nc]
    F = np.empty(nc)
    for lo, hi, sign in ((0, bounds[1], 1.0), (bounds[1], nc, -1.0)):
        if hi > lo:
            F[lo:hi] = nm.bvn_cdf(sign * ac[lo:hi], bc[lo:hi], sign * rho)
    F = np.maximum(F, LOG_FLOOR)
    ae, be, se, ce = a[nc:], b[nc:], s[nc:], c[nc:]
    sce = se * ce
    log_cdf = nm.norm_logcdf(sce)
    total = (float(np.sum(np.log(F)))
             + float(np.sum(_log_phi(be) + np.log(h) + log_cdf)))
    if not np.isfinite(total):
        return nan_result(psi)

    # log-derivatives in (a, b, rho) = (-eta2, -eta1, rho) per row; in the
    # extreme tail the floored CDF makes the censored ratios overflow, and
    # the resulting inf/NaN reach the Hessian, where the optimizer's finite
    # checks reject the trial
    with np.errstate(over="ignore", invalid="ignore"):
        zb = (bc - rho * ac) / q
        A = sc * nm.norm_pdf(ac) * nm.norm_cdf(zb) / F
        B = nm.norm_pdf(bc) * nm.norm_cdf(sc * cc) / F
        R = sc * nm.bvn_pdf(ac, bc, rho) / F
        w = np.exp(_log_phi(sce) - log_cdf)    # Mills ratio at s*c
        W = se * w
        c_rho = (rho * ae - be) / (q * q2)
        la = np.concatenate([A, W / q])
        lb = np.concatenate([B, -be - W * (rho / q)])
        lr = np.concatenate([R, W * c_rho])
        inv_h = 1.0 / h
        X, Z = bundle.X, bundle.Z
        t = 1.0 - rho * rho    # d rho / d rho_star
        r1 = _outcome_score(bundle, -lb, inv_h)
        g = np.empty(psi)
        g[lay.eq1] = e1 * r1
        g[lay.eq2] = Z.T @ -la
        g[lay.rho_index] = t * float(lr.sum())

        quad = ac * ac - 2.0 * rho * ac * bc + bc * bc
        wp = -sce * w - w * w                   # second derivative of log Phi
        laa = np.concatenate([-ac * A - rho * R - A * A, wp / q2])
        lbb = np.concatenate([-bc * B - rho * R - B * B,
                              -1.0 + wp * (rho * rho / q2)])
        lab = np.concatenate([R - A * B, -wp * (rho / q2)])
        lar = np.concatenate([-R * (cc / q + A),
                              wp * c_rho / q + W * (rho / (q * q2))])
        lbr = np.concatenate([-R * (zb / q + B),
                              -wp * rho * c_rho / q - W / (q * q2)])
        lrr = np.concatenate([
            R * (rho * q2 + ac * bc * q2 - rho * quad) / (q2 * q2) - R * R,
            wp * c_rho * c_rho
            + W * (ae * q2 + 3.0 * rho * (rho * ae - be)) / (q2 * q2 * q)])

        hess = np.empty((psi, psi))
        hess[lay.eq1, lay.eq1] = _outcome_hessian(bundle, e1, r1, lbb, inv_h)
        h12 = e1[:, None] * (X.T @ (lab[:, None] * Z))
        hess[lay.eq1, lay.eq2] = h12
        hess[lay.eq2, lay.eq1] = h12.T
        hess[lay.eq2, lay.eq2] = Z.T @ (laa[:, None] * Z)
        h1r = e1 * (X.T @ (-t * lbr))
        hess[lay.eq1, lay.rho_index] = h1r
        hess[lay.rho_index, lay.eq1] = h1r
        h2r = Z.T @ (-t * lar)
        hess[lay.eq2, lay.rho_index] = h2r
        hess[lay.rho_index, lay.eq2] = h2r
        hess[lay.rho_index, lay.rho_index] = float(
            np.sum(lrr * (t * t) - (2.0 * rho * t) * lr))
    return total, g, hess


# ---------------------------------------------------------------------------
# univariate views (initial values, the rho = 0 comparator)
# ---------------------------------------------------------------------------

def evaluate_outcome(bundle, beta1):
    """``evaluate`` for the censored survival model of beta1 alone."""
    p1 = bundle.layout.p1
    pred = _outcome_predictors(bundle, np.asarray(beta1, dtype=float))
    if pred is None:
        return nan_result(p1)
    e1, u, h = pred
    if np.any(h <= 1e-290):
        return nan_result(p1)
    nc = bundle.case_bounds[2]    # censored rows first, then events
    x = -u[:nc]
    log_cdf = nm.norm_logcdf(x)
    total = float(np.sum(log_cdf))
    total += float(np.sum(_log_phi(u[nc:]) + np.log(h)))
    if not np.isfinite(total):
        return nan_result(p1)
    w = np.exp(_log_phi(x) - log_cdf)    # Mills ratio at -eta1
    l1 = -u
    l1[:nc] = -w
    inv_h = 1.0 / h
    r1 = _outcome_score(bundle, l1, inv_h)
    l11 = np.full(bundle.n, -1.0)
    l11[:nc] = -x * w - w * w
    return total, e1 * r1, _outcome_hessian(bundle, e1, r1, l11, inv_h)


def evaluate_selection(bundle, beta2):
    """``evaluate`` for the probit selection model of beta2 alone."""
    v = bundle.Z @ np.asarray(beta2, dtype=float)
    if not np.all(np.isfinite(v)):
        return nan_result(bundle.layout.p2)
    sd = 2.0 * bundle.data.treatment - 1.0    # 1 on treated rows, -1 else
    sv = sd * v
    log_cdf = nm.norm_logcdf(sv)
    total = float(np.sum(log_cdf))
    if not np.isfinite(total):
        return nan_result(bundle.layout.p2)
    w = np.exp(_log_phi(sv) - log_cdf)    # Mills ratio at s*eta2
    g = bundle.Z.T @ (sd * w)
    lvv = -sv * w - w * w
    return total, g, bundle.Z.T @ (lvv[:, None] * bundle.Z)


# ---------------------------------------------------------------------------
# finite-difference verification (the CLI self-check, also a test oracle)
# ---------------------------------------------------------------------------

def finite_differences(fun, x):
    """Central differences of a pass ``fun(x) -> (ll, g, H)``: the score
    from its values and the Hessian, symmetrized, from its scores.  Each
    coordinate j is stepped by +-1e-6 * max(1, |x_j|): 2 * x.size passes."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    hess = np.empty((x.size, x.size))
    for j in range(x.size):
        hj = 1e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += hj
        xm[j] -= hj
        llp, gp, _ = fun(xp)
        llm, gm, _ = fun(xm)
        g[j] = (llp - llm) / (2.0 * hj)
        hess[:, j] = (gp - gm) / (2.0 * hj)
    return g, 0.5 * (hess + hess.T)
