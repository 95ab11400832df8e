"""Censored joint log-likelihood and its analytic derivatives.

Per-row contributions split into four cases by (treatment d, event status):

* d=0 censored:  log P00,           P00 = Phi2(-eta2, -eta1; rho)
* d=1 censored:  log(S - P00),      S   = Phi(-eta1)
* d=0 event:     log P01,           P01 = phi(eta1) * deta1/dy * Phi(c)
* d=1 event:     log(phi(eta1) * deta1/dy - P01)
                                    = same with Phi(-c)

with c = (-eta2 + rho*eta1) / sqrt(1 - rho^2) and rho = tanh(rho_star).

``evaluate(bundle, delta, order)`` is the one kernel: a single pass forms
the predictors, calls the bivariate CDF once per censored case (S - P00 is
evaluated directly as Phi2(eta2, -eta1; -rho)) and returns the value, the
score (order >= 1) and the Hessian (order 2).  ``loglik``, ``score`` and
``hessian`` are thin wrappers over it.  An invalid evaluation (non-finite
predictor, vanishing event rate) returns NaN; the optimizer treats such a
point as a rejected step, never an abort.

The chain rule through the monotone reparametrization uses
dEta1/dBeta1 = row * E1 and d2Eta1/dBeta1^2 = diag(row) * E1bar, where E1
holds exp(coef) on reparametrized entries and E1bar the same with zeros
elsewhere.  Only the monotone time block has nonzero d(eta1)/dy columns.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import InferenceError

LOG_FLOOR = 1e-300
RHO_CAP = 1.0 - 1e-12
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# indexed by 2 * status + treatment
CASE_LABELS = ("d0_cens", "d1_cens", "d0_event", "d1_event")


def _log_phi(x):
    return -0.5 * x * x - _LOG_SQRT_2PI


def _predictors(bundle, delta):
    lay = bundle.layout
    delta = np.asarray(delta, dtype=float)
    beta1 = delta[lay.eq1]
    beta2 = delta[lay.eq2]
    rho_star = float(delta[lay.rho_index])
    u = bundle.eta1(beta1)
    v = bundle.eta2(beta2)
    h = bundle.deta1_dy(beta1)
    rho = float(np.clip(math.tanh(rho_star), -RHO_CAP, RHO_CAP))
    return u, v, h, rho


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
        return np.asarray(CASE_LABELS, dtype=object)[self.case]


def likelihood_parts(bundle, delta) -> LikelihoodParts:
    """Full per-row diagnostic breakdown (slower than ``loglik``)."""
    u, v, h, rho = _predictors(bundle, delta)
    a, b = -v, -u
    q = math.sqrt((1.0 - rho) * (1.0 + rho))

    S = nm.norm_cdf(b)
    P00 = nm.bvn_cdf(a, b, rho)
    SP = nm.bvn_cdf(-a, b, -rho)
    c = (a - rho * b) / q
    dens = np.exp(_log_phi(b)) * h
    P01 = dens * nm.norm_cdf(c)
    ev1 = dens * nm.norm_cdf(-c)

    case = 2 * bundle.data.status + bundle.data.treatment
    prob = np.choose(case, [P00, SP, P01, ev1])
    contrib = np.log(np.maximum(prob, LOG_FLOOR))

    valid = bool(np.all(np.isfinite(u)) and np.all(np.isfinite(v))
                 and np.all(np.isfinite(h))
                 and np.all(h[case >= 2] > 1e-290)
                 and np.all(np.isfinite(contrib)))
    return LikelihoodParts(case=case, P00=P00, P01=P01, S=S,
                           contributions=contrib, valid=valid)


def nan_result(psi, order):
    """The (ll, g, H) of an invalid point: NaN up to ``order``, None above."""
    return (float("nan"), np.full(psi, np.nan) if order >= 1 else None,
            np.full((psi, psi), np.nan) if order >= 2 else None)


def evaluate(bundle, delta, order=2):
    """Joint log-likelihood with its score and Hessian up to ``order``.

    Returns (ll, g, H) in delta = (beta1, beta2, rho_star); g is None for
    order 0 and H is None below order 2.  An invalid point returns ll = NaN
    with NaN-filled g and H.
    """
    lay = bundle.layout
    psi = lay.psi
    delta = np.asarray(delta, dtype=float)
    beta1 = delta[lay.eq1]
    mask1 = bundle.exp_mask1()
    with np.errstate(over="ignore"):
        # overflow yields inf and is caught by the invalid-point protocol
        e1 = np.exp(np.where(mask1, beta1, 0.0))
    tilde = np.where(mask1, e1, beta1)
    if not np.all(np.isfinite(tilde)):
        return nan_result(psi, order)
    ts = bundle.time_slice
    xt = bundle.Xt
    u = bundle.X @ tilde
    v = bundle.Z @ delta[lay.eq2]
    h = xt @ tilde[ts]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))
            and np.all(np.isfinite(h))):
        return nan_result(psi, order)
    rho = float(np.clip(math.tanh(float(delta[lay.rho_index])),
                        -RHO_CAP, RHO_CAP))
    q2 = (1.0 - rho) * (1.0 + rho)
    q = math.sqrt(q2)

    # rows in case order: censored d=0, d=1, then events d=0, d=1; the
    # sign s = 1 - 2d turns each d=1 case into its d=0 counterpart
    rows, bounds = bundle.case_rows
    nc = bounds[2]
    a, b = -v[rows], -u[rows]
    s = np.repeat([1.0, -1.0, 1.0, -1.0], np.diff(bounds))
    c = (a - rho * b) / q
    he = h[rows[nc:]]
    if np.any(he <= 1e-290):
        return nan_result(psi, order)

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
             + float(np.sum(_log_phi(be) + np.log(he) + log_cdf)))
    if not np.isfinite(total):
        return nan_result(psi, order)
    if order == 0:
        return total, None, None

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

        n, ev = bundle.n, rows[nc:]

        def by_row(x):
            """Case-ordered per-row values back in data row order."""
            out = np.empty(n)
            out[rows] = x
            return out

        def events_only(x):
            out = np.zeros(n)
            out[ev] = x
            return out

        X, Z = bundle.X, bundle.Z
        t = 1.0 - rho * rho    # d rho / d rho_star
        r1 = X.T @ by_row(-lb)
        r1[ts] += xt.T @ events_only(1.0 / he)
        g = np.empty(psi)
        g[lay.eq1] = e1 * r1
        g[lay.eq2] = Z.T @ by_row(-la)
        g[lay.rho_index] = t * float(lr.sum())
        if order == 1:
            return total, g, None

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
        h11 = X.T @ (by_row(lbb)[:, None] * X)
        h11[ts, ts] += xt.T @ (events_only(-1.0 / (he * he))[:, None] * xt)
        h11 *= np.outer(e1, e1)
        h11[np.diag_indices_from(h11)] += np.where(mask1, e1, 0.0) * r1
        hess[lay.eq1, lay.eq1] = h11
        h12 = e1[:, None] * (X.T @ (by_row(lab)[:, None] * Z))
        hess[lay.eq1, lay.eq2] = h12
        hess[lay.eq2, lay.eq1] = h12.T
        hess[lay.eq2, lay.eq2] = Z.T @ (by_row(laa)[:, None] * Z)
        h1r = e1 * (X.T @ by_row(-t * lbr))
        hess[lay.eq1, lay.rho_index] = h1r
        hess[lay.rho_index, lay.eq1] = h1r
        h2r = Z.T @ by_row(-t * lar)
        hess[lay.eq2, lay.rho_index] = h2r
        hess[lay.rho_index, lay.eq2] = h2r
        hess[lay.rho_index, lay.rho_index] = float(
            np.sum(lrr * (t * t) - (2.0 * rho * t) * lr))
    return total, g, hess


def loglik(bundle, delta):
    """Joint censored log-likelihood; NaN signals an invalid point."""
    return evaluate(bundle, delta, 0)[0]


def score(bundle, delta):
    """Analytic gradient of ``loglik`` in delta = (beta1, beta2, rho_star)."""
    return evaluate(bundle, delta, 1)[1]


def hessian(bundle, delta):
    """Analytic Hessian of ``loglik``; symmetric (psi x psi)."""
    return evaluate(bundle, delta, 2)[2]


# ---------------------------------------------------------------------------
# univariate building blocks (initial values, the rho = 0 comparator)
# ---------------------------------------------------------------------------

def loglik_survival(bundle, beta1):
    """Censored survival log-likelihood of the outcome equation alone."""
    beta1 = np.asarray(beta1, dtype=float)
    u = bundle.eta1(beta1)
    h = bundle.deta1_dy(beta1)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(h))):
        return float("nan")
    ev = bundle.data.status.astype(bool)
    if np.any(h[ev] <= 1e-290):
        return float("nan")
    total = float(np.sum(nm.norm_logcdf(-u[~ev])))
    total += float(np.sum(_log_phi(u[ev]) + np.log(h[ev])))
    return total if np.isfinite(total) else float("nan")


def score_hessian_survival(bundle, beta1):
    """Analytic gradient and Hessian of ``loglik_survival``."""
    beta1 = np.asarray(beta1, dtype=float)
    u = bundle.eta1(beta1)
    h = bundle.deta1_dy(beta1)
    cens = bundle.data.status == 0
    w = nm.mills_ratio(-u[cens])
    lu = -u
    lu[cens] = -w
    luu = np.full(bundle.n, -1.0)
    luu[cens] = u[cens] * w - w * w
    inv_h = np.where(cens, 0.0, 1.0 / np.maximum(h, LOG_FLOOR))

    mask1 = bundle.exp_mask1()
    e1 = np.where(mask1, np.exp(beta1), 1.0)
    ts = bundle.time_slice
    xt = bundle.Xt
    r1 = bundle.X.T @ lu
    r1[ts] += xt.T @ inv_h
    hess = bundle.X.T @ (luu[:, None] * bundle.X)
    hess[ts, ts] -= xt.T @ ((inv_h * inv_h)[:, None] * xt)
    hess *= np.outer(e1, e1)
    hess[np.diag_indices_from(hess)] += np.where(mask1, e1, 0.0) * r1
    return e1 * r1, hess


def loglik_probit(bundle, beta2):
    """Probit log-likelihood of the selection equation alone."""
    v = bundle.eta2(np.asarray(beta2, dtype=float))
    if not np.all(np.isfinite(v)):
        return float("nan")
    dvec = bundle.data.treatment.astype(bool)
    total = float(np.sum(nm.norm_logcdf(v[dvec])))
    total += float(np.sum(nm.norm_logcdf(-v[~dvec])))
    return total if np.isfinite(total) else float("nan")


def score_hessian_probit(bundle, beta2):
    """Analytic gradient and Hessian of ``loglik_probit``."""
    v = bundle.eta2(np.asarray(beta2, dtype=float))
    dvec = bundle.data.treatment.astype(bool)
    lv = np.where(dvec, nm.mills_ratio(v), -nm.mills_ratio(-v))
    lvv = np.where(dvec, nm.d2log_ndtr(v), nm.d2log_ndtr(-v))
    g = bundle.Z.T @ lv
    hess = bundle.Z.T @ (lvv[:, None] * bundle.Z)
    return g, hess


# ---------------------------------------------------------------------------
# confounding diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ConfoundingDiagnostics:
    mean: float
    variance: float
    mills: float
    clamped: bool


def selection_bias_moments(eta2, rho):
    """Conditional mean shift and variance of the transformed time given uptake.

    ``rho`` is the structural error correlation.  Returns
    (mean_shift, variance, mills, clamped).
    """
    clamped = bool(eta2 < -37.0)
    mills = float(nm.mills_ratio(eta2))
    mean_shift = rho * mills
    variance = rho * rho * (-eta2 * mills - mills * mills) + 1.0
    return mean_shift, variance, mills, clamped


def confounding_diagnostics(bundle, delta, row) -> ConfoundingDiagnostics:
    """Moments of the transformed event time for row ``row`` given uptake.

    The dependence parameter of the likelihood is the correlation between
    the selection error and the *negated* outcome error, so the structural
    correlation entering these moments is -tanh(rho_star).
    """
    lay = bundle.layout
    delta = np.asarray(delta, dtype=float)
    if not (0 <= row < bundle.n):
        raise InferenceError(f"row {row} out of range")
    eta2 = float(bundle.Z[row] @ delta[lay.eq2])
    rho_struct = -math.tanh(float(delta[lay.rho_index]))
    base = -float(bundle.offsets(delta[lay.eq1], d=1)[row])
    shift, variance, mills, clamped = selection_bias_moments(eta2, rho_struct)
    return ConfoundingDiagnostics(mean=base + shift, variance=variance,
                                  mills=mills, clamped=clamped)


# ---------------------------------------------------------------------------
# finite-difference verification (test oracles and the CLI self-check)
# ---------------------------------------------------------------------------

def finite_difference_score(bundle, delta, step=1e-6):
    delta = np.asarray(delta, dtype=float)
    g = np.empty(delta.size)
    for j in range(delta.size):
        hj = step * max(1.0, abs(delta[j]))
        dp, dm = delta.copy(), delta.copy()
        dp[j] += hj
        dm[j] -= hj
        g[j] = (loglik(bundle, dp) - loglik(bundle, dm)) / (2.0 * hj)
    return g


def finite_difference_hessian(bundle, delta, step=1e-6):
    delta = np.asarray(delta, dtype=float)
    p = delta.size
    hess = np.empty((p, p))
    for j in range(p):
        hj = step * max(1.0, abs(delta[j]))
        dp, dm = delta.copy(), delta.copy()
        dp[j] += hj
        dm[j] -= hj
        hess[:, j] = (score(bundle, dp) - score(bundle, dm)) / (2.0 * hj)
    return 0.5 * (hess + hess.T)
