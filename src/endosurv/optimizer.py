"""Penalized maximum-likelihood fitting.

The inner problem (delta given lambda) is solved by a trust-region Newton
method with dogleg steps; when the negated penalized Hessian is not positive
definite, the smallest multiple of the identity restoring a Cholesky
factorization is found by bracketing and bisection.  Invalid likelihood
evaluations reject the step and shrink the radius, they never abort.  Each
trial point costs one fused likelihood evaluation (value, score and
Hessian), so an accepted step needs no further likelihood work.

Smoothing parameters minimize AIC(lambda) = -2 loglik(delta_hat_lambda) +
2 edf(lambda).  The search starts from the inner fit at lambda = 1 and the
working model there: the quadratic expansion of the log-likelihood at that
optimum, whose AIC over lambda costs no likelihood pass (Gu's performance
iteration, Wood 2004).  The lambda minimizing the model's AIC, if >= 0.1
decades away, gets one inner fit, kept if its AIC is lower.  Runs on one
log10(lambda_k) at a time, k = 0, 1, ... in cycle order, then polish.  A run
steers by the AIC's exact slope in log10(lambda_k) at an inner optimum: the
implicit derivative of delta_hat, and one forward difference of the Hessian
for d edf.  A slope within AIC_SLOPE_TOL ends the run before any probe;
otherwise secant steps on the slope, bisecting while the bracket that holds
descent is wider than LAMBDA_TOL_LOG10 and a step leaves it, each at most
LAMBDA_STEP_LOG10, go on until the slope is that flat or a step inside the
bracket rounds to the incumbent.  The AIC need not be convex, so the first
such run on a coordinate then probes lambda_k's upper bound (the penalty's
null-space fit) and goes on from there if it is lower.  Each probe's inner
fit starts from the incumbent, the lowest AIC so far, and reuses its
evaluation.  A run has moved if lambda_k changed by >= 0.1 decades; once the
runs since the last move, that one included, number n_lambda, the working
model around the incumbent predicts again, and a prediction >= 0.1 decades
away whose inner fit is lower starts the runs anew.  The search stops when
it is not, or after MAX_LAMBDA_SEARCHES runs, and the incumbent's inner fit
is the result.

The constants below are read when a function runs, so they may be patched.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from . import likelihood as lk
from .errors import ConfigurationError

MAX_TR_ITERS = 200             # trust-region iterations per inner fit
GRADIENT_TOLERANCE = 1e-7      # max |g| <= tol * (1 + |f|) is converged
INITIAL_TRUST_RADIUS = 1.0
MAX_TRUST_RADIUS = 100.0
LAMBDA_LOG10_BOUNDS = (-5.0, 7.0)
LAMBDA_TOL_LOG10 = 0.05        # a run bisects while its bracket is wider
LAMBDA_STEP_LOG10 = 2.0        # longest secant or bisection step of a run
AIC_SLOPE_TOL = 0.02           # |d AIC / d log10(lambda_k)| at which it stops
MAX_LAMBDA_SEARCHES = 25       # coordinate runs per lambda search

# relative rounding level of an objective summed over many rows
_F_ROUNDING = 1e-13


@dataclass
class FitOptions:
    lambda_fixed: object = None

    def validate(self):
        """lambda_fixed is None or a flat sequence of numbers, each finite
        and >= 0; a boolean is not a number here."""
        if self.lambda_fixed is None:
            return
        try:
            lam = np.asarray(self.lambda_fixed, dtype=float)
            flat = lam.ndim == 1 and not any(
                isinstance(v, (bool, np.bool_)) for v in self.lambda_fixed)
        except (TypeError, ValueError):
            flat = False
        if not flat:
            raise ConfigurationError(f"lambda_fixed must be a flat list of "
                                     f"numbers, got {self.lambda_fixed!r}")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
            raise ConfigurationError(
                f"lambda_fixed must be finite and >= 0, got {lam.tolist()}")


@dataclass
class ConvergenceReport:
    converged: bool
    iterations: int
    final_grad_norm: float
    rejections: int
    message: str = ""


@dataclass
class TRResult:
    """Optimum and the objective's value, gradient and Hessian there."""

    x: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray
    report: ConvergenceReport


def _smallest_pd_ridge(mat):
    """Smallest tau (bracket + bisection) with mat + tau*I Cholesky-factorizable."""
    try:
        return 0.0, cho_factor(mat, lower=True)
    except LinAlgError:
        pass
    scale = max(float(np.abs(np.diag(mat)).max()), 1.0)
    tau = 1e-10 * scale
    eye = np.eye(mat.shape[0])
    hi = None
    for _ in range(60):
        try:
            factor = cho_factor(mat + tau * eye, lower=True)
            hi = tau
            break
        except LinAlgError:
            tau *= 10.0
    if hi is None:
        raise FloatingPointError("curvature repair failed; Hessian badly scaled")
    lo = hi / 10.0
    for _ in range(40):
        mid = lo * math.sqrt(hi / lo)   # sqrt(lo * hi) overflows past 1e154
        try:
            factor = cho_factor(mat + mid * eye, lower=True)
            hi = mid
        except LinAlgError:
            lo = mid
        if hi / lo < 1.05:
            break
    return hi, factor


def _dogleg(g_neg, factor, bmat, radius):
    """Dogleg minimizer of g.p + p'Bp/2 within |p| <= radius (B PD)."""
    p_newton = -cho_solve(factor, g_neg)
    if np.linalg.norm(p_newton) <= radius:
        return p_newton
    g_norm2 = float(g_neg @ g_neg)
    curv = float(g_neg @ bmat @ g_neg)
    if curv <= 0.0:
        return -(radius / math.sqrt(g_norm2)) * g_neg
    p_cauchy = -(g_norm2 / curv) * g_neg
    if np.linalg.norm(p_cauchy) >= radius:
        return -(radius / math.sqrt(g_norm2)) * g_neg
    d = p_newton - p_cauchy
    a = float(d @ d)
    b = 2.0 * float(p_cauchy @ d)
    c = float(p_cauchy @ p_cauchy) - radius * radius
    s = (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a)
    return p_cauchy + s * d


def trust_region_maximize(fun, x0, start=None):
    """Maximize a twice-differentiable objective; NaN values reject steps.

    ``fun(x)`` returns (value, gradient, Hessian) at x, a NaN value marking
    an invalid point.  Every trial point costs one call; an accepted trial
    brings the gradient and Hessian for the next step with it.  ``start``
    is fun(x0) when the caller already has it.  At most MAX_TR_ITERS
    iterations are taken.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g, hmat = fun(x) if start is None else start
    if not np.isfinite(f):
        raise ConfigurationError("objective not finite at the starting point")
    radius = INITIAL_TRUST_RADIUS
    rejections = 0
    ridge_used = 0.0
    for it in range(1, MAX_TR_ITERS + 1):
        gnorm = float(np.abs(g).max())
        if gnorm <= GRADIENT_TOLERANCE * (1.0 + abs(f)):
            return TRResult(x, f, g, hmat, ConvergenceReport(
                True, it - 1, gnorm, rejections,
                f"ridge={ridge_used:.3g}"))
        bmat = -hmat
        if not np.all(np.isfinite(bmat)):
            return TRResult(x, f, g, hmat, ConvergenceReport(
                False, it - 1, gnorm, rejections, "non-finite Hessian"))
        ridge_used, factor = _smallest_pd_ridge(bmat)
        if ridge_used > 0.0:
            bmat = bmat + ridge_used * np.eye(bmat.shape[0])
        accepted = False
        while True:
            p = _dogleg(-g, factor, bmat, radius)
            pred = float(g @ p) - 0.5 * float(p @ bmat @ p)
            trial = x + p
            f_trial, g_trial, h_trial = fun(trial)
            # a predicted gain below the rounding level of f is beyond the
            # ratio test; such a step is kept unless f falls by more than that
            noise = _F_ROUNDING * (1.0 + abs(f))
            if not np.isfinite(f_trial) or pred <= 0.0:
                ratio = -np.inf
            elif pred <= noise:
                ratio = 1.0 if f_trial >= f - noise else -np.inf
            else:
                ratio = (f_trial - f) / pred
            if ratio < 0.25:
                radius *= 0.25
            elif ratio > 0.75 and np.linalg.norm(p) >= 0.99 * radius:
                radius = min(2.0 * radius, MAX_TRUST_RADIUS)
            if ratio > 1e-4:
                x, f, g, hmat = trial, f_trial, g_trial, h_trial
                accepted = True
                break
            rejections += 1
            if radius < 1e-13:
                break
        if not accepted:
            return TRResult(x, f, g, hmat, ConvergenceReport(
                False, it, float(np.abs(g).max()), rejections,
                "trust region collapsed"))
    return TRResult(x, f, g, hmat, ConvergenceReport(
        False, MAX_TR_ITERS, float(np.abs(g).max()), rejections,
        "iteration cap reached"))


# ---------------------------------------------------------------------------
# objective views: joint / outcome-only / selection-only
# ---------------------------------------------------------------------------

class ObjectiveView:
    """One model family's penalized objective over its own coefficient vector."""

    def __init__(self, bundle, kind):
        if kind not in ("joint", "outcome", "selection"):
            raise ConfigurationError(f"unknown objective kind {kind!r}")
        self.bundle = bundle
        self.kind = kind
        lay = bundle.layout
        # the view's (value, score, Hessian) kernel in the likelihood module
        # and its exp-coded coefficients
        self._kernel, offset, dim, eq, self.time_slice = {
            "joint": ("evaluate", 0, lay.psi, None, bundle.time_slice),
            "outcome": ("evaluate_outcome", 0, lay.p1, 1, bundle.time_slice),
            "selection": ("evaluate_selection", lay.p1, lay.p2, 2, slice(0, 0)),
        }[kind]
        self.dim = dim
        blocks = [b for b in lay.blocks if eq is None or b.eq == eq]
        lambdas = [b.lambda_index for b in blocks if b.lambda_index is not None]
        self.n_lambda = len(lambdas)
        # the view's coefficients and smoothing parameters are numbered
        # from its first ones
        self.blocks = [dataclasses.replace(
            b, sl=slice(b.sl.start - offset, b.sl.stop - offset),
            lambda_index=(None if b.lambda_index is None
                          else b.lambda_index - lambdas[0])) for b in blocks]
        # S_lambda = R' diag(lam[_root_lambda]) R, one row block per penalty
        roots, lambda_rows = [np.zeros((0, dim))], []
        for b in self.blocks:
            if b.lambda_index is not None:
                root = np.zeros((b.penalty_rank, dim))
                root[:, b.sl] = b.root
                roots.append(root)
                lambda_rows += [b.lambda_index] * b.penalty_rank
        self._root = np.vstack(roots)
        self._root_lambda = np.array(lambda_rows, dtype=int)

    def s_lambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self._root.T @ (lam[self._root_lambda][:, None] * self._root)

    def penalty(self, lam, x):
        """x'S_lambda x / 2 as a sum of squares, so never negative: near the
        penalty's null space a dense product cancels to noise of either sign."""
        r = self._root @ x
        return 0.5 * float(np.asarray(lam, dtype=float)[self._root_lambda] @ (r * r))

    def evaluate(self, x, order=2):
        """(loglik, score, Hessian) to ``order``, as ``likelihood.evaluate``."""
        # looked up per call, so a patched likelihood attribute is seen
        return getattr(lk, self._kernel)(self.bundle, x, order)

    def penalized(self, lam):
        """loglik - x'S_lambda x / 2 as (value, g, H); ``fun(x, unpenalized)``
        penalizes a known ``evaluate(x)`` instead of evaluating again."""
        lam = np.asarray(lam, dtype=float)
        s_lam = self.s_lambda(lam)

        def fun(x, unpenalized=None):
            ll, g, h = self.evaluate(x) if unpenalized is None else unpenalized
            return ll - self.penalty(lam, x), g - s_lam @ x, h - s_lam

        return fun


@dataclass
class FitResult:
    """Penalized MLE output for one objective view: the inner fit the lambda
    search chose, with the -H_p and per-coefficient edf, diag((-H_p)^-1 (-H)),
    its AIC read (``edf`` is None where that AIC found the fit unusable)."""

    kind: str
    delta: np.ndarray
    lam: np.ndarray
    loglik: float
    neg_hp: np.ndarray
    edf: np.ndarray | None
    convergence: ConvergenceReport
    bundle: object
    blocks: list
    time_slice: slice   # the exp-coded coefficients of delta


# ---------------------------------------------------------------------------
# starting values
# ---------------------------------------------------------------------------

def _ramp_start(view):
    x0 = np.zeros(view.dim)
    if view.kind in ("joint", "outcome"):
        bundle = view.bundle
        ramp_mid = 0.5 * (bundle.time_slice.stop - bundle.time_slice.start - 1.0)
        # at zero time coefficients, eta1's time part is the unanchored
        # column sum less ramp_mid
        x0[0] = bundle.time_anchor.sum() - ramp_mid
    return x0


def _outcome_start_fit(view):
    """The outcome view's inner fit at lambda = 1 from its ramp start.

    ``initial_values`` takes the joint start from it and the outcome view's
    lambda search begins with it; kept on the bundle, so a joint and an
    outcome-only fit of the same data (a study replicate, ``fit_univariate``)
    make it once.
    """
    cache = view.bundle.fit_cache
    if "outcome_start" not in cache:
        cache["outcome_start"] = _fit_at_lambda(
            view, np.ones(view.n_lambda), _start(view))
    return cache["outcome_start"]


def initial_values(bundle):
    """Starting delta: univariate probit and survival fits at lambda = 1,
    rho_star = 0."""
    lay = bundle.layout
    delta0 = np.zeros(lay.psi)

    sel = ObjectiveView(bundle, "selection")
    res2 = _fit_at_lambda(sel, np.ones(sel.n_lambda), np.zeros(sel.dim))
    beta2 = res2.x if res2.report.converged else np.zeros(sel.dim)

    out = ObjectiveView(bundle, "outcome")
    res1 = _outcome_start_fit(out)
    beta1 = res1.x if res1.report.converged else _ramp_start(out)

    delta0[lay.eq1] = beta1
    delta0[lay.eq2] = beta2
    delta0[lay.rho_index] = 0.0
    return delta0


# ---------------------------------------------------------------------------
# inner and outer fitting loops
# ---------------------------------------------------------------------------

def _start(view):
    """A view's starting point: ``initial_values`` for the joint, else the
    ramp.  Both are valid points, so neither is checked.

    At zero time coefficients every exp-coded one is 1, and eta1's time part
    is sum_k k B_k(t) over the B-splines B_k (the right partial sums), which
    is (t - t_0) / h for uniform knots of spacing h: d(eta1)/dy = Xt @ 1 =
    1/h > 0 on every row, and eta1 is finite, so the outcome log-likelihood
    is finite; the selection ramp is eta2 = 0.  At rho_star = 0 the joint
    log-likelihood is the sum of the two univariate ones, so it is finite at
    ``initial_values`` too.
    """
    return initial_values(view.bundle) if view.kind == "joint" else _ramp_start(view)


def _fit_at_lambda(view, lam, x0, at_x0=None):
    """Inner fit at ``lam`` from x0 (``at_x0`` its known ``view.evaluate``)."""
    fun = view.penalized(lam)
    start = None if at_x0 is None else fun(x0, at_x0)
    return trust_region_maximize(fun, x0, start)


def _unpenalized(view, lam, res):
    """``view.evaluate``'s (loglik, score, Hessian) at an inner optimum, from
    its TR result; an inner fit starting there takes it as its ``at_x0``."""
    s_lam = view.s_lambda(lam)
    return (res.value + view.penalty(lam, res.x), res.grad + s_lam @ res.x,
            res.hess + s_lam)


def _criterion(view, lam, res):
    """(AIC, cho_factor of -H_p, F = (-H_p)^-1 (-H)) at the inner optimum
    ``res``, with edf = tr F; (+inf, None, None) when it is unusable."""
    if not res.report.converged:
        return float("inf"), None, None
    ll, _, hess = _unpenalized(view, lam, res)
    try:
        factor = cho_factor(-res.hess, lower=True)
    except LinAlgError:
        return float("inf"), None, None
    fmat = cho_solve(factor, -hess)
    crit = -2.0 * ll + 2.0 * float(np.trace(fmat))
    if not np.isfinite(crit):
        return float("inf"), None, None
    return crit, factor, fmat


@dataclass
class _Probe:
    """One inner fit of the lambda search (or the fixed-lambda fit), its
    AIC, cho_factor(-H_p) and F = (-H_p)^-1 (-H), as ``_criterion``."""

    lam: np.ndarray
    res: TRResult
    crit: float
    factor: object
    fmat: np.ndarray | None


def _slope(s_k, s_lam, x, a_inv, fmat, d_hess=None):
    """d AIC / d log10(lambda_k) at x = delta_hat(lambda), given s_k =
    lambda_k S_k, S_lambda, A^-1 = (-H_p)^-1 and F = A^-1 B, B = -H.

    With rho = ln(lambda_k): d delta_hat = -A^-1 lambda_k S_k delta_hat,
    d loglik = (S_lambda delta_hat)' d delta_hat (the score at delta_hat) and
    d edf = tr[A^-1 (dB - dA F)], dB = -dH, dA = -dH + lambda_k S_k.
    ``d_hess(d delta_hat)`` is dH; without it dH = 0, as in the working
    model, whose B is fixed.
    """
    a_s = a_inv @ s_k
    d_x = -a_s @ x
    d_ll = float((s_lam @ x) @ d_x)
    d_edf = -np.sum(a_s * fmat.T)
    if d_hess is not None:
        a_dh = a_inv @ d_hess(d_x)
        d_edf += np.sum(a_dh * fmat.T) - np.trace(a_dh)
    return 2.0 * math.log(10.0) * (float(d_edf) - d_ll)


def _aic_slope(view, probe, k):
    """d AIC / d log10(lambda_k) at a probe's inner optimum, as ``_slope``
    with dH one forward difference of the Hessian; NaN if unusable."""
    if probe.factor is None:
        return float("nan")
    res, lam = probe.res, probe.lam
    lam_k = np.zeros_like(lam)
    lam_k[k] = lam[k]
    s_lam = view.s_lambda(lam)
    hess = res.hess + s_lam

    def d_hess(d_x):
        norm = float(np.linalg.norm(d_x))
        if norm == 0.0:
            return np.zeros_like(hess)
        eps = 1e-6 / norm
        return (view.evaluate(res.x + eps * d_x)[2] - hess) / eps

    return _slope(view.s_lambda(lam_k), s_lam, res.x,
                  cho_solve(probe.factor, np.eye(view.dim)), probe.fmat, d_hess)


def _working_aic(view, probe):
    """The working model's AIC around a probe's inner optimum x0.

    With (l0, g, H) the unpenalized evaluation at x0 and B = -H, the model's
    optimum at lambda is x = A^-1 (B x0 + g), A = B + S_lambda, and its AIC
    M = -2 [l0 + g'd - d'Bd / 2] + 2 tr(A^-1 B), d = x - x0 (Wood 2004; Gu's
    performance iteration).  Returns ``model(v)``: (M, its slopes in each
    log10(lambda_k)) at log10(lambda) = v, or (inf, None) where A is not
    positive definite.  Each call costs O(p^3) and no likelihood pass.
    """
    ll, g, hess = _unpenalized(view, probe.lam, probe.res)
    bmat, x0 = -hess, probe.res.x
    rhs = bmat @ x0 + g
    units = [view.s_lambda(e) for e in np.eye(view.n_lambda)]

    def model(v):
        s_ks = [lam_k * s for lam_k, s in zip(10.0 ** v, units)]
        s_lam = sum(s_ks)
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(bmat + s_lam))
        except LinAlgError:
            return math.inf, None
        a_inv = l_inv.T @ l_inv
        x = a_inv @ rhs
        d = x - x0
        fmat = a_inv @ bmat
        crit = (-2.0 * (ll + float(g @ d) - 0.5 * float(d @ bmat @ d))
                + 2.0 * float(np.trace(fmat)))
        return crit, np.array([_slope(s_k, s_lam, x, a_inv, fmat)
                               for s_k in s_ks])

    return model


def _predicted_log_lambda(view, probe):
    """log10(lambda) minimizing the working model's AIC around ``probe``
    within LAMBDA_LOG10_BOUNDS, on the search's 0.001-decade grid.

    Projected Newton steps from the probe's log10(lambda): a coordinate at a
    bound whose slope points out stays there; the others step by Newton on
    their slopes, with the curvature a forward difference of them and its
    eigenvalues made positive, so concave stretches of M are crossed too.  A
    step is at most LAMBDA_STEP_LOG10 long and halved until M falls; the
    minimization ends once a step would move less than half the grid.
    """
    model = _working_aic(view, probe)
    lo, hi = LAMBDA_LOG10_BOUNDS
    v = np.log10(probe.lam)
    crit, slopes = model(v)
    h = 1e-3   # forward-difference step of the curvature, in decades
    for _ in range(20):
        free = np.flatnonzero(~(((v <= lo) & (slopes > 0.0))
                                | ((v >= hi) & (slopes < 0.0))))
        ups = [model(v + h * np.eye(v.size)[j])[1] for j in free]
        if free.size == 0 or any(u is None for u in ups):
            break
        curv = np.array([(u - slopes)[free] / h for u in ups])
        w, q = np.linalg.eigh(0.5 * (curv + curv.T))
        w = np.maximum(np.abs(w), 1e-8 * max(float(np.abs(w).max()), 1.0))
        step = np.zeros(v.size)
        step[free] = -q @ ((q.T @ slopes[free]) / w)
        step *= LAMBDA_STEP_LOG10 / max(float(np.abs(step).max()),
                                        LAMBDA_STEP_LOG10)
        while True:   # halved until M falls, or it is below the grid
            t = np.clip(v + step, lo, hi)
            if float(np.abs(t - v).max()) < 5e-4:
                return np.round(v, 3)
            t_crit, t_slopes = model(t)
            if t_crit <= crit + 1e-4 * float(slopes @ (t - v)):
                break
            step *= 0.5
        v, crit, slopes = t, t_crit, t_slopes
    return np.round(v, 3)


@dataclass
class _Coordinate:
    """What a run on one coordinate leaves for the next run on it."""

    curv: float | None = None    # the slope's change per decade, last measured
    bound_probed: bool = False   # lambda_k's upper bound has been tried


def _search_coordinate(probe, slope, v, best, coord):
    """One run of the lambda search on coordinate k; returns (v, probe) of
    its best probe.

    ``best`` is the incumbent probe, at log10(lambda_k) = v; ``probe(t,
    start)`` is the probe at log10(lambda_k) = t whose inner fit starts at
    probe ``start``'s optimum, and ``slope(p)`` is p's AIC slope per decade
    of lambda_k.  ``coord`` is k's _Coordinate: a run's first secant step
    uses the last run's ``curv``, and the upper bound is tried once per
    search (on cli-fit-20k's data a second try cost 7 evaluations and read
    an AIC 4 500 above the incumbent's, as the first had).
    """
    lo, hi = LAMBDA_LOG10_BOUNDS
    s = slope(best)
    if not abs(s) > AIC_SLOPE_TOL:
        return v, best
    far = hi if s < 0.0 else lo     # [v, far] holds descent from v
    while True:
        widths = []
        while abs(s) > AIC_SLOPE_TOL:
            # the secant step; while the bracket is wider than
            # LAMBDA_TOL_LOG10, bisection if the step leaves it or the last
            # two probes have not halved it; at most LAMBDA_STEP_LOG10
            curv = coord.curv
            t = v - s / curv if curv is not None and curv > 0.0 else far
            closed = abs(far - v) <= LAMBDA_TOL_LOG10
            if not closed:
                widths.append(abs(far - v))
                if (not min(v, far) < t < max(v, far)
                        or (len(widths) > 2 and widths[-1] > 0.5 * widths[-3])):
                    t = 0.5 * (v + far)
            t = v + max(-LAMBDA_STEP_LOG10, min(LAMBDA_STEP_LOG10, t - v))
            # probes lie on a 0.001-decade grid, so rounding noise in the
            # slope (1e-8 under a row permutation) does not move lambda_hat
            t = round(t, 3)
            if t == v or (closed and not min(v, far) < t < max(v, far)):
                break
            p = probe(t, best)
            p_s = slope(p)
            if math.isfinite(p_s):
                coord.curv = (p_s - s) / (t - v)
            if p.crit < best.crit:
                if (p_s > 0.0) == (t > v):   # descent turns back toward v
                    far = v
                v, s, best = t, p_s, p
            else:   # a worse or unusable probe bounds the bracket
                far = t
        # the AIC need not be convex: try the penalty's null-space fit too
        if coord.bound_probed or hi - v <= LAMBDA_TOL_LOG10:
            return v, best
        coord.bound_probed = True
        p = probe(hi, best)
        if not p.crit < best.crit:
            return v, best
        p_s = slope(p)
        if math.isfinite(p_s):
            coord.curv = (p_s - s) / (hi - v)
        far, v, s, best = (v if p_s > 0.0 else hi), hi, p_s, p


def fit_view(bundle, kind, options: FitOptions | None = None):
    """Fit one objective view with integrated smoothing selection."""
    options = options or FitOptions()
    options.validate()
    view = ObjectiveView(bundle, kind)
    if kind != "selection":
        if not np.any(bundle.data.status):
            raise ConfigurationError(
                "no row has an event (every status is 0): the survival "
                "likelihood has no maximum")
        distinct = np.unique(bundle.data.time).size
        if distinct <= 2:
            raise ConfigurationError(
                f"the follow-up times take {distinct} distinct value(s): the "
                "monotone time transform needs at least 3")
    totals = {"iterations": 0, "rejections": 0}

    def tally(res):
        totals["iterations"] += res.report.iterations
        totals["rejections"] += res.report.rejections
        return res

    def probe(lam, res):
        return _Probe(lam, tally(res), *_criterion(view, lam, res))

    if options.lambda_fixed is not None or view.n_lambda == 0:
        if options.lambda_fixed is not None:
            lam = np.asarray(options.lambda_fixed, dtype=float)
            if lam.size != view.n_lambda:
                raise ConfigurationError(
                    f"lambda_fixed needs {view.n_lambda} entries, got {lam.size}")
        else:
            lam = np.zeros(0)
        best = probe(lam, _fit_at_lambda(view, lam, _start(view)))
    else:
        log_lam = np.zeros(view.n_lambda)   # lambda starts at 1
        lam = np.ones(view.n_lambda)
        best = probe(lam, _outcome_start_fit(view) if kind == "outcome"
                     else _fit_at_lambda(view, lam, _start(view)))

        def probe_at(trial, start):
            lam = 10.0 ** trial
            return probe(lam, _fit_at_lambda(
                view, lam, start.res.x, _unpenalized(view, start.lam, start.res)))

        def predict():
            """Move to the working model's lambda if it lies >= 0.1 decades
            away and its inner fit beats the incumbent; True if it moved."""
            nonlocal log_lam, best
            if best.factor is None:   # an unusable fit has no model
                return False
            t = _predicted_log_lambda(view, best)
            if np.abs(t - log_lam).max() < 0.1:
                return False
            p = probe_at(t, best)
            if not p.crit < best.crit:
                return False
            log_lam, best = t, p
            return True

        predict()
        settled = 0   # runs since the last move, the moving run included
        coords = [_Coordinate() for _ in range(view.n_lambda)]
        for run in range(MAX_LAMBDA_SEARCHES):
            if best.factor is None:   # an unusable start has no slope
                break
            k = run % view.n_lambda

            def probe_k(t, start, k=k):
                trial = log_lam.copy()
                trial[k] = t
                return probe_at(trial, start)

            val, best = _search_coordinate(
                probe_k, lambda p, k=k: _aic_slope(view, p, k), log_lam[k],
                best, coords[k])
            moved = abs(val - log_lam[k]) >= 0.1
            log_lam[k] = val
            settled = 1 if moved else settled + 1
            # runs on one coordinate at a time can settle where only a joint
            # move of several lambdas descends, and the working model around
            # the settled incumbent may point past it.  One lambda has no
            # joint move (on study-2k's 24 replicates such a prediction was
            # fitted 16 times and never kept).
            if settled >= view.n_lambda:
                if view.n_lambda == 1 or not predict():
                    break
                settled = 0

    res = best.res
    report = dataclasses.replace(res.report,
                                 iterations=totals["iterations"],
                                 rejections=totals["rejections"])
    return FitResult(
        kind=kind, delta=res.x, lam=best.lam,
        loglik=res.value + view.penalty(best.lam, res.x), neg_hp=-res.hess,
        edf=None if best.fmat is None else np.diag(best.fmat).copy(),
        convergence=report, bundle=bundle, blocks=view.blocks,
        time_slice=view.time_slice)


def fit(bundle, options: FitOptions | None = None) -> FitResult:
    """Penalized MLE of the joint model (both equations plus rho_star)."""
    return fit_view(bundle, "joint", options)


def fit_outcome_only(bundle, options: FitOptions | None = None) -> FitResult:
    """The rho = 0 comparator: censored survival model of the outcome alone."""
    return fit_view(bundle, "outcome", options)


def fit_selection_only(bundle, options: FitOptions | None = None) -> FitResult:
    """Probit fit of the selection equation alone."""
    return fit_view(bundle, "selection", options)
