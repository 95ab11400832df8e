"""Penalized maximum-likelihood fitting.

The inner problem (delta given lambda) is solved by a trust-region Newton
method with dogleg steps; when the negated penalized Hessian is not positive
definite, the smallest multiple of the identity restoring a Cholesky
factorization is found by bracketing and bisection.  Invalid likelihood
evaluations reject the step and shrink the radius, they never abort.  Each
trial point costs one fused likelihood evaluation (value, score and
Hessian), so an accepted step needs no further likelihood work.

Smoothing parameters are chosen in an outer loop minimizing
AIC(lambda) = -2 loglik(delta_hat_lambda) + 2 edf(lambda) by coordinate-wise
golden-section search on log10(lambda).
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from . import likelihood as lk
from .errors import ConfigurationError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# relative rounding level of an objective summed over many rows
_F_ROUNDING = 1e-13


@dataclass
class FitOptions:
    max_outer_iters: int = 25
    max_tr_iters: int = 200
    gradient_tolerance: float = 1e-7
    initial_trust_radius: float = 1.0
    max_trust_radius: float = 100.0
    lambda_fixed: object = None
    lambda_log10_bounds: tuple = (-5.0, 7.0)
    lambda_tol_log10: float = 0.05
    lambda_init: float = 1.0

    def validate(self):
        if self.gradient_tolerance <= 0 or self.initial_trust_radius <= 0:
            raise ConfigurationError("tolerances and trust radius must be positive")
        if self.max_tr_iters < 1 or self.max_outer_iters < 1:
            raise ConfigurationError("iteration caps must be >= 1")
        if self.lambda_fixed is not None:
            try:
                lam = np.asarray(self.lambda_fixed, dtype=float)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"lambda_fixed must be numeric, got {self.lambda_fixed!r}")
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
    """Optimum and the objective's value and Hessian there."""

    x: np.ndarray
    value: float
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
    best = factor
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        try:
            best = cho_factor(mat + mid * eye, lower=True)
            hi = mid
        except LinAlgError:
            lo = mid
        if hi / lo < 1.05:
            break
    return hi, cho_factor(mat + hi * eye, lower=True)


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


def trust_region_maximize(fun, x0, options: FitOptions, start=None):
    """Maximize a twice-differentiable objective; NaN values reject steps.

    ``fun(x)`` returns (value, gradient, Hessian) at x, a NaN value marking
    an invalid point.  Every trial point costs one call; an accepted trial
    brings the gradient and Hessian for the next step with it.  ``start``
    is fun(x0) when the caller already has it.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g, hmat = fun(x) if start is None else start
    if not np.isfinite(f):
        raise ConfigurationError("objective not finite at the starting point")
    radius = options.initial_trust_radius
    rejections = 0
    ridge_used = 0.0
    for it in range(1, options.max_tr_iters + 1):
        gnorm = float(np.abs(g).max())
        if gnorm <= options.gradient_tolerance * (1.0 + abs(f)):
            return TRResult(x, f, hmat, ConvergenceReport(
                True, it - 1, gnorm, rejections,
                f"ridge={ridge_used:.3g}"))
        bmat = -hmat
        if not np.all(np.isfinite(bmat)):
            return TRResult(x, f, hmat, ConvergenceReport(
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
                radius = min(2.0 * radius, options.max_trust_radius)
            if ratio > 1e-4:
                x, f, g, hmat = trial, f_trial, g_trial, h_trial
                accepted = True
                break
            rejections += 1
            if radius < 1e-13:
                break
        if not accepted:
            return TRResult(x, f, hmat, ConvergenceReport(
                False, it, float(np.abs(g).max()), rejections,
                "trust region collapsed"))
    return TRResult(x, f, hmat, ConvergenceReport(
        False, options.max_tr_iters, float(np.abs(g).max()), rejections,
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
        if kind == "joint":
            offset, dim, eq = 0, lay.psi, None
        elif kind == "outcome":
            offset, dim, eq = 0, lay.p1, 1
        else:
            offset, dim, eq = lay.p1, lay.p2, 2
        self.dim = dim
        self.blocks = []
        for b in lay.blocks:
            if eq is not None and b.eq != eq:
                continue
            self.blocks.append(dataclasses.replace(
                b, sl=slice(b.sl.start - offset, b.sl.stop - offset)))
        lam = 0
        for b in self.blocks:
            if b.lambda_index is not None:
                b.lambda_index = lam
                lam += 1
        self.n_lambda = lam
        self.exp_mask = lay.exp_mask[offset:offset + dim]

    def lambda_labels(self):
        return [b.name for b in self.blocks if b.lambda_index is not None]

    def s_lambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        s = np.zeros((self.dim, self.dim))
        for b in self.blocks:
            if b.lambda_index is not None:
                s[b.sl, b.sl] += lam[b.lambda_index] * b.penalty
        return s

    def evaluate(self, x, order=2):
        """(loglik, score, Hessian) to ``order``, as ``likelihood.evaluate``."""
        if self.kind == "joint":
            return lk.evaluate(self.bundle, x, order)
        if self.kind == "outcome":
            value, derivatives = lk.loglik_survival, lk.score_hessian_survival
        else:
            value, derivatives = lk.loglik_probit, lk.score_hessian_probit
        ll = value(self.bundle, x)
        if order == 0:
            return ll, None, None
        if not np.isfinite(ll):
            return lk.nan_result(self.dim, order)
        g, h = derivatives(self.bundle, x)
        return ll, g, (h if order == 2 else None)

    def penalized(self, lam):
        """loglik - x'S_lambda x / 2 as (value, g, H); ``fun(x, unpenalized)``
        penalizes a known ``evaluate(x)`` instead of evaluating again."""
        s_lam = self.s_lambda(lam)

        def fun(x, unpenalized=None):
            ll, g, h = self.evaluate(x) if unpenalized is None else unpenalized
            return ll - 0.5 * float(x @ s_lam @ x), g - s_lam @ x, h - s_lam

        return fun


@dataclass
class FitResult:
    """Penalized MLE output for one objective view."""

    kind: str
    delta: np.ndarray
    lam: np.ndarray
    loglik: float
    penalized: float
    hess: np.ndarray
    s_lam: np.ndarray
    convergence: ConvergenceReport
    bundle: object
    blocks: list
    exp_mask: np.ndarray
    lambda_labels: list
    aic_path: list = field(default_factory=list)

    @property
    def penalized_hessian(self):
        return self.hess - self.s_lam

    @property
    def psi(self):
        return self.delta.size

    @property
    def zeta(self):
        return sum(b.penalty_rank for b in self.blocks)


def edf_total_from(hess, hess_pen):
    """tr[(-H_p)^{-1} (-H)]; raises LinAlgError if -H_p is not PD."""
    factor = cho_factor(-hess_pen, lower=True)
    return float(np.trace(cho_solve(factor, -hess)))


# ---------------------------------------------------------------------------
# starting values
# ---------------------------------------------------------------------------

def _ramp_start(view):
    x0 = np.zeros(view.dim)
    if view.kind in ("joint", "outcome"):
        bundle = view.bundle
        ramp_mid = 0.5 * (bundle.time_slice.stop - bundle.time_slice.start - 1.0)
        x0[0] = -ramp_mid
    return x0


def _rescue_ramp(view, x0):
    """Shrink the monotone ramp until the likelihood is finite."""
    x = x0.copy()
    for _ in range(60):
        if np.isfinite(view.evaluate(x, 0)[0]):
            return x
        x[view.exp_mask] -= 1.0
    return x


def initial_values(bundle, options: FitOptions | None = None):
    """Starting delta: univariate probit and survival fits, rho_star = 0."""
    options = options or FitOptions()
    lay = bundle.layout
    delta0 = np.zeros(lay.psi)

    sel = ObjectiveView(bundle, "selection")
    lam2 = np.full(sel.n_lambda, options.lambda_init)
    res2 = _fit_at_lambda(sel, lam2, np.zeros(sel.dim), options)
    beta2 = res2.x if res2.report.converged else np.zeros(sel.dim)

    out = ObjectiveView(bundle, "outcome")
    lam1 = np.full(out.n_lambda, options.lambda_init)
    start = _rescue_ramp(out, _ramp_start(out))
    res1 = _fit_at_lambda(out, lam1, start, options)
    beta1 = res1.x if res1.report.converged else _ramp_start(out)

    delta0[lay.eq1] = beta1
    delta0[lay.eq2] = beta2
    delta0[lay.rho_index] = 0.0
    return delta0


# ---------------------------------------------------------------------------
# inner and outer fitting loops
# ---------------------------------------------------------------------------

def _start(view, options):
    """A view's starting point; for the joint, the outcome ramp if invalid."""
    if view.kind != "joint":
        return _rescue_ramp(view, _ramp_start(view))
    x0 = initial_values(view.bundle, options)
    if not np.isfinite(view.evaluate(x0, 0)[0]):
        out_view = ObjectiveView(view.bundle, "outcome")
        x0 = np.zeros(view.dim)
        x0[:view.bundle.layout.p1] = _rescue_ramp(out_view, _ramp_start(out_view))
    return x0


def _fit_at_lambda(view, lam, x0, options, at_x0=None):
    fun = view.penalized(lam)
    start = None if at_x0 is None else fun(x0, at_x0)
    return trust_region_maximize(fun, x0, options, start)


def _unpenalized(res, s_lam):
    """(loglik, Hessian) at an inner optimum, from its TR result."""
    return res.value + 0.5 * float(res.x @ s_lam @ res.x), res.hess + s_lam


def _aic(view, lam, x0, options, at_x0=None):
    """(criterion, inner result); +inf when the inner fit is unusable."""
    res = _fit_at_lambda(view, lam, x0, options, at_x0)
    if not res.report.converged:
        return float("inf"), res
    ll, hess = _unpenalized(res, view.s_lambda(lam))
    try:
        edf = edf_total_from(hess, res.hess)
    except LinAlgError:
        return float("inf"), res
    crit = -2.0 * ll + 2.0 * edf
    if not np.isfinite(crit):
        return float("inf"), res
    return crit, res


def _golden_section(fn, lo, hi, tol):
    """Golden-section minimizer on [lo, hi]; fn is cached by argument."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def fit_view(bundle, kind, options: FitOptions | None = None):
    """Fit one objective view with integrated smoothing selection."""
    options = options or FitOptions()
    options.validate()
    view = ObjectiveView(bundle, kind)
    x0 = _start(view, options)
    aic_path = []
    totals = {"iterations": 0, "rejections": 0}

    def tally(res):
        totals["iterations"] += res.report.iterations
        totals["rejections"] += res.report.rejections
        return res

    if options.lambda_fixed is not None or view.n_lambda == 0:
        if options.lambda_fixed is not None:
            lam = np.asarray(options.lambda_fixed, dtype=float)
            if lam.size != view.n_lambda:
                raise ConfigurationError(
                    f"lambda_fixed needs {view.n_lambda} entries, got {lam.size}")
        else:
            lam = np.zeros(0)
        res = tally(_fit_at_lambda(view, lam, x0, options))
    else:
        log_lam = np.zeros(view.n_lambda) + math.log10(options.lambda_init)
        lo, hi = options.lambda_log10_bounds
        # inner fits start at the incumbent: evaluate it once, not per probe
        memo = [None, None]   # the incumbent's bytes and its evaluate()

        def at(x):
            if memo[0] != x.tobytes():
                memo[:] = x.tobytes(), view.evaluate(x)
            return memo[1]

        incumbent = x0
        crit_best, res = _aic(view, 10.0 ** log_lam, incumbent, options,
                              at(incumbent))
        tally(res)
        if np.isfinite(crit_best) and res.report.converged:
            incumbent = res.x
        updates = 0
        for sweep in range(options.max_outer_iters):
            moved = 0.0
            for k in range(view.n_lambda):
                if updates >= options.max_outer_iters:
                    break
                cache = {}

                def coord_fn(val, k=k):
                    key = round(val, 6)
                    if key not in cache:
                        trial = log_lam.copy()
                        trial[k] = val
                        cache[key] = _aic(view, 10.0 ** trial, incumbent,
                                          options, at(incumbent))
                        tally(cache[key][1])
                    return cache[key][0]

                best_val, best_crit = _golden_section(
                    coord_fn, lo, hi, options.lambda_tol_log10)
                if np.isfinite(best_crit) and best_crit <= crit_best + 1e-10:
                    moved = max(moved, abs(best_val - log_lam[k]))
                    log_lam[k] = best_val
                    crit_best, inner = cache[round(best_val, 6)]
                    if inner.report.converged:
                        incumbent = inner.x
                    aic_path.append((10.0 ** log_lam.copy(), crit_best))
                updates += 1
            if moved < 0.1 or updates >= options.max_outer_iters:
                break
        lam = 10.0 ** log_lam
        res = tally(_fit_at_lambda(view, lam, incumbent, options,
                                   at(incumbent)))

    s_lam = view.s_lambda(lam)
    ll, hess = _unpenalized(res, s_lam)
    report = dataclasses.replace(res.report,
                                 iterations=totals["iterations"],
                                 rejections=totals["rejections"])
    return FitResult(
        kind=kind, delta=res.x, lam=lam, loglik=ll,
        penalized=res.value, hess=hess, s_lam=s_lam,
        convergence=report, bundle=bundle, blocks=view.blocks,
        exp_mask=view.exp_mask, lambda_labels=view.lambda_labels(),
        aic_path=aic_path)


def smoothing_criterion(bundle, lam, kind="joint", options: FitOptions | None = None,
                        start=None):
    """AIC(lambda) = -2 loglik(delta_hat_lambda) + 2 edf(lambda)."""
    options = options or FitOptions()
    view = ObjectiveView(bundle, kind)
    if start is None:
        start = _start(view, options)
    crit, _ = _aic(view, np.asarray(lam, dtype=float), start, options)
    return crit


def select_smoothing(bundle, kind="joint", grid=None,
                     options: FitOptions | None = None):
    """lambda_hat minimizing the AIC criterion.

    With ``grid`` (an iterable of lambda vectors, scalars broadcast across
    penalties) this is a plain grid argmin; otherwise the integrated
    coordinate golden-section search used by :func:`fit` decides.
    """
    options = options or FitOptions()
    view = ObjectiveView(bundle, kind)
    if grid is None:
        return fit_view(bundle, kind, options).lam
    start = _start(view, options)
    best_lam, best_crit = None, float("inf")
    for lam in grid:
        lam = np.broadcast_to(np.asarray(lam, dtype=float), (view.n_lambda,)).copy()
        crit, _ = _aic(view, lam, start, options)
        if crit < best_crit:
            best_lam, best_crit = lam, crit
    if best_lam is None:
        raise ConfigurationError("no grid point produced a usable fit")
    return best_lam


def fit(bundle, options: FitOptions | None = None) -> FitResult:
    """Penalized MLE of the joint model (both equations plus rho_star)."""
    return fit_view(bundle, "joint", options)


def fit_outcome_only(bundle, options: FitOptions | None = None) -> FitResult:
    """The rho = 0 comparator: censored survival model of the outcome alone."""
    return fit_view(bundle, "outcome", options)


def fit_selection_only(bundle, options: FitOptions | None = None) -> FitResult:
    """Probit fit of the selection equation alone."""
    return fit_view(bundle, "selection", options)
