"""Post-fit uncertainty and causal summaries.

The Bayesian covariance is V = (-penalized Hessian)^(-1) = L^-T L^-1, from
the L^-1 = ``FitResult.l_inv`` the lambda search took: nothing here
factorizes -H_p.  The exp-coded coefficients' covariance is diag(E) V diag(E).
Nonlinear functionals (survival curves, treatment-effect curves) get
pointwise intervals by posterior simulation: coefficient vectors drawn on
the working scale from L^-1 are pushed through the monotone
reparametrization, so every simulated transform is itself non-decreasing.
``posterior_curves`` (which ``sate`` and ``survival_curves`` call) makes
group curves and the SATE from one set of draws, once it has found every
group's rows.  Under arm d, row i's non-time part of eta1 is a_i + d b, with
(a, b) from ``DesignBundle.arm_parts``: b is one number unless an interaction
term makes it a row vector.  A group's mean of Phi(-eta1) is a binned Hermite
series, taken on the calling thread in two steps: ``_moments`` bins the
offsets (K = 8 moments per bin of width h = 0.1) and ``_series`` sums the
series at the grid (truncation error below 1.5e-14 per row).  So where b is
one number, one moments pass over a serves every forced arm of a row filter.
``summary`` takes the edf from the fit (the lambda search computed it with
the AIC) and shares one covariance with its rho interval.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import numerics as nm
from .errors import ConfigurationError, InferenceError

DEFAULT_LEVEL = 0.05
DEFAULT_DRAWS = 100

SERIES_TERMS = 8     # K and h of the posterior pass's series; see _series
BIN_WIDTH = 0.1


@dataclass
class Posterior:
    """Gaussian approximation on the working and exp-coded scales; its mean
    on the working scale is the fit's delta."""

    mean_tilde: np.ndarray
    cov: np.ndarray
    cov_tilde: np.ndarray


@dataclass
class GroupDef:
    """A survival-curve group: optional row filter plus a forced treatment arm."""

    name: str
    d: int | None = None
    where: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d is not None and self.d not in (0, 1):
            raise ConfigurationError(f"group {self.name!r} forces treatment "
                                     f"{self.d!r}; an arm is 0 or 1")

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
    groups: dict = field(default_factory=dict)   # name -> (est, lo, hi)
    sate: tuple | None = None                    # (est, lo, hi)


def _check_level(level):
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ConfigurationError(f"level must be a number in (0, 1), "
                                 f"got {level!r}")


def _require_converged(fit):
    if not fit.convergence.converged:
        raise InferenceError(f"fit did not converge ({fit.convergence.message}); "
                             "inference is unavailable")


def covariance(fit) -> Posterior:
    """V = (-H_p)^(-1) = L^-T L^-1 from ``fit.l_inv``, refined until the
    residual max|D((-H_p)V - I)D^-1|, D = diag(-H_p)^(-1/2), is below 1e-8;
    equilibrated by D, it does not change with a covariate's units."""
    _require_converged(fit)
    neg_hp, l_inv = fit.neg_hp, fit.l_inv
    root = np.sqrt(np.diag(neg_hp))
    scale = root / root[:, None]   # D R D^-1 is R times this
    eye = np.eye(root.size)
    cov = l_inv.T @ l_inv
    with np.errstate(invalid="ignore"):   # a NaN residual fails the bound
        for _ in range(4):   # the solve, then up to three refinements
            resid = neg_hp @ cov - eye
            if np.abs(resid * scale).max() <= 1e-8:
                break
            cov = cov - l_inv.T @ (l_inv @ resid)
        else:
            raise InferenceError("covariance solve failed its residual bound")
    cov = 0.5 * (cov + cov.T)
    ts = fit.time_slice
    e = np.ones(fit.delta.size)
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflowing time coefficient makes inf (or inf * 0) entries;
        # the draws use cov alone, and summary rejects them
        e[ts] = np.exp(fit.delta[ts])
        cov_tilde = cov * e[:, None] * e[None, :]
    mean_tilde = fit.delta.copy()
    mean_tilde[ts] = e[ts]
    return Posterior(mean_tilde=mean_tilde, cov=cov, cov_tilde=cov_tilde)


def rho_interval(fit, level=DEFAULT_LEVEL, post=None):
    """(rho_hat, lo, hi): Wald interval on rho_star mapped through tanh.

    ``post`` is the fit's ``covariance``, computed here when not given.
    """
    _check_level(level)
    if fit.kind != "joint":
        raise InferenceError("rho is only defined for the joint model")
    if post is None:
        post = covariance(fit)
    idx = fit.delta.size - 1
    rs = float(fit.delta[idx])
    se = math.sqrt(max(post.cov[idx, idx], 0.0))
    # Phi^-1(level / 2) stays finite at any level in (0, 1), where
    # Phi^-1(1 - level / 2) would round to Phi^-1(1) below level = 1e-16
    z = -float(nm.norm_quantile(level / 2.0))
    return math.tanh(rs), math.tanh(rs - z * se), math.tanh(rs + z * se)


def _term_design(fit, block):
    """The block's design columns; a joint fit's selection blocks sit p1
    coefficients after their columns of Z."""
    bundle = fit.bundle
    if block.eq == 1:
        return bundle.X[:, block.sl]
    shift = bundle.layout.p1 if fit.kind == "joint" else 0
    return bundle.Z[:, block.sl.start - shift:block.sl.stop - shift]


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
    pval = float(special.chdtrc(r, stat))
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
    _check_level(level)
    post = covariance(fit)
    if not np.all(np.isfinite(post.cov_tilde)):
        raise InferenceError("an exp-coded time coefficient overflows; the "
                             "coefficient table is unavailable")
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
            edf_k = float(fit.edf[b.sl].sum())
            stat, r, p = _smooth_term_test(fit, b, post, edf_k)
            rows.append(SummaryRow(equation=b.eq, name=b.name, kind=b.kind,
                                   edf=edf_k, statistic=stat,
                                   rank=r, p_value=p))
    rho = rho_interval(fit, level, post) if fit.kind == "joint" else None
    total = float(fit.edf.sum())
    return FitSummary(rows=rows, rho=rho, loglik=fit.loglik, edf_total=total,
                      aic=-2.0 * fit.loglik + 2.0 * total,
                      n=fit.bundle.n, converged=fit.convergence.converged)


# ---------------------------------------------------------------------------
# posterior simulation for nonlinear functionals
# ---------------------------------------------------------------------------

def _check_grid(fit, t_grid):
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise InferenceError("time grid is empty")
    a, b = fit.bundle.mono_interval
    if not np.all((t_grid >= a) & (t_grid <= b)):   # NaN is outside too
        raise InferenceError(
            f"time grid must stay within the fitted interval [{a:.6g}, {b:.6g}]")
    return t_grid


def _posterior_draws(fit, draws, seed):
    """``draws`` rows from N(delta_hat, V): delta_hat + L^-T z, with L^-1
    the fit's ``l_inv`` (the factor of -H_p = V^-1 its AIC was read from),
    so V itself is not formed and nothing is factorized again."""
    z = np.random.default_rng(seed).standard_normal(size=(draws, fit.delta.size))
    return fit.delta + z @ fit.l_inv


def _moments(off):
    """The binned moments of offsets ``off``: (bin centres, K x B moments, n).

    Row i goes to the bin of centre c = h rint(off_i / h), so u_i = off_i - c
    has |u_i| <= h/2.  Row k of the moments is sum_(i in bin) u_i^k / k!,
    one bincount each, for the B occupied bins.  Rounding and u reuse one
    array: n-row temporaries freed at the top of the heap can be handed back
    by malloc and faulted in again, about 100 pages a pass at n = 20 000.
    """
    key = off / BIN_WIDTH
    np.rint(key, out=key)
    lo, hi = key.min(), key.max()
    if hi - lo < off.size:        # bin numbers from lo: no sort needed
        bins, idx = np.arange(lo, hi + 1), (key - lo).astype(np.intp)
    else:                         # widely spread offsets: number the used bins
        bins, idx = np.unique(key, return_inverse=True)
    u = key                       # off - key h: negating key h is exact
    u *= -BIN_WIDTH
    u += off
    power, mom = np.ones_like(u), []
    for k in range(SERIES_TERMS):
        mom.append(np.bincount(idx, power, bins.size) / math.factorial(k))
        power *= u
    used = mom[0] > 0
    return BIN_WIDTH * bins[used], np.array(mom)[:, used], off.size


def _series(s, moments):
    """mean_i Phi(s - off_i) at each point of s, from ``_moments(off)``.

    Expanding about x = s - c, with Phi^(k) = (-1)^(k-1) He_(k-1) phi
    (Greengard & Strain 1991, binned as in Wand 1994):

        Phi(s - off_i) = Phi(x) - phi(x) sum_(0<k<K) u_i^k / k! He_(k-1)(x) + R,
        |R| <= (h/2)^K / K! max|Phi^(K)| = 0.05^8 / 8! * 14.178 < 1.5e-14

    for K = SERIES_TERMS = 8 and h = BIN_WIDTH = 0.1.  With the moments
    taken once, the series costs O(T B K), not T n Phi calls.  Infinite s
    gives Phi's limits 0 and 1.
    """
    centres, mom, n = moments
    x = s[:, None] - centres
    xc = np.clip(x, -40.0, 40.0)   # phi(xc) = 0 there: no inf * 0 from He phi
    he_prev, he, poly = 0.0, 1.0, mom[1]
    for k in range(2, SERIES_TERMS):
        he_prev, he = he, xc * he - (k - 2) * he_prev     # He_(k-1)
        poly = poly + mom[k] * he
    terms = nm.norm_cdf(x) * mom[0] - nm.norm_pdf(xc) * poly
    return terms.sum(axis=1) / n


def _row_filters(bundle, groups):
    """{filter: (its rows, {arm: keys})} of ``groups``, a map of keys to
    GroupDefs; a filter on no covariate or on no row raises here."""
    filters = {}
    for key, g in groups.items():
        where = tuple(sorted(g.where.items()))
        if where not in filters:
            filters[where] = (g.rows(bundle), {})
        filters[where][1].setdefault(g.d, []).append(key)
    return filters


def _mean_survival(fit, t_grid, filters, deltas):
    """Mean survival curve of each group per delta: key -> (len(deltas), T).

    ``filters`` is ``_row_filters(bundle, groups)``.  With (a, b) =
    ``bundle.arm_parts(tilde)`` and s = -(eta1's time part at t), row i
    under arm d survives past t with probability Phi(s - a_i - d b).  When
    b is one number that is Phi((s - d b) - a_i): one ``_moments`` pass over
    a per row filter serves every forced arm, and one ``_series`` runs at
    the arms' grids s - d b, stacked.  A row-vector b (an interaction term),
    or the observed arm (d None: each row's own treatment), takes
    ``_moments`` of its own a + d b.  An exp-coded time coefficient that
    overflows leaves the time part where its column is 0, and makes it +inf
    (survival 0) where the column is > 0 and -inf (survival 1) where it is
    < 0, as the anchored columns are below the median observed time.
    """
    bundle = fit.bundle
    curves = {(where, d): np.empty((len(deltas), t_grid.size))
              for where, (_, arms) in filters.items() for d in arms}
    cols = bundle.time_columns(t_grid)
    for v, delta in enumerate(deltas):
        # eq1 is all of an outcome-only fit's delta
        tilde = bundle.beta1_tilde(delta[bundle.layout.eq1])
        tt = tilde[bundle.time_slice]
        big = np.isinf(tt)
        s = -(cols @ np.where(big, 0.0, tt))
        s[np.any(cols[:, big] > 0.0, axis=1)] = -np.inf
        s[np.any(cols[:, big] < 0.0, axis=1)] = np.inf
        a, b = bundle.arm_parts(tilde)
        binned = np.ndim(b) == 0
        for where, (rows, arms) in filters.items():
            shared = [d for d in arms if binned and d is not None]
            if shared:
                grids = np.concatenate([s - d * b for d in shared])
                means = _series(grids, _moments(a[rows])).reshape(len(shared), -1)
                for d, mean in zip(shared, means):
                    curves[(where, d)][v] = mean
            for d in arms.keys() - shared:
                arm = bundle.data.treatment if d is None else d
                curves[(where, d)][v] = _series(s, _moments((a + arm * b)[rows]))
    return {key: curves[(where, d)] for where, (_, arms) in filters.items()
            for d, keys in arms.items() for key in keys}


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
    if fit.kind == "selection":
        raise InferenceError("survival functionals need the outcome equation")
    _check_level(level)
    for name, v in (("draws", draws), ("seed", seed)):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0:
            raise ConfigurationError(f"{name} must be an integer >= 0, got {v!r}")
    t_grid = _check_grid(fit, t_grid)
    named = {("group", g.name): g for g in groups}
    if len(named) < len(groups):
        raise ConfigurationError("survival-curve groups need distinct "
                                 f"names, got {[g.name for g in groups]}")
    if contrast is not None:
        named.update({("sate", i): g for i, g in enumerate(contrast)})
    if not named:
        raise ConfigurationError("nothing to compute: no group and no contrast")
    filters = _row_filters(fit.bundle, named)
    deltas = fit.delta[None, :]
    if draws > 0:
        deltas = np.vstack([deltas, _posterior_draws(fit, draws, seed)])
    means = _mean_survival(fit, t_grid, filters, deltas)

    out = CurveSet(t=t_grid)
    for g in groups:
        mat = means[("group", g.name)]
        out.groups[g.name] = _band(mat[1:], mat[0], level)
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


def survival_curves(fit, t_grid, groups=None, level=DEFAULT_LEVEL,
                    draws=DEFAULT_DRAWS, seed=0) -> CurveSet:
    """Per-group mean survival curves with posterior-simulation bands."""
    if groups is None:
        groups = [GroupDef("treated", d=1), GroupDef("control", d=0)]
    return posterior_curves(fit, t_grid, groups=groups, level=level,
                            draws=draws, seed=seed)
