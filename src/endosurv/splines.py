"""Basis and penalty construction for every additive-term type.

Four term kinds are supported: unpenalized parametric columns, ridge-penalized
level indicators, low-rank radial smooths with an integrated-squared-second-
derivative penalty, and monotone B-splines whose coefficients are mapped
through a cumulative-sum-of-exponentials reparametrization.  B-spline
bases and their exact first derivatives come from the Cox-de Boor recursion
(de Boor 1972, J. Approx. Theory 6:50), evaluated on numpy arrays.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

DEFAULT_SMOOTH_J = 10
DEFAULT_MONOTONE_J = 10
BSPLINE_ORDER = 4
MAX_RADIAL_KNOTS = 1000
MAX_RADIAL_SPAN = 1e50   # of the raw centres: the squares of x's sd stay finite
MAX_RIDGE_LEVELS = 100   # a ridge term's levels; a continuous column has more
SUBSPACE_STEPS = 8    # qr(E @ Q) steps before the Rayleigh-Ritz eigh


@dataclass
class TermBasis:
    """One term's design block and penalty.

    ``design`` is n x J; ``penalty`` is J x J symmetric PSD (identity for
    ridge terms).  ``centering`` holds the raw-basis-to-constrained
    transform when a sum-to-zero constraint was absorbed, and ``knots`` the
    knot vector for spline-backed terms, whose order and interval are in
    ``meta``.
    """

    design: np.ndarray
    penalty: np.ndarray
    knots: np.ndarray | None = None
    centering: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def uniform_knots(J, order, interval):
    """Equally spaced knot vector with J basis functions spanning interval."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ConfigurationError("knot interval must have positive length")
    h = (b - a) / (J - order + 1)
    return a + h * (np.arange(J + order) - (order - 1))


def bspline_design(x, knots, order, nu=0):
    """The B-spline basis defined by ``knots`` at the points x, or its
    exact ``nu``-th derivative.

    Each row has ``order`` nonzero entries, those of the functions
    ell - order + 1, ..., ell for the knot interval t[ell] <= x < t[ell + 1]
    (a point at the right end goes in the last interval).  They come from
    de Boor's triangle: order - 1 - nu steps raising the degree, then nu
    steps of the exact derivative N'_{j,p} = p (N_{j,p-1} / (t_{j+p} - t_j)
    - N_{j+1,p-1} / (t_{j+p+1} - t_{j+1})).  Every denominator is a knot
    difference spanning [t[ell], t[ell + 1]], so it is positive.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(knots, dtype=float)
    n_basis = t.size - order
    a, b = t[order - 1], t[n_basis]
    slack = 1e-12 * (b - a)  # tolerate rounding at the interval edges
    bad = np.nonzero((x < a - slack) | (x > b + slack) | ~np.isfinite(x))[0]
    if bad.size:
        raise DomainError(
            f"value {x[bad[0]]!r} at index {bad[0]} lies outside the basis "
            f"interval [{a}, {b}]")
    x = np.clip(x, a, b)
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, order - 1, n_basis - 1)
    h = np.zeros((order, x.size))   # h[r]: function ell - order + 1 + r
    h[0] = 1.0
    for p in range(1, order):
        prev = h[:p].copy()
        h[0] = 0.0
        for m in range(1, p + 1):
            right, left = t[ell + m], t[ell + m - p]
            if p < order - nu:      # raise the degree: N_{., p-1} -> N_{., p}
                w = prev[m - 1] / (right - left)
                h[m - 1] += w * (right - x)
                h[m] = w * (x - left)
            else:                   # differentiate: N_{., p-1} -> N'_{., p}
                w = p * prev[m - 1] / (right - left)
                h[m - 1] -= w
                h[m] = w
    out = np.zeros((x.size, n_basis))
    flat, first = out.reshape(-1), n_basis * np.arange(x.size) + ell - (order - 1)
    for r in range(order):
        flat[first + r] = h[r]
    return out


def monotone_columns(t, knots, order, nu=0):
    """The monotone block's columns at t, or their exact ``nu``-th derivative:
    the B-spline basis times the summation matrix, less the first column.

    The summation matrix turns the basis into right partial sums, column j
    the sum of the functions j, ..., J - 1, so coefficients that add up
    non-negative increments give a non-decreasing curve.  The first partial
    sum is identically one (partition of unity) and is dropped in favor of
    the explicit intercept, so every remaining coefficient is exp-coded.
    """
    basis = bspline_design(t, knots, order, nu=nu)
    return np.cumsum(basis[:, ::-1], axis=1)[:, ::-1][:, 1:]


def build_monotone_term(y, J=DEFAULT_MONOTONE_J):
    """The J - 1 ``monotone_columns`` of follow-up time with the first-
    difference penalty on their exp-coded coefficients."""
    y = np.asarray(y, dtype=float)
    if J < 4:
        raise ConfigurationError("monotone term needs J >= 4")
    if np.unique(y).size < 2:
        raise ConfigurationError("follow-up times are all equal; cannot place knots")
    interval = (0.0, float(np.max(y)) * 1.001)
    order = min(BSPLINE_ORDER, J - 1)
    knots = uniform_knots(J, order, interval)
    diff = np.diff(np.eye(J - 1), axis=0)
    return TermBasis(design=monotone_columns(y, knots, order),
                     penalty=diff.T @ diff, knots=knots,
                     meta={"order": order, "interval": interval})


def absorb_centering(design, penalty):
    """Absorb the sum-to-zero constraint, returning (design, penalty, Q).

    Q is the J x (J-1) orthonormal null-space basis of the column-mean row
    vector; the returned design has zero column means.
    """
    c = design.mean(axis=0)
    q_full, _ = np.linalg.qr(c[:, None], mode="complete")
    q = q_full[:, 1:]
    new_design = design @ q
    new_penalty = q.T @ penalty @ q
    new_penalty = 0.5 * (new_penalty + new_penalty.T)
    return new_design, new_penalty, q


def _fix_signs(vectors):
    picks = np.argmax(np.abs(vectors), axis=0)
    return vectors * np.sign(vectors[picks, np.arange(vectors.shape[1])])


def _radial_taylor(centers, q, j=0):
    """The j-th Taylor coefficients at sorted ``centers`` of the columns
    sum_k q_k |x - c_k|^3 / 12, by ``build_smooth_term``'s prefix sums."""
    p = 3 - j
    c = (centers - (0.5 * centers[0] + 0.5 * centers[-1]))[:, None]
    out = np.zeros_like(q)
    for i in range(p + 1):
        w = (-c) ** i * q
        out += math.comb(p, i) * c ** (p - i) * (2.0 * np.cumsum(w, axis=0) - w.sum(axis=0))
    return out / (12.0 / math.comb(3, j))


def build_smooth_term(x, J=DEFAULT_SMOOTH_J, name="smooth term"):
    """Eigen-truncated radial (thin-plate-type) smooth with centering.

    E = |c_m - c_k|^3 / 12 on K sorted centres is never formed for K > 2J.
    The j-th Taylor coefficient at c_m of sum_k q_k |x - c_k|^3 / 12 is
    comb(3, j) / 12 sum_k sign(r) r^p q_k, r = c_m - c_k, p = 3 - j and
    sign(0) = +1 (j = 0: E q).  With the centres shifted to their midrange,
    r^p expands binomially, so the sum is sum_i comb(p, i) c_m^(p - i)
    (2 S_i(m) - S_i(K - 1)), S_i the cumulative sums of (-c_k)^i q_k: O(K J)
    time and memory.  E's J leading eigenvectors come from block subspace
    iteration on these products (Halko, Martinsson & Tropp 2011, SIAM Rev.
    53:217), where mgcv uses Lanczos (Wood 2003, JRSS-B 65:95).  The block
    has J - 1 columns (one sum-to-zero constraint absorbed); its penalty
    null space is the centered linear trend.  The term is built on
    z = (x - median) / sd, with ``meta`` holding the shift, the scale and
    the centres in z, so x's units change neither the penalty nor the fit.
    """
    x = np.asarray(x, dtype=float)
    distinct = np.unique(x)
    centers = distinct if distinct.size <= MAX_RADIAL_KNOTS else np.unique(
        np.quantile(distinct, np.linspace(0.0, 1.0, MAX_RADIAL_KNOTS)))
    K = centers.size
    if not 3 <= J <= K:
        raise ConfigurationError(f"{name} needs 3 <= J <= K={K} radial centres, got J={J}")
    if not centers[-1] - centers[0] <= MAX_RADIAL_SPAN:   # before any power
        raise ConfigurationError(f"{name} spans {centers[-1] - centers[0]:.3g}, more "
                                 f"than MAX_RADIAL_SPAN = {MAX_RADIAL_SPAN:.0e}")
    shift, sd = float(np.median(x)), float(np.std(x))
    x, centers = (x - shift) / sd, (centers - shift) / sd

    # Green's function of the 1-D second-order penalty; with this scaling
    # delta' E delta equals the integrated squared second derivative exactly.
    if K > 2 * J:   # |eigenvalues| fall off about as k^-4: 2J columns suffice
        q = np.random.default_rng(0).standard_normal((K, 2 * J))
        for _ in range(SUBSPACE_STEPS):
            q = np.linalg.qr(_radial_taylor(centers, q))[0]
        eigval, eigvec = np.linalg.eigh(q.T @ _radial_taylor(centers, q))
        eigvec = q @ eigvec
    else:
        eigval, eigvec = np.linalg.eigh(np.abs(centers[:, None] - centers) ** 3 / 12.0)
    keep = np.sort(np.argsort(np.abs(eigval))[::-1][:J])
    u = _fix_signs(eigvec[:, keep])

    # absorb the two TPS side constraints (sum and first moment at centers)
    t_centers = np.column_stack([np.ones(K), centers])
    cmat = t_centers.T @ u
    q_full, _ = np.linalg.qr(cmat.T, mode="complete")
    uz = u @ q_full[:, 2:]

    # each wiggly column sum_k uz_k |x - c_k|^3 / 12 is a cubic on every
    # [c_m, c_m+1]: its Taylor coefficients at c_m are the value, the slope,
    # half the curvature and a sixth of the right-hand third derivative
    taylor = [_radial_taylor(centers, uz, j) for j in range(4)]
    pen_w = uz.T @ taylor[0]
    # every x lies in [c_0, c_K-1]: the centres include its extremes
    m = np.searchsorted(centers, x, side="right") - 1
    d = (x - centers[m])[:, None]
    wiggle = taylor[3][m]
    for coef in taylor[2::-1]:
        wiggle *= d
        wiggle += coef[m]

    # rescale wiggly columns to unit RMS for conditioning; the penalty is
    # adjusted so the quadratic form is unchanged
    scale = np.sqrt(np.mean(wiggle ** 2, axis=0))
    scale[scale == 0.0] = 1.0
    wiggle = wiggle / scale
    uz = uz / scale
    pen_w = pen_w / (scale[:, None] * scale[None, :])
    pen_w = 0.5 * (pen_w + pen_w.T)

    design = np.column_stack([wiggle, np.ones(x.size), x])
    penalty = np.zeros((J, J))
    penalty[:J - 2, :J - 2] = pen_w

    design_c, penalty_c, q = absorb_centering(design, penalty)
    meta = {"centers": centers, "u": uz, "shift": shift, "scale": sd}
    return TermBasis(design=design_c, penalty=penalty_c, centering=q, meta=meta)


def build_ridge_term(values, name="ridge term"):
    """Level indicators with an identity penalty (random-effect style).

    The first level is dropped for identifiability against the intercept,
    so a binary instrument yields a single penalized column.  More than
    MAX_RIDGE_LEVELS levels is a ConfigurationError naming ``name``: on a
    continuous column the term would be one indicator per row.
    """
    values = np.asarray(values)
    levels = sorted(np.unique(values).tolist())
    if len(levels) < 2:
        raise ConfigurationError(
            f"{name} has no variation (a single level carries no information)")
    if len(levels) > MAX_RIDGE_LEVELS:
        raise ConfigurationError(f"{name} has {len(levels)} levels, more than "
                                 f"MAX_RIDGE_LEVELS = {MAX_RIDGE_LEVELS}")
    design = np.column_stack([(values == lev).astype(float) for lev in levels[1:]])
    return TermBasis(design=design, penalty=np.eye(design.shape[1]))
