"""Basis and penalty construction for every additive-term type.

Four term kinds are supported: unpenalized parametric columns, ridge-penalized
level indicators, low-rank radial smooths with an integrated-squared-second-
derivative penalty, and monotone B-splines whose coefficients are mapped
through a cumulative-sum-of-exponentials reparametrization.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .errors import ConfigurationError, DomainError

DEFAULT_SMOOTH_J = 10
DEFAULT_MONOTONE_J = 10
BSPLINE_ORDER = 4
MAX_RADIAL_KNOTS = 1000
# rows of the n x K radial matrix formed at a time (16 MB at K = 1000)
RADIAL_CHUNK_ROWS = 2048


@dataclass
class TermBasis:
    """One term's design block and penalty.

    ``design`` is n x J; ``penalty`` is J x J symmetric PSD (identity for
    ridge terms, zero for parametric ones).  ``centering`` holds the
    raw-basis-to-constrained transform when a sum-to-zero constraint was
    absorbed, and ``knots`` the knot vector for spline-backed terms.
    """

    kind: str
    design: np.ndarray
    penalty: np.ndarray
    knots: np.ndarray | None = None
    centering: np.ndarray | None = None
    levels: list | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class MonotoneReparam:
    """Reparametrization metadata for a monotone B-spline block."""

    order: int
    interval: tuple


def uniform_knots(J, order, interval):
    """Equally spaced knot vector with J basis functions spanning interval."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ConfigurationError("knot interval must have positive length")
    h = (b - a) / (J - order + 1)
    return a + h * (np.arange(J + order) - (order - 1))


def bspline_design(x, knots, order, nu=0):
    """The B-spline basis defined by ``knots`` at the points x, or its
    exact ``nu``-th derivative."""
    x = np.asarray(x, dtype=float)
    a, b = knots[order - 1], knots[len(knots) - order]
    slack = 1e-12 * (b - a)  # tolerate rounding at the interval edges
    bad = np.nonzero((x < a - slack) | (x > b + slack) | ~np.isfinite(x))[0]
    if bad.size:
        raise DomainError(
            f"value {x[bad[0]]!r} at index {bad[0]} lies outside the basis "
            f"interval [{a}, {b}]")
    x = np.clip(x, a, b)
    if nu:
        return BSpline(knots, np.eye(len(knots) - order), order - 1)(x, nu=nu)
    return BSpline.design_matrix(x, knots, order - 1, extrapolate=False).toarray()


def build_bspline_basis(x, J, order=BSPLINE_ORDER, interval=None):
    """B-spline basis of the given order on equally spaced knots."""
    x = np.asarray(x, dtype=float)
    if J < order + 1:
        raise ConfigurationError(f"need J >= order + 1, got J={J}, order={order}")
    if interval is None:
        interval = (float(np.min(x)), float(np.max(x)))
    knots = uniform_knots(J, order, interval)
    design = bspline_design(x, knots, order)
    return TermBasis(kind="smooth", design=design, penalty=np.zeros((J, J)),
                     knots=knots, meta={"order": order, "interval": tuple(interval)})


def monotone_difference_matrix(J):
    """(J-2) x J first-difference matrix acting on coefficients 2..J."""
    d = np.zeros((J - 2, J))
    for i in range(J - 2):
        d[i, i + 1] = 1.0
        d[i, i + 2] = -1.0
    return d


def build_monotone_term(y, J=DEFAULT_MONOTONE_J, order=BSPLINE_ORDER,
                        interval=None):
    """Monotone B-spline basis for the transformation of follow-up time."""
    y = np.asarray(y, dtype=float)
    if J < 4:
        raise ConfigurationError("monotone term needs J >= 4")
    if np.unique(y).size < 2:
        raise ConfigurationError("follow-up times are all equal; cannot place knots")
    order = min(order, J - 1)
    if interval is None:
        interval = (0.0, float(np.max(y)) * 1.001)
    basis = build_bspline_basis(y, J, order=order, interval=interval)
    dmat = monotone_difference_matrix(J)
    basis.kind = "monotone"
    basis.penalty = dmat.T @ dmat
    reparam = MonotoneReparam(order=order, interval=tuple(interval))
    return basis, reparam


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


def _radial(r):
    # Green's function of the 1-D second-order penalty; with this scaling
    # delta' E delta equals the integrated squared second derivative exactly.
    return np.abs(r) ** 3 / 12.0


def _radial_rows(x, centers, u):
    """_radial(x_i - centers) @ u, forming RADIAL_CHUNK_ROWS rows at a time."""
    out = np.empty((x.size, u.shape[1]))
    for start in range(0, x.size, RADIAL_CHUNK_ROWS):
        chunk = x[start:start + RADIAL_CHUNK_ROWS]
        out[start:start + chunk.size] = _radial(
            chunk[:, None] - centers[None, :]) @ u
    return out


def _fix_signs(vectors):
    picks = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[picks, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def build_smooth_term(x, J=DEFAULT_SMOOTH_J, max_knots=MAX_RADIAL_KNOTS):
    """Eigen-truncated radial (thin-plate-type) smooth with centering.

    The returned block has J - 1 columns (one sum-to-zero constraint
    absorbed); its penalty null space is the centered linear trend.
    """
    x = np.asarray(x, dtype=float)
    distinct = np.unique(x)
    if distinct.size < J:
        raise ConfigurationError(
            f"smooth term needs at least J={J} distinct values, found {distinct.size}")
    if distinct.size <= max_knots:
        centers = distinct
    else:
        qs = np.linspace(0.0, 1.0, max_knots)
        centers = np.unique(np.quantile(distinct, qs))
    K = centers.size

    e_kk = _radial(centers[:, None] - centers[None, :])
    eigval, eigvec = np.linalg.eigh(e_kk)
    keep = np.sort(np.argsort(np.abs(eigval))[::-1][:J])
    u = _fix_signs(eigvec[:, keep])

    # absorb the two TPS side constraints (sum and first moment at centers)
    t_centers = np.column_stack([np.ones(K), centers])
    cmat = t_centers.T @ u
    q_full, _ = np.linalg.qr(cmat.T, mode="complete")
    uz = u @ q_full[:, 2:]
    wiggle = _radial_rows(x, centers, uz)
    pen_w = uz.T @ (e_kk @ uz)

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
    meta = {"centers": centers, "u": uz, "q": q, "J": J}
    return TermBasis(kind="smooth", design=design_c, penalty=penalty_c,
                     centering=q, meta=meta)


def smooth_term_rows(basis: TermBasis, x_new):
    """Evaluate a built smooth term's centered columns at new covariate values."""
    x_new = np.asarray(x_new, dtype=float)
    wiggle = _radial_rows(x_new, basis.meta["centers"], basis.meta["u"])
    raw = np.column_stack([wiggle, np.ones(x_new.size), x_new])
    return raw @ basis.centering


def build_ridge_term(values):
    """Level indicators with an identity penalty (random-effect style).

    The first level is dropped for identifiability against the intercept,
    so a binary instrument yields a single penalized column.
    """
    values = np.asarray(values)
    levels = sorted(np.unique(values).tolist())
    if len(levels) < 2:
        raise ConfigurationError(
            "ridge term has no variation (a single level carries no information)")
    cols = [(values == lev).astype(float) for lev in levels[1:]]
    design = np.column_stack(cols)
    J = design.shape[1]
    return TermBasis(kind="ridge", design=design, penalty=np.eye(J),
                     levels=levels)
