"""Univariate and bivariate standard Gaussian kernels; inverse Cholesky factors.

Everything here is a pure function of its inputs and safe to call from any
number of threads.  The bivariate CDF follows the Drezner-Genz construction:
Gauss-Legendre quadrature of the tetrachoric series for moderate correlation
and the singularity-subtracted form for |rho| >= 0.925.
"""

import math

import numpy as np
from scipy import special

from .errors import DomainError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# |rho| beyond this is treated as perfectly (anti)correlated.
RHO_DEGENERATE = 1.0 - 1e-12

# 10-point Gauss-Legendre rule on (-1, 1); applied symmetrically, so each
# integral uses 20 evaluations.
_GL_X = np.array([
    0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
    0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
    0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
    0.0765265211334973,
])
_GL_W = np.array([
    0.0176140071391521, 0.0406014298003869, 0.0626720483341091,
    0.0832767415767048, 0.1019301198172404, 0.1181945319615184,
    0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
    0.1527533871307259,
])
# the nodes as used, 1 + x and 1 - x side by side
_GL_X2 = np.concatenate([_GL_X, -_GL_X])
_GL_W2 = np.concatenate([_GL_W, _GL_W])


def inverse_cholesky(a):
    """L^-1 for the lower Cholesky factor L of a (so a^-1 = L^-T L^-1), or
    None if a is not positive definite or a or L^-1 is not finite: numpy
    factors a NaN or inf matrix without raising."""
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        return None
    return l_inv if np.all(np.isfinite(a)) and np.all(np.isfinite(l_inv)) else None


def norm_pdf(x):
    """Standard Gaussian density."""
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def norm_cdf(x):
    """Standard Gaussian CDF."""
    return special.ndtr(np.asarray(x, dtype=float))


def norm_logcdf(x):
    """log(Phi(x)), stable far into the lower tail."""
    return special.log_ndtr(np.asarray(x, dtype=float))


def norm_quantile(p):
    """Inverse standard Gaussian CDF, finite on all of (0, 1): ndtri of the
    smallest positive double is -38.5.  Values at or beyond {0, 1} (and NaN)
    raise :class:`DomainError`.
    """
    p = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    return special.ndtri(p)


def bvn_pdf(a, b, rho):
    """Standard bivariate Gaussian density at (a, b) with correlation rho."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q2 = (1.0 - rho) * (1.0 + rho)
    z = a * a - 2.0 * rho * a * b + b * b
    return np.exp(-0.5 * z / q2) / (_TWO_PI * np.sqrt(q2))


def _bvn_moderate(a, b, rho):
    """Genz quadrature for |rho| < 0.925; the node terms depend on rho
    alone and are computed once."""
    hk = a * b
    hs = 0.5 * (a * a + b * b)
    asr = np.arcsin(rho)
    sn = np.sin(asr * 0.5 * (1.0 + _GL_X2))
    inv = 1.0 / (1.0 - sn * sn)
    f = np.exp(hk[..., None] * (sn * inv) - hs[..., None] * inv)
    total = f @ _GL_W2
    return total * asr / (2.0 * _TWO_PI) + special.ndtr(a) * special.ndtr(b)


def _bvn_extreme(a, b, rho):
    """Genz quadrature for 0.925 <= |rho| < 1."""
    h = -a
    k = b if rho < 0.0 else -b
    hk = h * k
    abs_r = abs(rho)

    a2 = (1.0 - abs_r) * (1.0 + abs_r)
    sa = math.sqrt(a2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -0.5 * (bs / a2 + hk)
    bvn = np.where(
        asr > -100.0,
        sa * np.exp(asr) * (1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0
                            + c * d * a2 * a2 / 5.0),
        0.0,
    )
    sqrt_bs = np.sqrt(bs)
    # rows with hk <= -100 drop the tail; mask them before the exponent,
    # which would overflow there
    kept = hk > -100.0
    tail = np.where(
        kept,
        np.exp(-0.5 * np.where(kept, hk, 0.0)) * math.sqrt(_TWO_PI)
        * special.ndtr(-sqrt_bs / sa)
        * sqrt_bs * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
        0.0,
    )
    bvn = bvn - tail

    half_a = 0.5 * sa
    xs = (half_a * (1.0 + _GL_X2)) ** 2
    inv_xs = 1.0 / xs
    rs = np.sqrt(1.0 - xs)
    inv_1rs = 1.0 / (1.0 + rs)
    asr1 = -0.5 * (bs[..., None] * inv_xs + hk[..., None])
    with np.errstate(under="ignore"):
        t1 = np.exp(-0.5 * bs[..., None] * inv_xs - hk[..., None] * inv_1rs) / rs
        t2 = np.exp(asr1) * (1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs))
    term = np.where(asr1 > -100.0, t1 - t2, 0.0)
    bvn = bvn + half_a * (term @ _GL_W2)
    bvn = -bvn / _TWO_PI

    if rho > 0.0:
        return bvn + special.ndtr(-np.maximum(h, k))
    return -bvn + np.maximum(0.0, special.ndtr(-h) - special.ndtr(-k))


def bvn_cdf(a, b, rho):
    """P(X <= a, Y <= b) for standard bivariate Gaussian (X, Y), corr rho.

    ``a`` and ``b`` must be finite: the likelihood never passes an infinite
    limit (a non-finite predictor is an invalid point before it gets here),
    so +-inf or NaN raises :class:`DomainError`.  ``rho`` is one scalar for
    every row, so the quadrature regime is picked once; |rho| within 1e-12
    of 1 uses the degenerate comonotone/antimonotone form.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    rho = float(rho)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("bvn_cdf limits must be finite")
    if not abs(rho) <= 1.0:
        raise DomainError("correlation must satisfy |rho| <= 1")
    if rho >= RHO_DEGENERATE:      # comonotone limit
        out = special.ndtr(np.minimum(a, b))
    elif rho <= -RHO_DEGENERATE:   # antimonotone limit
        out = np.maximum(special.ndtr(a) + special.ndtr(b) - 1.0, 0.0)
    elif abs(rho) < 0.925:
        out = _bvn_moderate(a, b, rho)
    else:
        out = _bvn_extreme(a, b, rho)
    out = np.clip(out, 0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out
