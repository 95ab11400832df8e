import math
import warnings

import numpy as np
import pytest
from scipy import special

from endosurv import numerics as nm
from endosurv.errors import DomainError


def bisect_quantile(p, lo=-15.0, hi=15.0):
    """Independent oracle: invert norm_cdf by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if nm.norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_norm_cdf_at_zero():
    assert nm.norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_norm_pdf_at_zero():
    assert nm.norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


def test_norm_quantile_against_bisection_oracle():
    for p in (0.975, 0.5, 0.025, 0.2, 0.9999):
        assert nm.norm_quantile(p) == pytest.approx(bisect_quantile(p), abs=1e-9)


def test_norm_quantile_975():
    assert nm.norm_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)


def test_quantile_cdf_round_trip():
    # For x > 0 the spacing of doubles near Phi(x) = 1 caps the attainable
    # round-trip accuracy at ulp(1)/phi(x); the 1e-12 bound is only
    # meaningful below that cap, so the bound used is max(1e-12, 3 ulps).
    x = np.linspace(-6.0, 6.0, 49)
    back = nm.norm_quantile(nm.norm_cdf(x))
    cap = np.maximum(1e-12, 3.0 * np.finfo(float).eps / nm.norm_pdf(x))
    assert np.all(np.abs(back - x) < cap)
    tight = x <= 3.5
    assert np.max(np.abs(back - x)[tight]) < 1e-12


def test_norm_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.3, np.nan):
        with pytest.raises(DomainError):
            nm.norm_quantile(bad)


def test_norm_quantile_is_not_clamped_in_the_tail():
    assert nm.norm_quantile(1e-20) == special.ndtri(1e-20)


def test_bvn_cdf_independence():
    assert nm.bvn_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-14)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 50)) * 2
    assert np.max(np.abs(nm.bvn_cdf(a, b, 0.0) - nm.norm_cdf(a) * nm.norm_cdf(b))) < 1e-12


def test_bvn_cdf_closed_form_on_diagonal():
    # Phi2(0, 0, rho) = 1/4 + asin(rho) / (2 pi)
    for r in np.linspace(-0.999, 0.999, 31):
        want = 0.25 + math.asin(r) / (2.0 * math.pi)
        assert nm.bvn_cdf(0.0, 0.0, r) == pytest.approx(want, abs=1e-13)


def test_bvn_cdf_symmetry_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = rng.normal(size=2) * 2
        r = rng.uniform(-0.99, 0.99)
        assert nm.bvn_cdf(a, b, r) == pytest.approx(nm.bvn_cdf(b, a, r), abs=1e-14)
        assert nm.bvn_cdf(a + 0.1, b, r) >= nm.bvn_cdf(a, b, r) - 1e-14
        assert nm.bvn_cdf(a, b + 0.1, r) >= nm.bvn_cdf(a, b, r) - 1e-14


def test_bvn_cdf_reflection_identity():
    # Phi2(a, b, rho) + Phi2(a, -b, -rho) = Phi(a)
    rng = np.random.default_rng(11)
    a = rng.normal(size=200) * 2
    b = rng.normal(size=200) * 2
    r = rng.uniform(-0.999, 0.999, size=200)
    total = np.array([nm.bvn_cdf(a[i], b[i], r[i]) + nm.bvn_cdf(a[i], -b[i], -r[i])
                      for i in range(a.size)])
    assert np.max(np.abs(total - nm.norm_cdf(a))) < 1e-13


def test_bvn_cdf_quadrature_spot_checks():
    # oracle: 2-D adaptive quadrature of the density (full grid runs in
    # the acceptance suite)
    from scipy import integrate

    def quad_cdf(a, b, rho):
        den = 2.0 * math.pi * math.sqrt(1.0 - rho * rho)
        f = lambda y, x: math.exp(-(x * x - 2 * rho * x * y + y * y)
                                  / (2 * (1 - rho * rho))) / den
        val, _ = integrate.dblquad(f, -8.5, a, -8.5, b, epsabs=1e-13, epsrel=1e-13)
        return val

    for (a, b, r) in [(0.5, -1.0, 0.6), (-2.0, 1.5, -0.95), (1.0, 1.0, 0.99),
                      (0.0, -0.3, 0.2), (-1.0, -1.0, -0.99)]:
        assert nm.bvn_cdf(a, b, r) == pytest.approx(quad_cdf(a, b, r), abs=1e-12)


def test_bvn_cdf_degenerate_correlations():
    for a, b in [(-1.0, 0.5), (0.2, 0.2), (2.0, -2.0)]:
        assert nm.bvn_cdf(a, b, 1.0) == pytest.approx(nm.norm_cdf(min(a, b)), abs=1e-14)
        want = max(nm.norm_cdf(a) + nm.norm_cdf(b) - 1.0, 0.0)
        assert nm.bvn_cdf(a, b, -1.0) == pytest.approx(want, abs=1e-14)


def test_bvn_cdf_rejects_nan_and_bad_rho():
    with pytest.raises(DomainError):
        nm.bvn_cdf(np.nan, 0.0, 0.0)
    with pytest.raises(DomainError):
        nm.bvn_cdf(0.0, 0.0, 1.5)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_bvn_cdf_rejects_non_finite_limits(bad):
    # the limits are finite in every call the likelihood makes
    with pytest.raises(DomainError):
        nm.bvn_cdf([0.1, bad], 0.2, 0.5)
    with pytest.raises(DomainError):
        nm.bvn_cdf(0.1, [bad, 0.2], -0.5)


def test_bvn_cdf_extreme_rule_without_overflow():
    # the first row (a * b = -1600) is one whose tail term the extreme rule
    # drops; it must not overflow on the way to being dropped
    from scipy import integrate

    rho = 0.95
    q = math.sqrt(1.0 - rho * rho)
    want, _ = integrate.quad(
        lambda x: nm.norm_pdf(x) * nm.norm_cdf((0.2 - rho * x) / q),
        -np.inf, 0.1, epsabs=1e-14, epsrel=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = nm.bvn_cdf([40.0, 0.1], [-40.0, 0.2], rho)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(want, abs=1e-12)


def bvn_partial_b(a, b, rho):
    """d/db Phi2(a, b; rho) = phi(b) Phi((a - rho b) / sqrt(1 - rho^2)).

    The likelihood's analytic score is built on this identity.
    """
    return nm.norm_pdf(b) * nm.norm_cdf((a - rho * b) / math.sqrt(1.0 - rho * rho))


def test_bvn_partial_b_matches_finite_difference():
    h = 1e-6
    rng = np.random.default_rng(5)
    for _ in range(40):
        a, b = rng.normal(size=2) * 2
        r = rng.uniform(-0.98, 0.98)
        fd = (nm.bvn_cdf(a, b + h, r) - nm.bvn_cdf(a, b - h, r)) / (2 * h)
        an = bvn_partial_b(a, b, r)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)
