import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from endosurv import design as dz
from endosurv import likelihood as lk
from endosurv import numerics as nm
from endosurv import optimizer as op


def make_bundle(n=60, seed=0, smooth=True, censor=0.5):
    rng = np.random.default_rng(seed)
    data = dz.DataSet(
        time=rng.uniform(0.2, 8.0, size=n),
        status=(rng.uniform(size=n) > censor).astype(int),
        treatment=rng.integers(0, 2, size=n),
        covariates={"x": rng.normal(size=n),
                    "g": rng.integers(0, 2, size=n).astype(float),
                    "w": rng.integers(0, 2, size=n).astype(float)})
    outcome = [dz.Term("monotone", J=6)]
    outcome.append(dz.Term("smooth", column="x", J=6) if smooth
                   else dz.Term("linear", column="x"))
    outcome += [dz.Term("linear", column="g"), dz.Term("treatment"),
                dz.Term("interaction", modifier="g")]
    spec = dz.ModelSpec(
        outcome_terms=outcome,
        selection_terms=[dz.Term("linear", column="x"),
                         dz.Term("linear", column="g"),
                         dz.Term("ridge", column="w")])
    return dz.assemble(spec, data)


def random_delta(bundle, seed=1, rho_star=0.4, scale=0.3):
    rng = np.random.default_rng(seed)
    delta = rng.normal(scale=scale, size=bundle.layout.psi)
    delta[bundle.layout.rho_index] = rho_star
    return delta


def conditioned_delta(bundle, seed=1, rho_star=0.4):
    """Random coefficients shrunk until every case probability is resolvable.

    Finite differences of the log-likelihood are meaningless once a row's
    case probability falls near the absolute accuracy of the bivariate CDF,
    so derivative checks use points away from that regime.  The intercept is
    centered against the monotone ramp so eta1 straddles zero.
    """
    ramp_mid = 0.5 * (bundle.time_slice.stop - bundle.time_slice.start - 1.0)
    delta = random_delta(bundle, seed=seed, rho_star=rho_star, scale=0.1)
    delta[0] -= ramp_mid
    parts = lk.likelihood_parts(bundle, delta)
    censored = parts.contributions[bundle.data.status == 0]
    # event contributions are evaluated in log space (relative accuracy);
    # only the Phi2-backed censored ones carry an absolute error floor
    assert parts.valid and censored.min() > np.log(1e-6)
    return delta


# --------------------------------------------------------------------------
# value-level checks
# --------------------------------------------------------------------------

def test_single_row_independent_at_zero():
    # row 0: control, censored; the intercept is set so eta1 = 0 there,
    # beta2 = 0 gives eta2 = 0, so the contribution is log(0.5 * 0.5)
    data = dz.DataSet(time=[1.0, 2.0], status=[0, 1], treatment=[0, 1],
                      covariates={"x": [0.0, 1.0], "w": [0.0, 1.0]})
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=4), dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x")])
    bundle = dz.assemble(spec, data)
    delta = np.zeros(bundle.layout.psi)
    delta[0] = -float(bundle.eta1(delta[bundle.layout.eq1])[0])
    assert abs(bundle.eta1(delta[bundle.layout.eq1])[0]) < 1e-12
    parts = lk.likelihood_parts(bundle, delta)
    assert parts.contributions[0] == pytest.approx(math.log(0.25), abs=1e-12)


def test_rho_zero_factorization_against_independent_coding():
    # oracle: univariate likelihoods coded from scratch here
    bundle = make_bundle(n=200, seed=3)
    lay = bundle.layout
    delta = random_delta(bundle, seed=4, rho_star=0.0)
    joint = lk.loglik(bundle, delta)

    u = bundle.eta1(delta[lay.eq1])
    h = bundle.deta1_dy(delta[lay.eq1])
    v = bundle.eta2(delta[lay.eq2])
    ev = bundle.data.status.astype(bool)
    d = bundle.data.treatment.astype(bool)
    surv = np.where(ev, norm.logpdf(u) + np.log(h), norm.logcdf(-u)).sum()
    probit = np.where(d, norm.logcdf(v), norm.logcdf(-v)).sum()
    assert joint == pytest.approx(surv + probit, abs=1e-10)


def test_module_univariate_pieces_match_joint_at_rho_zero():
    bundle = make_bundle(n=80, seed=5)
    lay = bundle.layout
    delta = random_delta(bundle, seed=6, rho_star=0.0)
    joint = lk.loglik(bundle, delta)
    split = (lk.loglik_survival(bundle, delta[lay.eq1])
             + lk.loglik_probit(bundle, delta[lay.eq2]))
    assert joint == pytest.approx(split, abs=1e-10)


def test_treated_event_contribution_finite_when_slope_positive():
    bundle = make_bundle(n=50, seed=7)
    delta = random_delta(bundle, seed=8, rho_star=0.3)
    parts = lk.likelihood_parts(bundle, delta)
    assert parts.valid
    assert np.all(np.isfinite(parts.contributions))
    assert np.all(bundle.deta1_dy(delta[bundle.layout.eq1]) > 0.0)


def test_likelihood_parts_sum_matches_loglik():
    bundle = make_bundle(n=70, seed=9)
    delta = random_delta(bundle, seed=10, rho_star=-0.5)
    parts = lk.likelihood_parts(bundle, delta)
    assert parts.contributions.sum() == pytest.approx(lk.loglik(bundle, delta), abs=1e-9)
    want = {(0, 0): "d0_cens", (1, 0): "d1_cens", (0, 1): "d0_event", (1, 1): "d1_event"}
    for i in range(bundle.n):
        key = (int(bundle.data.treatment[i]), int(bundle.data.status[i]))
        assert parts.labels()[i] == want[key]


def test_p00_bounded_by_marginals():
    bundle = make_bundle(n=100, seed=11)
    delta = random_delta(bundle, seed=12, rho_star=0.8)
    parts = lk.likelihood_parts(bundle, delta)
    v = bundle.eta2(delta[bundle.layout.eq2])
    upper = np.minimum(nm.norm_cdf(-v), parts.S)
    assert np.all(parts.P00 <= upper + 1e-12)
    assert np.all(parts.P00 >= -1e-12)
    assert np.all(parts.P01 >= 0.0)


def test_invalid_point_returns_nan_not_raise():
    bundle = make_bundle(n=30, seed=13)
    delta = random_delta(bundle, seed=14)
    delta[1] = 800.0  # exp overflows -> eta1 not finite
    assert math.isnan(lk.loglik(bundle, delta))
    assert np.all(np.isnan(lk.score(bundle, delta)))
    ll, g, h = lk.evaluate(bundle, delta, order=2)
    assert math.isnan(ll)
    assert g.shape == (bundle.layout.psi,) and np.all(np.isnan(g))
    assert h.shape == (bundle.layout.psi,) * 2 and np.all(np.isnan(h))


# --------------------------------------------------------------------------
# penalty augmentation (the inner objective the optimizer maximizes)
# --------------------------------------------------------------------------

def penalized_loglik(bundle, delta, lam):
    return op.ObjectiveView(bundle, "joint").penalized(lam)(delta)[0]


def test_penalized_equals_plain_at_lambda_zero():
    bundle = make_bundle(n=60, seed=15)
    delta = random_delta(bundle, seed=16)
    lam = np.zeros(bundle.layout.n_lambda)
    assert penalized_loglik(bundle, delta, lam) == lk.loglik(bundle, delta)


def test_penalized_null_space_coefficients():
    bundle = make_bundle(n=60, seed=17)
    lay = bundle.layout
    delta = np.zeros(lay.psi)
    # nonzero entries only on unpenalized coordinates
    for blk in lay.blocks:
        if blk.penalty is None:
            delta[blk.sl] = 0.3
    lam = np.full(lay.n_lambda, 2.5)
    assert penalized_loglik(bundle, delta, lam) == pytest.approx(
        lk.loglik(bundle, delta), abs=1e-12)


def test_doubling_one_lambda_changes_by_half_quadform():
    bundle = make_bundle(n=60, seed=18)
    delta = random_delta(bundle, seed=19)
    lam = np.full(bundle.layout.n_lambda, 1.7)
    base = penalized_loglik(bundle, delta, lam)
    blk = next(b for b in bundle.layout.blocks if b.lambda_index is not None)
    lam2 = lam.copy()
    lam2[blk.lambda_index] *= 2.0
    beta_k = delta[blk.sl]
    expected = base - 0.5 * lam[blk.lambda_index] * (beta_k @ blk.penalty @ beta_k)
    assert penalized_loglik(bundle, delta, lam2) == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# derivatives
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed,rho_star", [(20, 0.0), (21, 0.6), (22, -0.9), (23, 1.5)])
def test_score_matches_finite_differences(seed, rho_star):
    bundle = make_bundle(n=50, seed=seed)
    delta = conditioned_delta(bundle, seed=seed + 100, rho_star=rho_star)
    g = lk.score(bundle, delta)
    g_fd = lk.finite_difference_score(bundle, delta)
    lay = bundle.layout
    scale = max(1.0, np.abs(g).max())
    assert np.abs(g - g_fd)[:lay.rho_index].max() / scale < 1e-6
    assert abs(g[lay.rho_index] - g_fd[lay.rho_index]) / scale < 1e-5


@pytest.mark.parametrize("seed,rho_star", [(24, 0.0), (25, 0.7), (26, -1.2)])
def test_hessian_matches_finite_differences(seed, rho_star):
    bundle = make_bundle(n=50, seed=seed)
    delta = conditioned_delta(bundle, seed=seed + 100, rho_star=rho_star)
    h = lk.hessian(bundle, delta)
    h_fd = lk.finite_difference_hessian(bundle, delta)
    scale = max(1.0, np.abs(h).max())
    assert np.abs(h - h_fd).max() / scale < 1e-4
    assert np.abs(h - h.T).max() < 1e-10


def test_cross_block_hessian_at_rho_zero():
    bundle = make_bundle(n=40, seed=27)
    lay = bundle.layout
    delta = random_delta(bundle, seed=28, rho_star=0.0)
    h = lk.hessian(bundle, delta)
    h_fd = lk.finite_difference_hessian(bundle, delta)
    blk = h[lay.eq1, lay.eq2]
    blk_fd = h_fd[lay.eq1, lay.eq2]
    assert np.abs(blk - blk_fd).max() / max(1.0, np.abs(blk).max()) < 1e-5


# --------------------------------------------------------------------------
# the fused pass
# --------------------------------------------------------------------------

def test_fused_pass_one_bvn_call_per_censored_case(monkeypatch):
    bundle = make_bundle(n=80, seed=40)
    delta = conditioned_delta(bundle, seed=41, rho_star=0.5)
    calls = []
    real = nm.bvn_cdf

    def counted(a, b, rho):
        calls.append(np.size(a))
        return real(a, b, rho)

    monkeypatch.setattr(nm, "bvn_cdf", counted)
    lk.evaluate(bundle, delta, order=2)
    data = bundle.data
    censored = [int(np.sum((data.status == 0) & (data.treatment == d)))
                for d in (0, 1)]
    assert len(calls) == sum(c > 0 for c in censored) == 2
    assert sum(calls) == sum(censored)


@pytest.mark.parametrize("seed,rho_star", [(42, 0.3), (43, -0.3), (45, 1.7), (46, -1.7)])
def test_fused_pass_matches_wrappers_and_fd_oracles(seed, rho_star):
    bundle = make_bundle(n=50, seed=seed)
    delta = conditioned_delta(bundle, seed=seed + 100, rho_star=rho_star)
    ll, g, h = lk.evaluate(bundle, delta, order=2)
    assert ll == lk.loglik(bundle, delta)
    assert np.array_equal(g, lk.score(bundle, delta))
    assert np.array_equal(h, lk.hessian(bundle, delta))
    assert lk.evaluate(bundle, delta, order=0) == (ll, None, None)
    ll1, g1, h1 = lk.evaluate(bundle, delta, order=1)
    assert ll1 == ll and np.array_equal(g1, g) and h1 is None
    # criterion 1's tolerances
    g_fd = lk.finite_difference_score(bundle, delta)
    h_fd = lk.finite_difference_hessian(bundle, delta)
    assert np.abs(g - g_fd).max() / max(1.0, np.abs(g).max()) <= 1e-5
    assert np.abs(h - h_fd).max() / max(1.0, np.abs(h).max()) <= 1e-3


def test_inner_fit_does_not_reevaluate_its_optimum(monkeypatch):
    bundle = make_bundle(n=120, seed=45)
    view = op.ObjectiveView(bundle, "joint")
    x0 = op.initial_values(bundle)
    points = []
    real = lk.evaluate

    def recorded(bundle, delta, order=2):
        points.append(np.asarray(delta, dtype=float).tobytes())
        return real(bundle, delta, order)

    monkeypatch.setattr(lk, "evaluate", recorded)
    crit, res = op._aic(view, np.ones(view.n_lambda), x0, op.FitOptions())
    assert res.report.converged and np.isfinite(crit)
    assert points.count(res.x.tobytes()) == 1
    assert len(points) == res.report.iterations + res.report.rejections + 1
    points.clear()
    fit = op.fit(bundle, op.FitOptions(lambda_fixed=np.ones(view.n_lambda)))
    assert fit.convergence.converged
    assert points.count(fit.delta.tobytes()) == 1


def test_penalized_score_and_hessian_shift():
    bundle = make_bundle(n=40, seed=31)
    delta = random_delta(bundle, seed=32)
    lam = np.full(bundle.layout.n_lambda, 0.8)
    s_lam = op.ObjectiveView(bundle, "joint").s_lambda(lam)
    _, g, h = op.ObjectiveView(bundle, "joint").penalized(lam)(delta)
    assert np.allclose(g, lk.score(bundle, delta) - s_lam @ delta)
    assert np.allclose(h, lk.hessian(bundle, delta) - s_lam)


def test_survival_score_hessian_finite_differences():
    bundle = make_bundle(n=60, seed=33)
    lay = bundle.layout
    beta1 = random_delta(bundle, seed=34)[lay.eq1]
    g, h = lk.score_hessian_survival(bundle, beta1)
    step = 1e-6
    g_fd = np.empty_like(g)
    for j in range(beta1.size):
        bp, bm = beta1.copy(), beta1.copy()
        bp[j] += step
        bm[j] -= step
        g_fd[j] = (lk.loglik_survival(bundle, bp) - lk.loglik_survival(bundle, bm)) / (2 * step)
    assert np.abs(g - g_fd).max() / max(1.0, np.abs(g).max()) < 1e-6
    h_fd = np.empty_like(h)
    for j in range(beta1.size):
        bp, bm = beta1.copy(), beta1.copy()
        bp[j] += step
        bm[j] -= step
        gp, _ = lk.score_hessian_survival(bundle, bp)
        gm, _ = lk.score_hessian_survival(bundle, bm)
        h_fd[:, j] = (gp - gm) / (2 * step)
    assert np.abs(h - h_fd).max() / max(1.0, np.abs(h).max()) < 1e-5


def test_probit_score_hessian_finite_differences():
    bundle = make_bundle(n=60, seed=35)
    lay = bundle.layout
    beta2 = np.array([0.2, -0.4, 0.3, 0.5])
    g, h = lk.score_hessian_probit(bundle, beta2)
    step = 1e-6
    for j in range(beta2.size):
        bp, bm = beta2.copy(), beta2.copy()
        bp[j] += step
        bm[j] -= step
        fd = (lk.loglik_probit(bundle, bp) - lk.loglik_probit(bundle, bm)) / (2 * step)
        assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_rho_star_profile_smooth_and_finite():
    # perturbing only rho_star: tanh keeps every evaluation finite out to
    # extreme working values, and on the statistically relevant region
    # (within 100 of the maximum) the profile is smooth with bounded slope
    bundle = make_bundle(n=80, seed=36)
    lay = bundle.layout
    delta = conditioned_delta(bundle, seed=37, rho_star=0.0)
    grid = np.linspace(-12.0, 12.0, 241)
    vals = []
    for r in grid:
        d = delta.copy()
        d[lay.rho_index] = r
        vals.append(lk.loglik(bundle, d))
    vals = np.array(vals)
    assert np.all(np.isfinite(vals))
    step = grid[1] - grid[0]
    keep = vals > vals.max() - 100.0
    assert keep.sum() >= 20
    region = vals[keep]
    slopes = np.diff(region) / step
    curv = np.diff(region, 2) / step**2
    assert np.abs(slopes).max() < 1e3
    assert np.abs(curv).max() < 1e4


# --------------------------------------------------------------------------
# confounding diagnostics
# --------------------------------------------------------------------------

def test_bias_moments_reduce_at_rho_zero():
    shift, var, mills, clamped = lk.selection_bias_moments(0.7, 0.0)
    assert shift == 0.0
    assert var == 1.0
    assert not clamped


def test_bias_moments_at_half_rho():
    shift, var, mills, _ = lk.selection_bias_moments(0.0, 0.5)
    assert mills == pytest.approx(0.7978845608, abs=1e-9)
    assert shift == pytest.approx(0.3989422804, abs=1e-9)


def test_bias_moments_against_monte_carlo():
    rng = np.random.default_rng(99)
    rho, eta2 = 0.5, 0.0
    n = 1_000_000
    e2 = rng.normal(size=n)
    e1 = rho * e2 + math.sqrt(1 - rho**2) * rng.normal(size=n)
    keep = e2 > -eta2
    shift, var, _, _ = lk.selection_bias_moments(eta2, rho)
    assert e1[keep].mean() == pytest.approx(shift, abs=1e-2)
    assert e1[keep].var() == pytest.approx(var, abs=1e-2)


def test_bias_variance_nonnegative_everywhere():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        rho = rng.uniform(-0.999, 0.999)
        eta2 = rng.normal(scale=3)
        _, var, _, _ = lk.selection_bias_moments(eta2, rho)
        assert var >= 0.0


def test_confounding_diagnostics_wiring():
    bundle = make_bundle(n=20, seed=43)
    delta = random_delta(bundle, seed=44, rho_star=0.0)
    diag = lk.confounding_diagnostics(bundle, delta, 3)
    assert diag.variance == 1.0
    base = -float(bundle.offsets(delta[bundle.layout.eq1], d=1)[3])
    assert diag.mean == pytest.approx(base)


def test_mills_clamp_flag_deep_tail():
    _, _, _, clamped = lk.selection_bias_moments(-40.0, 0.3)
    assert clamped


# --------------------------------------------------------------------------
# case probabilities integrate to the left-boundary survival mass
# --------------------------------------------------------------------------

def test_cases_integrate_to_boundary_mass():
    bundle = make_bundle(n=20, seed=45)
    lay = bundle.layout
    delta = random_delta(bundle, seed=46, rho_star=0.5)
    rho = math.tanh(delta[lay.rho_index])
    q = math.sqrt(1 - rho**2)
    beta1 = delta[lay.eq1]
    row = 4
    d_obs = int(bundle.data.treatment[row])
    off = float(bundle.offsets(beta1, d=d_obs)[row])
    eta2 = float(bundle.Z[row] @ delta[lay.eq2])
    t0, t1 = bundle.mono_interval
    y = float(bundle.data.time[row])

    def eta1_at(t):
        return float(bundle.time_curve(beta1, np.array([t]))[0]) + off

    def dens(t, treated):
        tt = np.array([t])
        e1 = eta1_at(t)
        hgrid = np.gradient(bundle.time_curve(beta1, np.array([t - 1e-5, t, t + 1e-5])),
                            np.array([t - 1e-5, t, t + 1e-5]))[1]
        c = (-eta2 + rho * e1) / q
        phi_part = nm.norm_pdf(e1) * hgrid
        return phi_part * (nm.norm_cdf(-c) if treated else nm.norm_cdf(c))

    # P(D=0, T > y) + int_0^y f0 = P(D=0, T > 0+)
    p00_y = nm.bvn_cdf(-eta2, -eta1_at(y), rho)
    p00_0 = nm.bvn_cdf(-eta2, -eta1_at(t0 + 1e-9), rho)
    integral, _ = integrate.quad(dens, t0 + 1e-9, y, args=(False,), limit=200)
    assert p00_y + integral == pytest.approx(p00_0, abs=5e-6)

    # same decomposition for the treated branch
    s_y = nm.norm_cdf(-eta1_at(y))
    s_0 = nm.norm_cdf(-eta1_at(t0 + 1e-9))
    sp_y = s_y - p00_y
    sp_0 = s_0 - p00_0
    integral1, _ = integrate.quad(dens, t0 + 1e-9, y, args=(True,), limit=200)
    assert sp_y + integral1 == pytest.approx(sp_0, abs=5e-6)
