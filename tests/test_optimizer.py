import math

import numpy as np
import pytest

from endosurv import design as dz
from endosurv import inference
from endosurv import likelihood as lk
from endosurv import optimizer as op
from endosurv import simulate as sim
from endosurv.errors import ConfigurationError


def study_config(**kw):
    base = dict(n=400, beta_d=0.6, instrument_coef=2.0, monotone_J=6)
    base.update(kw)
    return sim.DgpConfig(**base)


def small_bundle(seed=0, n=400, **kw):
    config = study_config(n=n, **kw)
    data = sim.generate(config, seed=seed)
    return dz.assemble(sim.model_spec(config), data), config


# --------------------------------------------------------------------------
# trust-region core
# --------------------------------------------------------------------------

def test_trust_region_on_negative_quadratic():
    a = np.diag([1.0, 4.0, 0.25])
    b = np.array([1.0, -2.0, 0.5])

    res = op.trust_region_maximize(
        lambda x: (-0.5 * x @ a @ x + b @ x, b - a @ x, -a),
        np.zeros(3), op.FitOptions())
    assert res.report.converged
    assert np.allclose(res.x, np.linalg.solve(a, b), atol=1e-8)
    assert np.array_equal(res.hess, -a)


def test_trust_region_accepted_values_monotone():
    bundle, _ = small_bundle(seed=1)
    view = op.ObjectiveView(bundle, "joint")
    fun = view.penalized(np.ones(view.n_lambda))
    x0 = op.initial_values(bundle)
    full = op.trust_region_maximize(fun, x0, op.FitOptions())
    assert full.report.converged
    # the iterate after k accepted steps is the result capped at k iterations
    accepted = [op.trust_region_maximize(
        fun, x0, op.FitOptions(max_tr_iters=k)).value
        for k in range(1, full.report.iterations + 1)]
    diffs = np.diff(np.array([fun(x0)[0]] + accepted))
    assert np.all(diffs >= -1e-10)
    assert accepted[-1] == full.value


def test_trust_region_rejects_invalid_points():
    # objective is NaN outside the unit ball; the understated curvature makes
    # the first Newton trial land there, which must shrink the radius, not die
    def fun(x):
        r2 = float(x @ x)
        value = (float("nan") if r2 > 1.0
                 else -((x[0] - 0.9) ** 2) - x[1] ** 2)
        return (value, np.array([-2 * (x[0] - 0.9), -2 * x[1]]),
                -0.25 * np.eye(2))

    res = op.trust_region_maximize(fun, np.zeros(2),
                                   op.FitOptions(initial_trust_radius=20.0))
    assert res.report.converged
    assert np.allclose(res.x, [0.9, 0.0], atol=1e-5)
    assert res.report.rejections > 0


def test_trust_region_keeps_step_below_rounding_of_f():
    # next to this optimum the last Newton step gains 5e-19, far below the
    # rounding of f (about 1e-10), so f cannot confirm it; the gradient can
    a = np.diag([1e6, 1.0])
    b = np.array([1.0, 1.0])
    x_opt = np.linalg.solve(a, b)
    res = op.trust_region_maximize(
        lambda x: (1e6 - 0.5 * x @ a @ x + b @ x, b - a @ x, -a),
        x_opt + np.array([1e-12, 0.0]), op.FitOptions(gradient_tolerance=1e-14))
    assert res.report.converged and res.report.rejections == 0
    assert np.allclose(res.x, x_opt, rtol=0.0, atol=1e-15)


def test_ridge_repair_smallest_multiple():
    mat = np.diag([1.0, -2.0])  # needs tau slightly above 2
    tau, _ = op._smallest_pd_ridge(mat)
    assert tau > 2.0
    assert tau < 2.2


# --------------------------------------------------------------------------
# probit toy: independent Newton oracle
# --------------------------------------------------------------------------

def independent_probit_newton(z, d, iters=50):
    from scipy.stats import norm
    beta = np.zeros(z.shape[1])
    for _ in range(iters):
        eta = z @ beta
        pdf, cdf = norm.pdf(eta), norm.cdf(eta)
        cdf = np.clip(cdf, 1e-12, 1 - 1e-12)
        w = d * pdf / cdf - (1 - d) * pdf / (1 - cdf)
        grad = z.T @ w
        lam_i = np.where(d == 1, -(eta * pdf / cdf + (pdf / cdf) ** 2),
                         eta * pdf / (1 - cdf) - (pdf / (1 - cdf)) ** 2)
        hess = z.T @ (lam_i[:, None] * z)
        step = np.linalg.solve(hess, grad)
        beta = beta - step
        if np.abs(step).max() < 1e-12:
            break
    return beta


def test_probit_fit_matches_independent_newton():
    bundle, _ = small_bundle(seed=2)
    fit = op.fit_selection_only(bundle)
    assert fit.convergence.converged
    assert fit.convergence.iterations <= 25
    beta_ref = independent_probit_newton(bundle.Z, bundle.data.treatment)
    assert np.abs(fit.delta - beta_ref).max() < 1e-6


def test_intercept_only_probit_init_matches_closed_form():
    config = study_config(n=600)
    data = sim.generate(config, seed=3)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=5), dz.Term("treatment")],
        selection_terms=[])
    bundle = dz.assemble(spec, data)
    delta0 = op.initial_values(bundle)
    beta2 = delta0[bundle.layout.eq2]
    from endosurv import numerics as nm
    want = nm.norm_quantile(data.treatment.mean())
    assert beta2[0] == pytest.approx(float(want), abs=1e-6)


def test_initial_values_rho_zero_and_ramp():
    bundle, _ = small_bundle(seed=4)
    delta0 = op.initial_values(bundle)
    lay = bundle.layout
    assert delta0[lay.rho_index] == 0.0
    assert np.all(np.isfinite(delta0))
    assert np.isfinite(lk.loglik(bundle, delta0))


# --------------------------------------------------------------------------
# full fits
# --------------------------------------------------------------------------

def test_fit_converges_and_reports():
    bundle, config = small_bundle(seed=5)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    assert fit.convergence.final_grad_norm <= 1e-7 * (1 + abs(fit.penalized))
    assert np.array_equal(fit.penalized_hessian, fit.hess - fit.s_lam)
    # negated penalized Hessian admits a Cholesky factorization at the optimum
    np.linalg.cholesky(-fit.penalized_hessian)


def test_fit_deterministic():
    bundle, _ = small_bundle(seed=6)
    f1 = op.fit(bundle)
    f2 = op.fit(bundle)
    assert np.array_equal(f1.delta, f2.delta)
    assert np.array_equal(f1.lam, f2.lam)


def test_lambda_search_evaluates_each_incumbent_once(monkeypatch):
    bundle, _ = small_bundle(seed=5)
    psi = bundle.layout.psi
    starts, points = [], []
    real_tr, real_eval = op.trust_region_maximize, lk.evaluate

    def recorded_tr(fun, x0, options, start=None):
        if np.size(x0) == psi:  # the joint view's inner fits
            starts.append(np.asarray(x0, dtype=float).tobytes())
        return real_tr(fun, x0, options, start)

    def recorded_eval(bundle, delta, order=2):
        if order == 2:
            points.append(np.asarray(delta, dtype=float).tobytes())
        return real_eval(bundle, delta, order)

    monkeypatch.setattr(op, "trust_region_maximize", recorded_tr)
    monkeypatch.setattr(lk, "evaluate", recorded_eval)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    # golden-section probes share incumbents
    assert len(starts) > 2 * len(set(starts))
    # the first incumbent is the start only; later ones are also the
    # accepted trial point that made them an inner optimum
    assert points.count(starts[0]) == 1
    assert max(points.count(s) for s in set(starts)) <= 2


def test_row_permutation_invariance():
    config = study_config(n=300)
    data = sim.generate(config, seed=7)
    rng = np.random.default_rng(8)
    perm = rng.permutation(data.n)
    data_p = dz.DataSet(time=data.time[perm], status=data.status[perm],
                        treatment=data.treatment[perm],
                        covariates={k: v[perm] for k, v in data.covariates.items()})
    fit1 = op.fit(dz.assemble(sim.model_spec(config), data))
    fit2 = op.fit(dz.assemble(sim.model_spec(config), data_p))
    assert np.abs(fit1.delta - fit2.delta).max() < 1e-8


def test_iteration_cap_flags_nonconvergence():
    bundle, _ = small_bundle(seed=9)
    fit = op.fit(bundle, op.FitOptions(max_tr_iters=2, lambda_fixed=[1.0]))
    assert not fit.convergence.converged


def test_lambda_fixed_wrong_length_rejected():
    bundle, _ = small_bundle(seed=10)
    with pytest.raises(ConfigurationError):
        op.fit(bundle, op.FitOptions(lambda_fixed=[1.0, 2.0, 3.0]))


def test_forced_huge_lambda_pins_monotone_block():
    bundle, _ = small_bundle(seed=11)
    fit = op.fit(bundle, op.FitOptions(lambda_fixed=[1e8]))
    assert fit.convergence.converged
    ed = inference.edf(fit)
    blk = next(b for b in fit.blocks if b.kind == "monotone")
    null_dim = (blk.sl.stop - blk.sl.start) - blk.penalty_rank
    assert ed.per_term[(blk.eq, blk.name)] <= 1.05 * null_dim


def test_smoothing_grid_selection_matches_brute_force():
    bundle, _ = small_bundle(seed=12, n=300)
    grid = [10.0 ** k for k in range(-3, 4)]
    lam_hat = op.select_smoothing(bundle, kind="outcome", grid=grid)
    crits = [op.smoothing_criterion(bundle, [g], kind="outcome") for g in grid]
    assert lam_hat[0] == grid[int(np.argmin(crits))]


def test_integrated_search_not_worse_than_grid():
    bundle, _ = small_bundle(seed=13, n=300)
    fit = op.fit_view(bundle, "outcome")
    crit_fit = op.smoothing_criterion(bundle, fit.lam, kind="outcome")
    grid_crits = [op.smoothing_criterion(bundle, [10.0 ** k], kind="outcome")
                  for k in range(-3, 4)]
    assert crit_fit <= min(grid_crits) + 0.5


def test_rho_recovery_at_zero_dependence():
    # data simulated at rho = 0: mean of rho_star_hat within 2 MC s.e. of 0
    config = study_config(n=500, beta_1u=0.0, beta_2u=0.0)
    draws = []
    for r in range(30):
        data = sim.generate(config, seed=(100, r))
        fit = op.fit(dz.assemble(sim.model_spec(config), data))
        if fit.convergence.converged:
            draws.append(fit.delta[-1])
    draws = np.array(draws)
    assert len(draws) >= 28
    mc_se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean()) <= 2.0 * mc_se + 1e-3


def test_noise_smooth_gets_small_edf():
    # a pure-noise smooth keeps edf <= 2 in at least 90% of replicates
    hits = 0
    reps = 10
    for r in range(reps):
        rng = np.random.default_rng((200, r))
        config = study_config(n=500)
        data = sim.generate(config, seed=(201, r))
        data.covariates["noise"] = rng.normal(size=data.n)
        spec = dz.ModelSpec(
            outcome_terms=[dz.Term("monotone", J=6),
                           dz.Term("linear", column="x"),
                           dz.Term("smooth", column="noise", J=8),
                           dz.Term("treatment")],
            selection_terms=[dz.Term("linear", column="x"),
                             dz.Term("linear", column="w")])
        bundle = dz.assemble(spec, data)
        fit = op.fit_view(bundle, "outcome")
        ed = inference.edf(fit)
        if ed.per_term[(1, "s(noise)")] <= 2.0:
            hits += 1
    assert hits >= 0.9 * reps


def test_strong_nonlinear_signal_gets_large_edf():
    rng = np.random.default_rng(77)
    n = 500
    x = rng.uniform(-1.5, 1.5, size=n)
    signal = 1.2 * (x ** 3 - x)
    t_event = np.exp(0.3 + signal + rng.normal(size=n))
    c = rng.uniform(0, 10, size=n)
    data = dz.DataSet(time=np.minimum(t_event, c), status=(t_event <= c).astype(int),
                      treatment=rng.integers(0, 2, size=n),
                      covariates={"x": x, "w": rng.integers(0, 2, n).astype(float)})
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=6), dz.Term("smooth", column="x", J=10),
                       dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="w")])
    fit = op.fit_view(dz.assemble(spec, data), "outcome")
    ed = inference.edf(fit)
    assert ed.per_term[(1, "s(x)")] >= 3.0
