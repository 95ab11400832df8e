import math

import numpy as np
import pytest
from scipy.linalg import cho_solve

from endosurv import design as dz
from endosurv import inference
from endosurv import likelihood as lk
from endosurv import optimizer as op
from endosurv import simulate as sim
from endosurv.errors import ConfigurationError

import oracles


def study_config(**kw):
    base = dict(n=400, beta_d=0.6, instrument_coef=2.0, monotone_J=6)
    base.update(kw)
    return sim.DgpConfig(**base)


def small_bundle(seed=0, n=400, **kw):
    config = study_config(n=n, **kw)
    data = sim.generate(config, seed=seed)
    return dz.assemble(sim.model_spec(config), data), config


def cli_bundle(n, seed, monotone_j=10, smooth_j=10):
    """cli-fit-20k's data generator and model (three lambdas) at size n."""
    from endosurv import cli
    spec = cli.build_model_spec(cli.RunConfig(
        data="", time="time", status="status", treatment="treatment",
        outcome_terms=[f"monotone J={monotone_j}", f"smooth:x J={smooth_j}",
                       "treatment"],
        selection_terms=["linear:x", "ridge:w"]))
    data = sim.generate(sim.DgpConfig(n=n, transform="spline",
                                      censor_max=14.0), seed=seed)
    return dz.assemble(spec, data)


# --------------------------------------------------------------------------
# trust-region core
# --------------------------------------------------------------------------

def test_trust_region_on_negative_quadratic():
    a = np.diag([1.0, 4.0, 0.25])
    b = np.array([1.0, -2.0, 0.5])

    res = op.trust_region_maximize(
        lambda x: (-0.5 * x @ a @ x + b @ x, b - a @ x, -a), np.zeros(3))
    assert res.report.converged
    assert np.allclose(res.x, np.linalg.solve(a, b), atol=1e-8)
    assert np.array_equal(res.hess, -a)


def test_trust_region_accepted_values_monotone(monkeypatch):
    bundle, _ = small_bundle(seed=1)
    view = op.ObjectiveView(bundle, "joint")
    fun = view.penalized(np.ones(view.n_lambda))
    x0 = op.initial_values(bundle)
    full = op.trust_region_maximize(fun, x0)
    assert full.report.converged
    # the iterate after k accepted steps is the result capped at k iterations
    accepted = []
    for k in range(1, full.report.iterations + 1):
        monkeypatch.setattr(op, "MAX_TR_ITERS", k)
        accepted.append(op.trust_region_maximize(fun, x0).value)
    diffs = np.diff(np.array([fun(x0)[0]] + accepted))
    assert np.all(diffs >= -1e-10)
    assert accepted[-1] == full.value


def test_trust_region_rejects_invalid_points(monkeypatch):
    # objective is NaN outside the unit ball; the understated curvature makes
    # the first Newton trial land there, which must shrink the radius, not die
    def fun(x):
        r2 = float(x @ x)
        value = (float("nan") if r2 > 1.0
                 else -((x[0] - 0.9) ** 2) - x[1] ** 2)
        return (value, np.array([-2 * (x[0] - 0.9), -2 * x[1]]),
                -0.25 * np.eye(2))

    monkeypatch.setattr(op, "INITIAL_TRUST_RADIUS", 20.0)
    res = op.trust_region_maximize(fun, np.zeros(2))
    assert res.report.converged
    assert np.allclose(res.x, [0.9, 0.0], atol=1e-5)
    assert res.report.rejections > 0


def test_trust_region_keeps_step_below_rounding_of_f(monkeypatch):
    # next to this optimum the last Newton step gains 5e-19, far below the
    # rounding of f (about 1e-10), so f cannot confirm it; the gradient can
    a = np.diag([1e6, 1.0])
    b = np.array([1.0, 1.0])
    x_opt = np.linalg.solve(a, b)
    monkeypatch.setattr(op, "GRADIENT_TOLERANCE", 1e-14)
    res = op.trust_region_maximize(
        lambda x: (1e6 - 0.5 * x @ a @ x + b @ x, b - a @ x, -a),
        x_opt + np.array([1e-12, 0.0]))
    assert res.report.converged and res.report.rejections == 0
    assert np.allclose(res.x, x_opt, rtol=0.0, atol=1e-15)


def test_ridge_repair_smallest_multiple(monkeypatch):
    mat = np.diag([1.0, -2.0])  # needs tau slightly above 2
    calls = []
    real = op.cho_factor

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(op, "cho_factor", counted)
    tau, factor = op._smallest_pd_ridge(mat)
    assert tau > 2.0
    assert tau < 2.2
    # 1 plain try, 10 powers of ten, 8 bisection steps; the factor at tau is
    # the last successful one, not a refactorization
    assert len(calls) == 19
    assert np.allclose(cho_solve(factor, mat + tau * np.eye(2)), np.eye(2))


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
    assert np.isfinite(lk.evaluate(bundle, delta0, 0)[0])


@pytest.mark.parametrize("J", [4, 5, 6, 10, 20])
def test_starts_are_valid_without_a_check(J):
    # the argument in _start's docstring: if this fails, the knots are no
    # longer uniform and the starting points need another look
    bundle, _ = small_bundle(seed=J, n=300, monotone_J=J)
    spacing = np.diff(bundle.mono_knots)
    assert np.allclose(spacing, spacing[0], rtol=1e-12)
    slope = bundle.Xt @ np.ones(bundle.Xt.shape[1])
    assert np.allclose(slope, 1.0 / spacing[0], rtol=1e-10)
    ramp = op._ramp_start(op.ObjectiveView(bundle, "outcome"))
    assert np.isfinite(lk.evaluate_outcome(bundle, ramp, 0)[0])
    assert np.isfinite(lk.evaluate(bundle, op.initial_values(bundle), 0)[0])


def test_views_call_their_kernel_through_the_likelihood_module(monkeypatch):
    # a profiler that swaps likelihood module attributes (perfbench's tracer)
    # sees every view's evaluation, also for views built before the swap
    bundle, _ = small_bundle(seed=4, n=200)
    lay = bundle.layout
    views = {kind: op.ObjectiveView(bundle, kind)
             for kind in ("joint", "outcome", "selection")}
    calls = []
    for name in ("evaluate", "evaluate_outcome", "evaluate_selection"):
        def counted(*args, _name=name, _real=getattr(lk, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(lk, name, counted)
    x = op.initial_values(bundle)
    calls.clear()
    for kind, sl, name in (("joint", slice(None), "evaluate"),
                           ("outcome", lay.eq1, "evaluate_outcome"),
                           ("selection", lay.eq2, "evaluate_selection")):
        for order in (0, 1, 2):
            assert np.isfinite(views[kind].evaluate(x[sl], order)[0])
        assert calls == [name] * 3
        calls.clear()


# --------------------------------------------------------------------------
# full fits
# --------------------------------------------------------------------------

def test_fit_converges_and_reports():
    bundle, config = small_bundle(seed=5)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    penalized = fit.loglik - op.ObjectiveView(bundle, "joint").penalty(
        fit.lam, fit.delta)
    assert fit.convergence.final_grad_norm <= 1e-7 * (1 + abs(penalized))
    # negated penalized Hessian admits a Cholesky factorization at the optimum
    np.linalg.cholesky(fit.neg_hp)


def test_fit_deterministic():
    bundle, _ = small_bundle(seed=6)
    f1 = op.fit(bundle)
    f2 = op.fit(bundle)
    assert np.array_equal(f1.delta, f2.delta)
    assert np.array_equal(f1.lam, f2.lam)


def test_lambda_search_evaluates_each_incumbent_once(monkeypatch):
    bundle, _ = small_bundle(seed=5)
    starts, optima, crits, points = [], [], [], []
    real_fit, real_crit, real_eval = op._fit_at_lambda, op._criterion, lk.evaluate

    def recorded_fit(view, lam, x0, at_x0=None):
        res = real_fit(view, lam, x0, at_x0)
        if view.kind == "joint":  # inner fits start in model coordinates
            starts.append(np.asarray(x0, dtype=float).tobytes())
            optima.append(res.x.tobytes())
        return res

    def recorded_crit(view, lam, res):
        out = real_crit(view, lam, res)
        crits.append(out[0])
        return out

    def recorded_eval(bundle, delta, order=2):
        if order == 2:
            points.append(np.asarray(delta, dtype=float).tobytes())
        return real_eval(bundle, delta, order)

    monkeypatch.setattr(op, "_fit_at_lambda", recorded_fit)
    monkeypatch.setattr(op, "_criterion", recorded_crit)
    monkeypatch.setattr(lk, "evaluate", recorded_eval)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    assert len(starts) == len(crits) > 2
    # each inner fit after the first starts at the incumbent: the optimum
    # of the lowest-AIC inner fit so far
    for i in range(1, len(starts)):
        assert starts[i] == optima[int(np.argmin(crits[:i]))]
    # an optimum is evaluated once, as the trial point that reached it; the
    # inner fits starting there reuse that evaluation
    assert all(points.count(x) == 1 for x in set(optima) | {starts[0]})


def test_one_lambda_search_is_one_slope_run(monkeypatch):
    # the start at lambda = 1 and the working model's prediction, then one
    # run: secant steps on the AIC slope until it is flat, then the upper
    # bound; no second run, no final refit
    bundle, _ = small_bundle(seed=12, n=300)
    view = op.ObjectiveView(bundle, "outcome")
    results = []
    real = op._fit_at_lambda

    def recorded(view, lam, x0, at_x0=None):
        results.append((np.array(lam), real(view, lam, x0, at_x0)))
        return results[-1][1]

    monkeypatch.setattr(op, "_fit_at_lambda", recorded)
    fit = op.fit_outcome_only(bundle)
    assert fit.convergence.converged
    probes = [op._Probe(lam, res, *op._criterion(view, lam, res))
              for lam, res in results]
    assert probes[0].lam[0] == 1.0
    assert probes[-1].lam[0] == 10.0 ** op.LAMBDA_LOG10_BOUNDS[1]
    assert len(probes) <= 10
    # the fit is the lowest-AIC probe's inner optimum, not a refit of it,
    # and the AIC is flat there
    best = min(probes, key=lambda p: p.crit)
    assert np.array_equal(best.lam, fit.lam)
    assert np.array_equal(best.res.x, fit.delta)
    # the reported -H_p, edf and AIC are the ones the search minimised
    assert np.array_equal(fit.neg_hp, -best.res.hess)
    assert np.array_equal(fit.edf, np.diag(best.fmat))
    assert inference.summary(fit).aic == pytest.approx(best.crit, rel=1e-12)
    assert abs(op._aic_slope(view, best, 0)) <= op.AIC_SLOPE_TOL
    assert fit.convergence.iterations == sum(
        res.report.iterations for _, res in results)

    # a fixed-lambda fit reports the AIC of its one inner fit
    lam = np.array([10.0])
    results.clear()
    fixed = op.fit_outcome_only(bundle, op.FitOptions(lambda_fixed=lam))
    (_, res), = results
    crit = op._criterion(view, lam, res)[0]
    assert inference.summary(fixed).aic == pytest.approx(crit, rel=1e-12)


def test_lambda_search_stops_once_every_coordinate_settled(monkeypatch):
    bundle = cli_bundle(300, 0, monotone_j=6, smooth_j=8)
    runs, evaluations, predicted = [], [], {}
    real_run, real_eval = op._search_coordinate, lk.evaluate
    real_predict = op._predicted_log_lambda

    def recorded_eval(*args, **kw):
        evaluations.append(1)
        return real_eval(*args, **kw)

    def recorded_predict(view, probe):
        # keyed by the number of runs made before the prediction
        t = real_predict(view, probe)
        predicted[len(runs)] = t.copy()
        return t

    def recorded_run(probe, slope, v, best, curv):
        probes, before = [], len(evaluations)

        def counted_probe(t, start):
            probes.append(t)
            return probe(t, start)

        out = real_run(counted_probe, slope, v, best, curv)
        runs.append((v, best.lam, out[0], len(probes),
                     len(evaluations) - before, out[1].crit <= best.crit))
        return out

    monkeypatch.setattr(op, "_search_coordinate", recorded_run)
    monkeypatch.setattr(op, "_predicted_log_lambda", recorded_predict)
    monkeypatch.setattr(lk, "evaluate", recorded_eval)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    n = op.ObjectiveView(bundle, "joint").n_lambda
    assert n == 3

    def kept(i):
        # the prediction made before run i moved the search there
        return (i in predicted and i < len(runs)
                and np.array_equal(runs[i][1], 10.0 ** predicted[i]))

    # replay the stop rule from the predicted lambda: a run moves its
    # coordinate when its value changes by >= 0.1 decades; n runs in a row,
    # the moving one included, settle the search, which then predicts again
    # and ends unless that prediction is kept
    assert kept(0)
    log_lam, settled, moved = np.zeros(n), 0, []
    for i, (start, lam, val, n_probes, n_evals, no_worse) in enumerate(runs):
        if kept(i):
            log_lam, settled = predicted[i].copy(), 0
        k = i % n
        assert np.array_equal(lam, 10.0 ** log_lam)
        assert start == log_lam[k] and no_worse
        # a run from a flat slope makes no probe and costs one evaluation
        if n_probes == 0:
            assert val == start and n_evals == 1
        moved.append(abs(val - start) >= 0.1)
        log_lam[k] = val
        settled = 1 if moved[-1] else settled + 1
        assert (i + 1 in predicted) == (settled >= n)
        assert (settled >= n and not kept(i + 1)) == (i == len(runs) - 1)
    assert not any(moved[-(n - 1):]) and any(moved)
    assert any(r[3] == 0 for r in runs)
    assert np.array_equal(fit.lam, 10.0 ** log_lam)


def test_joint_and_outcome_fits_share_the_outcome_start(monkeypatch):
    # initial_values' outcome fit at lambda = 1 is also the outcome search's
    # first inner fit: on one bundle it runs once, with the same results
    config = study_config(n=300)
    data = sim.generate(config, seed=7)
    bundle = dz.assemble(sim.model_spec(config), data)
    starts = []
    real = op._fit_at_lambda

    def recorded(view, lam, x0, at_x0=None):
        if view.kind == "outcome" and np.all(np.asarray(lam) == 1.0):
            starts.append(1)
        return real(view, lam, x0, at_x0)

    monkeypatch.setattr(op, "_fit_at_lambda", recorded)
    assert op.fit(bundle).convergence.converged
    ufit = op.fit_outcome_only(bundle)
    assert len(starts) == 1
    alone = op.fit_outcome_only(dz.assemble(sim.model_spec(config), data))
    assert len(starts) == 2
    assert np.array_equal(alone.delta, ufit.delta)
    assert np.array_equal(alone.lam, ufit.lam)
    assert alone.convergence == ufit.convergence


@pytest.mark.parametrize("kind", ["joint", "outcome"])
def test_aic_slope_matches_central_differences(monkeypatch, kind):
    # inner fits converged far below the search's tolerance, so the AIC's
    # central differences are exact to about 1e-5 here
    monkeypatch.setattr(op, "GRADIENT_TOLERANCE", 1e-11)
    bundle, _ = small_bundle(seed=5)
    view = op.ObjectiveView(bundle, kind)
    x0 = op._start(view)
    h = 0.003
    for log_lam in (-2.0, 0.0, 1.5):
        lam = np.array([10.0 ** log_lam])
        res = op._fit_at_lambda(view, lam, x0)
        probe = op._Probe(lam, res, *op._criterion(view, lam, res))
        up, down = (oracles.aic(view, np.array([10.0 ** (log_lam + d)]), res.x)[0]
                    for d in (h, -h))
        assert op._aic_slope(view, probe, 0) == pytest.approx(
            (up - down) / (2.0 * h), rel=1e-3)


def test_working_model_slope_matches_central_differences():
    # M(lambda) is the working model's AIC around the lambda = 1 optimum:
    # there it is the exact AIC, and its slopes are _slope's with dH = 0
    bundle = cli_bundle(300, 0, monotone_j=6, smooth_j=8)
    view = op.ObjectiveView(bundle, "joint")
    lam = np.ones(view.n_lambda)
    res = op._fit_at_lambda(view, lam, op._start(view))
    probe = op._Probe(lam, res, *op._criterion(view, lam, res))
    model = op._working_aic(view, probe)
    assert model(np.zeros(3))[0] == pytest.approx(probe.crit, rel=1e-9)
    h = 1e-4
    for v in ([0.0, 0.0, 0.0], [0.5, 2.0, -1.0], [-0.3, 4.0, 1.0]):
        v = np.array(v)
        slopes = model(v)[1]
        for k, e in enumerate(np.eye(3)):
            central = (model(v + h * e)[0] - model(v - h * e)[0]) / (2.0 * h)
            assert slopes[k] == pytest.approx(central, rel=1e-6)


def test_search_predicts_again_once_settled():
    # dgp(500), data seed 3, the outcome view: the prediction from lambda = 1
    # leads the coordinate runs into a local minimum at AIC 1393.29; the
    # prediction from there finds the lower one (1392.480)
    bundle = cli_bundle(500, 3)
    fit = op.fit_outcome_only(bundle)
    assert fit.convergence.converged
    aic = -2.0 * fit.loglik + 2.0 * float(fit.edf.sum())
    assert aic <= 1392.4801 + 0.002


def test_search_finds_the_null_space_fit_past_a_local_minimum():
    # cli-fit-20k's model at n = 2000, data seed 2: the AIC along the
    # smooth's lambda has a local minimum near 10^0.25 (AIC 7045.99) and
    # its lowest value at the upper bound (7043.66)
    bundle = cli_bundle(2000, 2)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    assert oracles.smoothing_criterion(bundle, fit.lam) <= 7043.66 + 0.5


# --------------------------------------------------------------------------
# the inner fit with the intercept anchored at the median observed time
# --------------------------------------------------------------------------

def test_joint_fit_evaluation_count(monkeypatch):
    # cli-fit-20k's data generator and model at n = 1000, data seed 0: the
    # fit makes 28 joint evaluations, and the bound is that count plus 25 %;
    # a search that loses the working model's prediction makes about 55
    bundle = cli_bundle(1000, 0)
    calls = []
    real = lk.evaluate

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(lk, "evaluate", counted)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    assert len(calls) <= 1.25 * 28


def test_penalty_is_a_sum_of_squares_near_its_null_space():
    # lambda = 1e10 with the monotone block on the penalty's null space (a
    # flat block): x'S x / 2 as a dense product is rounding noise of either
    # sign, about 1e-7 here, far above the trust region's rounding model
    config = sim.DgpConfig(n=500, monotone_J=6)
    bundle = dz.assemble(sim.model_spec(config), sim.generate(config, seed=6))
    view = op.ObjectiveView(bundle, "joint")
    lam = np.array([1e10])
    fit = op.fit(bundle, op.FitOptions(lambda_fixed=lam))
    assert fit.convergence.converged
    x = fit.delta.copy()
    x[bundle.time_slice] = x[bundle.time_slice].mean()
    rng = np.random.default_rng(18)
    for _ in range(50):
        near = x * (1.0 + 1e-15 * rng.standard_normal(x.size))
        value = view.penalty(lam, near)
        assert 0.0 <= value < 1e-12
        f, _, _ = view.penalized(lam)(near)
        assert f == view.evaluate(near, 0)[0] - value


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


def test_iteration_cap_flags_nonconvergence(monkeypatch):
    bundle, _ = small_bundle(seed=9)
    iterations = oracles.capped_tr_iterations(monkeypatch, 2)
    fit = op.fit(bundle, op.FitOptions(lambda_fixed=[1.0]))
    assert not fit.convergence.converged
    # the cap holds for every trust-region run, initial_values' included
    assert iterations and max(iterations) <= 2


def test_lambda_fixed_wrong_length_rejected():
    bundle, _ = small_bundle(seed=10)
    with pytest.raises(ConfigurationError):
        op.fit(bundle, op.FitOptions(lambda_fixed=[1.0, 2.0, 3.0]))


def test_data_without_events_rejected_before_fitting():
    # eta1 -> -inf raises the likelihood without bound; the outcome fit used
    # to report convergence with loglik -8.8e-9
    config = study_config(n=300)
    data = sim.generate(config, seed=10)
    data.status[:] = 0
    bundle = dz.assemble(sim.model_spec(config), data)
    for kind in ("joint", "outcome"):
        with pytest.raises(ConfigurationError, match="no row has an event"):
            op.fit_view(bundle, kind)
    assert op.fit_selection_only(bundle).convergence.converged


def test_two_distinct_times_rejected_before_fitting(monkeypatch):
    # the monotone transform is not identified; the fit used to run to the
    # end and fail only in the covariance's residual check
    config = study_config(n=300)
    data = sim.generate(config, seed=10)
    data.time = np.where(data.time < np.median(data.time), 1.0, 2.0)
    bundle = dz.assemble(sim.model_spec(config), data)
    monkeypatch.setattr(op, "_fit_at_lambda", None)   # no inner fit may run
    for kind in ("joint", "outcome"):
        with pytest.raises(ConfigurationError, match="2 distinct value"):
            op.fit_view(bundle, kind)


@pytest.mark.parametrize("lam", [[-5.0], [float("nan")], [float("inf")],
                                 ["abc"], [[1.0, 1.0]], [True]])
def test_lambda_fixed_out_of_range_rejected(lam):
    # before the fit: a negative lambda used to run to the iteration cap, a
    # nested list to end in a broadcast error and True to be read as 1
    with pytest.raises(ConfigurationError, match="lambda_fixed"):
        op.FitOptions(lambda_fixed=lam).validate()


def test_forced_huge_lambda_pins_monotone_block():
    bundle, _ = small_bundle(seed=11)
    fit = op.fit(bundle, op.FitOptions(lambda_fixed=[1e8]))
    assert fit.convergence.converged
    blk = next(b for b in fit.blocks if b.kind == "monotone")
    null_dim = (blk.sl.stop - blk.sl.start) - blk.penalty_rank
    assert fit.edf[blk.sl].sum() <= 1.05 * null_dim


def test_integrated_search_not_worse_than_grid():
    bundle, _ = small_bundle(seed=13, n=300)
    fit = op.fit_view(bundle, "outcome")
    crit_fit = oracles.smoothing_criterion(bundle, fit.lam, kind="outcome")
    grid_crits = [oracles.smoothing_criterion(bundle, [10.0 ** k], kind="outcome")
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
        blk = next(b for b in fit.blocks if b.name == "s(noise)")
        if fit.edf[blk.sl].sum() <= 2.0:
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
    blk = next(b for b in fit.blocks if b.name == "s(x)")
    assert fit.edf[blk.sl].sum() >= 3.0
