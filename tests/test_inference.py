import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from scipy import special

from endosurv import design as dz
from endosurv import inference as inf
from endosurv import numerics as nm
from endosurv import optimizer as op
from endosurv import simulate as sim
from endosurv.errors import ConfigurationError, InferenceError


def fitted(seed=0, n=400, joint=True, **kw):
    config = sim.DgpConfig(n=n, beta_d=0.6, monotone_J=6, **kw)
    data = sim.generate(config, seed=seed)
    bundle = dz.assemble(sim.model_spec(config), data)
    fit = op.fit(bundle) if joint else op.fit_view(bundle, "outcome")
    assert fit.convergence.converged
    return fit, config


# --------------------------------------------------------------------------
# covariance
# --------------------------------------------------------------------------

def test_covariance_one_parameter_toy():
    config = sim.DgpConfig(n=300, monotone_J=6)
    data = sim.generate(config, seed=1)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=5), dz.Term("treatment")],
        selection_terms=[])
    bundle = dz.assemble(spec, data)
    fit = op.fit_view(bundle, "selection")  # intercept-only probit
    post = inf.covariance(fit)
    assert post.cov.shape == (1, 1)
    assert post.cov[0, 0] == pytest.approx(-1.0 / fit.hess[0, 0], rel=1e-10)


def test_covariance_solves_to_residual():
    fit, _ = fitted(seed=2)
    post = inf.covariance(fit)
    resid = (-fit.penalized_hessian) @ post.cov - np.eye(fit.psi)
    assert np.abs(resid).max() <= 1e-8
    assert np.all(np.diag(post.cov) >= 0.0)


def test_covariance_tilde_rows_equal_for_unpenalized():
    fit, _ = fitted(seed=3)
    post = inf.covariance(fit)
    free = ~fit.exp_mask
    assert np.allclose(post.cov_tilde[np.ix_(free, free)],
                       post.cov[np.ix_(free, free)])
    e = post.e_vector
    assert np.all(e[free] == 1.0)
    assert np.all(e[fit.exp_mask] > 0.0)


def test_covariance_requires_convergence():
    config = sim.DgpConfig(n=300, monotone_J=6)
    data = sim.generate(config, seed=4)
    bundle = dz.assemble(sim.model_spec(config), data)
    fit = op.fit(bundle, op.FitOptions(max_tr_iters=2, lambda_fixed=[1.0]))
    with pytest.raises(InferenceError):
        inf.covariance(fit)


def test_probit_standard_errors_match_irls_oracle():
    # independent oracle: IRLS probit coded here from scratch
    from scipy.stats import norm

    config = sim.DgpConfig(n=500, monotone_J=6)
    data = sim.generate(config, seed=5)
    bundle = dz.assemble(sim.model_spec(config), data)
    fit = op.fit_view(bundle, "selection")
    post = inf.covariance(fit)

    z, d = bundle.Z, bundle.data.treatment.astype(float)
    beta = np.zeros(z.shape[1])
    for _ in range(200):
        eta = z @ beta
        mu = np.clip(norm.cdf(eta), 1e-10, 1 - 1e-10)
        phi = norm.pdf(eta)
        w = phi ** 2 / (mu * (1 - mu))
        resid = (d - mu) / phi * (mu * (1 - mu)) / (mu * (1 - mu))
        zwork = eta + (d - mu) / phi
        beta_new = np.linalg.solve(z.T @ (w[:, None] * z), z.T @ (w * zwork))
        if np.abs(beta_new - beta).max() < 1e-13:
            beta = beta_new
            break
        beta = beta_new
    # observed-information covariance at the IRLS solution
    eta = z @ beta
    mu = np.clip(norm.cdf(eta), 1e-10, 1 - 1e-10)
    phi = norm.pdf(eta)
    lam_i = np.where(d == 1, -(eta * phi / mu + (phi / mu) ** 2),
                     eta * phi / (1 - mu) - (phi / (1 - mu)) ** 2)
    cov_obs = np.linalg.inv(-z.T @ (lam_i[:, None] * z))
    assert np.abs(fit.delta - beta).max() < 1e-8
    assert np.abs(np.sqrt(np.diag(post.cov)) - np.sqrt(np.diag(cov_obs))).max() < 1e-4


# --------------------------------------------------------------------------
# effective degrees of freedom
# --------------------------------------------------------------------------

def test_edf_limits_lambda_zero_and_huge():
    config = sim.DgpConfig(n=500, monotone_J=6)
    data = sim.generate(config, seed=6)
    bundle = dz.assemble(sim.model_spec(config), data)

    fit0 = op.fit(bundle, op.FitOptions(lambda_fixed=[0.0]))
    ed0 = inf.edf(fit0)
    assert ed0.total == pytest.approx(bundle.layout.psi, abs=1e-8)

    fit_inf = op.fit(bundle, op.FitOptions(lambda_fixed=[1e10]))
    ed_inf = inf.edf(fit_inf)
    assert ed_inf.total == pytest.approx(bundle.layout.psi - fit_inf.zeta, abs=0.01)


def test_edf_trace_identity():
    fit, _ = fitted(seed=7)
    ed = inf.edf(fit)
    from scipy.linalg import cho_factor, cho_solve
    factor = cho_factor(-fit.penalized_hessian, lower=True)
    alt = fit.psi - float(np.trace(cho_solve(factor, fit.s_lam)))
    assert ed.total == pytest.approx(alt, abs=1e-8)
    assert fit.psi - fit.zeta - 1e-8 <= ed.total <= fit.psi + 1e-8


def test_edf_per_term_sums_to_total():
    fit, _ = fitted(seed=8)
    ed = inf.edf(fit)
    # term sums plus rho_star's own trace element account for the total
    assert sum(ed.per_term.values()) + ed.per_coef[-1] == pytest.approx(
        ed.total, abs=1e-10)
    covered = sum(b.sl.stop - b.sl.start for b in fit.blocks)
    assert covered == fit.psi - 1


# --------------------------------------------------------------------------
# summaries
# --------------------------------------------------------------------------

def test_summary_rows_and_pvalues():
    fit, _ = fitted(seed=9)
    s = inf.summary(fit)
    names = {(r.equation, r.name) for r in s.rows}
    assert (1, "intercept") in names and (2, "intercept") in names
    assert (1, "treatment") in names
    for r in s.rows:
        if r.kind == "parametric":
            assert 0.0 <= r.p_value <= 1.0
            assert r.std_error > 0.0
        else:
            assert r.edf >= 0.9
            assert 0.0 <= r.p_value <= 1.0
    assert s.rho is not None


def test_summary_zero_coefficient_p_one():
    fit, _ = fitted(seed=10)
    blk = next(b for b in fit.blocks if b.name == "treatment")
    delta = fit.delta.copy()
    delta[blk.sl.start] = 0.0
    fit0 = dataclasses.replace(fit, delta=delta)
    s = inf.summary(fit0)
    row = next(r for r in s.rows if r.name == "treatment")
    assert row.p_value == 1.0


def test_rho_interval_tanh_mapping():
    fit, _ = fitted(seed=11)
    post = inf.covariance(fit)
    rs = fit.delta[-1]
    se = math.sqrt(post.cov[-1, -1])
    rho, lo, hi = inf.rho_interval(fit, 0.05)
    z = 1.959963984540054
    assert rho == pytest.approx(math.tanh(rs), abs=1e-12)
    assert lo == pytest.approx(math.tanh(rs - z * se), rel=1e-6)
    assert hi == pytest.approx(math.tanh(rs + z * se), rel=1e-6)
    assert -1.0 < lo < hi < 1.0


def test_rho_interval_symmetric_at_zero_and_bounded():
    fit, _ = fitted(seed=12)
    delta = fit.delta.copy()
    delta[-1] = 0.0
    fit0 = dataclasses.replace(fit, delta=delta)
    rho, lo, hi = inf.rho_interval(fit0)
    assert rho == 0.0
    assert lo == pytest.approx(-hi, abs=1e-12)
    # deflate the curvature: the interval approaches but never exits [-1, 1]
    fit_wide = dataclasses.replace(fit0, hess=fit0.hess * 1e-2,
                                   s_lam=fit0.s_lam * 1e-2)
    _, lo_w, hi_w = inf.rho_interval(fit_wide)
    assert -1.0 <= lo_w < -0.99
    assert 0.99 < hi_w <= 1.0
    fit_flat = dataclasses.replace(fit0, hess=fit0.hess * 1e-9,
                                   s_lam=fit0.s_lam * 1e-9)
    _, lo_f, hi_f = inf.rho_interval(fit_flat)
    assert -1.0 <= lo_f and hi_f <= 1.0


def test_rho_interval_needs_joint_fit():
    fit, _ = fitted(seed=13, joint=False)
    with pytest.raises(InferenceError):
        inf.rho_interval(fit)


# --------------------------------------------------------------------------
# SATE and survival curves
# --------------------------------------------------------------------------

def test_sate_zero_when_treatment_coefficient_zero():
    fit, _ = fitted(seed=14)
    blk = next(b for b in fit.blocks if b.name == "treatment")
    delta = fit.delta.copy()
    delta[blk.sl.start] = 0.0
    fit0 = dataclasses.replace(fit, delta=delta)
    grid = np.linspace(0.5, 5.0, 7)
    est, _, _ = inf.sate(fit0, grid, draws=0).sate
    assert np.all(est == 0.0)


def test_sate_label_swap_negates_exactly():
    fit, _ = fitted(seed=15)
    grid = np.linspace(0.5, 5.0, 9)
    a = inf.sate(fit, grid, draws=0).sate[0]
    b = inf.sate(fit, grid, draws=0, treated=0, control=1).sate[0]
    assert np.array_equal(a, -b)


def test_sate_seed_reproducibility():
    fit, _ = fitted(seed=16)
    grid = np.linspace(0.5, 5.0, 5)
    c1 = inf.sate(fit, grid, draws=50, seed=42)
    c2 = inf.sate(fit, grid, draws=50, seed=42)
    assert np.array_equal(c1.sate[1], c2.sate[1])
    assert np.array_equal(c1.sate[2], c2.sate[2])
    c3 = inf.sate(fit, grid, draws=50, seed=43)
    assert np.array_equal(c1.sate[0], c3.sate[0])  # point estimate seed-free
    assert not np.array_equal(c1.sate[1], c3.sate[1])


def test_sate_band_contains_point_and_large_draws_stable():
    fit, _ = fitted(seed=17, n=2500, instrument_coef=2.5)
    grid = np.linspace(0.5, 5.0, 5)
    small = inf.sate(fit, grid, draws=100, seed=1)
    big = inf.sate(fit, grid, draws=10_000, seed=2)
    for cs in (small, big):
        est, lo, hi = cs.sate
        assert np.all(lo <= est) and np.all(est <= hi)
    assert np.abs(small.sate[1] - big.sate[1]).max() <= 0.01
    assert np.abs(small.sate[2] - big.sate[2]).max() <= 0.01


def test_sate_rejects_empty_or_outside_grid():
    fit, _ = fitted(seed=18)
    with pytest.raises(InferenceError):
        inf.sate(fit, np.array([]))
    with pytest.raises(InferenceError):
        inf.sate(fit, np.array([1e9]))


def test_survival_curves_monotone_and_ordered():
    fit, _ = fitted(seed=19)
    grid = np.linspace(0.3, 6.0, 40)
    blk = next(b for b in fit.blocks if b.name == "treatment")
    delta = fit.delta.copy()
    delta[blk.sl.start] = abs(delta[blk.sl.start]) + 0.3  # positive coefficient
    fit_pos = dataclasses.replace(fit, delta=delta)
    cs = inf.survival_curves(fit_pos, grid, draws=30, seed=3)
    s1, lo1, hi1 = cs.groups["treated"]
    s0, _, _ = cs.groups["control"]
    assert np.all(np.diff(s1) <= 1e-12)
    assert np.all(np.diff(s0) <= 1e-12)
    # positive coefficients shorten durations: treated curve below control
    assert np.all(s1 <= s0 + 1e-12)
    assert np.all(lo1 <= s1) and np.all(s1 <= hi1)


def test_survival_bands_widen_with_confidence():
    fit, _ = fitted(seed=20)
    grid = np.linspace(0.5, 5.0, 10)
    wide = inf.survival_curves(fit, grid, level=0.01, draws=400, seed=4)
    narrow = inf.survival_curves(fit, grid, level=0.05, draws=400, seed=4)
    for name in ("treated", "control"):
        _, lo_w, hi_w = wide.groups[name]
        _, lo_n, hi_n = narrow.groups[name]
        assert np.all(hi_w - lo_w >= hi_n - lo_n - 1e-12)


def test_survival_boundary_flag_near_zero():
    fit, _ = fitted(seed=21)
    a = fit.bundle.mono_interval[0]
    cs = inf.survival_curves(fit, np.array([a, 1.0, 3.0]), draws=5, seed=5)
    assert "treated" in cs.boundary_flags


def test_group_filters_select_rows():
    fit, _ = fitted(seed=22)
    groups = [inf.GroupDef("w0-treated", d=1, where={"w": 0.0}),
              inf.GroupDef("w0-control", d=0, where={"w": 0.0})]
    cs = inf.survival_curves(fit, np.linspace(0.5, 4.0, 6), groups=groups,
                             draws=10, seed=6)
    assert set(cs.groups) == {"w0-treated", "w0-control"}
    with pytest.raises(InferenceError):
        inf.GroupDef("none", where={"w": 7.0}).rows(fit.bundle)


def record_phi_passes(monkeypatch):
    """Shapes of the posterior's Phi calls, the only 2-D norm_cdf calls.

    A pass split across threads makes one call per block of grid rows.
    """
    shapes = []
    real = nm.norm_cdf

    def recorded(x, out=None):
        if np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return real(x, out=out)

    monkeypatch.setattr(nm, "norm_cdf", recorded)
    return shapes


def reference_mean_survival(fit, grid, d, rows, delta):
    """The per-draw loop: one Phi pass per group, as a fresh array."""
    beta1 = delta[fit.bundle.layout.eq1]
    curve = fit.bundle.time_curve(beta1, grid)
    off = fit.bundle.offsets(beta1, d=d)[rows]
    return special.ndtr(-(curve[:, None] + off[None, :])).mean(axis=1)


def test_curves_share_one_pass_per_arm(monkeypatch):
    fit, _ = fitted(seed=23)
    grid = np.linspace(0.5, 4.0, 7)
    groups = [inf.GroupDef("treated", d=1),
              inf.GroupDef("treated_w1", d=1, where={"w": 1.0}),
              inf.GroupDef("control", d=0)]
    shapes = record_phi_passes(monkeypatch)

    def one_pass_per_arm_and_draw():
        # every Phi call spans all rows, and the d=1 and d=0 arms cost
        # T x n cells each per draw and for the estimate, however split
        assert {cols for _, cols in shapes} == {fit.bundle.n}
        cells = sum(rows * cols for rows, cols in shapes)
        assert cells == 2 * 21 * grid.size * fit.bundle.n

    first = inf.survival_curves(fit, grid, groups=groups, draws=20, seed=8)
    one_pass_per_arm_and_draw()
    # nothing is kept between calls: a repeat does the same work
    shapes.clear()
    second = inf.survival_curves(fit, grid, groups=groups, draws=20, seed=8)
    one_pass_per_arm_and_draw()
    for name in first.groups:
        for a, b in zip(first.groups[name], second.groups[name]):
            assert np.array_equal(a, b)

    # one call for curves and SATE equals separate calls bit for bit
    pair = (inf.GroupDef("t", d=1, where={"w": 1.0}),
            inf.GroupDef("c", d=0, where={"w": 1.0}))
    both = inf.posterior_curves(fit, grid, groups=groups, contrast=pair,
                                draws=20, seed=8)
    alone = inf.sate(fit, grid, draws=20, seed=8, where={"w": 1.0})
    for a, b in zip(both.sate, alone.sate):
        assert np.array_equal(a, b)
    for name in first.groups:
        for a, b in zip(both.groups[name], first.groups[name]):
            assert np.array_equal(a, b)

    # a row subset of a shared pass averages like a pass of its own
    rows = inf.GroupDef("w1", where={"w": 1.0}).rows(fit.bundle)
    est = first.groups["treated_w1"][0]
    assert np.array_equal(est, reference_mean_survival(
        fit, grid, 1, rows, fit.delta))
    sims = inf.survival_curve_draws(fit, grid, d=1, draws=5, seed=8,
                                    where={"w": 1.0})
    for delta, sim_v in zip(inf._posterior_draws(fit, 5, 8), sims):
        assert np.array_equal(sim_v, reference_mean_survival(
            fit, grid, 1, rows, delta))


def test_survival_curves_without_draws_give_point_bands():
    fit, _ = fitted(seed=24)
    grid = np.linspace(0.5, 4.0, 5)
    cs = inf.survival_curves(fit, grid, draws=0)
    for est, lo, hi in cs.groups.values():
        assert np.array_equal(lo, est) and np.array_equal(hi, est)


def test_posterior_curves_reject_negative_draws():
    fit, _ = fitted(seed=24)
    with pytest.raises(ConfigurationError, match="draws"):
        inf.posterior_curves(fit, np.linspace(0.5, 4.0, 3), draws=-3)


# --------------------------------------------------------------------------
# Phi passes split across threads
# --------------------------------------------------------------------------

SPLIT_GROUPS = [inf.GroupDef("treated", d=1),
                inf.GroupDef("treated_w1", d=1, where={"w": 1.0}),
                inf.GroupDef("control", d=0),
                inf.GroupDef("control_w0", d=0, where={"w": 0.0})]
SPLIT_PAIR = (inf.GroupDef("t", d=1, where={"w": 1.0}),
              inf.GroupDef("c", d=0, where={"w": 1.0}))


def split_curves(monkeypatch, fit, grid, workers, draws=15):
    """posterior_curves' outputs with ``workers`` forced, as one list."""
    monkeypatch.setattr(inf, "_worker_count", lambda: workers)
    cs = inf.posterior_curves(fit, grid, groups=SPLIT_GROUPS,
                              contrast=SPLIT_PAIR, draws=draws, seed=4)
    return [*cs.sate, *(a for g in cs.groups.values() for a in g)]


@pytest.mark.parametrize("t_points", [7, 50, 1])
def test_split_pass_equals_single_worker_bitwise(monkeypatch, t_points):
    fit, _ = fitted(seed=25)
    grid = np.linspace(0.5, 4.0, t_points)
    reference = split_curves(monkeypatch, fit, grid, 1)
    threads = []
    real = nm.norm_cdf

    def recorded(x, out=None):
        if np.ndim(x) == 2:
            threads.append(threading.get_ident())
        return real(x, out=out)

    monkeypatch.setattr(nm, "norm_cdf", recorded)
    for workers in (2, 3, 8):
        threads.clear()
        before = set(threading.enumerate())
        split = split_curves(monkeypatch, fit, grid, workers)
        for a, b in zip(reference, split):
            assert np.array_equal(a, b)
        # the pass was split (or, on one grid point, not) and no helper
        # thread outlives the call
        blocks = min(workers, t_points)
        assert 1 + (blocks > 1) <= len(set(threads)) <= blocks
        assert set(threading.enumerate()) == before


def test_one_block_pass_starts_no_thread(monkeypatch):
    # draws = 0, the replication study's path, is one block: the calling
    # thread fills it and no helper thread is ever started
    fit, _ = fitted(seed=25)
    monkeypatch.setattr(inf, "_worker_count", lambda: 4)
    before = set(threading.enumerate())
    seen = []
    real = nm.norm_cdf

    def recorded(x, out=None):
        if np.ndim(x) == 2:
            seen.append((threading.get_ident(), set(threading.enumerate())))
        return real(x, out=out)

    monkeypatch.setattr(nm, "norm_cdf", recorded)
    inf.survival_curves(fit, np.linspace(0.5, 4.0, 9), draws=0)
    assert seen and all(ident == threading.get_ident() and alive == before
                        for ident, alive in seen)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("failing_thread", ["helper", "main"])
def test_split_pass_failure_propagates_without_leaving_threads(
        monkeypatch, failing_thread):
    fit, _ = fitted(seed=26)
    main = threading.get_ident()
    real = nm.norm_cdf

    def failing(x, out=None):
        on_main = threading.get_ident() == main
        if np.ndim(x) == 2 and on_main == (failing_thread == "main"):
            raise FloatingPointError("block failed")
        return real(x, out=out)

    monkeypatch.setattr(inf, "_worker_count", lambda: 3)
    monkeypatch.setattr(nm, "norm_cdf", failing)
    before = set(threading.enumerate())
    with pytest.raises(FloatingPointError, match="block failed"):
        inf.survival_curves(fit, np.linspace(0.5, 4.0, 9), draws=5, seed=1)
    assert set(threading.enumerate()) == before


def test_split_pass_stress_more_workers_than_cores(monkeypatch):
    fit, _ = fitted(seed=27)
    workers = 2 * inf._worker_count() + 1
    grid = np.linspace(0.5, 4.0, max(50, workers))
    reference = split_curves(monkeypatch, fit, grid, 1, draws=10)
    result = {}

    def run():
        result["split"] = split_curves(monkeypatch, fit, grid, workers,
                                       draws=10)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=120.0)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive()
    # a row written by two threads, or lost, would break bitwise equality
    for a, b in zip(reference, result["split"]):
        assert np.array_equal(a, b)
