"""Acceptance suite: every criterion as one test, each printing a PASS line.

The replication studies (criteria 6 and 7) run once as module fixtures and
take a few minutes; run with ``pytest -v -rA tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from endosurv import cli
from endosurv import design as dz
from endosurv import inference as inf
from endosurv import likelihood as lk
from endosurv import numerics as nm
from endosurv import optimizer as op
from endosurv import simulate as sim

import oracles

N_JOBS = min(2, os.cpu_count() or 1)

STRONG_CONFIG = sim.DgpConfig(n=2000, beta_d=0.8, instrument_coef=2.0,
                              transform="spline", censor_max=14.0,
                              monotone_J=10)
WEAK_CONFIG = dataclasses.replace(STRONG_CONFIG, instrument_coef=0.2)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def strong_report():
    t0 = time.time()
    rep = sim.run_study(STRONG_CONFIG, replicates=250, master_seed=20240501,
                        n_jobs=N_JOBS)
    rep.elapsed = time.time() - t0
    return rep


@pytest.fixture(scope="module")
def weak_report():
    return sim.run_study(WEAK_CONFIG, replicates=100, master_seed=20240502,
                         n_jobs=N_JOBS)


# --------------------------------------------------------------------------
# 1. derivative correctness on random small instances
# --------------------------------------------------------------------------

def test_criterion_01_derivatives():
    t0 = time.time()
    worst_score, worst_hess = 0.0, 0.0
    for k in range(20):
        rng = np.random.default_rng((1000, k))
        config = sim.DgpConfig(n=40, monotone_J=5, transform="spline",
                               censor_max=14.0)
        data = sim.generate(config, seed=(1001, k))
        data.covariates["x2"] = rng.normal(size=data.n)
        spec = dz.ModelSpec(
            outcome_terms=[dz.Term("monotone", J=5),
                           dz.Term("smooth", column="x", J=5),
                           dz.Term("smooth", column="x2", J=5),
                           dz.Term("treatment")],
            selection_terms=[dz.Term("linear", column="x"),
                             dz.Term("ridge", column="w")])
        bundle = dz.assemble(spec, data)
        delta = op.initial_values(bundle) + rng.normal(scale=0.05,
                                                       size=bundle.layout.psi)
        delta[-1] = 0.3 if k % 2 == 0 else -0.3
        ll, g, h = lk.evaluate(bundle, delta)
        assert np.isfinite(ll)

        g_fd, h_fd = lk.finite_differences(
            lambda d: lk.evaluate(bundle, d), delta)
        worst_score = max(worst_score,
                          float(np.abs(g - g_fd).max() / max(1.0, np.abs(g).max())))
        worst_hess = max(worst_hess,
                         float(np.abs(h - h_fd).max() / max(1.0, np.abs(h).max())))
    elapsed = time.time() - t0
    ok = worst_score <= 1e-5 and worst_hess <= 1e-3 and elapsed <= 60.0
    report(1, ok, f"score rel err {worst_score:.2e} (<=1e-5), "
                  f"hessian rel err {worst_hess:.2e} (<=1e-3), "
                  f"{elapsed:.1f}s (<=60s)")


# --------------------------------------------------------------------------
# 2. bivariate CDF against adaptive quadrature
# --------------------------------------------------------------------------

def test_criterion_02_bvn_oracle():
    def line_cdf(a, b, rho):
        # Phi2(a, b; rho) = int_(-inf)^a phi(x) Phi((b - rho x) / s) dx
        s = math.sqrt(2.0 * (1.0 - rho * rho))
        f = lambda x: (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                       * 0.5 * math.erfc((rho * x - b) / s))
        # full_output returns quadpack's roundoff note instead of warning
        val, err = integrate.quad(f, -np.inf, a, epsabs=1e-14, epsrel=1e-14,
                                  limit=200, full_output=1)[:2]
        return val, err

    def plane_cdf(a, b, rho):
        den = 2.0 * math.pi * math.sqrt(1.0 - rho * rho)
        f = lambda y, x: math.exp(-(x * x - 2 * rho * x * y + y * y)
                                  / (2 * (1 - rho * rho))) / den
        val, _ = integrate.dblquad(f, -8.5, a, -8.5, b,
                                   epsabs=1e-13, epsrel=1e-13)
        return val

    a_grid = np.linspace(-3.5, 3.5, 15)
    b_grid = np.linspace(-3.5, 3.5, 15)
    r_grid = np.linspace(-0.96, 0.96, 9)
    worst, worst_quad_err = 0.0, 0.0
    for a in a_grid:
        for b in b_grid:
            for r in r_grid:
                val, err = line_cdf(a, b, r)
                worst = max(worst, abs(nm.bvn_cdf(a, b, r) - val))
                worst_quad_err = max(worst_quad_err, err)

    # 2-D quadrature on a 3x3x3 corner-and-centre subset: an independent
    # check of both the kernel and the 1-D oracle
    worst_2d, oracles_2d = 0.0, 0.0
    for a in a_grid[::7]:
        for b in b_grid[::7]:
            for r in r_grid[::4]:
                val = plane_cdf(a, b, r)
                worst_2d = max(worst_2d, abs(nm.bvn_cdf(a, b, r) - val))
                oracles_2d = max(oracles_2d, abs(line_cdf(a, b, r)[0] - val))

    closed = max(abs(nm.bvn_cdf(0.0, 0.0, r)
                     - (0.25 + math.asin(r) / (2 * math.pi)))
                 for r in r_grid)
    ok = (worst <= 1e-10 and worst_2d <= 1e-10 and oracles_2d <= 1e-12
          and closed <= 1e-12)
    report(2, ok, f"max |cdf - quadrature| {worst:.2e} (<=1e-10; 1-D "
                  f"quadrature error estimate {worst_quad_err:.1e}) on "
                  f"15x15x9 grid, {worst_2d:.2e} against 2-D quadrature on "
                  f"3x3x3 (oracles differ {oracles_2d:.1e}, <=1e-12), "
                  f"closed-form err {closed:.2e} (<=1e-12)")


# --------------------------------------------------------------------------
# 3. rho = 0 factorization
# --------------------------------------------------------------------------

def test_criterion_03_rho_zero_factorization():
    rng = np.random.default_rng(3003)
    config = sim.DgpConfig(n=200, monotone_J=6, transform="spline",
                           censor_max=14.0)
    data = sim.generate(config, seed=303)
    data.covariates["x2"] = rng.normal(size=data.n)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=6),
                       dz.Term("smooth", column="x", J=6),
                       dz.Term("linear", column="x2"),
                       dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x"),
                         dz.Term("ridge", column="w")])
    bundle = dz.assemble(spec, data)
    lay = bundle.layout
    delta = op.initial_values(bundle) + rng.normal(scale=0.1, size=lay.psi)
    delta[lay.rho_index] = 0.0
    joint = lk.evaluate(bundle, delta)[0]

    # independently coded univariate likelihoods
    u = oracles.eta1(bundle, delta[lay.eq1])
    h = oracles.deta1_dy(bundle, delta[lay.eq1])
    v = oracles.eta2(bundle, delta[lay.eq2])
    ev = bundle.data.status.astype(bool)
    d = bundle.data.treatment.astype(bool)
    surv = float(np.where(ev, norm.logpdf(u) + np.log(h), norm.logcdf(-u)).sum())
    probit = float(np.where(d, norm.logcdf(v), norm.logcdf(-v)).sum())
    err = abs(joint - (surv + probit))
    report(3, err <= 1e-10, f"|joint - (survival + probit)| = {err:.2e} "
                            f"(<=1e-10) at n = 200")


# --------------------------------------------------------------------------
# 4. edf limits
# --------------------------------------------------------------------------

def test_criterion_04_edf_limits():
    config = sim.DgpConfig(n=500, monotone_J=8, transform="spline",
                           censor_max=14.0)
    data = sim.generate(config, seed=404)
    bundle = dz.assemble(sim.model_spec(config), data)
    psi = bundle.layout.psi

    fit0 = op.fit(bundle, op.FitOptions(lambda_fixed=[0.0]))
    edf0 = fit0.edf.sum()
    fit_inf = op.fit(bundle, op.FitOptions(lambda_fixed=[1e10]))
    edf_inf = fit_inf.edf.sum()
    target = psi - sum(b.penalty_rank for b in fit_inf.blocks)

    ok = abs(edf0 - psi) <= 1e-8 and abs(edf_inf - target) <= 0.01
    report(4, ok, f"edf(0) = {edf0:.10f} vs psi = {psi}; "
                  f"edf(1e10) = {edf_inf:.6f} vs psi - zeta = {target} "
                  f"(within 0.01)")


# --------------------------------------------------------------------------
# 5. monotone survival curves, fitted and drawn
# --------------------------------------------------------------------------

def test_criterion_05_monotone_curves():
    violations = 0
    checked = 0
    for k in range(10):
        config = sim.DgpConfig(n=250, monotone_J=6, transform="spline",
                               censor_max=14.0)
        data = sim.generate(config, seed=(505, k))
        bundle = dz.assemble(sim.model_spec(config), data)
        fit = op.fit(bundle)
        assert fit.convergence.converged
        grid = np.linspace(*bundle.mono_interval, 1000)
        cs = inf.survival_curves(fit, grid, draws=1, seed=k)
        for est, _, _ in cs.groups.values():
            violations += int(np.sum(np.diff(est) > 1e-12))
            checked += 1
        draws = oracles.survival_curve_draws(fit, grid, d=1, draws=50, seed=k)
        draws0 = oracles.survival_curve_draws(fit, grid, d=0, draws=50, seed=k + 1)
        for mat in (draws, draws0):
            violations += int(np.sum(np.diff(mat, axis=1) > 1e-12))
            checked += mat.shape[0]
    ok = violations == 0 and checked >= 10 * (2 + 100)
    report(5, ok, f"{violations} violations across {checked} curves "
                  f"on 1000-point grids (10 fits, 100 draws each)")


# --------------------------------------------------------------------------
# 6. simulation recovery under the strong instrument
# --------------------------------------------------------------------------

def test_criterion_06_simulation_recovery(strong_report):
    rep = strong_report
    bias = rep.beta_d_joint.bias
    cov_bd = rep.beta_d_joint.coverage
    cov_rho = rep.rho_joint.coverage
    ratio = abs(rep.beta_d_uni.bias) / max(abs(bias), 1e-12)
    ok = (abs(bias) <= 0.05
          and 0.90 <= cov_bd <= 0.98
          and 0.90 <= cov_rho <= 0.98
          and abs(rep.beta_d_uni.bias) >= 3.0 * abs(bias)
          and rep.elapsed <= 1800.0)
    report(6, ok, f"bias(beta_d) = {bias:+.4f} (<=0.05), "
                  f"coverage beta_d = {cov_bd:.3f}, rho = {cov_rho:.3f} "
                  f"(in [0.90, 0.98]), univariate/joint bias ratio = {ratio:.1f} "
                  f"(>=3), {rep.elapsed:.0f}s (<=1800s), "
                  f"{rep.n_converged_joint}/250 converged")


# --------------------------------------------------------------------------
# 7. weak-instrument behavior
# --------------------------------------------------------------------------

def test_criterion_07_weak_instrument(strong_report, weak_report):
    strong_var = strong_report.beta_d_joint_var
    weak_var = weak_report.beta_d_joint_var
    conv_rate = weak_report.n_converged_joint / weak_report.replicates
    ok = weak_var > strong_var and conv_rate >= 0.95
    report(7, ok, f"var(beta_d) weak = {weak_var:.4f} > strong = "
                  f"{strong_var:.4f}; converged {conv_rate:.0%} (>=95%)")


# --------------------------------------------------------------------------
# 8. SATE identities
# --------------------------------------------------------------------------

def test_criterion_08_sate_identities():
    config = sim.DgpConfig(n=300, monotone_J=6, transform="spline",
                           censor_max=14.0)
    data = sim.generate(config, seed=808)
    bundle = dz.assemble(sim.model_spec(config), data)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    grid = np.linspace(0.5, 8.0, 12)

    blk = next(b for b in fit.blocks if b.name == "treatment")
    delta0 = fit.delta.copy()
    delta0[blk.sl.start] = 0.0
    fit0 = dataclasses.replace(fit, delta=delta0)
    zero = inf.sate(fit0, grid, draws=0).sate[0]

    fwd = inf.sate(fit, grid, draws=0).sate[0]
    swp = inf.sate(fit, grid, draws=0, treated=0, control=1).sate[0]
    ok = np.all(zero == 0.0) and np.array_equal(fwd, -swp)
    report(8, ok, "beta_d = 0 gives SATE identically 0; label swap negates "
                  "exactly (both bitwise)")


# --------------------------------------------------------------------------
# 9. conditional case-study check (requires the Illinois dataset)
# --------------------------------------------------------------------------

def test_criterion_09_case_study_conditional():
    path = os.environ.get("ENDOSURV_HIE_CSV")
    if not path:
        print("ACCEPTANCE 9: SKIP - set ENDOSURV_HIE_CSV to the Illinois "
              "reemployment CSV to run the conditional check")
        pytest.skip("Illinois dataset not supplied")
    data = cli.ingest(path, "unemp.dur", "status", "agree")
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=10),
                       dz.Term("linear", column="gender"),
                       dz.Term("linear", column="benefit"),
                       dz.Term("linear", column="ethnicity"),
                       dz.Term("smooth", column="age", J=10),
                       dz.Term("smooth", column="prearn", J=10),
                       dz.Term("treatment"),
                       dz.Term("interaction", column="gender")],
        selection_terms=[dz.Term("linear", column="gender"),
                         dz.Term("linear", column="benefit"),
                         dz.Term("linear", column="ethnicity"),
                         dz.Term("linear", column="age"),
                         dz.Term("linear", column="prearn"),
                         dz.Term("ridge", column="bonus")])
    bundle = dz.assemble(spec, data)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    rho_hat, _, _ = inf.rho_interval(fit)
    sate23 = inf.sate(fit, np.array([23.0]), draws=100, seed=1,
                      where={"gender": 0.0}).sate[0][0]
    s = inf.summary(fit)
    gender_row = next(r for r in s.rows if r.equation == 2 and r.name == "gender")
    ok = (-0.12 <= rho_hat <= -0.04
          and -0.06 <= sate23 <= -0.03
          and abs(gender_row.estimate - 0.150) <= 0.02)
    report(9, ok, f"rho_hat = {rho_hat:.3f} (in [-0.12, -0.04]), "
                  f"female week-23 SATE = {sate23:.3f} (in [-0.06, -0.03]), "
                  f"selection gender coef = {gender_row.estimate:.3f} "
                  f"(0.150 +- 0.02)")


# --------------------------------------------------------------------------
# 10. byte-identical reruns
# --------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    config = sim.DgpConfig(n=300, monotone_J=6, transform="spline",
                           censor_max=14.0)
    data = sim.generate(config, seed=1010)
    data_path = tmp_path / "data.csv"
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write("time,status,treatment,x,w\n")
        for i in range(data.n):
            fh.write(f"{float(data.time[i])!r},{int(data.status[i])},"
                     f"{int(data.treatment[i])},"
                     f"{float(data.covariates['x'][i])!r},"
                     f"{int(data.covariates['w'][i])}\n")
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"""
data = {data_path}
time = time
status = status
treatment = treatment
seed = 99
draws = 40
grid_points = 10
outcome_term = monotone J=6
outcome_term = linear:x
outcome_term = treatment
selection_term = linear:x
selection_term = ridge:w
fit_univariate = true
""")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["fit", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["fit", "--config", str(cfg), "--out", str(out2)]) == 0
    same = ((out1 / "summary.json").read_bytes()
            == (out2 / "summary.json").read_bytes())
    same_curves = ((out1 / "curves.tsv").read_bytes()
                   == (out2 / "curves.tsv").read_bytes())
    report(10, same and same_curves,
           "summary.json and curves.tsv byte-identical across reruns "
           "with the same seed/config")
