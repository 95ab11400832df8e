import numpy as np
import pytest
from scipy import integrate, special

from endosurv import inference
from endosurv import optimizer as op
from endosurv import simulate as sim
from endosurv.errors import ConfigurationError, InferenceError


def test_config_normalization_enforced():
    cfg = sim.DgpConfig(beta_1u=0.6, beta_2u=0.8, sigma_u=1.0)
    assert cfg.sigma_1 == pytest.approx(np.sqrt(1 - 0.36))
    assert cfg.sigma_2 == pytest.approx(np.sqrt(1 - 0.64))
    assert cfg.rho_struct == pytest.approx(0.48)
    with pytest.raises(ConfigurationError):
        sim.DgpConfig(beta_1u=1.2, sigma_u=1.0).validate()
    with pytest.raises(ConfigurationError):
        sim.DgpConfig(transform="sqrt").validate()
    for n in (0, -5, 2.5, True):
        with pytest.raises(ConfigurationError, match="n must be"):
            sim.DgpConfig(n=n).validate()


@pytest.mark.parametrize("field,value,message", [
    ("beta_d", float("nan"), "beta_d must be finite"),
    ("beta_d", float("inf"), "beta_d must be finite"),
    ("sigma_u", float("nan"), "sigma_u must be finite"),
    ("instrument_coef", -float("inf"), "instrument_coef must be finite"),
    ("censor_max", float("inf"), "censor_max must be finite"),
    ("censor_max", 0.0, "censor_max must be None or > 0"),
    ("censor_max", -1.0, "censor_max must be None or > 0")])
def test_config_rejects_nonfinite_and_nonpositive_censoring(field, value,
                                                           message):
    # nan and inf used to reach generate (non-finite follow-up times),
    # censor_max = 0 gave all-censored data and -1 numpy's "high - low < 0"
    with pytest.raises(ConfigurationError, match=message):
        sim.DgpConfig(**{field: value}).validate()


def test_unit_error_variances():
    cfg = sim.DgpConfig(n=200_000, beta_1u=0.6, beta_2u=0.8)
    _, latent = sim.generate(cfg, seed=1, return_latent=True)
    assert latent["eps1"].var() == pytest.approx(1.0, abs=0.02)
    assert latent["eps2"].var() == pytest.approx(1.0, abs=0.02)


def test_error_correlation_approaches_truth():
    cfg = sim.DgpConfig(n=100_000, beta_1u=np.sqrt(0.9), beta_2u=np.sqrt(0.9))
    assert cfg.rho_struct == pytest.approx(0.9)
    _, latent = sim.generate(cfg, seed=2, return_latent=True)
    r = np.corrcoef(latent["eps1"], latent["eps2"])[0, 1]
    assert 0.88 <= r <= 0.92


def test_t5_errors_unit_variance_and_correlation():
    cfg = sim.DgpConfig(n=300_000, error_dist="t5")
    _, latent = sim.generate(cfg, seed=3, return_latent=True)
    assert latent["eps1"].var() == pytest.approx(1.0, abs=0.05)
    r = np.corrcoef(latent["eps1"], latent["eps2"])[0, 1]
    assert r == pytest.approx(cfg.rho_struct, abs=0.03)


def test_no_censoring_when_scale_infinite():
    cfg = sim.DgpConfig(n=500, censor_max=None)
    data = sim.generate(cfg, seed=4)
    assert np.all(data.status == 1)


def test_censoring_fraction_reasonable():
    cfg = sim.DgpConfig(n=20_000)
    data = sim.generate(cfg, seed=5)
    frac = 1.0 - data.status.mean()
    assert 0.1 < frac < 0.5


def test_null_effect_survival_curves_agree():
    # beta_d = 0, rho = 0 and no selection on x: treated and control
    # empirical survival must match marginally
    cfg = sim.DgpConfig(n=10_000, beta_d=0.0, beta_1u=0.0, beta_2u=0.0,
                        selection_x=0.0, censor_max=None)
    data = sim.generate(cfg, seed=6)
    t1 = np.sort(data.time[data.treatment == 1])
    t0 = np.sort(data.time[data.treatment == 0])
    grid = np.quantile(data.time, np.linspace(0.02, 0.98, 97))
    s1 = 1.0 - np.searchsorted(t1, grid) / t1.size
    s0 = 1.0 - np.searchsorted(t0, grid) / t0.size
    assert np.abs(s1 - s0).max() < 0.05


def test_generator_deterministic():
    cfg = sim.DgpConfig(n=100)
    d1 = sim.generate(cfg, seed=7)
    d2 = sim.generate(cfg, seed=7)
    assert np.array_equal(d1.time, d2.time)
    assert np.array_equal(d1.treatment, d2.treatment)


def test_sate_true_sign_and_range():
    cfg = sim.DgpConfig(beta_d=0.8)
    grid = sim.default_study_grid(cfg)
    truth = sim.sate_true(cfg, grid)
    # positive structural beta_d lengthens durations: survival gain positive
    assert np.all(truth > 0.0)
    assert np.all(truth <= 1.0)


@pytest.mark.parametrize("transform", ["log", "spline"])
def test_sate_true_is_the_exact_average_over_x(transform):
    # Gaussian errors: E_x Phi(-(H(t) - a - b x - beta_d)) has the closed
    # form Phi(-(H(t) - a - beta_d) / sqrt(1 + b^2)); t5 errors: adaptive
    # quadrature of the same contrast against the N(0, 1) density
    gauss = sim.DgpConfig(transform=transform)
    grid = sim.default_study_grid(gauss)
    c = sim._transform_value(gauss, grid) - gauss.outcome_intercept
    scale = np.sqrt(1.0 + gauss.outcome_x ** 2)
    closed = special.ndtr(-(c - gauss.beta_d) / scale) - special.ndtr(-c / scale)
    assert np.max(np.abs(sim.sate_true(gauss, grid) - closed)) < 1e-12

    t5 = sim.DgpConfig(transform=transform, error_dist="t5")

    def contrast(x, c):
        eta = t5.outcome_intercept + t5.outcome_x * x
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * (
            sim._eps1_survival(t5, c - eta - t5.beta_d) - sim._eps1_survival(t5, c - eta))

    quad = [integrate.quad(contrast, -np.inf, np.inf, args=(h,), epsabs=1e-14,
                           epsrel=1e-13, limit=200)[0]
            for h in sim._transform_value(t5, grid)]
    assert np.max(np.abs(sim.sate_true(t5, grid) - quad)) < 1e-12


def test_run_study_small_smoke():
    cfg = sim.DgpConfig(n=300, monotone_J=6)
    report = sim.run_study(cfg, replicates=3, master_seed=11)
    assert report.replicates == 3
    assert report.n_converged_joint >= 2
    assert report.rho_joint.truth == pytest.approx(cfg.rho_struct)
    assert report.beta_d_joint.rmse >= abs(report.beta_d_joint.bias)
    assert 0.0 <= report.beta_d_joint.coverage <= 1.0
    d = report.as_dict()
    assert isinstance(d["sate_bias"], list)


def test_run_study_deterministic_and_parallel_identical():
    cfg = sim.DgpConfig(n=250, monotone_J=6)
    r1 = sim.run_study(cfg, replicates=2, master_seed=3)
    r2 = sim.run_study(cfg, replicates=2, master_seed=3)
    r3 = sim.run_study(cfg, replicates=2, master_seed=3, n_jobs=2)
    assert r1.beta_d_joint == r2.beta_d_joint
    assert r1.rho_joint == r3.rho_joint
    assert np.array_equal(r1.sate_bias, r3.sate_bias)


def test_run_study_rejects_zero_replicates():
    with pytest.raises(ConfigurationError):
        sim.run_study(sim.DgpConfig(), replicates=0)


def test_misspecified_errors_still_fit():
    # t(5) errors under a Gaussian fit: the study machinery stays usable
    cfg = sim.DgpConfig(n=300, monotone_J=6, error_dist="t5")
    report = sim.run_study(cfg, replicates=2, master_seed=21)
    assert report.n_converged_joint == 2


def test_spline_transform_roundtrip_and_grid():
    cfg = sim.DgpConfig(n=3000, transform="spline", censor_max=14.0)
    data = sim.generate(cfg, seed=8)
    assert np.all(data.time > 0.0)
    assert np.all(data.time <= sim.SPLINE_H_INTERVAL[1])
    grid = sim.default_study_grid(cfg)
    assert np.all(np.diff(grid) > 0)
    h = sim._spline_h()
    z = np.linspace(-5.0, 3.5, 50)
    assert np.abs(h.value(h.inverse(z)) - z).max() < 1e-9
    # beyond the transform's range the inverse saturates at the boundary
    assert h.inverse(np.array([99.0]))[0] >= sim.SPLINE_H_INTERVAL[1] - 1e-6


def test_bias_shrinks_with_sample_size():
    # strong instrument, correct specification: bias at n = 4000 is at most
    # half its n = 1000 value, up to Monte-Carlo error
    import os

    jobs = min(2, os.cpu_count() or 1)
    base = dict(instrument_coef=2.0, transform="spline", censor_max=14.0,
                monotone_J=10)
    small = sim.run_study(sim.DgpConfig(n=1000, **base), replicates=40,
                          master_seed=71, n_jobs=jobs)
    big = sim.run_study(sim.DgpConfig(n=4000, **base), replicates=40,
                        master_seed=72, n_jobs=jobs)

    def mc_se(rep):
        spread = np.sqrt(max(rep.beta_d_joint.rmse ** 2
                             - rep.beta_d_joint.bias ** 2, 0.0))
        return spread / np.sqrt(rep.n_converged_joint)

    slack = 2.0 * (mc_se(small) + mc_se(big))
    assert abs(big.beta_d_joint.bias) <= 0.5 * abs(small.beta_d_joint.bias) + slack


def test_replicate_whose_inference_fails_is_not_counted(monkeypatch):
    # the joint fit of replicate 0 converges but its covariance fails: the
    # replicate is a recorded failure, not a converged joint fit
    real = inference.covariance
    calls = []

    def failing_first(fit):
        calls.append(fit.kind)
        if len(calls) == 1:
            raise InferenceError("synthetic failure")
        return real(fit)

    monkeypatch.setattr(inference, "covariance", failing_first)
    report = sim.run_study(sim.DgpConfig(n=300, monotone_J=6), 3,
                           fit_options=op.FitOptions(lambda_fixed=[1.0]),
                           n_jobs=1)
    assert calls[0] == "joint"
    assert report.n_converged_joint == 2
    assert report.n_converged_uni == 3
    assert len(report.failures) == 1 and "joint[0]" in report.failures[0]


def test_every_replicate_converged_or_named_in_failures(monkeypatch):
    # at n = 12 most fits end unconverged without raising; each such
    # replicate is a named failure, and each fit's covariance is taken at
    # most once
    real = inference.covariance
    fits = []

    def recorded(fit):
        fits.append(fit)
        return real(fit)

    monkeypatch.setattr(inference, "covariance", recorded)
    report = sim.run_study(sim.DgpConfig(n=12), 30, master_seed=0,
                           fit_options=op.FitOptions(lambda_fixed=[1.0]))
    text = " ".join(report.failures)
    for name, converged in (("joint", report.n_converged_joint),
                            ("uni", report.n_converged_uni)):
        failed = [i for i in range(30) if f"{name}[{i}]:" in text]
        assert converged + len(failed) == 30
    assert "did not converge" in text
    assert len({id(fit) for fit in fits}) == len(fits)


def test_replicate_that_cannot_be_assembled_is_a_named_failure():
    # at n = 8, replicate 44 of master seed 0 draws collinear intercept and
    # treatment columns: assemble raises, and the study goes on without it
    report = sim.run_study(sim.DgpConfig(n=8), 50, master_seed=0,
                           fit_options=op.FitOptions(lambda_fixed=[1.0]))
    failed = [f for f in report.failures if f.startswith("assemble[")]
    assert len(failed) == 1 and failed[0].startswith("assemble[44]: ")
    assert "collinear" in failed[0]
    text = " ".join(report.failures)
    for name, converged in (("joint", report.n_converged_joint),
                            ("uni", report.n_converged_uni)):
        assert f"{name}[44]" not in text
        named = sum(f"{name}[{i}]:" in text for i in range(50))
        assert converged + named == 49
    assert report.n_converged_joint == 6
