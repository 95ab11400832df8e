"""A covariate's units do not change the fit.

x -> a x + b on smooth and on linear terms in both equations leaves the
selected lambda, the AIC, the treatment coefficient, rho_star, the group
survival curves and the SATE as they were.  The tolerances were set from
measurements on dgp(1000) seeds 1-3, the largest differences found being:

* smooth: AIC 3.9e-8, log10 lambda 0, every other quantity 6.0e-11;
* linear: AIC 2.1e-5, log10 lambda 3.0e-3, every other quantity 1.3e-5.
  The trust region stops at max|g| <= 1e-7 (1 + |f|), and a linear column's
  units scale its coefficient's score, so a fit on x can stop a little short
  of the fit on 1000 x.
"""

import functools

import numpy as np
import pytest

from endosurv import cli
from endosurv import design as dz
from endosurv import inference as inf
from endosurv import optimizer as op
from endosurv import simulate as sim
from endosurv.errors import ConfigurationError

PAIR = [inf.GroupDef("treated", d=1), inf.GroupDef("control", d=0)]
# (AIC, log10 lambda, estimates, curves and SATE) per term kind
TOLERANCES = {"smooth": (1e-6, 1e-6, 1e-9), "linear": (1e-4, 1e-2, 1e-4)}


def _spec(outcome, selection):
    return cli.build_model_spec(cli.RunConfig(
        data="", time="time", status="status", treatment="treatment",
        outcome_terms=["monotone J=10", outcome, "treatment"],
        selection_terms=[selection, "ridge:w"]))


def _fit(spec, data, t):
    bundle = dz.assemble(spec, data)
    fit = op.fit(bundle)
    assert fit.convergence.converged
    cs = inf.posterior_curves(fit, t, groups=PAIR, contrast=PAIR, draws=0)
    lay = bundle.layout
    return {"aic": -2.0 * fit.loglik + 2.0 * fit.edf.sum(),
            "log_lam": np.log10(fit.lam),
            "estimates": fit.delta[[bundle.treat_index, lay.rho_index]],
            "curves": np.concatenate([cs.groups[g.name][0] for g in PAIR]
                                     + [cs.sate[0]])}


def _data(a=1.0, b=0.0, n=1000, seed=1):
    data = sim.generate(sim.DgpConfig(n=n, transform="spline", censor_max=14.0),
                        seed=seed)
    data.covariates["x"] = a * data.covariates["x"] + b
    return data


@functools.cache
def _reference(kind):
    return _fit(_spec(f"{kind}:x", f"{kind}:x"), _data(), (1.0, 3.0, 6.0))


@pytest.mark.parametrize("b", [0.0, 3e4])
@pytest.mark.parametrize("a", [1e-3, 1e3, 1e4])
@pytest.mark.parametrize("kind", ["smooth", "linear"])
def test_units_of_x_do_not_change_the_fit(kind, a, b):
    spec = _spec(f"{kind}:x", f"{kind}:x")
    if kind == "linear" and (a, b) == (1e-3, 3e4):
        # x then varies by 3e-8 of its mean: next to the intercept, the
        # column's smallest singular value is 1e-12 of the largest, and the
        # rank check refuses it rather than fit it
        with pytest.raises(ConfigurationError, match="collinear"):
            dz.assemble(spec, _data(a, b))
        return
    got, want = _fit(spec, _data(a, b), (1.0, 3.0, 6.0)), _reference(kind)
    tol_aic, tol_lam, tol = TOLERANCES[kind]
    assert abs(got["aic"] - want["aic"]) <= tol_aic
    assert np.abs(got["log_lam"] - want["log_lam"]).max() <= tol_lam
    for key in ("estimates", "curves"):
        assert np.abs(got[key] - want[key]).max() <= tol


def test_weekly_durations_and_a_dollar_scale_covariate():
    # durations rounded up to whole weeks (14 distinct values) and x in
    # dollars, 5000 x + 12 000: the fit is the one on x itself, with the
    # smooth's lambda at its upper bound 10^7
    spec = _spec("smooth:x J=10", "linear:x")
    weeks = np.arange(1.0, 14.0)
    fits = []
    for a, b in ((1.0, 0.0), (5000.0, 12000.0)):
        data = _data(a, b, n=4000, seed=7)
        data.time = np.ceil(data.time)
        fits.append(_fit(spec, data, weeks))
    x, dollars = fits
    assert abs(dollars["aic"] - x["aic"]) <= 1e-6
    assert np.abs(dollars["log_lam"] - x["log_lam"]).max() <= 1e-6
    assert x["log_lam"][1] == 7.0
    for key in ("estimates", "curves"):
        assert np.abs(dollars[key] - x[key]).max() <= 1e-9
