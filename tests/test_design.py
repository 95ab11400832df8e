import numpy as np
import pytest

from endosurv import design as dz
from endosurv import optimizer as op
from endosurv import splines as sp
from endosurv.errors import ConfigurationError


def toy_data(n=80, seed=0, p_treat=0.5):
    rng = np.random.default_rng(seed)
    return dz.DataSet(
        time=rng.uniform(0.2, 8.0, size=n),
        status=rng.integers(0, 2, size=n),
        treatment=(rng.uniform(size=n) < p_treat).astype(int),
        covariates={
            "x": rng.normal(size=n),
            "g": rng.integers(0, 2, size=n).astype(float),
            "w": rng.integers(0, 2, size=n).astype(float),
        },
    )


def toy_spec(smooth=False, interaction=False, ridge=True):
    outcome = [
        dz.Term("monotone", J=8),
        dz.Term("linear", column="g"),
        dz.Term("treatment"),
    ]
    if smooth:
        outcome.insert(1, dz.Term("smooth", column="x", J=8))
    else:
        outcome.insert(1, dz.Term("linear", column="x"))
    if interaction:
        outcome.append(dz.Term("interaction", modifier="g"))
    selection = [dz.Term("linear", column="x"), dz.Term("linear", column="g")]
    if ridge:
        selection.append(dz.Term("ridge", column="w"))
    return dz.ModelSpec(outcome_terms=outcome, selection_terms=selection)


def test_dataset_rejects_bad_columns():
    with pytest.raises(ConfigurationError):
        dz.DataSet(time=[1.0, -1.0], status=[0, 1], treatment=[0, 1], covariates={})
    with pytest.raises(ConfigurationError):
        dz.DataSet(time=[1.0, 2.0], status=[0, 2], treatment=[0, 1], covariates={})
    with pytest.raises(ConfigurationError):
        dz.DataSet(time=[1.0, 2.0], status=[0, 1], treatment=[0, 1],
                   covariates={"x": [np.nan, 1.0]})


def test_selection_design_columns():
    data = dz.DataSet(
        time=[1.0, 2.0, 3.0, 4.0], status=[1, 0, 1, 0], treatment=[0, 1, 0, 1],
        covariates={"x": [0.5, -1.0, 2.0, 0.0], "g": [0.0, 1.0, 1.0, 0.0],
                    "w": [0.0, 1.0, 0.0, 1.0]})
    bundle = dz.assemble(toy_spec(ridge=False), data)
    # intercept + x + g
    assert bundle.Z.shape == (4, 3)
    assert np.array_equal(bundle.Z[:, 0], np.ones(4))
    assert np.array_equal(bundle.Z[:, 1], data.covariates["x"])
    assert bundle.layout.psi == bundle.layout.p1 + bundle.layout.p2 + 1


def test_case_study_like_block_order():
    data = toy_data(n=120, seed=2)
    spec = toy_spec(smooth=True, interaction=True)
    bundle = dz.assemble(spec, data)
    names = [b.name for b in bundle.layout.blocks if b.eq == 1]
    assert names == ["intercept", "mono(time)", "s(x)", "g", "treatment",
                     "treatment:g"]
    inter_block = bundle.layout.blocks[names.index("treatment:g")]
    col = bundle.X[:, inter_block.sl.start]
    assert np.array_equal(col, data.treatment * data.covariates["g"])


def test_duplicate_covariate_errors():
    data = toy_data(n=40, seed=3)
    spec = toy_spec()
    spec.outcome_terms.append(dz.Term("linear", column="g"))
    with pytest.raises(ConfigurationError, match="collinear"):
        dz.assemble(spec, data)


def test_instrument_excluded_from_outcome():
    data = toy_data(n=40, seed=4)
    spec = toy_spec()
    spec.outcome_terms.append(dz.Term("linear", column="w"))
    with pytest.raises(ConfigurationError, match="instrument"):
        dz.assemble(spec, data)


def test_exactly_one_monotone_required():
    spec = toy_spec()
    spec.outcome_terms = [t for t in spec.outcome_terms if t.kind != "monotone"]
    with pytest.raises(ConfigurationError, match="monotone"):
        spec.validate()


def test_eta1_zero_working_coefs_time_block():
    data = toy_data(n=30, seed=5)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=4), dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x")])
    bundle = dz.assemble(spec, data)
    beta1 = np.zeros(bundle.layout.p1)
    eta = bundle.eta1(beta1)
    # working zeros map to beta_tilde = (0, 1, 2, ...) on the full basis
    raw = sp.bspline_design(data.time, bundle.mono_knots, bundle.mono_order)
    btilde = np.arange(4.0)
    assert np.max(np.abs(eta - raw @ btilde)) < 1e-12


def test_eta2_zero_gives_half_probability():
    data = toy_data(n=10, seed=6)
    bundle = dz.assemble(toy_spec(), data)
    from endosurv.numerics import norm_cdf
    eta2 = bundle.eta2(np.zeros(bundle.layout.p2))
    assert np.allclose(norm_cdf(-eta2), 0.5)


def test_eta1_treatment_contrast_linear():
    data = toy_data(n=50, seed=7)
    bundle = dz.assemble(toy_spec(interaction=True), data)
    rng = np.random.default_rng(8)
    beta1 = rng.normal(scale=0.4, size=bundle.layout.p1)
    tilde = bundle.beta1_tilde(beta1)
    off1 = bundle.offsets(beta1, d=1)
    off0 = bundle.offsets(beta1, d=0)
    b_d = tilde[bundle.treat_index]
    b_int = tilde[bundle.interaction_cols[0][0]]
    expected = b_d + b_int * data.covariates["g"]
    assert np.max(np.abs((off1 - off0) - expected)) < 1e-12


def test_deta1_dy_constant_for_linear_ramp():
    data = toy_data(n=60, seed=9)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=8), dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x")])
    bundle = dz.assemble(spec, data)
    beta1 = np.zeros(bundle.layout.p1)
    # working zeros give equally spaced beta_tilde, i.e. H linear on the
    # uniform knots, so the derivative is constant in y
    d = bundle.deta1_dy(beta1)
    assert np.max(np.abs(d - d[0])) < 1e-8


def test_deta1_dy_matches_dense_secant():
    data = toy_data(n=40, seed=10)
    bundle = dz.assemble(toy_spec(), data)
    rng = np.random.default_rng(11)
    beta1 = rng.normal(scale=0.5, size=bundle.layout.p1)
    grid = np.linspace(bundle.mono_interval[0], bundle.mono_interval[1], 10_000)
    curve = bundle.time_curve(beta1, grid)
    slope = np.gradient(curve, grid)
    d = bundle.deta1_dy(beta1)
    idx = np.searchsorted(grid, bundle.data.time)
    assert np.max(np.abs(d - slope[idx]) / np.abs(slope[idx])) < 1e-3


def test_deta1_dy_central_difference_order():
    # d(eta1)/dy is the exact derivative of the time curve: central
    # differences of the curve converge to it at second order
    data = toy_data(n=25, seed=12)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=8), dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x")])
    bundle = dz.assemble(spec, data)
    rng = np.random.default_rng(13)
    beta1 = rng.normal(scale=0.5, size=bundle.layout.p1)
    a, b = bundle.mono_interval
    t = data.time
    inside = (t - 4e-3 * (b - a) > a) & (t + 4e-3 * (b - a) < b)
    exact = bundle.deta1_dy(beta1)[inside]

    def error(eps):
        step = eps * (b - a)
        fd = (bundle.time_curve(beta1, t[inside] + step)
              - bundle.time_curve(beta1, t[inside] - step)) / (2.0 * step)
        return np.abs(fd - exact).max()

    # halving the step shrinks the error by about 4x
    assert error(4e-3) / error(2e-3) == pytest.approx(4.0, rel=0.3)
    # a fine step agrees far below the old 1e-4 finite difference's error
    assert error(1e-5) < 5e-9 * np.abs(exact).max()


def test_penalty_assembly_quadratic_form():
    data = toy_data(n=100, seed=14)
    bundle = dz.assemble(toy_spec(smooth=True), data)
    rng = np.random.default_rng(15)
    lam = rng.uniform(0.1, 5.0, size=bundle.layout.n_lambda)
    delta = rng.normal(size=bundle.layout.psi)
    s_lam = op.ObjectiveView(bundle, "joint").s_lambda(lam)
    total = delta @ s_lam @ delta
    manual = 0.0
    for blk in bundle.layout.blocks:
        if blk.lambda_index is None:
            continue
        beta_k = delta[blk.sl]
        manual += lam[blk.lambda_index] * beta_k @ blk.penalty @ beta_k
    assert total == pytest.approx(manual, rel=1e-12)
    # rho_star row/col unpenalized
    assert np.all(s_lam[-1] == 0.0)


def test_layout_counts():
    data = toy_data(n=100, seed=16)
    bundle = dz.assemble(toy_spec(smooth=True), data)
    lay = bundle.layout
    # monotone J=8 -> 7 coefs, rank 6; smooth J=8 -> 7 coefs, rank 6;
    # ridge binary -> 1 coef, rank 1
    assert lay.zeta == 6 + 6 + 1
    assert lay.psi - 1 == lay.p1 + lay.p2
    mask = lay.exp_mask
    assert mask.sum() == 7
    assert not mask[lay.rho_index]


def test_reparametrization_chain_rule():
    data = toy_data(n=30, seed=17)
    bundle = dz.assemble(toy_spec(smooth=True), data)
    rng = np.random.default_rng(18)
    beta1 = rng.normal(scale=0.4, size=bundle.layout.p1)
    e1 = np.where(bundle.exp_mask1(), np.exp(beta1), 1.0)
    analytic = bundle.X * e1[None, :]
    h = 1e-6
    for j in range(bundle.layout.p1):
        bp, bm = beta1.copy(), beta1.copy()
        bp[j] += h
        bm[j] -= h
        fd = (bundle.eta1(bp) - bundle.eta1(bm)) / (2 * h)
        denom = max(1.0, np.abs(analytic[:, j]).max())
        assert np.max(np.abs(fd - analytic[:, j])) / denom < 1e-6


def test_time_columns_nondecreasing():
    data = toy_data(n=40, seed=19)
    bundle = dz.assemble(toy_spec(), data)
    grid = np.linspace(*bundle.mono_interval, 500)
    cols = bundle.time_columns(grid)
    assert np.all(np.diff(cols, axis=0) >= -1e-12)
