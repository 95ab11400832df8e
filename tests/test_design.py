import numpy as np
import pytest

from endosurv import cli
from endosurv import design as dz
from endosurv import optimizer as op
from endosurv import splines as sp
from endosurv.errors import ConfigurationError

import oracles


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
        outcome.append(dz.Term("interaction", column="g"))
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


@pytest.mark.parametrize("column,codes", [("status", [0.7, 1.0, 1.9]),
                                          ("treatment", [0.2, 1.0, 0.0])])
def test_dataset_rejects_fractional_codes(column, codes):
    # the int cast used to run first and truncate 0.7 to 0 and 1.9 to 1
    cols = {"status": [0, 1, 1], "treatment": [0, 1, 0], column: codes}
    with pytest.raises(ConfigurationError, match=f"{column} must be coded 0/1"):
        dz.DataSet(time=[1.0, 2.0, 3.0], **cols, covariates={})


@pytest.mark.parametrize("column", ["time", "status", "treatment", "x"])
def test_dataset_rejects_2d_columns(column):
    # an (n, 1) column used to pass here and fail in assemble with a bare
    # numpy error
    cols = {"time": [1.0, 2.0, 3.0], "status": [0, 1, 1],
            "treatment": [1, 0, 1], "x": [0.5, -1.0, 2.0]}
    cols[column] = np.reshape(cols[column], (3, 1))
    x = cols.pop("x")
    with pytest.raises(ConfigurationError, match="1-D"):
        dz.DataSet(**cols, covariates={"x": x})


def test_rows_are_stored_in_likelihood_case_order():
    data = toy_data(n=97, seed=30)
    code_in = 2 * data.status + data.treatment
    assert np.any(np.diff(code_in) < 0)   # the input mixes the cases
    bundle = dz.assemble(toy_spec(), data)
    rows = bundle.data
    assert np.all(np.diff(2 * rows.status + rows.treatment) >= 0)
    counts = np.bincount(code_in, minlength=4)
    assert np.array_equal(bundle.case_bounds,
                          np.concatenate([[0], np.cumsum(counts)]))
    for k in range(4):
        # within a case the rows keep their input order
        lo, hi = bundle.case_bounds[k:k + 2]
        assert np.array_equal(rows.time[lo:hi], data.time[code_in == k])
        assert np.array_equal(rows.covariates["x"][lo:hi],
                              data.covariates["x"][code_in == k])
    assert np.array_equal(bundle.Z[:, 1], rows.covariates["x"])
    # Xt holds one row per event, in the bundle's order
    assert bundle.Xt.shape[0] == data.status.sum()
    beta1 = np.random.default_rng(31).normal(scale=0.5, size=bundle.layout.p1)
    assert np.allclose(
        bundle.Xt @ bundle.beta1_tilde(beta1)[bundle.time_slice],
        oracles.deta1_dy(bundle, beta1)[rows.status == 1], rtol=1e-13, atol=0)


def test_selection_design_columns():
    data = dz.DataSet(
        time=[1.0, 2.0, 3.0, 4.0], status=[1, 0, 1, 0], treatment=[0, 1, 0, 1],
        covariates={"x": [0.5, -1.0, 2.0, 0.0], "g": [0.0, 1.0, 1.0, 0.0],
                    "w": [0.0, 1.0, 0.0, 1.0]})
    bundle = dz.assemble(toy_spec(ridge=False), data)
    # intercept + x + g
    assert bundle.Z.shape == (4, 3)
    assert np.array_equal(bundle.Z[:, 0], np.ones(4))
    assert np.array_equal(bundle.Z[:, 1], bundle.data.covariates["x"])
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
    rows = bundle.data
    assert np.array_equal(col, rows.treatment * rows.covariates["g"])


def test_duplicate_covariate_errors():
    data = toy_data(n=40, seed=3)
    spec = toy_spec()
    spec.outcome_terms.append(dz.Term("linear", column="g"))
    with pytest.raises(ConfigurationError, match="collinear"):
        dz.assemble(spec, data)


@pytest.mark.parametrize("kind", ["smooth", "monotone"])
def test_zero_J_reaches_the_term_check(kind):
    # J = 0 is rejected by the term builder, not replaced by the default
    data = toy_data(n=40, seed=3)
    spec = toy_spec(smooth=True)
    spec.outcome_terms = [dz.Term(kind, column=term.column, J=0)
                          if term.kind == kind else term
                          for term in spec.outcome_terms]
    with pytest.raises(ConfigurationError, match="J"):
        dz.assemble(spec, data)


@pytest.mark.parametrize("kind", list(dz._KINDS))
def test_term_kind_follows_the_table(kind):
    # every decision about a kind reads design's one table
    row = dz._KINDS[kind]
    column = ("w" if kind == "ridge" else "z") if row.column else None
    text = f"{kind}:{column}" if column else kind
    assert cli._term_to_text(cli._parse_term(text)) == text
    with pytest.raises(ConfigurationError, match="needs a column name"
                       if row.column else "takes no column"):
        dz.Term(kind, None if row.column else "x")
    if row.J:
        assert cli._term_to_text(cli._parse_term(text + " J=8")) == text + " J=8"
    else:
        with pytest.raises(ConfigurationError, match="line 4: .* takes no J"):
            cli._parse_term(text + " J=8", "line 4")
    data = toy_data(n=80, seed=2)
    data.covariates["z"] = np.random.default_rng(2).normal(size=data.n)
    term = dz.Term(kind, column, 8 if row.J else None)
    base = {1: [dz.Term("monotone", J=8), dz.Term("treatment")],
            2: [dz.Term("linear", column="x")]}
    for eq in (1, 2):
        terms = dict(base)
        terms[eq] = [t for t in base[eq] if t.kind != kind] + [term]
        spec = dz.ModelSpec(outcome_terms=terms[1], selection_terms=terms[2])
        if eq not in row.eqs:
            with pytest.raises(ConfigurationError, match="not allowed in"):
                dz.assemble(spec, data)
            continue
        bundle = dz.assemble(spec, data)
        block = next(b for b in bundle.layout.blocks
                     if b.eq == eq and b.name == row.label.format(column))
        assert (block.root is not None) == row.penalized
        assert spec.penalty_count(eq) == sum(
            b.root is not None for b in bundle.layout.blocks if b.eq == eq)


def test_instrument_excluded_from_outcome():
    data = toy_data(n=40, seed=4)
    spec = toy_spec()
    spec.outcome_terms.append(dz.Term("linear", column="w"))
    with pytest.raises(ConfigurationError, match="instrument"):
        dz.assemble(spec, data)


def test_a_column_is_one_linear_or_smooth_term_per_equation():
    # toy_spec has linear:x in both equations; a smooth's unpenalized null
    # space holds the linear part of its column, so a second term is not
    # identified
    for eq, name in ((1, "outcome"), (2, "selection")):
        for extra in (dz.Term("smooth", column="x", J=8),
                      dz.Term("linear", column="x")):
            spec = toy_spec()
            (spec.outcome_terms if eq == 1 else spec.selection_terms).append(extra)
            with pytest.raises(ConfigurationError, match=f"in the {name} "
                               "equation: .*'x'.* more than once"):
                spec.validate()
    # one column may still enter both equations, and beside its interaction
    spec = toy_spec(smooth=True, interaction=True)
    spec.outcome_terms.append(dz.Term("interaction", column="x"))
    dz.assemble(spec, toy_data(n=80, seed=4))


def test_exactly_one_monotone_required():
    spec = toy_spec()
    spec.outcome_terms = [t for t in spec.outcome_terms if t.kind != "monotone"]
    with pytest.raises(ConfigurationError, match="monotone"):
        spec.validate()
    # the other outcome-equation errors, each found before any column is built
    data = toy_data(n=30, seed=4)
    for alter, match in [
            (lambda o: [t for t in o if t.kind != "treatment"],
             "needs a treatment term"),
            (lambda o: o + [dz.Term("treatment")], "only one treatment term"),
            (lambda o: o + [dz.Term("ridge", column="w")],
             "'ridge' not allowed in outcome"),
            (lambda o: o + [dz.Term("linear", column="nosuch")],
             "unknown covariate 'nosuch'"),
            (lambda o: o + [dz.Term("interaction", column="nosuch")],
             "unknown covariate 'nosuch'")]:
        spec = toy_spec()
        spec.outcome_terms = alter(spec.outcome_terms)
        with pytest.raises(ConfigurationError, match=match):
            dz.assemble(spec, data)


def test_eta1_zero_working_coefs_time_block():
    data = toy_data(n=30, seed=5)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=4), dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x")])
    bundle = dz.assemble(spec, data)
    beta1 = np.zeros(bundle.layout.p1)
    eta = oracles.eta1(bundle, beta1)
    # working zeros map to beta_tilde = (0, 1, 2, ...) on the full basis,
    # less its value at the median observed time, where the columns are
    # anchored
    raw = sp.bspline_design(bundle.data.time, bundle.mono_knots,
                            bundle.mono_order)
    ref = sp.bspline_design([np.median(bundle.data.time)], bundle.mono_knots,
                            bundle.mono_order)
    btilde = np.arange(4.0)
    assert np.max(np.abs(eta - (raw - ref) @ btilde)) < 1e-12


def test_eta2_zero_gives_half_probability():
    data = toy_data(n=10, seed=6)
    bundle = dz.assemble(toy_spec(), data)
    from endosurv.numerics import norm_cdf
    eta2 = oracles.eta2(bundle, np.zeros(bundle.layout.p2))
    assert np.allclose(norm_cdf(-eta2), 0.5)


def test_eta1_treatment_contrast_linear():
    data = toy_data(n=50, seed=7)
    bundle = dz.assemble(toy_spec(interaction=True), data)
    rng = np.random.default_rng(8)
    beta1 = rng.normal(scale=0.4, size=bundle.layout.p1)
    tilde = bundle.beta1_tilde(beta1)
    off1 = oracles.offsets(bundle, beta1, d=1)
    off0 = oracles.offsets(bundle, beta1, d=0)
    b_d = tilde[bundle.treat_index]
    b_int = tilde[bundle.interaction_cols[0][0]]
    expected = b_d + b_int * bundle.data.covariates["g"]
    assert np.max(np.abs((off1 - off0) - expected)) < 1e-12
    # arm_parts' b is that same contrast, and a its arm-0 offsets
    a, b = bundle.arm_parts(tilde)
    assert np.max(np.abs(b - expected)) < 1e-12
    assert np.max(np.abs(a - off0)) < 1e-12


def test_deta1_dy_constant_for_linear_ramp():
    data = toy_data(n=60, seed=9)
    spec = dz.ModelSpec(
        outcome_terms=[dz.Term("monotone", J=8), dz.Term("treatment")],
        selection_terms=[dz.Term("linear", column="x")])
    bundle = dz.assemble(spec, data)
    beta1 = np.zeros(bundle.layout.p1)
    # working zeros give equally spaced beta_tilde, i.e. H linear on the
    # uniform knots, so the derivative is constant in y
    d = oracles.deta1_dy(bundle, beta1)
    assert np.max(np.abs(d - d[0])) < 1e-8


def test_deta1_dy_matches_dense_secant():
    data = toy_data(n=40, seed=10)
    bundle = dz.assemble(toy_spec(), data)
    rng = np.random.default_rng(11)
    beta1 = rng.normal(scale=0.5, size=bundle.layout.p1)
    grid = np.linspace(bundle.mono_interval[0], bundle.mono_interval[1], 10_000)
    curve = oracles.time_curve(bundle, beta1, grid)
    slope = np.gradient(curve, grid)
    d = oracles.deta1_dy(bundle, beta1)
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
    t = bundle.data.time
    inside = (t - 4e-3 * (b - a) > a) & (t + 4e-3 * (b - a) < b)
    exact = oracles.deta1_dy(bundle, beta1)[inside]

    def error(eps):
        step = eps * (b - a)
        fd = (oracles.time_curve(bundle, beta1, t[inside] + step)
              - oracles.time_curve(bundle, beta1, t[inside] - step)) / (2.0 * step)
        return np.abs(fd - exact).max()

    # halving the step shrinks the error by about 4x
    assert error(4e-3) / error(2e-3) == pytest.approx(4.0, rel=0.3)
    # a fine step agrees far below the old 1e-4 finite difference's error
    assert error(1e-5) < 5e-9 * np.abs(exact).max()


def test_penalty_assembly_quadratic_form():
    data = toy_data(n=100, seed=14)
    bundle = dz.assemble(toy_spec(smooth=True), data)
    rng = np.random.default_rng(15)
    lam = rng.uniform(0.1, 5.0, size=op.ObjectiveView(bundle, "joint").n_lambda)
    delta = rng.normal(size=bundle.layout.psi)
    s_lam = op.ObjectiveView(bundle, "joint").s_lambda(lam)
    total = delta @ s_lam @ delta
    manual = 0.0
    for blk in bundle.layout.blocks:
        if blk.lambda_index is None:
            continue
        beta_k = delta[blk.sl]
        manual += lam[blk.lambda_index] * beta_k @ (blk.root.T @ blk.root) @ beta_k
    assert total == pytest.approx(manual, rel=1e-12)
    # rho_star row/col unpenalized
    assert np.all(s_lam[-1] == 0.0)


def test_layout_counts():
    data = toy_data(n=100, seed=16)
    bundle = dz.assemble(toy_spec(smooth=True), data)
    lay = bundle.layout
    # monotone J=8 -> 7 coefs, rank 6; smooth J=8 -> 7 coefs, rank 6;
    # ridge binary -> 1 coef, rank 1
    assert sum(b.penalty_rank for b in lay.blocks) == 6 + 6 + 1
    assert lay.psi - 1 == lay.p1 + lay.p2
    # the exp-coded coefficients are the monotone block, inside beta1
    ts = bundle.time_slice
    assert ts.stop - ts.start == 7
    assert ts.stop <= lay.p1
    assert next(b.sl for b in lay.blocks if b.kind == "monotone") == ts


def test_reparametrization_chain_rule():
    data = toy_data(n=30, seed=17)
    bundle = dz.assemble(toy_spec(smooth=True), data)
    rng = np.random.default_rng(18)
    beta1 = rng.normal(scale=0.4, size=bundle.layout.p1)
    e1 = np.ones(bundle.layout.p1)
    e1[bundle.time_slice] = np.exp(beta1[bundle.time_slice])
    analytic = bundle.X * e1[None, :]
    h = 1e-6
    for j in range(bundle.layout.p1):
        bp, bm = beta1.copy(), beta1.copy()
        bp[j] += h
        bm[j] -= h
        fd = (oracles.eta1(bundle, bp) - oracles.eta1(bundle, bm)) / (2 * h)
        denom = max(1.0, np.abs(analytic[:, j]).max())
        assert np.max(np.abs(fd - analytic[:, j])) / denom < 1e-6


def test_time_columns_nondecreasing():
    data = toy_data(n=40, seed=19)
    bundle = dz.assemble(toy_spec(), data)
    grid = np.linspace(*bundle.mono_interval, 500)
    cols = bundle.time_columns(grid)
    assert np.all(np.diff(cols, axis=0) >= -1e-12)


def test_time_columns_anchored_at_the_median_time():
    # the outcome intercept is eta1's intercept at the median observed time:
    # the time columns vanish there, and eta1 of a row observed then is the
    # intercept plus its non-time part
    data = toy_data(n=41, seed=20)
    bundle = dz.assemble(toy_spec(), data)
    t_ref = np.median(bundle.data.time)
    assert not bundle.time_columns(t_ref).any()
    rng = np.random.default_rng(21)
    beta1 = rng.normal(scale=0.5, size=bundle.layout.p1)
    assert oracles.time_curve(bundle, beta1, t_ref)[0] == 0.0
    i = int(np.flatnonzero(bundle.data.time == t_ref)[0])
    assert np.abs(bundle.X[i, bundle.time_slice]).max() <= 1e-15
    # offsets are the intercept plus the non-time part
    assert oracles.eta1(bundle, beta1)[i] == pytest.approx(
        oracles.offsets(bundle, beta1)[i], rel=1e-14, abs=1e-14)
