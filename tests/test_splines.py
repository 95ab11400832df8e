import numpy as np
import pytest

from endosurv import splines as sp
from endosurv.errors import ConfigurationError, DomainError


def cox_de_boor(x, knots, j, order):
    """Independent oracle: direct Cox-de Boor recursion for one basis function."""
    if order == 1:
        # right-closed convention at the very last interval
        if knots[j] <= x < knots[j + 1]:
            return 1.0
        return 0.0
    left = 0.0
    if knots[j + order - 1] != knots[j]:
        left = (x - knots[j]) / (knots[j + order - 1] - knots[j]) \
            * cox_de_boor(x, knots, j, order - 1)
    right = 0.0
    if knots[j + order] != knots[j + 1]:
        right = (knots[j + order] - x) / (knots[j + order] - knots[j + 1]) \
            * cox_de_boor(x, knots, j + 1, order - 1)
    return left + right


def test_bspline_partition_of_unity():
    rng = np.random.default_rng(0)
    x = rng.uniform(2.0, 5.0, size=100)
    basis = sp.build_bspline_basis(x, J=9, interval=(2.0, 5.0))
    assert np.max(np.abs(basis.design.sum(axis=1) - 1.0)) < 1e-12


def test_bspline_constant_data_rows_identical():
    x = np.full(6, 3.3)
    basis = sp.build_bspline_basis(x, J=8, interval=(0.0, 10.0))
    assert np.max(np.abs(basis.design - basis.design[0])) == 0.0


def test_bspline_matches_cox_de_boor_oracle():
    J, order = 10, 4
    interval = (1.0, 7.0)
    knots = sp.uniform_knots(J, order, interval)
    # evaluate at interior knots and a few interior points
    xs = np.concatenate([knots[(knots > 1.0) & (knots < 7.0)], [2.31, 5.99]])
    basis = sp.bspline_design(xs, knots, order)
    for i, x in enumerate(xs):
        for j in range(J):
            want = cox_de_boor(float(x), knots, j, order)
            assert basis[i, j] == pytest.approx(want, abs=1e-12)


def test_bspline_compact_support():
    x = np.linspace(0.0, 1.0, 200)
    basis = sp.build_bspline_basis(x, J=12, interval=(0.0, 1.0))
    # each cubic basis function is nonzero on at most 4 adjacent spans
    span = (1.0 - 0.0) / (12 - 4 + 1)
    for j in range(12):
        nz = x[basis.design[:, j] > 1e-14]
        if nz.size:
            assert nz.max() - nz.min() <= 4 * span + 1e-9


def test_bspline_domain_error_names_index():
    with pytest.raises(DomainError, match="index 1"):
        sp.bspline_design(np.array([0.5, 9.0]), sp.uniform_knots(8, 4, (0, 1)), 4)


def test_monotone_difference_matrix_j4():
    d = sp.monotone_difference_matrix(4)
    assert d.shape == (2, 4)
    assert np.array_equal(d[0], [0.0, 1.0, -1.0, 0.0])
    assert np.array_equal(d[1], [0.0, 0.0, 1.0, -1.0])


def monotone_reparam_coefs(beta):
    """Oracle of the monotone map: cumsum(beta_1, exp(beta_2), ..., exp(beta_J))."""
    beta = np.asarray(beta, dtype=float)
    return np.cumsum(np.concatenate(([beta[0]], np.exp(beta[1:]))))


def test_monotone_reparam_zero_coefs():
    assert np.allclose(monotone_reparam_coefs(np.zeros(3)), [0.0, 1.0, 2.0])
    assert np.allclose(monotone_reparam_coefs(np.array([2.0, 0.0, 0.0])),
                       [2.0, 3.0, 4.0])


def test_monotone_reparam_nondecreasing_for_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        beta = rng.normal(scale=2.0, size=8)
        bt = monotone_reparam_coefs(beta)
        assert np.all(np.diff(bt) >= 0.0)


def test_monotone_term_fitted_function_nondecreasing():
    rng = np.random.default_rng(1)
    y = rng.uniform(0.5, 20.0, size=60)
    basis, reparam = sp.build_monotone_term(y, J=10)
    grid = np.linspace(reparam.interval[0], reparam.interval[1], 1000)
    bgrid = sp.bspline_design(grid, basis.knots, reparam.order)
    for _ in range(50):
        beta = rng.normal(scale=1.5, size=10)
        s = bgrid @ monotone_reparam_coefs(beta)
        assert np.all(np.diff(s) >= -1e-10)


def test_monotone_term_degenerate_times():
    with pytest.raises(ConfigurationError):
        sp.build_monotone_term(np.full(10, 3.0), J=6)


def test_monotone_interval_default_extends_past_max():
    y = np.array([1.0, 4.0, 10.0])
    _, reparam = sp.build_monotone_term(y, J=6)
    assert reparam.interval[0] == 0.0
    assert reparam.interval[1] == pytest.approx(10.01)


def test_smooth_term_centered_columns():
    rng = np.random.default_rng(9)
    x = rng.normal(size=300)
    term = sp.build_smooth_term(x, J=10)
    assert term.design.shape == (300, 9)
    assert np.max(np.abs(term.design.mean(axis=0))) < 1e-12


def test_smooth_term_linear_function_unpenalized():
    rng = np.random.default_rng(10)
    x = rng.uniform(0.0, 1.0, size=200)
    term = sp.build_smooth_term(x, J=10)
    target = 0.7 * (x - x.mean())
    beta, *_ = np.linalg.lstsq(term.design, target, rcond=None)
    fitted = term.design @ beta
    assert np.max(np.abs(fitted - target)) < 1e-8
    assert beta @ term.penalty @ beta < 1e-10


def test_smooth_penalty_matches_integrated_second_derivative():
    # oracle: trapezoid integration of the squared second difference of the
    # fitted function on a fine grid
    rng = np.random.default_rng(12)
    x = np.linspace(0.0, 1.0, 150)
    term = sp.build_smooth_term(x, J=10)
    beta = rng.normal(size=9)
    grid = np.linspace(0.0, 1.0, 4001)
    s = sp.smooth_term_rows(term, grid) @ beta
    h = grid[1] - grid[0]
    s2 = np.diff(s, 2) / h**2
    integral = np.trapezoid(s2**2, dx=h)
    quadform = beta @ term.penalty @ beta
    assert quadform == pytest.approx(integral, rel=1e-3)


def test_smooth_penalty_psd():
    rng = np.random.default_rng(13)
    x = rng.normal(size=120)
    term = sp.build_smooth_term(x, J=8)
    eig = np.linalg.eigvalsh(term.penalty)
    assert eig.min() >= -1e-10


def test_smooth_term_too_few_distinct_values():
    with pytest.raises(ConfigurationError):
        sp.build_smooth_term(np.tile(np.arange(5.0), 20), J=10)


def test_smooth_term_rows_reproduces_training_design():
    rng = np.random.default_rng(14)
    x = rng.normal(size=80)
    term = sp.build_smooth_term(x, J=8)
    again = sp.smooth_term_rows(term, x)
    assert np.max(np.abs(again - term.design)) < 1e-10


def test_smooth_term_chunked_radial_matches_unchunked(monkeypatch):
    rng = np.random.default_rng(15)
    x = rng.normal(size=103)  # not a multiple of the chunk size below
    monkeypatch.setattr(sp, "RADIAL_CHUNK_ROWS", x.size)
    whole = sp.build_smooth_term(x, J=8)
    monkeypatch.setattr(sp, "RADIAL_CHUNK_ROWS", 10)
    chunked = sp.build_smooth_term(x, J=8)
    scale = np.abs(whole.design).max()
    assert np.abs(chunked.design - whole.design).max() <= 1e-13 * scale
    assert np.array_equal(chunked.penalty, whole.penalty)
    again = sp.smooth_term_rows(chunked, x)
    assert np.max(np.abs(again - whole.design)) < 1e-10


def test_ridge_binary_single_column():
    z = np.array([0, 1, 1, 0, 1])
    term = sp.build_ridge_term(z)
    assert term.design.shape == (5, 1)
    assert np.array_equal(term.design[:, 0], [0.0, 1.0, 1.0, 0.0, 1.0])
    assert np.array_equal(term.penalty, np.eye(1))


def test_ridge_three_levels_identity_penalty():
    z = np.array([0, 1, 2, 1, 0, 2])
    term = sp.build_ridge_term(z)
    assert term.design.shape == (6, 2)
    assert np.array_equal(term.penalty, np.eye(2))


def test_ridge_no_variation_errors():
    with pytest.raises(ConfigurationError):
        sp.build_ridge_term(np.zeros(8))


def test_all_penalties_psd_after_symmetrization():
    rng = np.random.default_rng(15)
    y = rng.uniform(0.1, 5.0, size=100)
    mono, _ = sp.build_monotone_term(y, J=9)
    smooth = sp.build_smooth_term(rng.normal(size=100), J=10)
    ridge = sp.build_ridge_term(rng.integers(0, 2, size=100))
    for term in (mono, smooth, ridge):
        pen = 0.5 * (term.penalty + term.penalty.T)
        assert np.linalg.eigvalsh(pen).min() >= -1e-10
