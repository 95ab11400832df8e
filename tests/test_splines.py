import numpy as np
import pytest

from endosurv import splines as sp
from endosurv.errors import ConfigurationError, DomainError

import oracles


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
    basis = sp.bspline_design(x, sp.uniform_knots(9, 4, (2.0, 5.0)), 4)
    assert np.max(np.abs(basis.sum(axis=1) - 1.0)) < 1e-12


def test_bspline_constant_data_rows_identical():
    x = np.full(6, 3.3)
    basis = sp.bspline_design(x, sp.uniform_knots(8, 4, (0.0, 10.0)), 4)
    assert np.max(np.abs(basis - basis[0])) == 0.0


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


@pytest.mark.parametrize("J", [4, 6, 10, 20])
@pytest.mark.parametrize("nu", [0, 1])
def test_bspline_design_matches_scipy(J, nu):
    # scipy.interpolate is a test-only oracle; the package never imports it
    from scipy.interpolate import BSpline

    order = min(sp.BSPLINE_ORDER, J - 1)
    knots = sp.uniform_knots(J, order, (0.3, 7.7))
    a, b = knots[order - 1], knots[J]
    edge = 0.5e-12 * (b - a)   # inside the slack bspline_design tolerates
    x = np.concatenate([np.random.default_rng(J).uniform(a, b, 500),
                        knots[order - 1:J + 1], [a - edge, b + edge]])
    got = sp.bspline_design(x, knots, order, nu=nu)
    xc = np.clip(x, a, b)
    if nu == 0:
        want = BSpline.design_matrix(xc, knots, order - 1).toarray()
        scale, row_sum = 1.0, 1.0
    else:
        want = BSpline(knots, np.eye(J), order - 1)(xc, nu=1)
        scale, row_sum = np.abs(want).max(), 0.0
    assert got.shape == (x.size, J)
    assert np.abs(got - want).max() <= 1e-15 * scale
    assert np.abs(got.sum(axis=1) - row_sum).max() <= 1e-15 * scale


def test_bspline_compact_support():
    x = np.linspace(0.0, 1.0, 200)
    basis = sp.bspline_design(x, sp.uniform_knots(12, 4, (0.0, 1.0)), 4)
    # each cubic basis function is nonzero on at most 4 adjacent spans
    span = (1.0 - 0.0) / (12 - 4 + 1)
    for j in range(12):
        nz = x[basis[:, j] > 1e-14]
        if nz.size:
            assert nz.max() - nz.min() <= 4 * span + 1e-9


def test_bspline_domain_error_names_index():
    with pytest.raises(DomainError, match="index 1"):
        sp.bspline_design(np.array([0.5, 9.0]), sp.uniform_knots(8, 4, (0, 1)), 4)


def test_monotone_difference_matrix_j4():
    # the first-difference penalty on the three exp-coded coefficients
    pen = sp.build_monotone_term(np.array([1.0, 2.0, 5.0]), J=4).penalty
    assert np.array_equal(pen, [[1.0, -1.0, 0.0],
                                [-1.0, 2.0, -1.0],
                                [0.0, -1.0, 1.0]])


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
    basis = sp.build_monotone_term(y, J=10)
    grid = np.linspace(basis.meta["interval"][0], basis.meta["interval"][1], 1000)
    bgrid = sp.bspline_design(grid, basis.knots, basis.meta["order"])
    for _ in range(50):
        beta = rng.normal(scale=1.5, size=10)
        s = bgrid @ monotone_reparam_coefs(beta)
        assert np.all(np.diff(s) >= -1e-10)


def test_monotone_term_degenerate_times():
    with pytest.raises(ConfigurationError):
        sp.build_monotone_term(np.full(10, 3.0), J=6)


def test_monotone_interval_default_extends_past_max():
    y = np.array([1.0, 4.0, 10.0])
    interval = sp.build_monotone_term(y, J=6).meta["interval"]
    assert interval[0] == 0.0
    assert interval[1] == pytest.approx(10.01)


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
    # fitted function on a fine grid, in the term's coordinate (x - shift) / scale
    rng = np.random.default_rng(12)
    x = np.linspace(0.0, 1.0, 150)
    term = sp.build_smooth_term(x, J=10)
    beta = rng.normal(size=9)
    grid = np.linspace(0.0, 1.0, 4001)
    s = oracles.smooth_term_rows(term, grid) @ beta
    h = (grid[1] - grid[0]) / term.meta["scale"]
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
    again = oracles.smooth_term_rows(term, x)
    assert np.max(np.abs(again - term.design)) < 1e-10


@pytest.mark.parametrize("distinct", [3000, 1000])
def test_smooth_term_matches_direct_radial_sum(distinct):
    # the per-interval cubic against the direct n x K sum, at the knot cap
    # and on a covariate far from zero: 3000 distinct values put rows
    # between quantile centres and at both ends; 1000 values drawn three
    # times each make every centre a row
    rng = np.random.default_rng(15)
    x = rng.permutation(np.tile(rng.normal(2e4, 5e3, size=distinct),
                                3000 // distinct))
    term = sp.build_smooth_term(x, J=10)
    centers = term.meta["centers"]
    z = (x - term.meta["shift"]) / term.meta["scale"]
    assert centers.size == sp.MAX_RADIAL_KNOTS
    assert centers[0] == z.min() and centers[-1] == z.max()
    direct = oracles.smooth_term_rows(term, x)
    assert np.all(np.abs(term.design - direct)
                  <= 1e-12 * np.abs(direct).max(axis=0))


def test_smooth_term_forms_no_n_by_k_array():
    # an n x K radial matrix at n = 100 000 and K = 1000 would be 800 MB
    import tracemalloc

    x = np.random.default_rng(16).normal(size=100_000)
    tracemalloc.start()
    try:
        sp.build_smooth_term(x, J=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


@pytest.mark.parametrize("J", [0, 1, 2, 1001])
def test_smooth_term_rejects_extreme_J(J):
    # 1100 distinct values: the quantile centres cap K at 1000, so J = 1001
    # exceeds K though not the number of distinct values; J <= 2 leaves no
    # wiggly column
    x = np.random.default_rng(17).normal(size=1100)
    with pytest.raises(ConfigurationError, match="3 <= J <= K=1000"):
        sp.build_smooth_term(x, J=J)


def _eigh_leading(centers, J):
    """The J largest-|eigenvalue| eigenvectors of the radial matrix by a full
    eigendecomposition, in ascending eigenvalue order."""
    val, vec = np.linalg.eigh(np.abs(centers[:, None] - centers) ** 3 / 12.0)
    return vec[:, np.sort(np.argsort(np.abs(val))[::-1][:J])]


def _kept_eigenvectors(monkeypatch, x, J):
    """The K x J eigenvector block build_smooth_term keeps, the shapes of the
    matrices it hands to np.linalg.eigh, and the term's (standardized) centres."""
    kept, shapes = [], []
    eigh, fix_signs = np.linalg.eigh, sp._fix_signs

    def spy_eigh(a):
        shapes.append(a.shape)
        return eigh(a)

    def spy_signs(vectors):
        kept.append(vectors.copy())
        return fix_signs(vectors)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", spy_eigh)
        patch.setattr(sp, "_fix_signs", spy_signs)
        term = sp.build_smooth_term(x, J=J)
    return kept[0], shapes, term.meta["centers"]


@pytest.mark.parametrize("draw,J", [
    (lambda rng: rng.normal(size=1000), 10),
    (lambda rng: rng.normal(size=1000), 20),
    (lambda rng: rng.normal(2e4, 5e3, size=1000), 10),
    (lambda rng: rng.uniform(size=21), 10),
], ids=["normal-J10", "normal-J20", "far-from-zero", "uniform-K=2J+1"])
def test_smooth_term_keeps_the_leading_eigenspace(monkeypatch, draw, J):
    # subspace iteration keeps eigh's J-dimensional leading eigenspace (the
    # projectors agree) and never decomposes a K x K matrix.  Well-conditioned
    # centre sets only: where the kept eigenvalues are ~1e-13 of the largest
    # (one far outlier, two tight clusters), eigh's own basis is set by
    # rounding and no method can match it to this tolerance.
    x = draw(np.random.default_rng(18))
    u, shapes, centers = _kept_eigenvectors(monkeypatch, x, J)
    exact = _eigh_leading(centers, J)
    assert np.max(np.abs(u @ u.T - exact @ exact.T)) < 1e-10
    assert shapes and all(max(shape) <= 2 * J for shape in shapes)


@pytest.mark.parametrize("K,J", [(20, 10), (12, 12)])
def test_smooth_term_small_k_is_the_full_eigendecomposition(monkeypatch, K, J):
    x = np.random.default_rng(19).uniform(size=K)
    u, shapes, centers = _kept_eigenvectors(monkeypatch, x, J)
    assert shapes == [(K, K)]
    assert np.array_equal(u, _eigh_leading(centers, J))


def test_smooth_term_is_deterministic_and_leaves_global_rng_alone():
    x = np.random.default_rng(20).normal(size=5000)
    before = np.random.get_state()
    first = sp.build_smooth_term(x, J=10)
    second = sp.build_smooth_term(x, J=10)
    after = np.random.get_state()
    assert first.design.tobytes() == second.design.tobytes()
    assert first.penalty.tobytes() == second.penalty.tobytes()
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])


def test_smooth_term_holds_no_k_by_k_array():
    # at K = 1000 one radial matrix is 7.6 MiB; the prefix sums hold K x 2J
    # arrays, and 1000 rows keep the n x J ones small (measured: 1.0 MiB;
    # the dense radial matrix and its Taylor blocks took 8.3 MiB)
    import tracemalloc

    x = np.random.default_rng(21).normal(size=1000)
    tracemalloc.start()
    try:
        term = sp.build_smooth_term(x, J=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert term.meta["centers"].size == sp.MAX_RADIAL_KNOTS
    assert peak < 2 * 2**20


RADIAL_KERNELS = [lambda r: np.abs(r) ** 3 / 12.0,
                  lambda r: r * np.abs(r) / 4.0,
                  lambda r: np.abs(r) / 4.0]


@pytest.mark.parametrize("j", [0, 1, 2], ids=["cube", "slope", "curvature"])
@pytest.mark.parametrize("draw", [
    lambda rng: rng.normal(size=1000),
    lambda rng: rng.normal(2e4, 5e3, size=1000),
    lambda rng: rng.lognormal(size=1000),
], ids=["normal", "far-from-zero", "lognormal"])
def test_radial_taylor_matches_dense_sums(draw, j):
    # the prefix sums against sum_k s(c_m - c_k) q_k on the dense matrix
    rng = np.random.default_rng(22)
    centers = np.sort(draw(rng))
    q = np.linalg.qr(rng.standard_normal((centers.size, 20)))[0]
    dense = RADIAL_KERNELS[j](centers[:, None] - centers) @ q
    got = sp._radial_taylor(centers, q, j)
    assert np.all(np.abs(got - dense) <= 1e-13 * np.abs(dense).max(axis=0))


def test_radial_taylor_third_coefficient_is_the_right_hand_sign_sum():
    # sign(0) = +1: the cubic's third derivative on [c_m, c_m+1]
    centers = np.array([-1.0, 0.5, 2.0, 7.0])
    q = np.arange(1.0, 5.0)[:, None]
    sign = np.where(centers[:, None] >= centers, 1.0, -1.0)
    assert np.array_equal(sp._radial_taylor(centers, q, 3), sign @ q / 12.0)


def test_smooth_term_rejects_an_overflowing_span():
    x = np.random.default_rng(23).normal(size=200)
    sp.build_smooth_term(x * (sp.MAX_RADIAL_SPAN / 10.0), J=10)
    with pytest.raises(ConfigurationError, match="smooth.x. spans"):
        sp.build_smooth_term(x * 1e120, J=10, name="smooth(x)")


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


def test_ridge_level_cap():
    term = sp.build_ridge_term(np.arange(300) % sp.MAX_RIDGE_LEVELS)
    assert term.design.shape == (300, sp.MAX_RIDGE_LEVELS - 1)
    with pytest.raises(ConfigurationError, match="ridge.x. has 101 levels"):
        sp.build_ridge_term(np.arange(sp.MAX_RIDGE_LEVELS + 1.0), "ridge(x)")


def test_all_penalties_psd_after_symmetrization():
    rng = np.random.default_rng(15)
    y = rng.uniform(0.1, 5.0, size=100)
    mono = sp.build_monotone_term(y, J=9)
    smooth = sp.build_smooth_term(rng.normal(size=100), J=10)
    ridge = sp.build_ridge_term(rng.integers(0, 2, size=100))
    for term in (mono, smooth, ridge):
        pen = 0.5 * (term.penalty + term.penalty.T)
        assert np.linalg.eigvalsh(pen).min() >= -1e-10
