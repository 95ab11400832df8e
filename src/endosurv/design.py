"""Design assembly for the two model equations.

Builds the outcome design matrix (monotone time block with the summation
matrix absorbed, covariate terms, treatment and interaction columns), the
exact time derivative of its monotone block, the selection design, the
block penalty and the parameter layout delta = (beta1, beta2, rho_star).

The monotone block's summation matrix turns the raw B-spline columns into
right partial sums; the first of those columns is identically one (partition
of unity) and is dropped in favor of the explicit intercept, so every
remaining monotone coefficient is exp-reparametrized.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import splines
from .errors import ConfigurationError

_OUTCOME_KINDS = {"monotone", "linear", "smooth", "treatment", "interaction"}
_SELECTION_KINDS = {"linear", "smooth", "ridge"}


@dataclass
class DataSet:
    """Per-subject records: follow-up time, event status, treatment, covariates."""

    time: np.ndarray
    status: np.ndarray
    treatment: np.ndarray
    covariates: dict
    level_maps: dict = field(default_factory=dict)

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        self.status = np.asarray(self.status, dtype=int)
        self.treatment = np.asarray(self.treatment, dtype=int)
        n = self.time.size
        if self.status.size != n or self.treatment.size != n:
            raise ConfigurationError("time, status and treatment lengths differ")
        if not np.all(np.isfinite(self.time)) or np.any(self.time <= 0.0):
            raise ConfigurationError("follow-up times must be finite and positive")
        for name in ("status", "treatment"):
            vals = getattr(self, name)
            if not np.isin(vals, (0, 1)).all():
                raise ConfigurationError(f"{name} must be coded 0/1")
        cov = {}
        for name, col in self.covariates.items():
            col = np.asarray(col, dtype=float)
            if col.size != n:
                raise ConfigurationError(f"covariate {name!r} has wrong length")
            if not np.all(np.isfinite(col)):
                raise ConfigurationError(f"covariate {name!r} contains missing values")
            cov[name] = col
        self.covariates = cov

    @property
    def n(self):
        return self.time.size


@dataclass(frozen=True)
class Term:
    """One additive term in either equation."""

    kind: str
    column: str | None = None
    modifier: str | None = None
    J: int | None = None

    def label(self):
        if self.kind == "monotone":
            return "mono(time)"
        if self.kind == "smooth":
            return f"s({self.column})"
        if self.kind == "ridge":
            return f"ridge({self.column})"
        if self.kind == "treatment":
            return "treatment"
        if self.kind == "interaction":
            return f"treatment:{self.modifier}"
        return str(self.column)


@dataclass
class ModelSpec:
    """Declarative description of both equations' terms."""

    outcome_terms: list
    selection_terms: list
    link_outcome: str = "-probit"
    link_selection: str = "probit"

    def validate(self):
        if self.link_outcome != "-probit" or self.link_selection != "probit":
            raise ConfigurationError("links are fixed to ('-probit', 'probit')")
        mono = [t for t in self.outcome_terms if t.kind == "monotone"]
        if len(mono) != 1:
            raise ConfigurationError("outcome equation needs exactly one monotone time term")
        if not any(t.kind == "treatment" for t in self.outcome_terms):
            raise ConfigurationError("outcome equation needs a treatment term")
        if sum(t.kind == "treatment" for t in self.outcome_terms) > 1:
            raise ConfigurationError("only one treatment term is allowed")
        for t in self.outcome_terms:
            if t.kind not in _OUTCOME_KINDS:
                raise ConfigurationError(f"term kind {t.kind!r} not allowed in outcome equation")
        for t in self.selection_terms:
            if t.kind not in _SELECTION_KINDS:
                raise ConfigurationError(f"term kind {t.kind!r} not allowed in selection equation")
        # instruments (ridge-coded selection variables) must stay out of the
        # outcome equation
        instruments = {t.column for t in self.selection_terms if t.kind == "ridge"}
        used = {t.column for t in self.outcome_terms if t.column} | \
               {t.modifier for t in self.outcome_terms if t.modifier}
        clash = instruments & used
        if clash:
            raise ConfigurationError(
                f"instrument column(s) {sorted(clash)} may not enter the outcome equation")


@dataclass
class TermBlock:
    """Placement of one term's coefficients inside delta."""

    name: str
    eq: int
    kind: str
    sl: slice
    penalty: np.ndarray | None
    lambda_index: int | None
    reparametrized: bool
    penalty_rank: int
    levels: list | None = None


@dataclass
class ParameterLayout:
    """Global coefficient layout and reparametrization bookkeeping."""

    blocks: list
    p1: int
    p2: int

    @property
    def psi(self):
        return self.p1 + self.p2 + 1

    @property
    def rho_index(self):
        return self.p1 + self.p2

    @property
    def eq1(self):
        return slice(0, self.p1)

    @property
    def eq2(self):
        return slice(self.p1, self.p1 + self.p2)

    @property
    def n_lambda(self):
        return sum(1 for b in self.blocks if b.lambda_index is not None)

    @property
    def zeta(self):
        """Sum of penalty ranks: the dimension penalized away as lambda -> inf."""
        return sum(b.penalty_rank for b in self.blocks)

    @functools.cached_property
    def exp_mask(self):
        """Read-only mask of the exp-reparametrized coefficients in delta."""
        mask = np.zeros(self.psi, dtype=bool)
        for b in self.blocks:
            if b.reparametrized:
                mask[b.sl] = True
        mask.flags.writeable = False
        return mask


def _right_partial_sums(mat):
    return np.cumsum(mat[:, ::-1], axis=1)[:, ::-1]


@dataclass
class DesignBundle:
    """Assembled designs, penalty metadata and predictor evaluators."""

    X: np.ndarray
    Xt: np.ndarray  # d/dy of X's monotone time columns, exact
    Z: np.ndarray
    layout: ParameterLayout
    data: DataSet
    spec: ModelSpec
    mono_knots: np.ndarray
    mono_order: int
    mono_interval: tuple
    time_slice: slice
    treat_index: int | None
    interaction_cols: list  # (column index, modifier values)

    @property
    def n(self):
        return self.data.n

    @functools.cached_property
    def case_rows(self):
        """Rows grouped by likelihood case 2 * status + treatment.

        Returns (rows, bounds): the rows of case k are
        rows[bounds[k]:bounds[k + 1]], in data order within each case.
        """
        code = 2 * self.data.status + self.data.treatment
        rows = np.argsort(code, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(code, minlength=4))])
        return rows, bounds

    # -- coefficient transforms ------------------------------------------
    def exp_mask1(self):
        return self.layout.exp_mask[self.layout.eq1]

    def beta1_tilde(self, beta1):
        beta1 = np.asarray(beta1, dtype=float)
        with np.errstate(over="ignore"):
            # overflow yields inf and is caught by the invalid-point protocol
            return np.where(self.exp_mask1(), np.exp(beta1), beta1)

    # -- predictors -------------------------------------------------------
    def eta1(self, beta1):
        beta1 = np.asarray(beta1, dtype=float)
        if beta1.size != self.layout.p1:
            raise ConfigurationError("beta1 has wrong dimension")
        return self.X @ self.beta1_tilde(beta1)

    def eta2(self, beta2):
        beta2 = np.asarray(beta2, dtype=float)
        if beta2.size != self.layout.p2:
            raise ConfigurationError("beta2 has wrong dimension")
        return self.Z @ beta2

    def deta1_dy(self, beta1):
        return self.Xt @ self.beta1_tilde(beta1)[self.time_slice]

    # -- rebuilding outcome rows at arbitrary (t, d) -----------------------
    def time_columns(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        b = splines.bspline_design(t, self.mono_knots, self.mono_order)
        return _right_partial_sums(b)[:, 1:]

    def time_curve(self, beta1, t):
        """Monotone-block contribution to eta1 at times t (same for all rows)."""
        tilde = self.beta1_tilde(beta1)
        return self.time_columns(t) @ tilde[self.time_slice]

    def offsets(self, beta1, d=None):
        """Non-time part of eta1 per row, optionally forcing treatment to d."""
        tilde = self.beta1_tilde(beta1).copy()
        tilde[self.time_slice] = 0.0
        off = self.X @ tilde
        if d is not None and self.treat_index is not None:
            dvec = np.full(self.n, float(d))
            off = off + (dvec - self.X[:, self.treat_index]) * tilde[self.treat_index]
            for col, modvals in self.interaction_cols:
                off = off + (dvec * modvals - self.X[:, col]) * tilde[col]
        return off


def _penalty_rank(penalty):
    if penalty is None:
        return 0
    eig = np.linalg.eigvalsh(0.5 * (penalty + penalty.T))
    top = eig.max(initial=0.0)
    if top <= 0.0:
        return 0
    return int(np.sum(eig > 1e-10 * top))


def _check_unpenalized_rank(columns, names, eq_label):
    if not columns:
        return
    mat = np.column_stack(columns)
    u, svals, vt = np.linalg.svd(mat, full_matrices=False)
    if svals[0] == 0.0 or svals[-1] < 1e-10 * svals[0]:
        v = vt[-1]
        guilty = [names[j] for j in range(len(names)) if abs(v[j]) > 0.1 * np.abs(v).max()]
        raise ConfigurationError(
            f"collinear unpenalized terms in the {eq_label} equation: "
            + ", ".join(sorted(set(guilty))))


def assemble(spec: ModelSpec, data: DataSet) -> DesignBundle:
    """Assemble designs, penalties and the parameter layout for a model."""
    spec.validate()
    for t in spec.outcome_terms + spec.selection_terms:
        if t.kind in ("linear", "smooth", "ridge") and t.column not in data.covariates:
            raise ConfigurationError(f"unknown covariate {t.column!r}")
        if t.kind == "interaction" and t.modifier not in data.covariates:
            raise ConfigurationError(f"unknown modifier {t.modifier!r}")

    blocks = []
    x_cols = []
    time_slice = None
    treat_index = None
    interaction_cols = []
    mono_knots = mono_order = mono_interval = deriv = None
    unpen_cols, unpen_names = [], []

    def add_block(name, eq, kind, design, penalty, reparam, offset, levels=None):
        j = design.shape[1]
        sl = slice(offset, offset + j)
        lam_idx = None
        if penalty is not None:
            lam_idx = -1  # re-indexed below
        blocks.append(TermBlock(name=name, eq=eq, kind=kind, sl=sl,
                                penalty=penalty, lambda_index=lam_idx,
                                reparametrized=reparam,
                                penalty_rank=_penalty_rank(penalty),
                                levels=levels))
        return sl

    # ---- outcome equation -------------------------------------------------
    offset = 0
    ones = np.ones(data.n)
    add_block("intercept", 1, "parametric", ones[:, None], None, False, offset)
    x_cols.append(ones[:, None])
    unpen_cols.append(ones)
    unpen_names.append("intercept")
    offset += 1

    for term in spec.outcome_terms:
        if term.kind == "monotone":
            J = term.J or splines.DEFAULT_MONOTONE_J
            basis, reparam = splines.build_monotone_term(data.time, J=J)
            mono_knots = basis.knots
            mono_order = reparam.order
            mono_interval = reparam.interval
            design = _right_partial_sums(basis.design)[:, 1:]
            deriv = _right_partial_sums(splines.bspline_design(
                data.time, mono_knots, mono_order, nu=1))[:, 1:]
            penalty = basis.penalty[1:, 1:]
            sl = add_block(term.label(), 1, "monotone", design, penalty, True, offset)
            time_slice = sl
            x_cols.append(design)
        elif term.kind == "linear":
            col = data.covariates[term.column]
            sl = add_block(term.label(), 1, "parametric", col[:, None], None, False, offset)
            x_cols.append(col[:, None])
            unpen_cols.append(col)
            unpen_names.append(term.label())
        elif term.kind == "smooth":
            J = term.J or splines.DEFAULT_SMOOTH_J
            basis = splines.build_smooth_term(data.covariates[term.column], J=J)
            sl = add_block(term.label(), 1, "smooth", basis.design, basis.penalty,
                           False, offset)
            x_cols.append(basis.design)
        elif term.kind == "treatment":
            col = data.treatment.astype(float)
            sl = add_block(term.label(), 1, "parametric", col[:, None], None, False, offset)
            treat_index = sl.start
            x_cols.append(col[:, None])
            unpen_cols.append(col)
            unpen_names.append(term.label())
        elif term.kind == "interaction":
            modvals = data.covariates[term.modifier]
            col = data.treatment.astype(float) * modvals
            sl = add_block(term.label(), 1, "parametric", col[:, None], None, False, offset)
            interaction_cols.append((sl.start, modvals))
            x_cols.append(col[:, None])
            unpen_cols.append(col)
            unpen_names.append(term.label())
        offset = blocks[-1].sl.stop
    p1 = offset
    _check_unpenalized_rank(unpen_cols, unpen_names, "outcome")

    # ---- selection equation -----------------------------------------------
    z_cols = []
    unpen_cols, unpen_names = [], []
    add_block("intercept", 2, "parametric", ones[:, None], None, False, offset)
    z_cols.append(ones[:, None])
    unpen_cols.append(ones)
    unpen_names.append("intercept")
    offset = blocks[-1].sl.stop

    for term in spec.selection_terms:
        if term.kind == "linear":
            col = data.covariates[term.column]
            add_block(term.label(), 2, "parametric", col[:, None], None, False, offset)
            z_cols.append(col[:, None])
            unpen_cols.append(col)
            unpen_names.append(term.label())
        elif term.kind == "smooth":
            J = term.J or splines.DEFAULT_SMOOTH_J
            basis = splines.build_smooth_term(data.covariates[term.column], J=J)
            add_block(term.label(), 2, "smooth", basis.design, basis.penalty,
                      False, offset)
            z_cols.append(basis.design)
        elif term.kind == "ridge":
            basis = splines.build_ridge_term(data.covariates[term.column])
            add_block(term.label(), 2, "ridge", basis.design, basis.penalty,
                      False, offset, levels=basis.levels)
            z_cols.append(basis.design)
        offset = blocks[-1].sl.stop
    p2 = offset - p1
    _check_unpenalized_rank(unpen_cols, unpen_names, "selection")

    # lambda indices in block order: outcome penalties first, then selection
    lam = 0
    for b in blocks:
        if b.lambda_index is not None:
            b.lambda_index = lam
            lam += 1

    layout = ParameterLayout(blocks=blocks, p1=p1, p2=p2)
    bundle = DesignBundle(
        X=np.column_stack(x_cols), Xt=deriv,
        Z=np.column_stack(z_cols), layout=layout, data=data, spec=spec,
        mono_knots=mono_knots, mono_order=mono_order,
        mono_interval=mono_interval, time_slice=time_slice,
        treat_index=treat_index, interaction_cols=interaction_cols)
    return bundle
