"""Design assembly for the two model equations.

Builds the outcome design matrix (the monotone time block of
``splines.monotone_columns``, covariate terms, treatment and interaction
columns), the exact time derivative of its monotone block, the selection
design, the block penalty roots and the layout delta = (beta1, beta2,
rho_star).  What each term kind may do is one table, ``_KINDS``, which
``Term``, ``ModelSpec`` and ``assemble`` read.

The monotone block's columns are anchored at the median observed time
t_ref: each has its value at t_ref subtracted, so the outcome intercept is
eta1's time part at t_ref, not at t = 0, where the transform may plunge far
below the data.  The model is unchanged; only the intercept's coordinate
moves.  ``assemble`` records each such fact once:
``DesignBundle.time_slice`` is the monotone block and the only record of
which coefficients are exp-coded, ``DesignBundle.time_anchor`` the block's
row at t_ref, and each penalized ``TermBlock`` gets its lambda index and
penalty root when it is added.  ``DesignBundle.arm_parts`` is the one place
that knows how the treatment and interaction columns change with the arm.

``assemble`` also sorts the rows once, stably, by the likelihood case
2 * status + treatment, and builds every design from the sorted rows: the
bundle's data, X and Z share one order, each case is a slice between two
``DesignBundle.case_bounds``, and Xt holds the event rows only.
"""

from dataclasses import dataclass, field

import numpy as np

from . import splines
from .errors import ConfigurationError


@dataclass(frozen=True)
class _Kind:
    eqs: tuple        # the equations it may enter: 1 outcome, 2 selection
    column: bool      # names a column; an interaction's is its modifier
    J: bool           # takes J
    penalized: bool   # and so has a smoothing parameter
    label: str        # its block's name, formatted with the column


_KINDS = {   # the one table of term kinds
    "monotone": _Kind((1,), False, True, True, "mono(time)"),
    "linear": _Kind((1, 2), True, False, False, "{}"),
    "smooth": _Kind((1, 2), True, True, True, "s({})"),
    "ridge": _Kind((2,), True, False, True, "ridge({})"),
    "treatment": _Kind((1,), False, False, False, "treatment"),
    "interaction": _Kind((1,), True, False, False, "treatment:{}"),
}


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
        for name in ("status", "treatment"):
            # checked before the cast, which would truncate 0.7 to 0
            vals = np.asarray(getattr(self, name))
            if not np.isin(vals, (0, 1)).all():
                raise ConfigurationError(f"{name} must be coded 0/1")
            setattr(self, name, vals.astype(int))
        n = self.time.size
        if any(v.shape != (n,) for v in (self.time, self.status, self.treatment)):
            raise ConfigurationError(
                "time, status and treatment must be 1-D columns of one length")
        if not np.all(np.isfinite(self.time)) or np.any(self.time <= 0.0):
            raise ConfigurationError("follow-up times must be finite and positive")
        cov = {}
        for name, col in self.covariates.items():
            col = np.asarray(col, dtype=float)
            if col.shape != (n,):
                raise ConfigurationError(
                    f"covariate {name!r} is not a 1-D column of length {n}")
            if not np.all(np.isfinite(col)):
                raise ConfigurationError(f"covariate {name!r} contains missing values")
            cov[name] = col
        self.covariates = cov

    @property
    def n(self):
        return self.time.size


@dataclass(frozen=True)
class Term:
    """One additive term in either equation, checked against ``_KINDS``."""

    kind: str
    column: str | None = None
    J: int | None = None

    def __post_init__(self):
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ConfigurationError(f"unknown term kind {self.kind!r}")
        if bool(self.column) != kind.column:
            need = "needs a column name" if kind.column else "takes no column"
            raise ConfigurationError(f"{self.kind} term {need}")
        if self.J is not None and not kind.J:
            raise ConfigurationError(f"{self.kind} term takes no J")


@dataclass
class ModelSpec:
    """Declarative description of both equations' terms."""

    outcome_terms: list
    selection_terms: list

    def penalty_count(self, eq):
        """Smoothing parameters of equation ``eq`` (1 outcome, 2 selection)."""
        terms = self.outcome_terms if eq == 1 else self.selection_terms
        return sum(_KINDS[t.kind].penalized for t in terms)

    def validate(self):
        mono = [t for t in self.outcome_terms if t.kind == "monotone"]
        if len(mono) != 1:
            raise ConfigurationError("outcome equation needs exactly one monotone time term")
        if not any(t.kind == "treatment" for t in self.outcome_terms):
            raise ConfigurationError("outcome equation needs a treatment term")
        if sum(t.kind == "treatment" for t in self.outcome_terms) > 1:
            raise ConfigurationError("only one treatment term is allowed")
        for eq, name, terms in ((1, "outcome", self.outcome_terms),
                                (2, "selection", self.selection_terms)):
            for t in terms:
                if eq not in _KINDS[t.kind].eqs:
                    raise ConfigurationError(
                        f"term kind {t.kind!r} not allowed in {name} equation")
            # a smooth's unpenalized null space already holds its column's
            # linear part, so a second such term is not identified
            columns = [t.column for t in terms if t.kind in ("linear", "smooth")]
            twice = sorted({c for c in columns if columns.count(c) > 1})
            if twice:
                raise ConfigurationError(
                    f"collinear terms in the {name} equation: {twice} enter "
                    "it more than once as linear: or smooth: terms")
        # instruments (ridge-coded selection variables) must stay out of the
        # outcome equation
        instruments = {t.column for t in self.selection_terms if t.kind == "ridge"}
        clash = instruments & {t.column for t in self.outcome_terms}
        if clash:
            raise ConfigurationError(
                f"instrument column(s) {sorted(clash)} may not enter the outcome equation")


@dataclass
class TermBlock:
    """Placement of one term's coefficients inside delta.

    A penalized block also holds its smoothing parameter's index and its
    penalty root R: R'R is the term's penalty with eigenvalues <= 1e-10 of
    the largest dropped, and the only record of it.  Both are None on an
    unpenalized block.
    """

    name: str
    eq: int
    kind: str
    sl: slice
    lambda_index: int | None
    root: np.ndarray | None

    @property
    def penalty_rank(self):
        return 0 if self.root is None else self.root.shape[0]


@dataclass
class ParameterLayout:
    """Global coefficient layout."""

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


@dataclass
class DesignBundle:
    """Assembled designs, penalty metadata and outcome rows at new (t, d)."""

    X: np.ndarray
    Xt: np.ndarray  # d/dy of X's monotone time columns, exact, on event rows
    Z: np.ndarray
    layout: ParameterLayout
    data: DataSet   # the caller's rows in case order
    case_bounds: np.ndarray   # case k is rows case_bounds[k]:case_bounds[k + 1]
    mono_knots: np.ndarray
    mono_order: int
    mono_interval: tuple
    time_slice: slice  # the monotone block: the exp-coded coefficients
    time_anchor: np.ndarray  # its unanchored row at the median observed time
    treat_index: int
    interaction_cols: list  # (column index, modifier values)
    # inner fits that depend only on this bundle, kept by the optimizer
    fit_cache: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def n(self):
        return self.data.n

    # -- coefficient transforms ------------------------------------------
    def beta1_tilde(self, beta1):
        """A copy of beta1 with exp taken on the time block."""
        tilde = np.array(beta1, dtype=float)
        with np.errstate(over="ignore"):
            # overflow yields inf and is caught by the invalid-point protocol
            tilde[self.time_slice] = np.exp(tilde[self.time_slice])
        return tilde

    # -- rebuilding outcome rows at arbitrary (t, d) -----------------------
    def time_columns(self, t):
        """X's monotone time columns at times t, anchored as X's are."""
        return (splines.monotone_columns(np.atleast_1d(t), self.mono_knots,
                                         self.mono_order) - self.time_anchor)

    def arm_parts(self, tilde):
        """(a, b): eta1's non-time part under arm d is a + d b per row, with
        tilde = ``beta1_tilde(beta1)``.  a is X @ tilde without the time,
        treatment and interaction coefficients; b is the treatment
        coefficient, a number, plus each interaction coefficient times its
        modifier, which makes it a row vector.  The observed arm is
        a + treatment b."""
        rest = tilde.copy()
        rest[self.time_slice] = 0.0
        rest[self.treat_index] = 0.0
        b = tilde[self.treat_index]
        for col, modvals in self.interaction_cols:
            rest[col] = 0.0
            b = b + tilde[col] * modvals
        return self.X @ rest, b


def _penalty_root(penalty):
    """R with R'R = penalty, the rows of its numerical null space dropped."""
    eig, vec = np.linalg.eigh(0.5 * (penalty + penalty.T))
    keep = eig > 1e-10 * eig.max(initial=0.0)
    return np.sqrt(eig[keep])[:, None] * vec[:, keep].T


def _check_unpenalized_rank(blocks, designs, eq):
    """ConfigurationError if equation eq's unpenalized columns are collinear."""
    free = [(d[:, 0], b.name) for b, d in zip(blocks, designs)
            if b.eq == eq and b.root is None]
    names = [name for _, name in free]
    u, svals, vt = np.linalg.svd(np.column_stack([c for c, _ in free]),
                                 full_matrices=False)
    if svals[0] == 0.0 or svals[-1] < 1e-10 * svals[0]:
        v = vt[-1]
        guilty = [names[j] for j in range(len(names)) if abs(v[j]) > 0.1 * np.abs(v).max()]
        eq_label = "outcome" if eq == 1 else "selection"
        raise ConfigurationError(
            f"collinear unpenalized terms in the {eq_label} equation: "
            + ", ".join(sorted(set(guilty))))


def assemble(spec: ModelSpec, data: DataSet) -> DesignBundle:
    """Assemble designs, penalties and the parameter layout for a model."""
    spec.validate()
    for t in spec.outcome_terms + spec.selection_terms:
        if t.column and t.column not in data.covariates:
            raise ConfigurationError(f"unknown covariate {t.column!r}")
    code = 2 * data.status + data.treatment
    order = np.argsort(code, kind="stable")
    data = DataSet(time=data.time[order], status=data.status[order],
                   treatment=data.treatment[order],
                   covariates={k: v[order] for k, v in data.covariates.items()},
                   level_maps=data.level_maps)
    case_bounds = np.searchsorted(code[order], np.arange(5))

    blocks, designs = [], []   # in delta order: outcome blocks, then selection
    treat_index = None
    interaction_cols = []

    def add(eq, name, design, kind="parametric", penalty=None):
        """Append a block; a penalized one takes the next lambda index."""
        start = blocks[-1].sl.stop if blocks else 0
        lam_idx = root = None
        if penalty is not None:
            lam_idx = sum(b.root is not None for b in blocks)
            root = _penalty_root(penalty)
        blocks.append(TermBlock(name=name, eq=eq, kind=kind,
                                sl=slice(start, start + design.shape[1]),
                                lambda_index=lam_idx, root=root))
        designs.append(design)
        return blocks[-1].sl

    ones = np.ones(data.n)
    for eq, terms in ((1, spec.outcome_terms), (2, spec.selection_terms)):
        add(eq, "intercept", ones[:, None])
        for term in terms:
            name = _KINDS[term.kind].label.format(term.column)
            size = {} if term.J is None else {"J": term.J}
            values = data.covariates.get(term.column)
            if term.kind == "monotone":
                mono = splines.build_monotone_term(data.time, **size)
                time_slice = add(eq, name, mono.design, "monotone", mono.penalty)
            elif term.kind == "linear":
                add(eq, name, values[:, None])
            elif term.kind == "smooth":
                basis = splines.build_smooth_term(values, name=name, **size)
                add(eq, name, basis.design, "smooth", basis.penalty)
            elif term.kind == "ridge":
                basis = splines.build_ridge_term(values, name)
                add(eq, name, basis.design, "ridge", basis.penalty)
            elif term.kind == "treatment":
                treat_index = add(eq, name, data.treatment.astype(float)[:, None]).start
            elif term.kind == "interaction":
                sl = add(eq, name, (data.treatment * values)[:, None])
                interaction_cols.append((sl.start, values))
        _check_unpenalized_rank(blocks, designs, eq)

    p1 = next(b.sl.start for b in blocks if b.eq == 2)
    mono_order = mono.meta["order"]
    x_mat = np.column_stack([d for b, d in zip(blocks, designs) if b.eq == 1])
    # in place: a subtracted copy would be one more n x J array at peak
    anchor = splines.monotone_columns(np.median(data.time)[None], mono.knots,
                                      mono_order)[0]
    x_mat[:, time_slice] -= anchor
    return DesignBundle(
        X=x_mat,
        Xt=splines.monotone_columns(data.time[case_bounds[2]:], mono.knots,
                                    mono_order, nu=1),
        Z=np.column_stack([d for b, d in zip(blocks, designs) if b.eq == 2]),
        layout=ParameterLayout(blocks=blocks, p1=p1, p2=blocks[-1].sl.stop - p1),
        data=data, case_bounds=case_bounds, mono_knots=mono.knots,
        mono_order=mono_order, mono_interval=mono.meta["interval"],
        time_slice=time_slice, time_anchor=anchor, treat_index=treat_index,
        interaction_cols=interaction_cols)
