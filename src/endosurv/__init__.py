"""Joint transformation-model estimation of survival treatment effects.

Fits a two-equation model for a right-censored duration and an endogenous
binary treatment linked through a bivariate Gaussian error, with monotone
P-spline baseline, penalized smooth covariate effects and ridge-regularized
instruments.  See README.md for usage.
"""

__version__ = "0.1.0"

from .design import DataSet, ModelSpec, Term, assemble  # noqa: E402,F401
from .optimizer import (  # noqa: E402,F401
    FitOptions, FitResult, fit, fit_outcome_only,
)
from .inference import (  # noqa: E402,F401
    GroupDef, covariance, rho_interval, sate, summary, survival_curves,
)
from .simulate import DgpConfig, generate, run_study  # noqa: E402,F401
