"""Selection among quantile-matching transformations by profile log likelihood.

A response vector is mapped through rank-based percentiles to the quantiles
of a candidate target distribution; a Gaussian linear model (fixed-effects
additive row+column, or balanced random-effects) is fitted to the result;
and targets are compared by the profiled log likelihood of the composite
transformation.  The package provides the target families, the percentile
machinery, both model fits, family profiling with refinement, likelihood
ratios with their first-order diagnostics, benchmark simulators and a CLI.
"""

__version__ = "0.1.0"

from .errors import DegenerateFitError, DomainError, NumericError, QmatchError
from .linmodel import (
    DesignSpec,
    ModelFit,
    ModelKind,
    ProjectionDecomposition,
    decompose,
    fit,
    fit_fixed,
    fit_random_balanced,
)
from .percentile import PercentileVector, percentiles
# targetdist comes before simdesign, which imports it: when scipy.special was
# first imported one level deeper, ``import qmatch.cli`` took about 20 ms more.
from .targetdist import (
    AlphaBeta,
    Gaussian,
    Logistic,
    StudentT,
    TargetDistribution,
    Uniform,
)
from .simdesign import SimConfig, SimOutput, simulate
from .translik import (
    CorrelationReport,
    GaussianUniformDiagnostics,
    ProfileCurve,
    ReducedProfileLoglik,
    boxcox_profile,
    correlation_report,
    loglik_ratio,
    lr_diagnostics_gaussian_uniform,
    profile_alpha,
    profile_student_t,
    reduced_profile_loglik,
)

__all__ = [
    "__version__",
    "QmatchError", "DomainError", "DegenerateFitError", "NumericError",
    "TargetDistribution", "Gaussian", "Uniform", "Logistic", "StudentT",
    "AlphaBeta",
    "PercentileVector", "percentiles",
    "DesignSpec", "ModelKind", "ModelFit", "ProjectionDecomposition",
    "decompose", "fit", "fit_fixed", "fit_random_balanced",
    "ReducedProfileLoglik", "ProfileCurve", "GaussianUniformDiagnostics",
    "CorrelationReport",
    "reduced_profile_loglik", "loglik_ratio",
    "lr_diagnostics_gaussian_uniform", "profile_student_t", "profile_alpha",
    "boxcox_profile", "correlation_report",
    "SimConfig", "SimOutput", "simulate",
]
