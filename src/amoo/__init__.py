"""Adaptive loss weighting for aligned multi-objective gradient descent.

When several objectives share a minimizer, reweighting them can make the
scalarized problem far better conditioned than any single objective.  This
package provides the weighted descent driver, curvature-adaptive and
Polyak-style weight optimizers, the benchmark problems they are studied on,
and a toolkit that numerically verifies the supporting bounds.
"""

from .core import (
    NumericError,
    ObjectiveOracle,
    ObjectiveSet,
    OptimalInfo,
    UnsupportedQueryError,
    weighted_gradient,
)
from .driver import (
    AdamConfig,
    ConfigurationError,
    GDConfig,
    IterateRecord,
    RunConfig,
    RunTrace,
    WeightingChoice,
    run,
)
from .hessians import HutchinsonConfig, hutchinson_diag, hvp_fd
from .linalg import min_eigenpair, spectral_norm, weighted_hessian
from .problems import Problem, ProblemMeta, ProblemSpec, build, misalign
from .weighting import (
    CamooConfig,
    PamooConfig,
    pamoo_context,
    pamoo_weights,
    solve_bilinear_pu,
)
from .analysis import (
    RecurrenceParams,
    TheoremParams,
    fit_rate,
    recurrence_simulate_and_bound,
    self_concordance_check,
    theorem_bound_check,
    weyl_degradation_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AdamConfig",
    "CamooConfig",
    "ConfigurationError",
    "GDConfig",
    "HutchinsonConfig",
    "IterateRecord",
    "NumericError",
    "ObjectiveOracle",
    "ObjectiveSet",
    "OptimalInfo",
    "PamooConfig",
    "Problem",
    "ProblemMeta",
    "ProblemSpec",
    "RecurrenceParams",
    "RunConfig",
    "RunTrace",
    "TheoremParams",
    "UnsupportedQueryError",
    "WeightingChoice",
    "build",
    "fit_rate",
    "hutchinson_diag",
    "hvp_fd",
    "min_eigenpair",
    "misalign",
    "pamoo_context",
    "pamoo_weights",
    "recurrence_simulate_and_bound",
    "run",
    "self_concordance_check",
    "solve_bilinear_pu",
    "spectral_norm",
    "theorem_bound_check",
    "weighted_gradient",
    "weighted_hessian",
    "weyl_degradation_suite",
]
