"""Adaptive loss weighting for aligned multi-objective gradient descent.

When several objectives share a minimizer, reweighting them can make the
scalarized problem far better conditioned than any single objective.  This
package provides the weighted descent driver, curvature-adaptive and
Polyak-style weight optimizers, the benchmark problems they are studied on,
and a toolkit that numerically verifies the supporting bounds.

The package exports ``run`` and what its callers construct, read or catch;
everything else is imported from its module (``amoo.analysis``, ...).
"""

from .core import NumericError
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
from .hessians import HutchinsonConfig
from .problems import ProblemSpec
from .weighting import CamooConfig, PamooConfig

__version__ = "0.1.0"

__all__ = [
    "AdamConfig",
    "CamooConfig",
    "ConfigurationError",
    "GDConfig",
    "HutchinsonConfig",
    "IterateRecord",
    "NumericError",
    "PamooConfig",
    "ProblemSpec",
    "RunConfig",
    "RunTrace",
    "WeightingChoice",
    "run",
]
