"""Reaction-diffusion global-existence diagnostics.

A 1-D finite-volume laboratory for mass-controlled reaction-diffusion
systems: an IMEX solver with positivity enforcement, sampled structure
audits of reaction families, auxiliary-field comparison diagnostics, the
closed-form constants of the underlying regularity theory, and the
conservative closure transform, all reachable from a JSON-configured CLI.
"""

from .config import RunConfig, load_config, validate_config
from .diagnostics import (
    AuxiliaryConfig,
    AuxiliaryTracker,
    InvariantTracker,
    entropy_pointwise_worst,
    loglog_slope,
)
from .errors import ConfigError, NumericalFailure
from .experiment import ExperimentOutcome, config_sha256, run_experiment, write_atomic
from .grid import Grid1D, grad_sup, holder_modulus, laplacian_values
from .models import (
    CheckResult,
    ReactionSystem,
    augment_system,
    check_structure,
    custom_polynomial,
    quadratic_reversible,
    skew_lv,
    verify_augmented,
)
from .solver import (
    SolverConfig,
    StepEvent,
    imex_step,
    implicit_heat_step,
    run_simulation,
)
from .theory import (
    ExponentAlgebra,
    FitResult,
    InterpolationConstants,
    QuadEquilibrium,
    exponent_algebra,
    fit_rate,
    gaussian_moment,
    interpolation_constants,
    quad_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryConfig",
    "AuxiliaryTracker",
    "CheckResult",
    "ConfigError",
    "ExperimentOutcome",
    "ExponentAlgebra",
    "FitResult",
    "Grid1D",
    "InterpolationConstants",
    "InvariantTracker",
    "NumericalFailure",
    "QuadEquilibrium",
    "ReactionSystem",
    "RunConfig",
    "SolverConfig",
    "StepEvent",
    "augment_system",
    "check_structure",
    "config_sha256",
    "custom_polynomial",
    "entropy_pointwise_worst",
    "exponent_algebra",
    "fit_rate",
    "gaussian_moment",
    "grad_sup",
    "holder_modulus",
    "imex_step",
    "implicit_heat_step",
    "interpolation_constants",
    "laplacian_values",
    "load_config",
    "loglog_slope",
    "quad_equilibrium",
    "quadratic_reversible",
    "run_experiment",
    "run_simulation",
    "skew_lv",
    "validate_config",
    "verify_augmented",
    "write_atomic",
]
