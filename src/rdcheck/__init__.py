"""Reaction-diffusion global-existence diagnostics.

A 1-D finite-volume laboratory for mass-controlled reaction-diffusion
systems: an IMEX solver with positivity enforcement, sampled structure
audits of reaction families, auxiliary-field comparison diagnostics, the
closed-form constants of the underlying regularity theory, and the
conservative closure transform, all reachable from a JSON-configured CLI.
"""

from . import config, diagnostics, experiment, grid, models, solver, theory
from .config import *
from .diagnostics import *
from .experiment import *
from .grid import *
from .models import *
from .solver import *
from .theory import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (config, diagnostics, experiment, grid, models, solver, theory)
    for name in module.__all__
]
