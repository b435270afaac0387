"""Hypothesis tests for principal component directions under weakly
identified spiked covariance models."""

__version__ = "0.1.0"

from . import asymptotics, data, distributions, harness, linalg, model, statistics
from .asymptotics import *  # noqa: F401,F403
from .data import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .statistics import *  # noqa: F401,F403

# Public in their module, deliberately not re-exported by the package.
_MODULE_ONLY = {"Rng", "min_kappa"}

__all__ = ["__version__"] + [
    name
    for module in (linalg, distributions, model, statistics, asymptotics, harness, data)
    for name in module.__all__
    if name not in _MODULE_ONLY
]
