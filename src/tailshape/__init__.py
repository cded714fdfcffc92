"""Tail-shape estimation for heavy-tailed data.

Estimates the shape parameter of the generalized Pareto distribution (GPD),
including via the transformation of GPD observations to Pareto Type I
variables, and benchmarks the estimators with a seeded Monte Carlo harness
and a peaks-over-threshold pipeline.

The package re-exports the public names of its modules; each module's
``__all__`` is the one list of them.
"""

from . import distributions, estimators, montecarlo, pot, transform
from .distributions import *  # noqa: F403
from .estimators import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .pot import *  # noqa: F403
from .transform import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *distributions.__all__,
    *estimators.__all__,
    *transform.__all__,
    *pot.__all__,
    *montecarlo.__all__,
]
