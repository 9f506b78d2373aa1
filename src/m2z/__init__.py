"""Exact arithmetic for 2x2 integer matrix classes and their relatives:
the divisibility lattice with its hyper-distance, the per-prime posets,
Conway's big picture, divisor-count Dirichlet coefficients, and the
supernatural-number classification of extensions of Q by Z."""

# The public names of each module: its __all__ (every exception of errors).
from .bigpicture import *  # noqa: F403
from .errors import *  # noqa: F403
from .localposet import *  # noqa: F403
from .matrices import *  # noqa: F403
from .supernatural import *  # noqa: F403
from .zeta import *  # noqa: F403

__version__ = "0.1.0"
