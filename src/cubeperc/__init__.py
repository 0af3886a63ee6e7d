"""Monte Carlo and exact-enumeration laboratory for bond percolation on the hypercube."""

__version__ = "0.1.0"

# a module's __all__ is its public surface, and the package republishes it
from .cube import *  # noqa: F401,F403
from .gen import *  # noqa: F401,F403
from .clusters import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403
from .critical import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
