"""Restricted-isometry analysis for cosparse recovery.

Measures how far a sensing matrix is from an isometry on the signals a
redundant analysis operator marks as sparse, derives the recovery
constants that such a bound implies, solves the matching l1 programs by
a primal-dual splitting (or a dense simplex when a vertex certificate is
wanted), and checks the implied inequalities on randomized instances.

The package exports each layer's `__all__`: a name is made public once,
in the `__all__` of the module that defines it.
"""

from . import campaign, grip, model, simplex, solvers, verify
from .campaign import *
from .grip import *
from .model import *
from .simplex import *
from .solvers import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *simplex.__all__,
    *grip.__all__,
    *solvers.__all__,
    *verify.__all__,
    *campaign.__all__,
]
