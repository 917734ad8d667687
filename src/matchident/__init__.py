"""Rationalizability tests and surplus identification for matching markets.

The package answers two questions about an observed matching between two
finite populations of types:

* could it be the surplus-maximizing matching for *some* nonseparable
  joint surplus (rationalizability), and
* if we commit to an entropy-regularized matching model, *which* surplus
  generated it (identification)?

``core`` holds the domain objects, ``polytope`` the geometry of the
feasible set, ``lp`` the exact linear-programming layer, ``entropy`` the
generalized entropies and the IPFP solver, ``identify`` the end-to-end
verdicts, and ``cli`` a small command-line front end.

Each module's ``__all__`` is the one list of its public names.  The package
re-exports every list, and no name is in two of them.
"""

from . import core, entropy, identify, lp, polytope
from .core import *
from .entropy import *
from .identify import *
from .lp import *
from .polytope import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *polytope.__all__,
    *lp.__all__,
    *entropy.__all__,
    *identify.__all__,
]
