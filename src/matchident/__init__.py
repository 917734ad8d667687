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
"""

from .core import (
    BOUNDARY_TOL,
    MASS_TOL,
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    ConvergenceError,
    DegenerateRayError,
    InstanceTooLargeError,
    KinkPointError,
    Margins,
    MarketError,
    Matching,
    NonInteriorError,
    NotInPolytopeError,
    SeparableParts,
    Surplus,
    TypeValues,
    ValidationError,
    barycenter,
    conditionals,
    decompose_separable,
    is_nonseparable,
    total_surplus,
)
from .entropy import (
    ENTROPY_KINDS,
    IPFP_MAX_ITER,
    IPFP_TOL,
    EntropyModel,
    IpfpReport,
    eval_entropy,
    grad_entropy,
    solve_regularized,
)
from .identify import (
    IdentifiedSurplus,
    RationalizabilityChecks,
    RationalizabilityReport,
    check_rationalizable,
    identify_entropy,
    rationalize_gauge,
    simulate_market,
)
from .lp import (
    LpSolution,
    is_discriminating,
    is_maximizer,
    maximize_surplus,
)
from .polytope import (
    VERTEX_CELL_GUARD,
    GaugeResult,
    contains,
    dimension,
    enumerate_vertices,
    gauge,
    is_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "MASS_TOL",
    "BOUNDARY_TOL",
    "SEPARABILITY_TOL",
    "OPTIMALITY_TOL",
    "MarketError",
    "ValidationError",
    "NotInPolytopeError",
    "DegenerateRayError",
    "NonInteriorError",
    "KinkPointError",
    "ConvergenceError",
    "InstanceTooLargeError",
    "Margins",
    "Matching",
    "Surplus",
    "SeparableParts",
    "TypeValues",
    "total_surplus",
    "decompose_separable",
    "is_nonseparable",
    "barycenter",
    "conditionals",
    # polytope
    "VERTEX_CELL_GUARD",
    "GaugeResult",
    "dimension",
    "contains",
    "enumerate_vertices",
    "gauge",
    "is_boundary",
    # lp
    "LpSolution",
    "maximize_surplus",
    "is_maximizer",
    "is_discriminating",
    # entropy
    "ENTROPY_KINDS",
    "IPFP_TOL",
    "IPFP_MAX_ITER",
    "EntropyModel",
    "IpfpReport",
    "eval_entropy",
    "grad_entropy",
    "solve_regularized",
    # identify
    "RationalizabilityChecks",
    "RationalizabilityReport",
    "IdentifiedSurplus",
    "check_rationalizable",
    "rationalize_gauge",
    "identify_entropy",
    "simulate_market",
]
