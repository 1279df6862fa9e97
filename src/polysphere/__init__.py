"""Exact-arithmetic geometry of polyhedral unit spheres.

The package decides face-structure and convexity properties of
finite-dimensional normed spaces whose unit ball is a symmetric polytope,
and verifies or constructs linear extensions of isometries between such
spheres. Everything runs in rational arithmetic; no verdict ever depends
on a floating-point comparison.
"""

from .catalog import (
    CatalogEntry,
    catalog_entries,
    hexagon_space,
    l1_space,
    l1_sum,
    linf_space,
    linf_sum,
    resolve,
)
from .errors import (
    AsymmetricInputError,
    CertificationError,
    DegenerateInputError,
    DimensionMismatchError,
    EnumerationCapError,
    GeometryError,
    NotAlmostClError,
    NotOnSphereError,
)
from .isometry import (
    ExtensionCertificate,
    IsometryReport,
    SphereMap,
    extend,
    transported_functionals,
    verify_isometry,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpConstraint,
    LpProblem,
    LpSolution,
    solve_lp,
)
from .properties import (
    ClReport,
    ConditionThreeRecord,
    TPropertyReport,
    check_cl,
    check_t_property,
    cl_decomposition,
    condition_iii_value,
    distance_to_hull,
    in_convex_hull,
)
from .space import (
    MAX_ENUM_DIM,
    MAX_FACETS,
    Functional,
    PolyhedralSpace,
    Vector,
    as_fraction,
    functional,
    vector,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricInputError",
    "CatalogEntry",
    "CertificationError",
    "ClReport",
    "ConditionThreeRecord",
    "DegenerateInputError",
    "DimensionMismatchError",
    "EnumerationCapError",
    "ExtensionCertificate",
    "Functional",
    "GeometryError",
    "INFEASIBLE",
    "IsometryReport",
    "LpConstraint",
    "LpProblem",
    "LpSolution",
    "MAX_ENUM_DIM",
    "MAX_FACETS",
    "NotAlmostClError",
    "NotOnSphereError",
    "OPTIMAL",
    "PolyhedralSpace",
    "SphereMap",
    "TPropertyReport",
    "UNBOUNDED",
    "Vector",
    "as_fraction",
    "catalog_entries",
    "check_cl",
    "check_t_property",
    "cl_decomposition",
    "condition_iii_value",
    "distance_to_hull",
    "extend",
    "functional",
    "hexagon_space",
    "in_convex_hull",
    "l1_space",
    "l1_sum",
    "linf_space",
    "linf_sum",
    "resolve",
    "solve_lp",
    "transported_functionals",
    "vector",
    "verify_isometry",
]
