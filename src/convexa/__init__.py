"""Numerical verification toolkit for Young- and Nesbitt-convexity.

Weight systems, membership grid search, Hadamard-type theorem evaluation
with closed-form constants, and an independent adaptive-quadrature oracle.
"""

from .errors import (
    DivergentCoefficient,
    DomainError,
    NonConvergenceError,
    OrderingError,
)
from .expr import (
    ExprDomainError,
    ExprSyntaxError,
    FunctionDef,
    builtin_function,
    parse_function,
)
from .membership import (
    GridSpec,
    MembershipReport,
    Verdict,
    ViolationCertificate,
    check_classes,
    check_concave,
    check_convex,
    nonnegativity_witness,
)
from .quadrature import Interval, QuadResult, QuadSpec, integrate, integrate_unit
from .specfun import beta, log_gamma
from .theorems import (
    ConstantsRow,
    ProductBoundReport,
    SandwichReport,
    constants_table,
    hadamard_classical,
    nesbitt_product_bound,
    nesbitt_sandwich,
    nesbitt_similarly_ordered_bound,
    pachpatte_bounds,
    young_product_bound,
    young_right_bound,
    young_sandwich,
)
from .weights import (
    MomentTable,
    WeightKind,
    WeightPair,
    WeightSystem,
    classical,
    dominates_classical,
    nesbitt,
    nesbitt_inequality,
    young,
    young_inequality,
)

__all__ = [
    "ConstantsRow",
    "DivergentCoefficient",
    "DomainError",
    "ExprDomainError",
    "ExprSyntaxError",
    "FunctionDef",
    "GridSpec",
    "Interval",
    "MembershipReport",
    "MomentTable",
    "NonConvergenceError",
    "OrderingError",
    "ProductBoundReport",
    "QuadResult",
    "QuadSpec",
    "SandwichReport",
    "Verdict",
    "ViolationCertificate",
    "WeightKind",
    "WeightPair",
    "WeightSystem",
    "beta",
    "builtin_function",
    "check_classes",
    "check_concave",
    "check_convex",
    "classical",
    "constants_table",
    "dominates_classical",
    "hadamard_classical",
    "integrate",
    "integrate_unit",
    "log_gamma",
    "nesbitt",
    "nesbitt_inequality",
    "nesbitt_product_bound",
    "nesbitt_sandwich",
    "nesbitt_similarly_ordered_bound",
    "nonnegativity_witness",
    "pachpatte_bounds",
    "parse_function",
    "young",
    "young_inequality",
    "young_product_bound",
    "young_right_bound",
    "young_sandwich",
]
