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
    Average,
    ConstantsRow,
    ProductBoundReport,
    SandwichReport,
    constants_table,
    pachpatte_lower,
    product_bound,
    right_bound,
    sandwich,
    similarly_ordered_bound,
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
    "Average",
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
    "integrate",
    "integrate_unit",
    "log_gamma",
    "nesbitt",
    "nesbitt_inequality",
    "nonnegativity_witness",
    "pachpatte_lower",
    "parse_function",
    "product_bound",
    "right_bound",
    "sandwich",
    "similarly_ordered_bound",
    "young",
    "young_inequality",
]
