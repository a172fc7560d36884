"""Shared exception types for numeric front-end error handling."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DivergentCoefficient(ArithmeticError):
    """A closed-form theorem coefficient does not exist (divergent integral)."""


class OrderingError(ValueError):
    """The similarly-ordered endpoint precondition fails."""


class NonConvergenceError(ArithmeticError):
    """Adaptive quadrature failed to converge within its subdivision budget."""


class NonFiniteError(ArithmeticError):
    """A computation produced an inf or NaN where a verdict needs finite values."""
