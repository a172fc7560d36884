"""Log-gamma and Beta via a fixed Lanczos coefficient set.

Self-contained (no library special functions) so results are reproducible
bit-for-bit wherever IEEE-754 doubles and libm exp/log/sin are available.
"""

import math

from .errors import DomainError

# Lanczos g=7, n=9 (Godfrey/GSL coefficient set), ~15 significant digits.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727  # ln sqrt(2*pi)


def _lanczos_log_gamma(x: float) -> float:
    # valid for x >= 0.5
    z = x - 1.0
    series = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        series += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(series)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection: ln Gamma(x) = ln(pi / sin(pi x)) - ln Gamma(1 - x);
        # sin(pi x) > 0 on (0, 0.5)
        return math.log(math.pi / math.sin(math.pi * x)) - _lanczos_log_gamma(1.0 - x)
    return _lanczos_log_gamma(x)


def beta(x: float, y: float) -> float:
    """Beta(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), computed in log space."""
    if not x > 0.0 or not y > 0.0:
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))
