"""The Young closed forms against exact rational values.

At rational p every Young weight is a sum of terms c * t^a * (1-t)^n with
rational c and a and integer n:

    w_x = (1/p) t^(1/p) + ((p-1)/p) t^(1+1/p)
    w_y = ((p-1)/p) t^(1/p) (1-t) + (1/p) t^(1/p-1) (1-t)

so each moment is a sum of c * B(a+1, n+1), and B(a+1, n+1) =
n! / prod_{k=0..n} (a+1+k) is rational. `fractions.Fraction` gives every
moment exactly, and a term with a <= -1 is a pole of the series: the
moment diverges. Every coefficient is positive for p > 1, so no pole
cancels.
"""

import math
from fractions import Fraction

import pytest

from convexa.weights import (
    young,
    young_cross_moment_proof_display,
    young_cross_moment_theorem_display,
)

P_VALUES = [Fraction(101, 100), Fraction(11, 10), Fraction(6, 5), Fraction(5, 4),
            Fraction(3, 2), Fraction(7, 4), Fraction(19, 10), Fraction(2), Fraction(3),
            Fraction(10)]
REL_TOL = Fraction(1, 10**14)


def _beta(a: Fraction, n: int) -> Fraction:
    """B(a+1, n+1), the integral of t^a (1-t)^n over [0, 1], for a > -1."""
    return Fraction(math.factorial(n)) / math.prod(a + 1 + k for k in range(n + 1))


def _times(u: dict, v: dict) -> dict:
    out: dict = {}
    for (a, n), c in u.items():
        for (b, m), d in v.items():
            out[a + b, n + m] = out.get((a + b, n + m), 0) + c * d
    return out


def _integral(series: dict) -> Fraction | None:
    """The integral over [0, 1] of sum c t^a (1-t)^n; None at a pole a <= -1."""
    if any(a <= -1 for a, _ in series):
        return None
    return sum(c * _beta(a, n) for (a, n), c in series.items())


def exact_moments(p: Fraction) -> dict[str, Fraction | None]:
    q = 1 / p
    wx = {(q, 0): q, (1 + q, 0): 1 - q}
    wy = {(q, 1): 1 - q, (q - 1, 1): q}
    return {
        "m10": _integral(wx),
        "m01": _integral(wy),
        "m20": _integral(_times(wx, wx)),
        "m02": _integral(_times(wy, wy)),
        "m11": _integral(_times(wx, wy)),
    }


def _within_ulps(value: float, exact: Fraction, ulps: int) -> bool:
    return abs(Fraction(value) - exact) <= ulps * Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("p", P_VALUES, ids=str)
def test_closed_forms_match_exact_values(p):
    closed = young(float(p)).moments_closed_form().entries()
    exact = exact_moments(p)
    for key, value in closed.items():
        if exact[key] is None:
            assert value is None, key
            continue
        assert value is not None, key
        assert abs(Fraction(value) - exact[key]) <= REL_TOL * exact[key], key


@pytest.mark.parametrize("p", P_VALUES, ids=str)
def test_m02_diverges_exactly_at_the_pole(p):
    exact = exact_moments(p)
    # w_y^2 carries (1/p^2) t^(2/p-2) (1-t)^2, a pole once 2/p - 1 <= 0
    assert (exact["m02"] is None) == (p >= 2)
    assert all(exact[key] is not None for key in ("m10", "m01", "m20", "m11"))
    assert (young(float(p)).moments_closed_form().m02 is None) == (p >= 2)


def test_cross_displays_at_three_halves_are_exact_rationals():
    p = Fraction(3, 2)
    proof = exact_moments(p)["m11"]
    # the theorem display, (p-1)/p^2 B(2/p, 2) + ((p-1)/p)^2 B(2/p+2, 2)
    # + 1/p B(2/p+1, 2), with B(x, 2) = 1/(x(x+1))
    theorem = ((p - 1) / p**2 * _beta(2 / p - 1, 1)
               + ((p - 1) / p) ** 2 * _beta(2 / p + 1, 1)
               + 1 / p * _beta(2 / p, 1))
    assert (proof, theorem) == (Fraction(27, 130), Fraction(15, 91))
    assert proof - theorem == Fraction(3, 70)
    assert _within_ulps(young_cross_moment_proof_display(1.5), proof, 8)
    assert _within_ulps(young_cross_moment_theorem_display(1.5), theorem, 8)
