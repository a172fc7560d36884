"""The Nesbitt closed forms against exact values in Q + Q ln 3.

With v = 1 + 2t and u = 3 - 2t = 4 - v, t = (v - 1)/2 and 1 - t = (u - 1)/2,
so the Nesbitt weights

    w_x = 2t^2/u + 2t(1-t)/v,    w_y = 2t(1-t)/u + 2(1-t)^2/v

and their products are sums of c * v^i * u^j with rational c and integer
i, j. Since (u + v)/4 = 1, a term with i < 0 and j < 0 splits into
(v^(i+1) u^j + v^i u^(j+1))/4, and then a nonnegative power of one
variable expands in the other (u = 4 - v, v = 4 - u), leaving single
powers v^k and u^k. Both run over [1, 3] as t runs over [0, 1], with
dt = dv/2 = -du/2, so each integrates to a rational, or to ln(3)/2 for
k = -1. `fractions.Fraction` keeps every constant exact as r + s ln 3,
and `decimal` at 50 digits gives its correctly rounded double.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from convexa.theorems import NESBITT_ORDERED_COEFF
from convexa.weights import nesbitt

HALF = Fraction(1, 2)


def _times(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), c in p.items():
        for (k, m), d in q.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + c * d
    return out


def _sum(*series: dict) -> dict:
    out: dict = {}
    for p in series:
        for key, c in p.items():
            out[key] = out.get(key, 0) + c
    return out


def _integral(series: dict) -> tuple[Fraction, Fraction]:
    """(r, s) with r + s ln 3 = the integral over t in [0, 1] of
    sum c v^i u^j, keyed by (i, j)."""
    todo, r, s = list(series.items()), Fraction(0), Fraction(0)
    while todo:
        (i, j), c = todo.pop()
        if i < 0 and j < 0:
            todo += [((i + 1, j), c / 4), ((i, j + 1), c / 4)]
        elif i > 0 and j < 0:  # v^i = (4 - u)^i
            todo += [((0, j + n), c * math.comb(i, n) * 4 ** (i - n) * (-1) ** n)
                     for n in range(i + 1)]
        elif j > 0:  # u^j = (4 - v)^j
            todo += [((i + n, 0), c * math.comb(j, n) * 4 ** (j - n) * (-1) ** n)
                     for n in range(j + 1)]
        else:  # a single power of v or of u, over [1, 3]
            k = i + j
            if k == -1:
                s += c * HALF
            else:
                r += c * HALF * (Fraction(3) ** (k + 1) - 1) / (k + 1)
    return r, s


def exact_constants() -> dict[str, tuple[Fraction, Fraction]]:
    """The five moments, the weight mass and the ordered-bound coefficient,
    each the integral of its own product of weights."""
    t = {(1, 0): HALF, (0, 0): -HALF}  # (v - 1)/2
    s = {(0, 1): HALF, (0, 0): -HALF}  # 1 - t = (u - 1)/2
    two_over_u, two_over_v = {(0, -1): 2}, {(-1, 0): 2}
    wx = _sum(_times(_times(t, t), two_over_u), _times(_times(t, s), two_over_v))
    wy = _sum(_times(_times(t, s), two_over_u), _times(_times(s, s), two_over_v))
    return {
        "m10": _integral(wx),
        "m01": _integral(wy),
        "m20": _integral(_times(wx, wx)),
        "m02": _integral(_times(wy, wy)),
        "m11": _integral(_times(wx, wy)),
        "w_sum": _integral(_sum(wx, wy)),
        "ordered": _integral(_times(wx, _sum(wx, wy))),
    }


def _decimal(exact: tuple[Fraction, Fraction]) -> Decimal:
    r, s = exact
    with localcontext() as ctx:
        ctx.prec = 50
        ln3 = Decimal(3).ln()
        return (Decimal(r.numerator) / Decimal(r.denominator)
                + Decimal(s.numerator) / Decimal(s.denominator) * ln3)


def ulps_from_exact(value: float, exact: tuple[Fraction, Fraction]) -> float:
    """|value - exact| in ulps of the correctly rounded double of exact."""
    target = _decimal(exact)
    with localcontext() as ctx:
        ctx.prec = 50
        return float(abs(Decimal(value) - target) / Decimal(math.ulp(float(target))))


EXACT = exact_constants()


def test_exact_identities():
    assert EXACT["m10"] == EXACT["m01"] == (Fraction(-1), Fraction(3, 2))
    assert EXACT["m20"] == EXACT["m02"] == (Fraction(125, 6), Fraction(-147, 8))
    assert EXACT["m11"] == (Fraction(-95, 6), Fraction(117, 8))
    assert EXACT["w_sum"] == (Fraction(-2), Fraction(3))
    m20_plus_m11 = tuple(a + b for a, b in zip(EXACT["m20"], EXACT["m11"]))
    assert EXACT["ordered"] == m20_plus_m11 == (Fraction(5), Fraction(-30, 8))


# ulps of each closed form from its correctly rounded double, as measured:
# m20 = m02 = 125/6 - (147/8) ln 3 and m11 = (117/8) ln 3 - 95/6 lose bits
# to cancellation, and a correctly rounded literal would read <= 0.5
ULP_BOUNDS = {
    "m10": 0.25, "m01": 0.25, "m20": 37.5, "m02": 37.5, "m11": 19.5,
    "w_sum": 0.25, "ordered": 0.6,
}


@pytest.mark.parametrize("key", list(ULP_BOUNDS))
def test_closed_form_ulps(key):
    ws = nesbitt()
    closed = ws.moments_closed_form().entries() | {
        "w_sum": ws.weight_mass(),
        "ordered": NESBITT_ORDERED_COEFF,
    }
    assert ulps_from_exact(closed[key], EXACT[key]) <= ULP_BOUNDS[key]


T_VALUES = [Fraction(1, 10**4), Fraction(1, 7), Fraction(1, 4), Fraction(1, 3),
            Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(1)]


def _paper_l(t: Fraction) -> Fraction:
    """The lemma's L as the paper writes it."""
    return 2 * t / (3 - 2 * t) + 2 * (1 - t) / (1 + 2 * t)


@pytest.mark.parametrize("t", T_VALUES)
def test_weight_sum_is_the_papers_l(t):
    # w_x + w_y is L exactly, so lemma_rhs may be the sum; evaluated in
    # doubles it is within 3 ulps of L (2.04 at t = 1/7, as measured)
    u, v = 3 - 2 * t, 1 + 2 * t
    wx = 2 * t * t / u + 2 * t * (1 - t) / v
    wy = 2 * t * (1 - t) / u + 2 * (1 - t) ** 2 / v
    assert wx + wy == _paper_l(t)
    exact = _paper_l(Fraction(float(t)))
    ulp = Fraction(math.ulp(float(exact)))
    assert abs(Fraction(nesbitt().lemma_rhs(float(t))) - exact) <= 3 * ulp
