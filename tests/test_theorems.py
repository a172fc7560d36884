import ast
import collections
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from convexa.errors import DivergentCoefficient, DomainError, NonFiniteError, OrderingError
from convexa.expr import ExprDomainError, parse_function
from convexa.quadrature import Interval, QuadSpec
from convexa.theorems import (
    NESBITT_ORDERED_COEFF,
    NESBITT_RIGHT_COEFF,
    Average,
    constants_table,
    hadamard_classical,
    nesbitt_product_bound,
    nesbitt_sandwich,
    nesbitt_similarly_ordered_bound,
    pachpatte_bounds,
    pachpatte_lower,
    product_bound,
    right_bound,
    sandwich,
    similarly_ordered_bound,
    young_product_bound,
    young_right_bound,
    young_sandwich,
    young_sandwich_coefficients,
)
import convexa
from convexa import theorems, weights
from convexa.weights import young

LN3 = math.log(3.0)
UNIT = Interval(0.0, 1.0)

FX = parse_function("x")
FX2 = parse_function("x^2")
ONE = parse_function("1")


# -- classical sandwich ---------------------------------------------------------


def test_hadamard_square():
    rep = hadamard_classical(FX2, UNIT)
    assert rep.left_value == 0.25
    assert rep.middle_value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.right_value == 0.5
    assert rep.left_holds and rep.right_holds


def test_hadamard_constant_equality():
    rep = hadamard_classical(ONE, UNIT)
    assert rep.left_value == rep.right_value == 1.0
    assert rep.middle_value == pytest.approx(1.0, abs=1e-12)
    assert rep.left_holds and rep.right_holds


def test_hadamard_affine_equality():
    rep = hadamard_classical(FX, UNIT)
    assert rep.left_value == 0.5
    assert rep.middle_value == pytest.approx(0.5, abs=1e-12)
    assert rep.right_value == 0.5


@pytest.mark.parametrize("b", [1e-160, 1e-200, 1e-320])
def test_hadamard_average_survives_an_underflowing_integral(b):
    # the integral b^2/2 underflows a double where the average b/2 need not
    rep = hadamard_classical(FX, Interval(0.0, b))
    assert rep.middle_value == pytest.approx(b / 2.0, rel=1e-12, abs=0.0)
    assert rep.left_holds and rep.right_holds


def test_sandwich_report_invariant():
    rep = hadamard_classical(FX2, UNIT)
    assert rep.left_holds == (rep.margins[0] >= -rep.check_tol)
    assert rep.right_holds == (rep.margins[1] >= -rep.check_tol)
    assert rep.margins == (
        rep.middle_value - rep.left_value,
        rep.right_value - rep.middle_value,
    )


# -- Young right bound ------------------------------------------------------------


def test_young_right_bound_identity_p2():
    rep = young_right_bound(FX, UNIT, 2.0)
    assert rep.middle_value == pytest.approx(0.5, abs=1e-12)
    assert rep.right_value == pytest.approx(0.8, abs=1e-14)
    assert rep.right_holds
    assert rep.left_value == rep.middle_value


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0])
def test_young_right_bound_constant(p):
    rep = young_right_bound(ONE, UNIT, p)
    assert rep.right_value == pytest.approx(2.0 * p / (p + 1.0), abs=1e-14)
    assert rep.right_value >= 1.0


def test_young_right_bound_degenerates():
    rep = young_right_bound(FX2, UNIT, 1.0 + 1e-8)
    classical = hadamard_classical(FX2, UNIT)
    assert abs(rep.right_value - classical.right_value) <= 1e-6


def test_young_right_bound_domain():
    with pytest.raises(DomainError):
        young_right_bound(FX, UNIT, 1.0)


# -- Young sandwich ----------------------------------------------------------------


def test_young_sandwich_identity_p2():
    rep = young_sandwich(FX, UNIT, 2.0)
    assert rep.left_value == pytest.approx(2.0**0.5 * (2.0 / 3.0) * 0.5, abs=1e-14)
    assert rep.middle_value == pytest.approx(0.5, abs=1e-12)
    assert rep.right_value == pytest.approx(4.0 / 3.0 * 0.5, abs=1e-12)
    assert rep.left_holds and rep.right_holds


def test_young_sandwich_constant_p2():
    rep = young_sandwich(ONE, UNIT, 2.0)
    assert rep.left_value == pytest.approx(0.9428090415820634, abs=1e-12)
    assert rep.right_value == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rep.left_holds and rep.right_holds


def test_young_sandwich_bracket_simplifies():
    # the bracket is the weight mass 2p/(p+1): 2p is exact, so it is two
    # roundings away from the exact quotient of the double p
    ps = [1.0 + 10.0 ** (k / 25.0) for k in range(-200, 150)]
    ps += [1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 1e6]
    for p in ps:
        _, bracket = young_sandwich_coefficients(p)
        exact = 2 * Fraction(p) / (Fraction(p) + 1)
        assert abs(Fraction(bracket) - exact) <= 3 * Fraction(math.ulp(float(exact))), p


def test_young_sandwich_overflows_with_2p():
    with pytest.raises(NonFiniteError, match="bound member right is not finite: inf"):
        young_sandwich(FX, UNIT, 1.7e308)


SANDWICH_WRAPPERS = [
    (weights.classical(), sandwich, hadamard_classical),
    (young(1.5), sandwich, lambda f, interval: young_sandwich(f, interval, 1.5)),
    (weights.nesbitt(), sandwich, nesbitt_sandwich),
    (young(1.5), right_bound, lambda f, interval: young_right_bound(f, interval, 1.5)),
]


@pytest.mark.parametrize(
    "ws,body,named", SANDWICH_WRAPPERS, ids=["classical", "young1.5", "nesbitt", "right1.5"]
)
@pytest.mark.parametrize("source,bounds", [("x^2", (0.0, 1.0)), ("exp(x)", (1.0, 3.0))])
def test_named_sandwich_is_the_generic_body(ws, body, named, source, bounds):
    f, interval = parse_function(source), Interval(*bounds)
    generic, wrapped = body(ws, Average(f, interval)), named(f, interval)
    for member in ("left_value", "middle_value", "right_value", "quad_error"):
        assert getattr(generic, member).hex() == getattr(wrapped, member).hex()
    assert generic == wrapped


@pytest.mark.parametrize(
    "body,named",
    [
        (lambda mean: product_bound(weights.classical(), mean),
         lambda *a: pachpatte_bounds(*a)[0]),
        (lambda mean: product_bound(young(1.5), mean),
         lambda f, g, interval: young_product_bound(f, g, interval, 1.5)),
        (lambda mean: product_bound(weights.nesbitt(), mean), nesbitt_product_bound),
        (pachpatte_lower, lambda *a: pachpatte_bounds(*a)[1]),
        (similarly_ordered_bound, nesbitt_similarly_ordered_bound),
    ],
    ids=["classical", "young1.5", "nesbitt", "pachpatte_lower", "similarly_ordered"],
)
def test_named_product_bound_is_the_generic_body(body, named):
    f, g, interval = FX2, parse_function("exp(x)"), Interval(1.0, 3.0)
    generic, wrapped = body(Average(f, interval, g=g)), named(f, g, interval)
    for member in ("integral_avg", "bound", "quad_error"):
        assert getattr(generic, member).hex() == getattr(wrapped, member).hex()
    assert generic == wrapped


def test_young_sandwich_degenerates_to_hadamard():
    p = 1.0 + 1e-8
    for f in (FX2, parse_function("exp(x)")):
        ys = young_sandwich(f, UNIT, p)
        hc = hadamard_classical(f, UNIT)
        assert abs(ys.left_value - hc.left_value) <= 1e-6
        assert abs(ys.right_value - hc.right_value) <= 1e-6


def test_young_sandwich_domain():
    # the WeightSystem exponent rule, before any coefficient or integral
    for p in (0.9, 1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="Young weights require a finite p > 1"):
            young_sandwich(FX, UNIT, p)


# -- Young product bound -------------------------------------------------------------


def test_young_product_identity_p15():
    rep = young_product_bound(FX, FX, UNIT, 1.5)
    assert rep.integral_avg == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.coeff_N == pytest.approx(27.0 / 130.0, abs=1e-13)
    assert rep.coeff_aa == pytest.approx(0.34945054945054945, abs=1e-13)
    assert rep.coeff_bb == pytest.approx(432.0 / 455.0, abs=1e-12)
    assert rep.holds
    assert rep.bound == (
        rep.coeff_aa * rep.endpoint_aa
        + rep.coeff_bb * rep.endpoint_bb
        + rep.coeff_N * rep.N
    )


def _no_integral(*args):
    pytest.fail("a bound whose precondition fails computed an integral")


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_young_product_divergent(p, monkeypatch):
    monkeypatch.setattr(theorems, "integrate", _no_integral)
    with pytest.raises(DivergentCoefficient) as exc:
        young_product_bound(FX, FX, UNIT, p)
    assert "beta" in str(exc.value)


def test_young_product_domain():
    with pytest.raises(DomainError):
        young_product_bound(FX, FX, UNIT, 1.0)


# -- Nesbitt theorems ------------------------------------------------------------------


def test_nesbitt_sandwich_square():
    rep = nesbitt_sandwich(FX2, UNIT)
    assert rep.left_value == 0.25
    assert rep.middle_value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.right_value == pytest.approx(NESBITT_RIGHT_COEFF, abs=1e-14)
    assert rep.left_holds and rep.right_holds


def test_nesbitt_sandwich_constant():
    rep = nesbitt_sandwich(ONE, UNIT)
    assert rep.right_value == pytest.approx(2.0 * (1.5 * LN3 - 1.0), abs=1e-14)
    assert rep.right_value == pytest.approx(1.2958368660043291, abs=1e-12)


def test_nesbitt_sandwich_identity():
    rep = nesbitt_sandwich(FX, UNIT)
    assert rep.left_value == 0.5
    assert rep.middle_value == pytest.approx(0.5, abs=1e-12)
    assert rep.right_value == pytest.approx(NESBITT_RIGHT_COEFF, abs=1e-14)


def test_nesbitt_right_constant_decimal():
    assert abs(NESBITT_RIGHT_COEFF - 0.6479184330) <= 1e-10


def test_nesbitt_product_identity():
    rep = nesbitt_product_bound(FX, FX, UNIT)
    assert rep.M == 1.0
    assert rep.N == 0.0
    assert rep.integral_avg == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.bound == pytest.approx(125.0 / 6.0 - (147.0 / 8.0) * LN3, abs=1e-14)
    assert rep.holds
    # exact-arithmetic invariant of the stored fields
    assert rep.bound == rep.coeff_aa * rep.M + rep.coeff_N * rep.N


def test_nesbitt_product_constant():
    rep = nesbitt_product_bound(ONE, ONE, UNIT)
    assert rep.integral_avg == pytest.approx(1.0, abs=1e-12)
    assert rep.bound == pytest.approx(
        2.0 * ((125.0 / 6.0 - (147.0 / 8.0) * LN3) + ((117.0 / 8.0) * LN3 - 95.0 / 6.0)),
        abs=1e-12,
    )
    assert rep.holds


def test_nesbitt_square_expansion_consistency():
    # m20 + 2 m11 + m02 equals the quadrature of (w_x + w_y)^2
    from convexa.quadrature import integrate_unit
    from convexa.weights import nesbitt as nesbitt_ws

    ws = nesbitt_ws()
    table = ws.moments_closed_form()

    def total(t):
        wx, wy = ws.eval_arrays(t)
        return (wx + wy) ** 2

    res = integrate_unit(total, QuadSpec())
    assert res.converged
    lhs = table.m20 + 2.0 * table.m11 + table.m02
    assert abs(lhs - res.value) <= 1e-9


def test_similarly_ordered_identity():
    rep = nesbitt_similarly_ordered_bound(FX, FX, UNIT)
    assert rep.coeff_aa == pytest.approx(0.8802039174945886, abs=1e-12)
    assert rep.coeff_N == 0.0
    assert rep.bound == pytest.approx(NESBITT_ORDERED_COEFF, abs=1e-14)
    assert rep.holds
    assert rep.integral_avg == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_similarly_ordered_paper_decimal():
    assert abs(NESBITT_ORDERED_COEFF - 0.8802) <= 5e-5


def test_similarly_ordered_is_sum_of_product_coeffs():
    coeff_sum = (125.0 / 6.0 - (147.0 / 8.0) * LN3) + (
        (117.0 / 8.0) * LN3 - 95.0 / 6.0
    )
    assert abs(NESBITT_ORDERED_COEFF - coeff_sum) <= 1e-12


def test_similarly_ordered_rejects_opposite_ordering(monkeypatch):
    monkeypatch.setattr(theorems, "integrate", _no_integral)
    g = parse_function("-x+1")
    with pytest.raises(OrderingError):
        nesbitt_similarly_ordered_bound(FX, g, UNIT)
    # f(a) - f(b) overflows to inf and g(a) - g(b) is 0: the ordering is NaN
    with pytest.raises(OrderingError, match="nan, not >= 0"):
        nesbitt_similarly_ordered_bound(parse_function("1e308*(1-2*x^3)"), ONE, UNIT)


def test_similarly_ordered_constant():
    rep = nesbitt_similarly_ordered_bound(ONE, ONE, UNIT)
    assert rep.integral_avg <= rep.bound + rep.check_tol
    assert rep.bound == pytest.approx(2.0 * NESBITT_ORDERED_COEFF, abs=1e-12)


# -- Pachpatte -------------------------------------------------------------------------


def test_pachpatte_identity_equalities():
    upper, lower = pachpatte_bounds(FX, FX, UNIT)
    assert abs(upper.integral_avg - upper.bound) <= 1e-10
    assert upper.bound == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert lower.midpoint_product == 0.5
    assert abs(lower.midpoint_product - (lower.integral_avg + lower.bound)) <= 1e-10
    assert upper.holds and lower.holds


def test_pachpatte_constant_upper_equality():
    upper, lower = pachpatte_bounds(ONE, ONE, UNIT)
    assert abs(upper.integral_avg - upper.bound) <= 1e-10
    assert upper.holds and lower.holds


def test_pachpatte_bound_invariant():
    upper, _ = pachpatte_bounds(FX2, FX, Interval(1.0, 3.0))
    assert upper.bound == upper.coeff_aa * upper.M + upper.coeff_N * upper.N
    assert upper.holds


# -- one Average, shared by every body ---------------------------------------------------


class _CountingFunction:
    """f, counting its scalar calls by point; integrand calls pass arrays."""

    def __init__(self, f):
        self.f, self.calls = f, collections.Counter()

    def __call__(self, x):
        if np.ndim(x) == 0:
            self.calls[float(x)] += 1
        return self.f(x)


@pytest.mark.parametrize("g_is_f", [False, True])
def test_bodies_read_each_end_and_midpoint_value_once(g_is_f):
    f = _CountingFunction(FX2)
    g = f if g_is_f else _CountingFunction(parse_function("x+1"))
    mean = Average(f, Interval(1.0, 3.0), g=g)
    nesbitt = sandwich(weights.nesbitt(), mean)
    sandwich(young(1.5), mean)
    right_bound(young(1.5), mean)
    pachpatte = product_bound(weights.classical(), mean)
    product_bound(young(1.5), mean)
    similarly_ordered_bound(mean)
    pachpatte_lower(mean)
    for counted in {f, g}:
        assert counted.calls == {1.0: 1, 3.0: 1, 2.0: 1}
    # the values the bodies read are the ones a fresh call gives
    assert nesbitt.left_value == FX2(2.0)
    assert pachpatte.endpoint_bb == FX2(3.0) * (FX2(3.0) if g_is_f else 4.0)


def test_an_end_value_that_raises_raises_on_every_read():
    # finite inside [0, 1], so the integral is fine; f(1) divides by zero
    f = _CountingFunction(parse_function("x^2 + 0/(1-x)"))
    mean = Average(f, UNIT, g=f)
    reads = [
        lambda: mean.f_ends,
        lambda: mean.g_ends,
        lambda: sandwich(weights.classical(), mean),
        lambda: right_bound(young(2.0), mean),
        lambda: product_bound(weights.nesbitt(), mean),
        lambda: similarly_ordered_bound(mean),
        lambda: pachpatte_lower(mean),
    ]
    for read in reads * 2:
        with pytest.raises(ExprDomainError, match=r"division by zero \(at x=1.0\)"):
            read()
    assert f.calls == {0.0: 14, 1.0: 14, 0.5: 1}
    assert (mean.value[0], mean.f_mid) == (pytest.approx(0.2, abs=1e-12), 0.25)


# -- constants table ---------------------------------------------------------------------


def test_constants_table_rows():
    rows = constants_table([2.0])
    by_name = {row.name: row for row in rows}
    m10 = by_name["young_m10"]
    assert m10.p == 2.0
    assert m10.closed_form == pytest.approx(8.0 / 15.0, abs=1e-15)
    assert m10.abs_diff <= 1e-9
    nesbitt_m11 = by_name["nesbitt_m11"]
    assert nesbitt_m11.p is None
    assert nesbitt_m11.closed_form == pytest.approx(0.23387138843777, abs=1e-12)
    assert nesbitt_m11.abs_diff <= 1e-9


def test_constants_table_erratum_row():
    rows = constants_table([1.5])
    row = next(r for r in rows if r.name == "young_m11_theorem_display")
    assert row.note == "erratum candidate"
    assert row.closed_form == pytest.approx(15.0 / 91.0, abs=1e-13)
    assert abs(row.abs_diff - 3.0 / 70.0) <= 1e-6
    assert row.abs_diff >= 0.04
    proof_row = next(r for r in rows if r.name == "young_m11")
    assert proof_row.abs_diff <= 1e-9


@pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9])
def test_constants_table_oracle_agreement_full(p):
    for row in constants_table([p]):
        if row.note == "erratum candidate":
            continue
        assert row.abs_diff <= 1e-9, row


@pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
def test_constants_table_oracle_agreement_nondivergent(p):
    rows = constants_table([p])
    names = {row.name for row in rows}
    assert "young_m02" not in names  # divergent entry omitted
    for row in rows:
        if row.name in ("young_m10", "young_m01"):
            assert row.abs_diff <= 1e-9, row


def test_constants_table_domain():
    with pytest.raises(DomainError):
        constants_table([0.5])


def test_coefficient_positivity():
    for p in (1.01, 1.1, 1.5, 1.9):
        table = young(p).moments_closed_form()
        for moment in table.entries().values():
            assert moment > 0.0
        left, bracket = young_sandwich_coefficients(p)
        assert left > 0.0 and bracket > 0.0
    assert NESBITT_RIGHT_COEFF > 0.0
    assert NESBITT_ORDERED_COEFF > 0.0
    assert 125.0 / 6.0 - (147.0 / 8.0) * LN3 > 0.0
    assert (117.0 / 8.0) * LN3 - 95.0 / 6.0 > 0.0


@pytest.mark.parametrize(
    "ws,right_bound,named_product",
    [
        (weights.classical(), hadamard_classical, lambda *a: pachpatte_bounds(*a)[0]),
        (weights.nesbitt(), nesbitt_sandwich, nesbitt_product_bound),
        (young(1.5), lambda *a: young_right_bound(*a, 1.5),
         lambda *a: young_product_bound(*a, 1.5)),
    ],
    ids=["classical", "nesbitt", "young1.5"],
)
def test_coefficients_are_the_moment_table(ws, right_bound, named_product):
    table = ws.moments_closed_form()
    product = named_product(FX, FX, UNIT)
    assert (product.coeff_aa, product.coeff_bb, product.coeff_N) == (
        table.m20, table.m02, table.m11
    )
    assert right_bound(ONE, UNIT).right_value == table.m10 + table.m01
    assert ws.weight_mass() == pytest.approx(table.m10 + table.m01, rel=4e-16, abs=0.0)


@pytest.mark.parametrize(
    "bound",
    [
        # the average is ~1.5e305, but m01(10) * f(1) overflows
        lambda: young_right_bound(parse_function("1.5e308*exp(1000*(x-1))"), UNIT, 10.0),
        # the average is ~1.8e305, but 2 f(1/2) g(1/2) overflows
        lambda: pachpatte_bounds(parse_function("1e308*exp(-1e6*(x-0.5)^2)"), ONE, UNIT),
    ],
    ids=["right_bound", "midpoint_product"],
)
def test_non_finite_bound_member_raises(bound):
    with pytest.raises(NonFiniteError):
        bound()


# -- battery hypothesis link ------------------------------------------------------------


@pytest.mark.parametrize("source", ["x^2", "exp(x)", "x", "1", "x^4", "x+1"])
@pytest.mark.parametrize("bounds", [(0.0, 1.0), (1.0, 3.0)])
def test_theorems_hold_for_members(source, bounds):
    from convexa.membership import Verdict, check_convex
    from convexa.weights import classical as classical_ws
    from convexa.weights import nesbitt as nesbitt_ws

    f = parse_function(source)
    interval = Interval(*bounds)
    assert (
        check_convex(f, interval, classical_ws()).verdict
        is Verdict.NO_VIOLATION_AT_RESOLUTION
    )
    rep = hadamard_classical(f, interval)
    assert min(rep.margins) >= -1e-8
    for p in (1.1, 1.5, 2.0):
        assert (
            check_convex(f, interval, young(p)).verdict
            is Verdict.NO_VIOLATION_AT_RESOLUTION
        )
        assert min(young_sandwich(f, interval, p).margins) >= -1e-8
        assert young_right_bound(f, interval, p).margins[1] >= -1e-8
    assert (
        check_convex(f, interval, nesbitt_ws()).verdict
        is Verdict.NO_VIOLATION_AT_RESOLUTION
    )
    assert min(nesbitt_sandwich(f, interval).margins) >= -1e-8
    prod = nesbitt_product_bound(f, f, interval)
    assert prod.bound - prod.integral_avg >= -1e-8


# the class-named theorems, each one body around a fresh Average
CLASS_NAMED = ("hadamard_classical", "young_right_bound", "young_sandwich", "nesbitt_sandwich",
               "young_product_bound", "nesbitt_product_bound",
               "nesbitt_similarly_ordered_bound", "pachpatte_bounds")


def test_the_package_exports_the_bodies_not_the_class_named_theorems():
    bodies = {"Average", "sandwich", "right_bound", "product_bound",
              "similarly_ordered_bound", "pachpatte_lower"}
    assert bodies <= set(convexa.__all__)
    assert not set(CLASS_NAMED) & (set(convexa.__all__) | set(vars(convexa)))


def test_no_package_code_calls_a_class_named_theorem():
    calls = []
    for path in pathlib.Path(theorems.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in CLASS_NAMED:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []
