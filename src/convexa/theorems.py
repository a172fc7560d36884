"""Hadamard-type inequality evaluation for concrete functions and intervals.

Each operation computes the left/middle/right members of one inequality
and reports whether it holds. Its coefficients are the closed-form weight
moments of `WeightSystem.moments_closed_form()`, since every bound is the
defining inequality integrated over t; the moments are cross-checked
against the quadrature oracle in `constants_table`. Verdicts use
check_tol = max(1e-8, 10 * quadrature error) so they cannot flip on
integration noise, and an inf or NaN member raises NonFiniteError.
"""

import math
from dataclasses import dataclass
from typing import Callable

from . import weights as w
from .errors import (
    DivergentCoefficient,
    DomainError,
    NonConvergenceError,
    NonFiniteError,
    OrderingError,
)
from .expr import FunctionDef
from .quadrature import Interval, QuadSpec, integrate
from .specfun import beta

LN3 = w.LN3

# ln(3*sqrt(3)/e), per f(a)+f(b)
NESBITT_RIGHT_COEFF = w.nesbitt().moments_closed_form().m10
NESBITT_ORDERED_COEFF = 5.0 - (30.0 / 8.0) * LN3  # per M(a,b)


@dataclass(frozen=True)
class SandwichReport:
    left_value: float
    middle_value: float
    right_value: float
    left_holds: bool
    right_holds: bool
    margins: tuple[float, float]  # (middle - left, right - middle)
    quad_error: float
    check_tol: float


@dataclass(frozen=True)
class ProductBoundReport:
    """Upper bound coeff_aa*f(a)g(a) + coeff_bb*f(b)g(b) + coeff_N*N(a,b).

    For every theorem except the Young product bound the endpoint
    coefficients coincide and bound = coeff_M*M + coeff_N*N holds in exact
    arithmetic of the stored fields.
    """

    integral_avg: float
    coeff_aa: float
    coeff_bb: float
    coeff_N: float
    M: float
    N: float
    endpoint_aa: float  # f(a)g(a)
    endpoint_bb: float  # f(b)g(b)
    bound: float
    holds: bool
    quad_error: float
    check_tol: float
    midpoint_product: float | None = None  # 2 f(m)g(m), lower Pachpatte display only

    @property
    def coeff_M(self) -> float:
        return self.coeff_aa


@dataclass(frozen=True)
class ConstantsRow:
    name: str
    p: float | None
    closed_form: float
    oracle: float
    abs_diff: float
    note: str = ""


def _check_tol(quad_error: float) -> float:
    return max(1e-8, 10.0 * quad_error)


def _average(
    f: Callable, interval: Interval, spec: QuadSpec, g: Callable | None = None
) -> tuple[float, float]:
    """Average of f, or of the product f*g, over the interval, with its error."""
    funcs = (f,) if g is None else (f, g)
    integrand = f if g is None else lambda x: f(x) * g(x)
    vectorized = all(isinstance(h, FunctionDef) for h in funcs)
    res = integrate(integrand, interval, spec, vectorized=vectorized)
    if not res.converged:
        raise NonConvergenceError(
            f"integral over [{interval.a}, {interval.b}] did not converge "
            f"(error estimate {res.error_estimate:g})"
        )
    return res.value / interval.width, res.error_estimate / interval.width


def _require_finite(**members: float | None) -> None:
    for name, value in members.items():
        if value is not None and not math.isfinite(value):
            raise NonFiniteError(f"bound member {name} is not finite: {value!r}")


def _sandwich(left, middle, right, err) -> SandwichReport:
    _require_finite(left=left, middle=middle, right=right)
    ct = _check_tol(err)
    margins = (middle - left, right - middle)
    return SandwichReport(
        left, middle, right, margins[0] >= -ct, margins[1] >= -ct, margins, err, ct
    )


def _right_bound(ws: w.WeightSystem, f, interval, spec, left_at_mid: bool) -> SandwichReport:
    """avg integral <= m10 f(a) + m01 f(b): the defining inequality integrated over t.

    The left member is f(mid) when left_at_mid, else the average itself.
    """
    table = ws.moments_closed_form()
    avg, err = _average(f, interval, spec)
    m10, m01 = table.m10, table.m01
    fa, fb = f(interval.a), f(interval.b)
    right = m10 * (fa + fb) if m10 == m01 else m10 * fa + m01 * fb
    left = f(interval.midpoint) if left_at_mid else avg
    return _sandwich(left, avg, right, err)


def hadamard_classical(
    f: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """f((a+b)/2) <= avg integral <= (f(a)+f(b))/2 for classically convex f."""
    return _right_bound(w.classical(), f, interval, spec, left_at_mid=True)


def young_right_bound(
    f: FunctionDef, interval: Interval, p: float, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """avg integral <= m10(p) f(a) + m01(p) f(b); left member unused (= middle)."""
    return _right_bound(w.young(p), f, interval, spec, left_at_mid=False)


def young_sandwich_coefficients(p: float) -> tuple[float, float]:
    """(left coefficient, right bracket) of the Young sandwich.

    The right bracket is evaluated both through its Beta expression and its
    rational simplification 2p/(p+1); disagreement beyond 1e-12 means the
    special-function layer is broken. Its rational term (about 1/2) reads 0
    once (p+1)(2p+1) overflows a double, from p ~ 9.5e153, and NaN once
    p(p+2) overflows too, from p ~ 1.34e154: NonFiniteError.
    """
    left = 2.0 ** (1.0 / p) * p / (p + 1.0)
    rational = p * (p + 2.0) / ((p + 1.0) * (1.0 + 2.0 * p))
    bracket_beta = (
        rational
        + (p - 1.0) / p * beta((1.0 + p) / p, 2.0)
        + 1.0 / p * beta(1.0 / p, 2.0)
    )
    if not rational > 0.0:
        raise NonFiniteError(
            f"the sandwich bracket of young(p={w.exponent_text(p)}) overflows a double"
        )
    bracket_simple = 2.0 * p / (p + 1.0)
    if not abs(bracket_beta - bracket_simple) <= 1e-12:
        raise ArithmeticError(
            f"Young sandwich bracket mismatch at p={p}: "
            f"{bracket_beta!r} vs {bracket_simple!r}"
        )
    return left, bracket_beta


def young_sandwich(
    f: FunctionDef, interval: Interval, p: float, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """2^(1/p) p/(p+1) f(mid) <= avg integral <= bracket * (f(a)+f(b))/2."""
    if not p > 1.0:
        raise DomainError(f"young_sandwich requires p > 1, got {p}")
    left_coeff, bracket = young_sandwich_coefficients(p)
    avg, err = _average(f, interval, spec)
    left = left_coeff * f(interval.midpoint)
    right = bracket * 0.5 * (f(interval.a) + f(interval.b))
    return _sandwich(left, avg, right, err)


def young_product_bound(
    f: FunctionDef,
    g: FunctionDef,
    interval: Interval,
    p: float,
    spec: QuadSpec = QuadSpec(),
) -> ProductBoundReport:
    """Product bound with the oracle-confirmed Beta coefficients, 1 < p < 2.

    The f(b)g(b) coefficient contains beta(2/p - 1, 3), which diverges for
    p >= 2; that case raises DivergentCoefficient rather than bounding.
    """
    return _moment_product_bound(w.young(p), f, g, interval, spec)


def nesbitt_sandwich(
    f: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """f(mid) <= avg integral <= ((3/2)ln3 - 1)(f(a) + f(b))."""
    return _right_bound(w.nesbitt(), f, interval, spec, left_at_mid=True)


def _moment_product_bound(ws: w.WeightSystem, f, g, interval, spec) -> ProductBoundReport:
    """avg of fg <= m20 f(a)g(a) + m02 f(b)g(b) + m11 N, from the moment table."""
    table = ws.moments_closed_form()
    if table.m02 is None:
        raise DivergentCoefficient(
            f"the f(b)g(b) coefficient m02 of {ws.label()} diverges "
            "(for Young weights beta(2/p - 1, 3), which requires 2/p - 1 > 0)"
        )
    return _product_report(
        f, g, interval, _average(f, interval, spec, g),
        table.m20, table.m02, table.m11,
    )


def _product_report(
    f, g, interval, average, coeff_aa, coeff_bb, coeff_n, midpoint_product=None
) -> ProductBoundReport:
    """Report for coeff_aa*f(a)g(a) + coeff_bb*f(b)g(b) + coeff_n*N.

    With equal endpoint coefficients the bound is evaluated as
    coeff_M*M + coeff_N*N, the form the report's docstring promises.
    """
    avg, err = average
    fa, fb = f(interval.a), f(interval.b)
    ga, gb = g(interval.a), g(interval.b)
    paa = fa * ga
    pbb = fb * gb
    m_term = paa + pbb
    n_term = fa * gb + fb * ga
    if coeff_bb == coeff_aa:
        bound = coeff_aa * m_term + coeff_n * n_term
    else:
        bound = coeff_aa * paa + coeff_bb * pbb + coeff_n * n_term
    _require_finite(integral_avg=avg, bound=bound, midpoint_product=midpoint_product)
    ct = _check_tol(err)
    if midpoint_product is None:
        holds = avg <= bound + ct
    else:
        holds = midpoint_product <= avg + bound + ct
    return ProductBoundReport(
        integral_avg=avg,
        coeff_aa=coeff_aa,
        coeff_bb=coeff_bb,
        coeff_N=coeff_n,
        M=m_term,
        N=n_term,
        endpoint_aa=paa,
        endpoint_bb=pbb,
        bound=bound,
        holds=holds,
        quad_error=err,
        check_tol=ct,
        midpoint_product=midpoint_product,
    )


def nesbitt_product_bound(
    f: FunctionDef, g: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> ProductBoundReport:
    """avg of fg <= (125/6 - (147/8)ln3) M + ((117/8)ln3 - 95/6) N."""
    return _moment_product_bound(w.nesbitt(), f, g, interval, spec)


def nesbitt_similarly_ordered_bound(
    f: FunctionDef, g: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> ProductBoundReport:
    """avg of fg <= (5 - (30/8)ln3) M for similarly ordered f, g.

    Similarly ordered is the endpoint condition (f(a)-f(b))(g(a)-g(b)) >= 0,
    exactly what collapses N <= M in the proof.
    """
    fa, fb = f(interval.a), f(interval.b)
    ga, gb = g(interval.a), g(interval.b)
    ordering = (fa - fb) * (ga - gb)
    if not ordering >= 0.0:
        raise OrderingError(
            f"f and g are not similarly ordered on [{interval.a}, {interval.b}]: "
            f"(f(a)-f(b))(g(a)-g(b)) = {ordering:g}, not >= 0"
        )
    table = w.nesbitt().moments_closed_form()
    coeff_sum = table.m20 + table.m11
    if abs(NESBITT_ORDERED_COEFF - coeff_sum) > 1e-12:
        raise ArithmeticError(
            "ordered-bound coefficient is not the sum of the product-bound "
            f"coefficients: {NESBITT_ORDERED_COEFF!r} vs {coeff_sum!r}"
        )
    return _product_report(
        f, g, interval, _average(f, interval, spec, g),
        NESBITT_ORDERED_COEFF, NESBITT_ORDERED_COEFF, 0.0,
    )


def pachpatte_bounds(
    f: FunctionDef, g: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> tuple[ProductBoundReport, ProductBoundReport]:
    """The two classical product displays.

    Upper: avg of fg <= (1/3)M + (1/6)N.
    Lower: 2 f(m)g(m) <= avg of fg + (1/6)M + (1/3)N, m the midpoint.
    """
    ws = w.classical()
    upper = _moment_product_bound(ws, f, g, interval, spec)
    table = ws.moments_closed_form()
    mid = interval.midpoint
    lower = _product_report(
        f, g, interval, (upper.integral_avg, upper.quad_error),
        table.m11, table.m11, table.m20, 2.0 * f(mid) * g(mid),
    )
    return upper, lower


# --- constants validation table ----------------------------------------------


def _oracle(ws: w.WeightSystem, g, degree, spec: QuadSpec) -> float:
    res = ws.integral(g, degree, spec)
    if not res.converged:
        raise NonConvergenceError("constants oracle integral did not converge")
    return res.value


def _row(name, p, closed, oracle, note="") -> ConstantsRow:
    return ConstantsRow(name, p, closed, oracle, abs(closed - oracle), note)


def _w_sum(wx, wy):
    return wx + wy


def constants_table(
    p_values: list[float], spec: QuadSpec = QuadSpec()
) -> list[ConstantsRow]:
    """Closed-form constants next to their quadrature-oracle values.

    Includes the cross coefficient as displayed in the Young product-bound
    theorem, which disagrees with the oracle away from p = 2 (the proof
    display is the one used in bounds); it is marked "erratum candidate".
    """
    rows: list[ConstantsRow] = []
    for p in p_values:
        ws = w.young(p)
        closed = ws.moments_closed_form().entries()
        oracle = {
            key: _oracle(ws, g, degree, spec)
            for key, (g, degree) in w.MOMENT_INTEGRANDS.items()
            if closed[key] is not None
        }
        for key, value in oracle.items():
            rows.append(_row(f"young_{key}", p, closed[key], value))
        rows.append(
            _row(
                "young_m11_theorem_display",
                p,
                w.young_cross_moment_theorem_display(p),
                oracle["m11"],
                note="erratum candidate",
            )
        )
        rows.append(
            _row("young_w_sum", p, 2.0 * p / (p + 1.0), _oracle(ws, _w_sum, (0, 1), spec))
        )
    ws = w.nesbitt()
    closed = ws.moments_closed_form().entries()
    nesbitt = [
        (f"nesbitt_{key}", closed[key], g, degree)
        for key, (g, degree) in w.MOMENT_INTEGRANDS.items()
    ]
    nesbitt += [
        ("nesbitt_ordered_coeff", NESBITT_ORDERED_COEFF,
         lambda wx, wy: wx * (wx + wy), (1, 1)),
        ("nesbitt_w_sum", 3.0 * LN3 - 2.0, _w_sum, (0, 1)),
    ]
    for name, closed_value, g, degree in nesbitt:
        rows.append(_row(name, None, closed_value, _oracle(ws, g, degree, spec)))
    return rows
