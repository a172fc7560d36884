"""Hadamard-type inequality evaluation for concrete functions and intervals.

The bound bodies (`sandwich`, `right_bound`, `product_bound`,
`similarly_ordered_bound`, `pachpatte_lower`) are the API. Each computes
the members of one inequality from one `Average` of f or of f*g, whose
integral it reads only after its own checks pass, and reports whether the
inequality holds; bodies given the same Average share its integral and
f's and g's values at the ends and the midpoint, each computed once.
Coefficients are the closed-form weight moments of
`WeightSystem.moments_closed_form()`, a table each system computes once
and keeps, since every bound is the defining inequality integrated over
t. The moments are cross-checked against the quadrature oracle in
`constants_table`. Verdicts use check_tol = max(1e-8, 10 * quadrature
error) so they cannot flip on integration noise, and an inf or NaN member
raises NonFiniteError.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

from . import weights as w
from .errors import (
    DivergentCoefficient,
    NonConvergenceError,
    NonFiniteError,
    OrderingError,
)
from .expr import FunctionDef
from .quadrature import Interval, QuadSpec, integrate

# ln(3*sqrt(3)/e), per f(a)+f(b)
NESBITT_RIGHT_COEFF = w.nesbitt().moments_closed_form().m10
NESBITT_ORDERED_COEFF = 5.0 - (30.0 / 8.0) * w.LN3  # per M(a,b); m20 + m11


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
    coefficients coincide and bound = coeff_aa*M + coeff_N*N holds in exact
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


@dataclass(frozen=True)
class Average:
    """The average of f, or of the product f*g, over the interval. Its `value`,
    (average, error), and f's and g's values at the ends and the midpoint
    are computed on first read and kept (g's are f's when g is f), so the
    bounds given one Average share them; a read that raises keeps nothing."""

    f: Callable
    interval: Interval
    spec: QuadSpec = QuadSpec()
    g: Callable | None = None

    @functools.cached_property
    def value(self) -> tuple[float, float]:
        f, g, interval, spec = self.f, self.g, self.interval, self.spec
        integrand = f if g is None else lambda x: f(x) * g(x)
        width = interval.width
        res = integrate(integrand, interval, spec)
        if math.isinf(res.value) or (abs(res.value) < 2.0**-1022 and width < 1.0):
            # the integral overflows or underflows a double where the average need not
            res = integrate(lambda x: integrand(x) / width, interval, spec)
            width = 1.0
        if not math.isfinite(res.value):
            raise NonFiniteError(
                f"integral over [{interval.a}, {interval.b}] is not finite: {res.value!r}"
            )
        if not res.converged:
            raise NonConvergenceError(
                f"integral over [{interval.a}, {interval.b}] did not converge "
                f"({res.stop_reason}, error estimate {res.error_estimate:g})"
            )
        return res.value / width, res.error_estimate / width

    @functools.cached_property
    def f_ends(self) -> tuple[float, float]:
        return self.f(self.interval.a), self.f(self.interval.b)

    @functools.cached_property
    def f_mid(self) -> float:
        return self.f(self.interval.midpoint)

    @functools.cached_property
    def g_ends(self) -> tuple[float, float]:
        g, interval = self.g, self.interval
        return self.f_ends if g is self.f else (g(interval.a), g(interval.b))

    @functools.cached_property
    def g_mid(self) -> float:
        return self.f_mid if self.g is self.f else self.g(self.interval.midpoint)


def _require_finite(**members: float | None) -> None:
    for name, value in members.items():
        if value is not None and not math.isfinite(value):
            raise NonFiniteError(f"bound member {name} is not finite: {value!r}")


def _sandwich_report(mean: Average, left_coeff, m10, m01) -> SandwichReport:
    """left <= avg integral <= m10 f(a) + m01 f(b).

    The left member is left_coeff * f(mid), or the average itself when
    left_coeff is None.
    """
    avg, err = mean.value
    fa, fb = mean.f_ends
    right = m10 * (fa + fb) if m10 == m01 else m10 * fa + m01 * fb
    left = avg if left_coeff is None else left_coeff * mean.f_mid
    _require_finite(left=left, middle=avg, right=right)
    ct = _check_tol(err)
    margins = (avg - left, right - avg)
    return SandwichReport(
        left, avg, right, margins[0] >= -ct, margins[1] >= -ct, margins, err, ct
    )


def sandwich(ws: w.WeightSystem, mean: Average) -> SandwichReport:
    """f(mid) / L(1/2) <= avg integral <= (m10 + m01)/2 (f(a) + f(b)), L the
    lemma's right-hand side (1 / L(1/2) = 1 unless ws is Young's, whose is
    2^(1/p) p/(p+1)) and m10 + m01 the weight mass `WeightSystem.weight_mass()`.
    """
    left_coeff = 1.0 if ws.p is None else 2.0 ** (1.0 / ws.p) * ws.p / (ws.p + 1.0)
    half = 0.5 * ws.weight_mass()
    return _sandwich_report(mean, left_coeff, half, half)


def right_bound(ws: w.WeightSystem, mean: Average) -> SandwichReport:
    """avg integral <= m10 f(a) + m01 f(b); left member unused (= middle)."""
    table = ws.moments_closed_form()
    return _sandwich_report(mean, None, table.m10, table.m01)


def product_bound(ws: w.WeightSystem, mean: Average) -> ProductBoundReport:
    """avg of fg <= m20 f(a)g(a) + m02 f(b)g(b) + m11 N, from the moment table.

    The Young m02 contains beta(2/p - 1, 3), which diverges for p >= 2;
    that case raises DivergentCoefficient rather than bounding.
    """
    table = ws.moments_closed_form()
    if table.m02 is None:
        raise DivergentCoefficient(
            f"the f(b)g(b) coefficient m02 of {ws.label()} diverges "
            "(for Young weights beta(2/p - 1, 3), which requires 2/p - 1 > 0)"
        )
    return _product_report(mean, table.m20, table.m02, table.m11)


def _product_report(
    mean: Average, coeff_aa, coeff_bb, coeff_n, midpoint_product=None
) -> ProductBoundReport:
    """Report for coeff_aa*f(a)g(a) + coeff_bb*f(b)g(b) + coeff_n*N, mean of f*g.

    With equal endpoint coefficients the bound is evaluated as
    coeff_aa*M + coeff_N*N, the form the report's docstring promises.
    """
    avg, err = mean.value
    (fa, fb), (ga, gb) = mean.f_ends, mean.g_ends
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


def similarly_ordered_bound(mean: Average) -> ProductBoundReport:
    """avg of fg <= (5 - (30/8)ln3) M for similarly ordered f, g.

    Similarly ordered is the endpoint condition (f(a)-f(b))(g(a)-g(b)) >= 0,
    exactly what collapses N <= M in the proof.
    """
    (fa, fb), (ga, gb) = mean.f_ends, mean.g_ends
    ordering = (fa - fb) * (ga - gb)
    if not ordering >= 0.0:
        raise OrderingError(
            f"f and g are not similarly ordered on [{mean.interval.a}, {mean.interval.b}]: "
            f"(f(a)-f(b))(g(a)-g(b)) = {ordering:g}, not >= 0"
        )
    return _product_report(mean, NESBITT_ORDERED_COEFF, NESBITT_ORDERED_COEFF, 0.0)


def pachpatte_lower(mean: Average) -> ProductBoundReport:
    """2 f(m)g(m) <= avg of fg + (1/6)M + (1/3)N, m the midpoint."""
    table = w.classical().moments_closed_form()
    return _product_report(mean, table.m11, table.m11, table.m20, 2.0 * mean.f_mid * mean.g_mid)


# Kept only for perfbench's oracle-sweep and tracer, which call these names; the
# package calls none of them. Each class-named theorem wraps a body around a fresh Average.
def young_sandwich_coefficients(p: float) -> tuple[float, float]:
    """(left coefficient 1/L(1/2) = 2^(1/p) p/(p+1), right bracket
    2p/(p+1)) of the Young sandwich; the bracket is the weight mass."""
    return 2.0 ** (1.0 / p) * p / (p + 1.0), w.young(p).weight_mass()


def hadamard_classical(
    f: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """f((a+b)/2) <= avg integral <= (f(a)+f(b))/2 for classically convex f."""
    return sandwich(w.classical(), Average(f, interval, spec))


def young_right_bound(
    f: FunctionDef, interval: Interval, p: float, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """The right bound with the Young moments m10(p), m01(p)."""
    return right_bound(w.young(p), Average(f, interval, spec))


def young_sandwich(
    f: FunctionDef, interval: Interval, p: float, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """2^(1/p) p/(p+1) f(mid) <= avg integral <= (p/(p+1)) (f(a)+f(b))."""
    return sandwich(w.young(p), Average(f, interval, spec))


def nesbitt_sandwich(
    f: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """f(mid) <= avg integral <= ((3/2)ln3 - 1)(f(a) + f(b))."""
    return sandwich(w.nesbitt(), Average(f, interval, spec))


def young_product_bound(
    f: FunctionDef, g: FunctionDef, interval: Interval, p: float,
    spec: QuadSpec = QuadSpec(),
) -> ProductBoundReport:
    """The product bound with the oracle-confirmed Beta coefficients, 1 < p < 2."""
    return product_bound(w.young(p), Average(f, interval, spec, g))


def nesbitt_product_bound(
    f: FunctionDef, g: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> ProductBoundReport:
    """avg of fg <= (125/6 - (147/8)ln3) M + ((117/8)ln3 - 95/6) N."""
    return product_bound(w.nesbitt(), Average(f, interval, spec, g))


def nesbitt_similarly_ordered_bound(
    f: FunctionDef, g: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> ProductBoundReport:
    """The similarly ordered bound of f, g."""
    return similarly_ordered_bound(Average(f, interval, spec, g))


def pachpatte_bounds(
    f: FunctionDef, g: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> tuple[ProductBoundReport, ProductBoundReport]:
    """The two classical product displays, upper avg of fg <= (1/3)M + (1/6)N
    and `pachpatte_lower`, over one integral."""
    mean = Average(f, interval, spec, g)
    return product_bound(w.classical(), mean), pachpatte_lower(mean)


# --- constants validation table ----------------------------------------------


def _row(name, p, closed, oracle, note="") -> ConstantsRow:
    return ConstantsRow(name, p, closed, oracle, abs(closed - oracle), note)


def _oracle_row(ws: w.WeightSystem, name, closed, res) -> ConstantsRow:
    """The row of a constant whose oracle integral gave res."""
    if not res.converged:
        raise NonConvergenceError(f"constants oracle {name} of {ws.label()} did not "
                                  f"converge (error estimate {res.error_estimate:g})")
    return _row(name, ws.p, closed, res.value)


def constants_table(
    p_values: list[float], spec: QuadSpec = QuadSpec()
) -> list[ConstantsRow]:
    """Closed-form constants next to their quadrature-oracle values.

    Per weight system, young(p) for each p and then nesbitt(), built one at
    a time: its defined moments, one extra row and w_x + w_y. Young's extra
    row is the cross coefficient as displayed in the product-bound theorem,
    which disagrees with the oracle away from p = 2 (the proof display is
    the one used in bounds); it is marked "erratum candidate". A system's
    integrals come from one `WeightSystem.integrals` call, one at a time,
    so an error still stops the table at its own row.
    """
    rows: list[ConstantsRow] = []
    for ws in itertools.chain(map(w.young, p_values), [w.nesbitt()]):
        kind, p = ws.kind.value, ws.p
        closed = ws.moments_closed_form().entries()
        keys = [key for key in w.MOMENT_INTEGRANDS if closed[key] is not None]
        terms = [w.MOMENT_INTEGRANDS[key] for key in keys]
        if p is None:
            terms.append((lambda wx, wy: wx * (wx + wy), (1, 1)))
        terms.append((lambda wx, wy: wx + wy, (0, 1)))
        oracles = ws.integrals(terms, spec)
        moments = {
            key: _oracle_row(ws, f"{kind}_{key}", closed[key], next(oracles))
            for key in keys
        }
        rows += moments.values()
        if p is None:
            rows.append(_oracle_row(ws, "nesbitt_ordered_coeff", NESBITT_ORDERED_COEFF,
                                    next(oracles)))
        else:
            display = w.young_cross_moment_theorem_display(p)
            rows.append(_row("young_m11_theorem_display", p, display,
                             moments["m11"].oracle, "erratum candidate"))
        rows.append(_oracle_row(ws, f"{kind}_w_sum", ws.weight_mass(), next(oracles)))
    return rows
