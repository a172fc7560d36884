"""Hadamard-type inequality evaluation for concrete functions and intervals.

Each operation computes the left/middle/right members of one inequality
with closed-form constants and reports whether it holds; the constants are
cross-checked against the quadrature oracle in `constants_table`. Verdicts
use check_tol = max(1e-8, 10 * quadrature error) so they cannot flip on
integration noise.
"""

from dataclasses import dataclass
from typing import Callable

from . import weights as w
from .errors import DivergentCoefficient, DomainError, NonConvergenceError, OrderingError
from .expr import FunctionDef
from .quadrature import Interval, QuadSpec, integrate
from .specfun import beta

LN3 = w.LN3

NESBITT_RIGHT_COEFF = 1.5 * LN3 - 1.0  # ln(3*sqrt(3)/e), per f(a)+f(b)
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


def _sandwich(left, middle, right, err) -> SandwichReport:
    ct = _check_tol(err)
    margins = (middle - left, right - middle)
    return SandwichReport(
        left, middle, right, margins[0] >= -ct, margins[1] >= -ct, margins, err, ct
    )


def hadamard_classical(
    f: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """f((a+b)/2) <= avg integral <= (f(a)+f(b))/2 for classically convex f."""
    avg, err = _average(f, interval, spec)
    left = f(interval.midpoint)
    right = 0.5 * (f(interval.a) + f(interval.b))
    return _sandwich(left, avg, right, err)


def young_right_bound(
    f: FunctionDef, interval: Interval, p: float, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """avg integral <= m10(p) f(a) + m01(p) f(b); left member unused (= middle)."""
    if not p > 1.0:
        raise DomainError(f"young_right_bound requires p > 1, got {p}")
    table = w.young(p).moments_closed_form()
    avg, err = _average(f, interval, spec)
    right = table.m10.value * f(interval.a) + table.m01.value * f(interval.b)
    return _sandwich(avg, avg, right, err)


def young_sandwich_coefficients(p: float) -> tuple[float, float]:
    """(left coefficient, right bracket) of the Young sandwich.

    The right bracket is evaluated both through its Beta expression and its
    rational simplification 2p/(p+1); disagreement beyond 1e-12 means the
    special-function layer is broken.
    """
    left = 2.0 ** (1.0 / p) * p / (p + 1.0)
    bracket_beta = (
        p * (p + 2.0) / ((p + 1.0) * (1.0 + 2.0 * p))
        + (p - 1.0) / p * beta((1.0 + p) / p, 2.0).value
        + 1.0 / p * beta(1.0 / p, 2.0).value
    )
    bracket_simple = 2.0 * p / (p + 1.0)
    if abs(bracket_beta - bracket_simple) > 1e-12:
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
    if not p > 1.0:
        raise DomainError(f"young_product_bound requires p > 1, got {p}")
    if p >= 2.0:
        raise DivergentCoefficient(
            f"beta(2/p - 1, 3) = beta({2.0 / p - 1.0:g}, 3) diverges at p={p:g}; "
            "the f(b)g(b) coefficient requires 2/p - 1 > 0"
        )
    table = w.young(p).moments_closed_form()
    return _product_report(
        f, g, interval, _average(f, interval, spec, g),
        table.m20.value, table.m11.value, coeff_bb=table.m02.value,
    )


def nesbitt_sandwich(
    f: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> SandwichReport:
    """f(mid) <= avg integral <= ((3/2)ln3 - 1)(f(a) + f(b))."""
    avg, err = _average(f, interval, spec)
    left = f(interval.midpoint)
    right = NESBITT_RIGHT_COEFF * (f(interval.a) + f(interval.b))
    return _sandwich(left, avg, right, err)


def _product_report(
    f, g, interval, average, coeff_aa, coeff_n, coeff_bb=None, midpoint_product=None
) -> ProductBoundReport:
    """Report for coeff_aa*f(a)g(a) + coeff_bb*f(b)g(b) + coeff_n*N.

    coeff_bb defaults to coeff_aa; with equal endpoint coefficients the
    bound is evaluated as coeff_M*M + coeff_N*N, the form the report's
    docstring promises.
    """
    avg, err = average
    if coeff_bb is None:
        coeff_bb = coeff_aa
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
    coeff_m = 125.0 / 6.0 - (147.0 / 8.0) * LN3
    coeff_n = (117.0 / 8.0) * LN3 - 95.0 / 6.0
    return _product_report(f, g, interval, _average(f, interval, spec, g), coeff_m, coeff_n)


def nesbitt_similarly_ordered_bound(
    f: FunctionDef, g: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> ProductBoundReport:
    """avg of fg <= (5 - (30/8)ln3) M for similarly ordered f, g.

    Similarly ordered is the endpoint condition (f(a)-f(b))(g(a)-g(b)) >= 0,
    exactly what collapses N <= M in the proof.
    """
    fa, fb = f(interval.a), f(interval.b)
    ga, gb = g(interval.a), g(interval.b)
    if (fa - fb) * (ga - gb) < 0.0:
        raise OrderingError(
            f"f and g are not similarly ordered on [{interval.a}, {interval.b}]: "
            f"(f(a)-f(b))(g(a)-g(b)) = {(fa - fb) * (ga - gb):g} < 0"
        )
    coeff_sum = (125.0 / 6.0 - (147.0 / 8.0) * LN3) + ((117.0 / 8.0) * LN3 - 95.0 / 6.0)
    if abs(NESBITT_ORDERED_COEFF - coeff_sum) > 1e-12:
        raise ArithmeticError(
            "ordered-bound coefficient is not the sum of the product-bound "
            f"coefficients: {NESBITT_ORDERED_COEFF!r} vs {coeff_sum!r}"
        )
    return _product_report(
        f, g, interval, _average(f, interval, spec, g), NESBITT_ORDERED_COEFF, 0.0
    )


def pachpatte_bounds(
    f: FunctionDef, g: FunctionDef, interval: Interval, spec: QuadSpec = QuadSpec()
) -> tuple[ProductBoundReport, ProductBoundReport]:
    """The two classical product displays.

    Upper: avg of fg <= (1/3)M + (1/6)N.
    Lower: 2 f(m)g(m) <= avg of fg + (1/6)M + (1/3)N, m the midpoint.
    """
    average = _average(f, interval, spec, g)
    upper = _product_report(f, g, interval, average, 1.0 / 3.0, 1.0 / 6.0)
    mid = interval.midpoint
    midpoint_product = 2.0 * f(mid) * g(mid)
    lower = _product_report(
        f, g, interval, average, 1.0 / 6.0, 1.0 / 3.0, midpoint_product=midpoint_product
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
            if closed[key].defined
        }
        for key, value in oracle.items():
            rows.append(_row(f"young_{key}", p, closed[key].value, value))
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
        (f"nesbitt_{key}", closed[key].value, g, degree)
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
