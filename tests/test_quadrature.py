import heapq
import math
import re

import numpy as np
import pytest

from convexa import quadrature
from convexa.errors import DomainError
from convexa.expr import ExprDomainError, parse_function
from convexa.quadrature import Interval, QuadResult, QuadSpec, integrate, integrate_unit
from convexa.weights import MOMENT_INTEGRANDS, nesbitt, young

LN3 = math.log(3.0)

# (integrand, interval, spec, exact value) -- analytic antiderivatives
VALIDATION_BATTERY = [
    (lambda t: t * t, Interval(0.0, 1.0), QuadSpec(), 1.0 / 3.0),
    (lambda t: 5.0 * t**4, Interval(0.0, 2.0), QuadSpec(), 32.0),
    (np.exp, Interval(0.0, 1.0), QuadSpec(), math.e - 1.0),
    (np.cos, Interval(0.0, 2.0), QuadSpec(), math.sin(2.0)),
    (lambda t: 1.0 / (1.0 + t * t), Interval(0.0, 1.0), QuadSpec(), math.pi / 4.0),
    (np.sqrt, Interval(0.0, 1.0), QuadSpec(), 2.0 / 3.0),
    (
        lambda t: t**-0.5,
        Interval(0.0, 1.0),
        QuadSpec(left_singularity_exponent=-0.5),
        2.0,
    ),
    (
        lambda t: (t - 2.0) ** -0.5,
        Interval(2.0, 3.0),
        QuadSpec(left_singularity_exponent=-0.5),
        2.0,
    ),
]


def test_polynomial_trivial():
    res = integrate_unit(lambda t: t * t)
    assert res.converged
    assert abs(res.value - 1.0 / 3.0) <= 1e-14


def test_left_singularity_hint():
    res = integrate_unit(lambda t: t**-0.5, QuadSpec(left_singularity_exponent=-0.5))
    assert res.converged
    assert abs(res.value - 2.0) <= 1e-10


def test_divergent_reports_nonconvergence():
    res = integrate_unit(lambda t: 1.0 / t)
    assert not res.converged
    assert res.stop_reason == "divergent"
    # the centre of the first panel is a pole: no panel is bisected
    res = integrate_unit(lambda t: 1.0 / (t - 0.5))
    assert (res.evaluations, res.converged) == (15, False)
    assert not math.isfinite(res.value)
    assert res.stop_reason == "stalled"


def test_stalled_bisection_stops():
    # a one-ulp interval: its midpoint rounds onto an endpoint, so the first
    # panel cannot be bisected and the tolerance cannot be met
    interval = Interval(1.0, math.nextafter(1.0, 2.0))
    res = integrate(lambda x: x, interval, QuadSpec(abs_tol=1e-300, rel_tol=1e-300))
    assert (res.evaluations, res.converged) == (15, False)
    assert res.value == interval.width
    assert res.stop_reason == "stalled"
    # the first bisection puts a panel centre on the pole: its child is
    # non-finite, so the finite parent panel is kept as the result
    res = integrate_unit(lambda t: 1.0 / (t - 0.25))
    assert (res.evaluations, res.converged) == (45, False)
    assert math.isfinite(res.value)
    assert res.stop_reason == "stalled"


def test_budget_stop_reason():
    res = integrate_unit(lambda t: 1.0 / t, QuadSpec(max_subdivisions=10))
    assert (res.evaluations, res.converged, res.stop_reason) == (315, False, "budget")
    res = integrate_unit(lambda t: t * t)
    assert (res.converged, res.stop_reason) == (True, "converged")


def test_subdivisions_count_bisections():
    # a quadratic is exact on the first panel; 1/t bisects until the budget
    assert integrate_unit(lambda t: t * t).subdivisions == 0
    res = integrate_unit(lambda t: 1.0 / t, QuadSpec(max_subdivisions=10))
    assert (res.stop_reason, res.subdivisions) == ("budget", 10)


def test_node_on_panel_end_stalls():
    # bisecting towards the pole at 3 narrows the right panel until its
    # outermost node rounds onto 3, where 1/(3 - t) reads inf: the run stalls
    res = integrate(lambda t: 1.0 / (3.0 - t), Interval(2.0, 3.0))
    assert (res.evaluations, res.converged, res.stop_reason) == (1365, False, "stalled")


def _spike_at_half(t):
    # f(1/2) = 1e30 on the first panel's centre node; no child node comes
    # within 1e-3 of 1/2, where the spike is exp(-1e6) = 0
    return 1e30 * np.exp(-1e12 * (t - 0.5) ** 2) + np.sin(100.0 * t)


def test_final_sums_that_miss_the_tolerance_stall():
    # the first panel's error (~1e29) swamps its children's, so the running
    # total_err + (lerr + rerr - perr) rounds to 0 and the loop stops at
    # once; the final sums by position hold only the children's error
    res = integrate_unit(_spike_at_half)
    (lval, lerr), (rval, rerr) = (_ref_gk15(_spike_at_half, 0.0, 0.5),
                                  _ref_gk15(_spike_at_half, 0.5, 1.0))
    assert (res.evaluations, res.subdivisions) == (45, 1)
    assert (res.value, res.error_estimate) == (lval + rval, lerr + rerr)
    spec = QuadSpec()
    assert res.error_estimate > max(spec.abs_tol, spec.rel_tol * abs(res.value))
    assert (res.converged, res.stop_reason) == (False, "stalled")


# unhinted t^alpha: (alpha, integrand evaluations), as before the divergence
# test existed; the left panel keeps 2^-(1+alpha) <= 0.979 of its value per
# bisection, so the test never fires
UNHINTED_CONVERGENT = [(-0.8, 4575), (-0.9, 9105), (-0.95, 17865), (-0.97, 29235)]


@pytest.mark.parametrize("alpha, evaluations", UNHINTED_CONVERGENT)
def test_unhinted_near_singular_power_converges(alpha, evaluations):
    res = integrate_unit(lambda t: t**alpha)
    assert (res.converged, res.stop_reason) == (True, "converged")
    # unhinted, the error estimate under-reads near alpha = -1 (by 13x at
    # -0.97), so the value is held to a relative 1e-8, not to the estimate
    assert abs(res.value - 1.0 / (1.0 + alpha)) <= 1e-8 / (1.0 + alpha)
    assert res.evaluations == evaluations


@pytest.mark.parametrize(
    "run",
    [
        lambda: integrate_unit(lambda t: t**-1.0),
        lambda: integrate_unit(lambda t: t**-1.5),
        lambda: next(young(2.0).integrals([MOMENT_INTEGRANDS["m02"]])),
        lambda: next(young(2.5).integrals([MOMENT_INTEGRANDS["m02"]])),
        lambda: next(young(3.0).integrals([MOMENT_INTEGRANDS["m02"]])),
    ],
    ids=["t^-1", "t^-1.5", "young2_m02", "young2.5_m02", "young3_m02"],
)
def test_left_endpoint_divergence_stops_early(run):
    res = run()
    assert (res.converged, res.stop_reason) == (False, "divergent")
    assert res.evaluations <= 1_000


@pytest.mark.parametrize("eps, evaluations", [(1e-6, 615), (1e-100, 9990), (1e-300, 29910)])
def test_near_singular_integrand_still_converges(eps, evaluations):
    # 1/(t + eps) looks like the divergent 1/t until the left panel is
    # narrower than eps; the endpoint probe tells the two apart
    res = integrate_unit(lambda t: 1.0 / (t + eps))
    assert (res.converged, res.stop_reason) == (True, "converged")
    assert abs(res.value - math.log1p(1.0 / eps)) <= 1e-10 * res.value
    assert res.evaluations == evaluations


def test_constant_one():
    res = integrate_unit(np.ones_like)
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-14


@pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.1])
def test_singularity_battery(alpha):
    spec = QuadSpec(left_singularity_exponent=alpha)
    res = integrate_unit(lambda t: t**alpha, spec)
    assert res.converged
    assert abs(res.value - 1.0 / (alpha + 1.0)) <= spec.abs_tol


def test_validation_battery_error_bound():
    for f, interval, spec, exact in VALIDATION_BATTERY:
        res = integrate(f, interval, spec)
        assert res.converged
        assert abs(res.value - exact) <= 10.0 * res.error_estimate
        assert res.error_estimate <= max(
            spec.abs_tol, spec.rel_tol * abs(res.value)
        )
        assert res.evaluations > 0


def test_young_weight_unit_integral():
    # closed form (p^2+2p)/((p+1)(2p+1)) at p=2
    ws = young(2.0)
    res = integrate_unit(lambda t: ws.eval_arrays(t)[0])
    assert res.converged
    assert abs(res.value - 8.0 / 15.0) <= 1e-9


def test_nesbitt_weight_unit_integral():
    ws = nesbitt()
    res = integrate_unit(lambda t: ws.eval_arrays(t)[0])
    assert res.converged
    assert abs(res.value - (1.5 * LN3 - 1.0)) <= 1e-10


def test_linearity():
    f = np.exp
    g = np.cos
    alpha, beta_c = 2.5, -1.25
    rf = integrate_unit(f)
    rg = integrate_unit(g)
    rc = integrate_unit(lambda t: alpha * f(t) + beta_c * g(t))
    combined_tol = (
        abs(alpha) * rf.error_estimate + abs(beta_c) * rg.error_estimate
        + rc.error_estimate
    )
    assert abs(rc.value - (alpha * rf.value + beta_c * rg.value)) <= 10 * combined_tol


def test_determinism():
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-12)
    r1 = integrate_unit(lambda t: np.sin(3.0 * t) * t**0.25, spec)
    r2 = integrate_unit(lambda t: np.sin(3.0 * t) * t**0.25, spec)
    assert r1 == r2


def test_converged_invariant():
    spec = QuadSpec()
    res = integrate_unit(lambda t: np.exp(-(t**2)), spec)
    assert res.converged
    assert res.error_estimate <= max(spec.abs_tol, spec.rel_tol * abs(res.value))


def test_evaluator_error_propagates():
    f = parse_function("ln(x)")
    with pytest.raises(ExprDomainError):
        integrate(f, Interval(-1.0, 1.0), QuadSpec())


@pytest.mark.parametrize(
    "f,shape",
    [
        (lambda t: 1.0, "()"),
        (lambda t: np.ones(3), "(3,)"),
        (lambda t: np.ones((15, 1)), "(15, 1)"),
    ],
)
def test_integrand_must_return_one_value_per_node(f, shape):
    contract = f"one value per node: shape (15,), got {shape}"
    with pytest.raises(TypeError, match=re.escape(contract) + "$"):
        integrate_unit(f)


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError, match=r"width b - a overflows a double on \[-1e\+308"):
        Interval(-1e308, 1e308)
    assert Interval(-1e308, 7e307).width == 1.7e308
    # a + b overflows, the midpoint does not
    assert Interval(1e308, 1.7e308).midpoint == 1.35e308
    # halving each end first would round here, 0.5 * (a + b) does not
    lo = 2.0**-1022 + 2.0**-1074
    assert Interval(lo, lo + 4 * 2.0**-1074).midpoint == lo + 2 * 2.0**-1074


def test_panel_midpoints_do_not_overflow():
    # every panel of [1e308, 1.7e308] has lo + hi > DBL_MAX: its centre and
    # the bisection points are still finite, so the sqrt edge is resolved
    res = integrate(lambda x: np.sqrt((x - 1e308) / 7e307), Interval(1e308, 1.7e308))
    assert (res.converged, res.subdivisions, res.evaluations) == (True, 15, 465)
    assert abs(res.value / (7e307 * 2.0 / 3.0) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"rel_tol": -1.0},
        {"max_subdivisions": 0},
        {"left_singularity_exponent": -1.0},
        {"left_singularity_exponent": 0.5},
        {"abs_tol": math.inf},
        {"rel_tol": math.inf},
        # a budget that is not an integer: NaN would never be reached, and
        # 2.5 would stop a run at 3 subdivisions
        {"max_subdivisions": math.nan},
        {"max_subdivisions": 2.5},
        {"max_subdivisions": True},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(DomainError):
        QuadSpec(**kwargs)


def test_spec_takes_numpy_integers():
    spec = QuadSpec(max_subdivisions=np.int64(3))
    assert type(spec.max_subdivisions) is int  # the report's config echo is JSON
    res = integrate_unit(lambda t: np.sin(30 * t), spec)
    assert (res.stop_reason, res.subdivisions) == ("budget", 3)


def test_rational_integrand_evaluations():
    cases = [
        (lambda t: 1.0 / (1.0 + t * t), QuadSpec(), True, None),
        (lambda t: 1.0 / t, QuadSpec(max_subdivisions=10), False, 315),
        # divergent: 16 non-shrinking bisections of the left panel, then the
        # endpoint probe panel
        (lambda t: 1.0 / t, QuadSpec(), False, 510),
    ]
    for f, case_spec, converged, evaluations in cases:
        res = integrate_unit(f, case_spec)
        assert res.converged is converged
        assert evaluations in (None, res.evaluations)


# --- one integrand call per bisection, against a call per panel -------------
#
# The reference below is the adaptive loop as it was when every panel was
# its own integrand call: each child of a bisection is evaluated on its own,
# the left first. The rule constants, the midpoint and the divergence-test
# settings come from the module, as they are shared by both.

_REF_OFFSETS = np.array([0.0] + [s * x for x in quadrature._XGK[:7] for s in (-1.0, 1.0)])


def _ref_gk15(f, lo, hi):
    c = quadrature._midpoint(lo, hi)
    h = 0.5 * (hi - lo)
    out = np.asarray(f(c + h * _REF_OFFSETS), dtype=float)
    if out.shape != (15,):
        raise TypeError(
            f"an integrand must return one value per node: shape (15,), got {out.shape}"
        )
    vals = out.tolist()
    wgk, wg = quadrature._WGK, quadrature._WG
    kron = wgk[7] * vals[0]
    gauss = wg[3] * vals[0]
    for i in range(7):
        pair = vals[1 + 2 * i] + vals[2 + 2 * i]
        kron += wgk[i] * pair
        if i % 2 == 1:
            gauss += wg[i // 2] * pair
    value = kron * h
    err = max(abs(kron - gauss), 2.0**-52 * abs(kron)) * abs(h)
    return value, err


def _ref_adaptive(f, lo, hi, spec):
    value0, err0 = _ref_gk15(f, lo, hi)
    evaluations = 15
    heap = [(-err0, 0, lo, hi, value0, err0)]
    seq = 1
    total_value = value0
    total_err = err0
    subdivisions = 0
    still = 0
    reason = None if math.isfinite(value0) and math.isfinite(err0) else "stalled"
    while reason is None:
        if subdivisions >= spec.max_subdivisions:
            reason = "budget"
            break
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total_value)):
            break
        _, _, plo, phi, pval, perr = heap[0]
        mid = quadrature._midpoint(plo, phi)
        if mid <= plo or mid >= phi:
            reason = "stalled"
            break
        lval, lerr = _ref_gk15(f, plo, mid)
        rval, rerr = _ref_gk15(f, mid, phi)
        evaluations += 30
        if not all(map(math.isfinite, (lval, lerr, rval, rerr))):
            reason = "stalled"
            break
        heapq.heapreplace(heap, (-lerr, seq, plo, mid, lval, lerr))
        heapq.heappush(heap, (-rerr, seq + 1, mid, phi, rval, rerr))
        seq += 2
        total_value += lval + rval - pval
        total_err += lerr + rerr - perr
        subdivisions += 1
        if plo == lo and still >= 0:
            still = still + 1 if abs(lval) > quadrature._STILL_RATIO * abs(pval) else 0
            if still == quadrature._STILL_HALVINGS:
                probe_hi = min(lo + quadrature._PROBE_ULPS * math.ulp(lo), mid)
                probe, _ = _ref_gk15(f, lo, probe_hi)
                evaluations += 15
                if not abs(probe) <= quadrature._STILL_RATIO * abs(lval):
                    reason = "divergent"
                still = -1
    panels = sorted(heap, key=lambda e: (e[2], e[3]))
    value = 0.0
    err = 0.0
    for _, _, _, _, pval, perr in panels:
        value += pval
        err += perr
    converged = (
        reason in (None, "budget")
        and math.isfinite(value)
        and math.isfinite(err)
        and err <= max(spec.abs_tol, spec.rel_tol * abs(value))
    )
    if converged:
        reason = "converged"
    elif reason is None:
        reason = "stalled"
    return QuadResult(value, err, evaluations, converged, reason, subdivisions)


def _ref_integrate(f, interval, spec=QuadSpec()):
    alpha = spec.left_singularity_exponent
    with np.errstate(all="ignore"):
        if alpha is None or alpha == 0.0:
            return _ref_adaptive(f, interval.a, interval.b, spec)
        m = 1.0 / (1.0 + alpha)
        a = interval.a

        def g(u):
            return f(a + u**m) * (m * u ** (m - 1.0))

        return _ref_adaptive(g, 0.0, interval.width ** (1.0 + alpha), spec)


def _bits(res):
    """All six QuadResult fields, the floats by their exact hex text."""
    return (res.value.hex(), res.error_estimate.hex(), res.evaluations,
            res.converged, res.stop_reason, res.subdivisions)


def _product(f, g):
    return lambda x: f(x) * g(x)


UNIT = Interval(0.0, 1.0)

DIFFERENTIAL_CASES = {
    **{
        f"hinted t^{a}": (lambda t, a=a: t**a, UNIT, QuadSpec(left_singularity_exponent=a))
        for a in (-0.5, -0.9, -0.97)
    },
    "unhinted t^-0.97": (lambda t: t**-0.97, UNIT, QuadSpec()),
    "divergent t^-1": (lambda t: t**-1.0, UNIT, QuadSpec()),
    "divergent t^-1.2": (lambda t: t**-1.2, UNIT, QuadSpec()),
    "1/(t + 1e-6)": (lambda t: 1.0 / (t + 1e-6), UNIT, QuadSpec()),
    "stalled 1/(3 - t)": (lambda t: 1.0 / (3.0 - t), Interval(0.0, 3.0), QuadSpec()),
    "stalled child 1/(t - 0.25)": (lambda t: 1.0 / (t - 0.25), UNIT, QuadSpec()),
    "stalled final sums": (_spike_at_half, UNIT, QuadSpec()),
    "budget t^-0.5": (lambda t: t**-0.5, UNIT, QuadSpec(max_subdivisions=3)),
    "sin, exp": (parse_function("sin(3*x)*exp(-x)"), Interval(0.0, 4.0), QuadSpec()),
    "cos, ln": (parse_function("cos(x)^2 + ln(1 + x)"), Interval(0.5, 2.0), QuadSpec()),
    "ln singular": (parse_function("ln(x)"), UNIT, QuadSpec()),
    "sqrt, abs": (parse_function("sqrt(abs(x - 0.3))"), UNIT, QuadSpec()),
    "x^0.5, pow": (parse_function("x^0.5 * pow(x + 1, 2.5)"), UNIT, QuadSpec()),
    "theorem product": (
        _product(parse_function("exp(x)"), parse_function("x^4 + 1")),
        Interval(1.0, 3.0),
        QuadSpec(abs_tol=1e-13, rel_tol=1e-13),
    ),
}


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
def test_bisection_call_matches_call_per_panel(case):
    f, interval, spec = DIFFERENTIAL_CASES[case]
    assert _bits(integrate(f, interval, spec)) == _bits(_ref_integrate(f, interval, spec))


# the systems' weight integrands: the five moments and Nesbitt's square
WEIGHT_TERMS = [*MOMENT_INTEGRANDS.values(), (lambda wx, wy: (wx + wy) ** 2, (0, 2))]


@pytest.mark.parametrize("ws", [young(p) for p in (1.01, 1.5, 1.9, 2.0, 7.3)] + [nesbitt()],
                         ids=lambda ws: ws.label())
def test_weight_integrals_match_call_per_panel(ws):
    results = list(ws.integrals(WEIGHT_TERMS))
    for (g, (i, j)), res in zip(WEIGHT_TERMS, results):
        hint = None
        if ws.p is not None and -1.0 < (i + j) / ws.p - j < 0.0:
            hint = (i + j) / ws.p - j
        ref = _ref_integrate(lambda t, g=g: g(*ws.eval_arrays(t)), UNIT,
                             QuadSpec(left_singularity_exponent=hint))
        assert _bits(res) == _bits(ref), (ws.label(), (i, j))


def _domain_error(run):
    with pytest.raises(ExprDomainError) as info:
        run()
    return str(info.value), info.value.x


@pytest.mark.parametrize(
    "source, x",
    [
        # 0.75 is the centre of the first bisection's right child only
        ("1/(x - 0.75)", 0.75),
        # both children hold a pole: the left child's is named
        ("1/((x - 0.25)*(x - 0.75))", 0.25),
        # the first guard fails on the right half, the second on the left:
        # the left child, evaluated first by a call per panel, names its x
        ("1/(x - 0.75) + 2/(x - 0.25)", 0.25),
    ],
)
def test_bisection_error_names_the_point_of_a_call_per_panel(source, x):
    f = parse_function(source)
    got = _domain_error(lambda: integrate_unit(f))
    assert got == _domain_error(lambda: _ref_integrate(f, UNIT))
    assert got == (f"division by zero (at x={x!r})", x)


def test_misshapen_bisection_return_names_thirty_nodes():
    # 15 values fit the first panel; its K15 and G7 sums differ, so it is
    # bisected, and the bisection's one call has 30 nodes
    contract = "one value per node: shape (30,), got (15,)"
    with pytest.raises(TypeError, match=re.escape(contract) + "$"):
        integrate_unit(lambda t: np.arange(15.0))


def test_bisection_error_raised_when_no_single_panel_raises():
    # an integrand that fails only on a call of 30 nodes: each half of the
    # bisection, evaluated alone to name the failing point, raises nothing,
    # so the two-panel call's own exception propagates
    calls = []

    def f(t):
        calls.append(t.size)
        if t.size == 30:
            raise ArithmeticError("two panels at once")
        return 1.0 / (1e-2 + (t - 0.3) ** 2)  # peaked: the first panel is bisected

    with pytest.raises(ArithmeticError, match="^two panels at once$"):
        integrate_unit(f)
    assert calls == [15, 30, 15, 15]
