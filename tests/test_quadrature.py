import math

import numpy as np
import pytest

from convexa.errors import DomainError
from convexa.expr import ExprDomainError, parse_function
from convexa.quadrature import Interval, QuadSpec, integrate, integrate_unit
from convexa.weights import MOMENT_INTEGRANDS, nesbitt, young

LN3 = math.log(3.0)

# (integrand, interval, spec, exact value) -- analytic antiderivatives
VALIDATION_BATTERY = [
    (lambda t: t * t, Interval(0.0, 1.0), QuadSpec(), 1.0 / 3.0),
    (lambda t: 5.0 * t**4, Interval(0.0, 2.0), QuadSpec(), 32.0),
    (math.exp, Interval(0.0, 1.0), QuadSpec(), math.e - 1.0),
    (math.cos, Interval(0.0, 2.0), QuadSpec(), math.sin(2.0)),
    (lambda t: 1.0 / (1.0 + t * t), Interval(0.0, 1.0), QuadSpec(), math.pi / 4.0),
    (math.sqrt, Interval(0.0, 1.0), QuadSpec(), 2.0 / 3.0),
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
    res = integrate_unit(lambda t: 1.0 / (t - 0.5), vectorized=True)
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
    res = integrate_unit(lambda t: 1.0 / (t - 0.25), vectorized=True)
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


def test_scalar_node_on_panel_end_stalls():
    # bisecting towards the pole at 3 narrows the right panel until its
    # outermost node rounds onto 3: there the scalar 1/(3 - t) raises
    # ZeroDivisionError where the array call reads inf, and both stall alike
    def f(t):
        return 1.0 / (3.0 - t)

    res = integrate(f, Interval(2.0, 3.0))
    assert (res.evaluations, res.converged, res.stop_reason) == (1365, False, "stalled")
    assert res == integrate(f, Interval(2.0, 3.0), vectorized=True)
    # the centre of [2, 3] is an inner node: the evaluator's error propagates
    with pytest.raises(ZeroDivisionError):
        integrate(lambda t: 1.0 / (t - 2.5), Interval(2.0, 3.0))


# unhinted t^alpha: (alpha, integrand evaluations), as before the divergence
# test existed; the left panel keeps 2^-(1+alpha) <= 0.979 of its value per
# bisection, so the test never fires
UNHINTED_CONVERGENT = [(-0.8, 4575), (-0.9, 9105), (-0.95, 17865), (-0.97, 29235)]


@pytest.mark.parametrize("alpha, evaluations", UNHINTED_CONVERGENT)
def test_unhinted_near_singular_power_converges(alpha, evaluations):
    res = integrate_unit(lambda t: t**alpha, vectorized=True)
    assert (res.converged, res.stop_reason) == (True, "converged")
    # unhinted, the error estimate under-reads near alpha = -1 (by 13x at
    # -0.97), so the value is held to a relative 1e-8, not to the estimate
    assert abs(res.value - 1.0 / (1.0 + alpha)) <= 1e-8 / (1.0 + alpha)
    assert res.evaluations == evaluations


@pytest.mark.parametrize(
    "run",
    [
        lambda: integrate_unit(lambda t: t**-1.0, vectorized=True),
        lambda: integrate_unit(lambda t: t**-1.5, vectorized=True),
        lambda: young(2.0).integral(*MOMENT_INTEGRANDS["m02"]),
        lambda: young(2.5).integral(*MOMENT_INTEGRANDS["m02"]),
        lambda: young(3.0).integral(*MOMENT_INTEGRANDS["m02"]),
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
    res = integrate_unit(lambda t: 1.0 / (t + eps), vectorized=True)
    assert (res.converged, res.stop_reason) == (True, "converged")
    assert abs(res.value - math.log1p(1.0 / eps)) <= 1e-10 * res.value
    assert res.evaluations == evaluations


def test_constant_one():
    res = integrate_unit(lambda t: 1.0)
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
    res = integrate_unit(lambda t: ws.eval_arrays(t)[0], vectorized=True)
    assert res.converged
    assert abs(res.value - 8.0 / 15.0) <= 1e-9


def test_nesbitt_weight_unit_integral():
    ws = nesbitt()
    res = integrate_unit(lambda t: ws.eval_arrays(t)[0], vectorized=True)
    assert res.converged
    assert abs(res.value - (1.5 * LN3 - 1.0)) <= 1e-10


def test_linearity():
    f = math.exp
    g = math.cos
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
    r1 = integrate_unit(lambda t: math.sin(3.0 * t) * t**0.25, spec)
    r2 = integrate_unit(lambda t: math.sin(3.0 * t) * t**0.25, spec)
    assert r1 == r2


def test_converged_invariant():
    spec = QuadSpec()
    res = integrate_unit(lambda t: math.exp(-(t**2)), spec)
    assert res.converged
    assert res.error_estimate <= max(spec.abs_tol, spec.rel_tol * abs(res.value))


def test_evaluator_error_propagates():
    f = parse_function("ln(x)")
    with pytest.raises(ExprDomainError):
        integrate(f, Interval(-1.0, 1.0), QuadSpec(), vectorized=True)


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError, match=r"width b - a overflows a double on \[-1e\+308"):
        Interval(-1e308, 1e308)
    assert Interval(-1e308, 7e307).width == 1.7e308


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"rel_tol": -1.0},
        {"max_subdivisions": 0},
        {"left_singularity_exponent": -1.0},
        {"left_singularity_exponent": 0.5},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(DomainError):
        QuadSpec(**kwargs)


def test_vectorized_matches_scalar():
    spec = QuadSpec()
    r_scalar = integrate_unit(lambda t: math.exp(t) * t, spec)
    r_vec = integrate_unit(lambda t: np.exp(t) * t, spec, vectorized=True)
    assert r_scalar.converged and r_vec.converged
    assert abs(r_scalar.value - r_vec.value) <= 1e-12
    # one rational lambda, evaluated per node and per panel array
    cases = [
        (lambda t: 1.0 / (1.0 + t * t), QuadSpec(), True, None),
        (lambda t: 1.0 / t, QuadSpec(max_subdivisions=10), False, 315),
        # divergent: 16 non-shrinking bisections of the left panel, then the
        # endpoint probe panel
        (lambda t: 1.0 / t, spec, False, 510),
    ]
    for f, case_spec, converged, evaluations in cases:
        r_scalar = integrate_unit(f, case_spec)
        assert r_scalar == integrate_unit(f, case_spec, vectorized=True)
        assert r_scalar.converged is converged
        assert evaluations in (None, r_scalar.evaluations)
