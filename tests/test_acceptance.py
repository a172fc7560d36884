"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one pass/fail line (visible with `pytest -s` or on
failure); the test verdicts themselves are the gate.
"""

import json
import math
import time

import numpy as np
import pytest

from convexa.cli import Overall, render, run, verify_paper
from convexa.errors import DivergentCoefficient
from convexa.expr import parse_function, parse_source, unparse
from convexa.membership import GridSpec, Verdict, check_convex
from convexa.quadrature import Interval, QuadSpec, integrate_unit
from convexa.theorems import (
    NESBITT_ORDERED_COEFF,
    NESBITT_RIGHT_COEFF,
    hadamard_classical,
    nesbitt_sandwich,
    pachpatte_bounds,
    young_product_bound,
    young_right_bound,
    young_sandwich,
)
from convexa.weights import (
    nesbitt,
    young,
    young_cross_moment_proof_display,
    young_cross_moment_theorem_display,
)

from test_expr import CORPUS

LN3 = math.log(3.0)
LEMMA_P_VALUES = (1.01, 1.1, 1.5, 2.0, 3.0, 10.0)
BATTERY = ("x^2", "exp(x)", "x", "1", "x^4", "x+1")
INTERVALS = ((0.0, 1.0), (1.0, 3.0))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_a1_lemma_positivity_and_runtime():
    start = time.perf_counter()
    ts = np.linspace(1e-4, 1.0, 999)
    worst = math.inf
    for ws in [nesbitt()] + [young(p) for p in LEMMA_P_VALUES]:
        worst = min(worst, float((ws.lemma_rhs_arrays(ts) - 1.0).min()))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and elapsed < 1.0
    _report("A1", ok, f"min lemma margin {worst:.3e}, runtime {elapsed:.3f}s")


def test_a2_moment_oracle():
    worst = 0.0
    for p in LEMMA_P_VALUES:
        closed = young(p).moments_closed_form().entries()
        oracle = young(p).moments().entries()
        assert closed["m10"] == pytest.approx(
            (p * p + 2.0 * p) / ((p + 1.0) * (2.0 * p + 1.0)), abs=1e-15
        )
        assert closed["m01"] == pytest.approx(
            3.0 * p * p / ((p + 1.0) * (2.0 * p + 1.0)), abs=1e-15
        )
        for key in ("m10", "m01"):
            worst = max(worst, abs(closed[key] - oracle[key]))
    closed = nesbitt().moments_closed_form().entries()
    oracle = nesbitt().moments().entries()
    assert closed["m10"] == pytest.approx(0.6479184330, abs=1e-10)
    for key in ("m10", "m01", "m20", "m02", "m11"):
        worst = max(worst, abs(closed[key] - oracle[key]))
    _report("A2", worst <= 1e-9, f"max |quadrature - closed form| = {worst:.3e}")


def test_a3_erratum_detection():
    ws = young(1.5)

    def cross(t):
        wx, wy = ws.eval_arrays(t)
        return wx * wy

    res = integrate_unit(cross, QuadSpec(), vectorized=True)
    assert res.converged
    proof_diff = abs(res.value - young_cross_moment_proof_display(1.5))
    theorem_diff = abs(res.value - young_cross_moment_theorem_display(1.5))
    coincide = abs(
        young_cross_moment_proof_display(2.0)
        - young_cross_moment_theorem_display(2.0)
    )
    ok = proof_diff <= 1e-9 and theorem_diff >= 0.04 and coincide <= 1e-9
    _report(
        "A3",
        ok,
        f"proof diff {proof_diff:.3e}, theorem diff {theorem_diff:.4f}, "
        f"p=2 coincidence {coincide:.3e}",
    )


def test_a4_divergence():
    f = parse_function("x")
    raised = 0
    for p in (2.0, 3.0):
        try:
            young_product_bound(f, f, Interval(0.0, 1.0), p)
        except DivergentCoefficient:
            raised += 1
    res = integrate_unit(lambda t: t**-1.0 * (1.0 - t) ** 2, QuadSpec(), vectorized=True)
    ok = raised == 2 and not res.converged
    _report("A4", ok, f"DivergentCoefficient raised {raised}/2, converged={res.converged}")


def test_a5_sandwich_theorems_on_battery():
    worst = math.inf
    for a, b in INTERVALS:
        interval = Interval(a, b)
        for source in BATTERY:
            f = parse_function(source)
            assert (
                check_convex(f, interval, nesbitt()).verdict
                is Verdict.NO_VIOLATION_AT_RESOLUTION
            )
            worst = min(worst, min(hadamard_classical(f, interval).margins))
            worst = min(worst, min(nesbitt_sandwich(f, interval).margins))
            for p in (1.1, 1.5, 2.0):
                assert (
                    check_convex(f, interval, young(p)).verdict
                    is Verdict.NO_VIOLATION_AT_RESOLUTION
                )
                worst = min(worst, min(young_sandwich(f, interval, p).margins))
                worst = min(worst, young_right_bound(f, interval, p).margins[1])
    constant_diff = abs(NESBITT_RIGHT_COEFF - 0.6479184330)
    ok = worst >= -1e-8 and constant_diff <= 1e-10
    _report("A5", ok, f"worst margin {worst:.3e}, ln(3*sqrt(3)/e) diff {constant_diff:.2e}")


def test_a6_degeneration():
    p = 1.0 + 1e-8
    table = young(p).moments_closed_form()
    coeff_dev = max(abs(table.m10 - 0.5), abs(table.m01 - 0.5))
    worst = 0.0
    for source, (a, b) in (("x^2", (0.0, 1.0)), ("exp(x)", (1.0, 3.0))):
        f = parse_function(source)
        interval = Interval(a, b)
        ys = young_sandwich(f, interval, p)
        hc = hadamard_classical(f, interval)
        worst = max(
            worst,
            abs(ys.left_value - hc.left_value),
            abs(ys.right_value - hc.right_value),
        )
    ok = coeff_dev <= 1e-6 and worst <= 1e-6
    _report("A6", ok, f"coefficient deviation {coeff_dev:.2e}, sandwich deviation {worst:.2e}")


def test_a7_pachpatte_equalities():
    fx = parse_function("x")
    one = parse_function("1")
    interval = Interval(0.0, 1.0)
    upper, lower = pachpatte_bounds(fx, fx, interval)
    d1 = abs(upper.integral_avg - upper.bound)
    d2 = abs(lower.midpoint_product - (lower.integral_avg + lower.bound))
    upper1, _ = pachpatte_bounds(one, one, interval)
    d3 = abs(upper1.integral_avg - upper1.bound)
    ok = d1 <= 1e-10 and d2 <= 1e-10 and d3 <= 1e-10
    _report("A7", ok, f"equality residuals {d1:.2e}, {d2:.2e}, {d3:.2e}")


def test_a8_similarly_ordered_coefficient():
    decimal_diff = abs(NESBITT_ORDERED_COEFF - 0.8802)
    coeff_sum = (125.0 / 6.0 - (147.0 / 8.0) * LN3) + (
        (117.0 / 8.0) * LN3 - 95.0 / 6.0
    )
    identity_diff = abs(NESBITT_ORDERED_COEFF - coeff_sum)
    ok = decimal_diff <= 5e-5 and identity_diff <= 1e-12
    _report("A8", ok, f"paper-decimal diff {decimal_diff:.2e}, identity diff {identity_diff:.2e}")


def test_a9_membership():
    square = check_convex(parse_function("x^2"), Interval(0.0, 2.0), nesbitt())
    witness_grid = GridSpec(nt=2, t_min=0.5)
    negative = check_convex(
        parse_function("-1"), Interval(0.0, 1.0), young(2.0), witness_grid
    )
    cert = negative.certificate
    ok = (
        square.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION
        and negative.verdict is Verdict.VIOLATED
        and cert.t == 0.5
        and abs(cert.gap - 0.06066) <= 1e-4
    )
    # the default grid also certifies a violation (at its first scanned cell)
    default = check_convex(parse_function("-1"), Interval(0.0, 1.0), young(2.0))
    ok = ok and default.verdict is Verdict.VIOLATED
    _report("A9", ok, f"x^2 {square.verdict.value}, certificate t={cert.t} gap={cert.gap:.6f}")


def test_a10_parser():
    assert len(CORPUS) == 50
    for source, x, expected in CORPUS:
        tree = parse_source(source)
        assert parse_source(unparse(tree)) == tree
        value = parse_function(source)(x)
        assert value == pytest.approx(expected, rel=1e-14, abs=1e-14)
    assert parse_source("2*x^3") == parse_source("2*(x^3)")
    assert parse_source("-x^2") == parse_source("-(x^2)")
    assert parse_function("1+2*3")(0.0) == 7.0
    from convexa.expr import ExprSyntaxError

    with pytest.raises(ExprSyntaxError) as exc:
        parse_source("2$x")
    positioned = exc.value.position == 1
    _report("A10", positioned, "50-expression corpus round-trips, precedence and errors hold")


def test_a11_verify_paper_end_to_end(tmp_path):
    start = time.perf_counter()
    report = verify_paper(QuadSpec())
    elapsed = time.perf_counter() - start
    text = render(report, "json")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    code_a = run(["verify-paper", "--format", "json", "--out", str(path_a)])
    code_b = run(["verify-paper", "--format", "json", "--out", str(path_b)])
    stable = path_a.read_bytes() == path_b.read_bytes()
    ok = (
        report.overall is Overall.ALL_HOLD
        and elapsed < 60.0
        and stable
        and code_a == 0
        and code_b == 0
    )
    _report(
        "A11",
        ok,
        f"overall={report.overall.value}, {len(report.results)} checks in "
        f"{elapsed:.2f}s, byte-stable={stable}",
    )
