import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexa.errors import DomainError
from convexa.expr import ExprDomainError, parse_function
from convexa.membership import (
    GridSpec,
    Verdict,
    check_classes,
    check_concave,
    check_convex,
    nonnegativity_witness,
)
from convexa.quadrature import Interval
from convexa.weights import classical, dominates_classical, nesbitt, young

# (3/2)/sqrt(2) - 1: equal-argument slack of the Young p=2 weights at t=1/2
HALF_T_GAP = 1.5 / 2.0**0.5 - 1.0


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(nx=1)
    with pytest.raises(DomainError):
        GridSpec(t_min=0.0)
    with pytest.raises(DomainError):
        GridSpec(t_min=1.5)
    with pytest.raises(DomainError):
        GridSpec(tol=0.0)
    with pytest.raises(DomainError):
        GridSpec(tol=float("inf"))
    # a scan holds the nx-long x axis and the ny*nt (y, t) terms whole, so
    # either above 2**22 is rejected when the grid is built, before any array
    with pytest.raises(DomainError, match="nx=4194305, ny=41, nt=99"):
        GridSpec(nx=2**22 + 1)
    with pytest.raises(DomainError, match="nx=2, ny=2, nt=100000000"):
        GridSpec(nx=2, ny=2, nt=100_000_000)
    GridSpec(nx=2**22, ny=2, nt=2**21)
    # point counts are integers, numpy's too; the error names the field
    for field, value in (("nx", 2.5), ("nt", float("nan")), ("ny", True)):
        with pytest.raises(DomainError, match=f"^grid point count {field} must be an integer"):
            GridSpec(**{field: value})
    assert type(GridSpec(nx=np.int64(3)).nx) is int


def test_square_is_nesbitt_convex():
    report = check_convex(parse_function("x^2"), Interval(0.0, 2.0), nesbitt())
    assert report.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION
    assert report.certificate is None
    assert report.samples == 41 * 41 * 99


def test_negative_constant_violates_young_default_grid():
    # scan order is x outer, y middle, t inner ascending: the first
    # violating cell sits at the very first grid point (t = t_min)
    grid = GridSpec()
    report = check_convex(parse_function("-1"), Interval(0.0, 1.0), young(2.0), grid)
    assert report.verdict is Verdict.VIOLATED
    cert = report.certificate
    assert cert.x == 0.0 and cert.y == 0.0
    assert cert.t == grid.t_min
    assert cert.gap > grid.tol


def test_negative_constant_proposition_witness():
    # with the t grid starting at 1/2 the certificate is the equal-argument
    # Proposition witness, gap (3/2)/sqrt(2) - 1
    grid = GridSpec(nt=2, t_min=0.5)
    report = check_convex(parse_function("-1"), Interval(0.0, 1.0), young(2.0), grid)
    assert report.verdict is Verdict.VIOLATED
    cert = report.certificate
    assert cert.t == 0.5
    assert abs(cert.gap - HALF_T_GAP) <= 1e-4
    assert abs(cert.gap - 0.06066) <= 1e-4


def test_identity_classical_equality_case():
    report = check_convex(parse_function("x"), Interval(0.0, 1.0), classical())
    assert report.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION
    # affine function with classical weights: equality over the whole grid
    assert report.max_slack == 0.0
    assert report.max_gap == 0.0


def test_certificate_recomputes_exactly():
    f = parse_function("-1")
    ws = young(2.0)
    report = check_convex(f, Interval(0.0, 1.0), ws)
    cert = report.certificate
    wx, wy = ws.eval_arrays(np.array([cert.t]))
    lhs = f(cert.t * cert.x + (1.0 - cert.t) * cert.y)
    rhs = float(wx[0]) * f(cert.x) + float(wy[0]) * f(cert.y)
    assert lhs == cert.lhs
    assert rhs == cert.rhs
    assert lhs - rhs == cert.gap


def test_concave_negated_square_young():
    # w_x >= t, w_y >= 1-t pointwise, so the reversed inequality holds for
    # -x^2 everywhere; the grid finds no violation
    report = check_concave(parse_function("-(x^2)"), Interval(0.0, 2.0), young(2.0))
    assert report.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION


def test_concave_square_young_violated_at_equal_arguments():
    # x^2 is not Young-concave: equal-argument points force the sign
    report = check_concave(parse_function("x^2"), Interval(0.0, 2.0), young(2.0))
    assert report.verdict is Verdict.VIOLATED


def test_concave_constant_classical():
    report = check_concave(parse_function("1"), Interval(0.0, 1.0), classical())
    assert report.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION


def test_concave_sqrt_classical():
    report = check_concave(parse_function("sqrt(x)"), Interval(0.01, 1.0), classical())
    assert report.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION


def test_nonnegativity_witness_cases():
    interval = Interval(0.0, 1.0)
    assert nonnegativity_witness(parse_function("-1"), interval, 41) == 0.0
    assert nonnegativity_witness(parse_function("x^2"), interval, 41) is None
    assert nonnegativity_witness(parse_function("x-0.5"), interval, 41) == 0.0
    with pytest.raises(DomainError):
        nonnegativity_witness(parse_function("x"), interval, 1)


def test_classical_member_satisfies_midpoint_inequality():
    f = parse_function("exp(x)")
    interval = Interval(0.0, 1.0)
    report = check_convex(f, interval, classical())
    assert report.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION
    xs = np.linspace(interval.a, interval.b, 41)
    for i in range(0, 41, 5):
        for j in range(0, 41, 5):
            mid = 0.5 * (xs[i] + xs[j])
            assert f(float(mid)) <= 0.5 * (f(float(xs[i])) + f(float(xs[j]))) + 1e-9


@pytest.mark.parametrize("source", ["x^2", "exp(x)", "x", "1", "x^4", "x+1"])
def test_domination_implication(source):
    # nonnegative classical member on [0,1] passes every dominating system
    f = parse_function(source)
    interval = Interval(0.0, 1.0)
    assert nonnegativity_witness(f, interval, 99) is None
    classical_report = check_convex(f, interval, classical())
    assert classical_report.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION
    for ws in (young(1.5), young(2.0), nesbitt()):
        ok, _ = dominates_classical(ws, 999)
        assert ok
        report = check_convex(f, interval, ws)
        assert report.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION


_COEFF = st.floats(0.0, 10.0)
# c * b(x) with c >= 0 and b >= 0 on [-3, inf)
_NONNEGATIVE_TERM = st.one_of(
    st.builds(lambda c, k: f"{c!r}*x^{2 * k}", _COEFF, st.integers(0, 3)),
    st.builds(lambda c, k: f"{c!r}*exp({k}*x)", _COEFF, st.integers(-2, 2)),
    st.builds(lambda c: f"{c!r}*sqrt(x+3)", _COEFF),
    st.builds(lambda c, s: f"{c!r}*abs(x-({s!r}))", _COEFF, st.floats(-3.0, 5.0)),
    st.builds(lambda c: f"{c!r}*cos(x)^2", _COEFF),
)


@settings(deadline=None, max_examples=100)
@given(
    terms=st.lists(_NONNEGATIVE_TERM, min_size=1, max_size=4),
    a=st.floats(-3.0, 2.0),
    width=st.floats(0.05, 3.0),
    ps=st.tuples(st.floats(1.01, 10.0), st.floats(1.01, 10.0)),
    shape=st.tuples(st.integers(2, 21), st.integers(2, 21), st.integers(2, 40)),
    t_min=st.floats(1e-4, 0.5),
)
def test_dominating_scans_gap_no_more_than_classical(terms, a, width, ps, shape, t_min):
    # for f >= 0 the weights that dominate (t, 1 - t) give a right-hand side
    # no smaller than the classical one at every cell, so no larger gap, up
    # to the rounding of the right-hand sides (magnitude max|f| on the grid)
    f = parse_function(" + ".join(terms))
    interval = Interval(a, a + width)
    grid = GridSpec(*shape, t_min=t_min)
    systems = [classical(), nesbitt(), young(ps[0]), young(ps[1])]
    for ws in systems[1:]:
        assert dominates_classical(ws, 999)[0]
    reports = check_classes(f, interval, systems, grid)
    xs = np.linspace(interval.a, interval.b, grid.nx)
    ys = np.linspace(interval.a, interval.b, grid.ny)
    f_max = float(max(np.abs(f(xs)).max(), np.abs(f(ys)).max()))
    slack = 8.0 * 2.0**-52 * max(1.0, f_max)
    for report in reports[1:]:
        assert report.max_gap <= reports[0].max_gap + slack


@settings(deadline=None, max_examples=100)
@given(
    terms=st.lists(_NONNEGATIVE_TERM, min_size=1, max_size=4),
    a=st.floats(-3.0, 2.0),
    width=st.floats(0.05, 3.0),
    shape=st.tuples(st.integers(2, 41), st.integers(2, 41)),
)
def test_nesbitt_scan_is_classical_on_half_and_one(terms, a, width, shape):
    # on the t nodes {1/2, 1} Nesbitt's rows are the classical ones at
    # t = 1/2, bit for bit, and at t = 1 neither violates for f >= 0
    # (classical rhs f(x), Nesbitt's 2 f(x)); so both read the same verdict
    # and certificate (README, "What the classes contain")
    f = parse_function(" + ".join(terms))
    interval = Interval(a, a + width)
    grid = GridSpec(*shape, nt=2, t_min=0.5)
    nesbitt_report = check_convex(f, interval, nesbitt(), grid)
    classical_report = check_convex(f, interval, classical(), grid)
    assert nesbitt_report.verdict is classical_report.verdict
    assert nesbitt_report.certificate == classical_report.certificate


@pytest.mark.xfail(
    raises=ExprDomainError,
    strict=True,
    reason="a scan point t*x + (1-t)*y can round past an end of [a, b] (ROADMAP)",
)
def test_scan_points_stay_inside_the_interval():
    # x = y = -3 and the grid's t = 0.33088235294117646 give
    # -3.0000000000000004, where sqrt(x + 3) is undefined. Hypothesis drew
    # this case for test_dominating_scans_gap_no_more_than_classical; once
    # the scan keeps its points in [a, b], drop the mark here and pin the
    # case there with @example
    f = parse_function("0.0*sqrt(x+3)")
    check_convex(f, Interval(-3.0, -2.0), classical(), GridSpec(2, 2, 18, t_min=0.125))


def test_determinism():
    f = parse_function("x^2")
    r1 = check_convex(f, Interval(0.0, 2.0), nesbitt())
    r2 = check_convex(f, Interval(0.0, 2.0), nesbitt())
    assert r1 == r2


def test_evaluator_error_reported_with_point():
    f = parse_function("ln(x)")
    with pytest.raises(ExprDomainError) as exc:
        check_convex(f, Interval(-1.0, 1.0), classical())
    assert exc.value.x <= 0.0
