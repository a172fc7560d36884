"""The tiled membership scan against a dense reference, bit for bit.

`_dense_scan` below is the whole-grid broadcast the scan used to be, with
the current contract applied: the scaled violation test, f's own
ExprDomainError for a NaN of f, NonFiniteError for any other inf or NaN,
and a zero maximum read as +0.0. It exists only here,
as the reference that tiling must reproduce exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexa import membership as mb
from convexa.errors import DomainError, NonFiniteError
from convexa.expr import ExprDomainError, FunctionDef, parse_function
from convexa.quadrature import Interval
from convexa.weights import classical, nesbitt, young


def _dense_scan(f, interval, ws, grid, sign):
    xs = np.linspace(interval.a, interval.b, grid.nx)
    ys = np.linspace(interval.a, interval.b, grid.ny)
    ts = np.linspace(grid.t_min, 1.0, grid.nt)
    with np.errstate(all="ignore"):
        wx, wy = ws.eval_arrays(ts)
        fx = f(xs)
        fy = f(ys)
        points = ts[None, None, :] * xs[:, None, None] + (
            1.0 - ts[None, None, :]
        ) * ys[None, :, None]
        lhs = f(points)
        rhs = (
            wx[None, None, :] * fx[:, None, None]
            + wy[None, None, :] * fy[None, :, None]
        )
        gap = sign * (lhs - rhs)
    max_slack = float((-gap).max()) + 0.0
    max_gap = float(gap.max()) + 0.0
    if not (math.isfinite(max_gap) and math.isfinite(max_slack)):
        i, j, k = np.unravel_index(int(np.argmax(~np.isfinite(gap))), gap.shape)
        raise NonFiniteError(
            f"membership scan produced a non-finite value at "
            f"x={float(xs[i])!r}, y={float(ys[j])!r}, t={float(ts[k])!r} "
            f"(lhs={float(lhs[i, j, k])!r}, rhs={float(rhs[i, j, k])!r})"
        )
    certificate = None
    for flat in np.flatnonzero(gap > grid.tol):
        i, j, k = np.unravel_index(int(flat), gap.shape)
        if not mb._exceeds(gap[i, j, k], lhs[i, j, k], rhs[i, j, k], grid.tol):
            continue
        cert = mb._certificate_at(f, ws, float(xs[i]), float(ys[j]), float(ts[k]), sign)
        if mb._exceeds(cert.gap, cert.lhs, cert.rhs, grid.tol):
            certificate = cert
            break
    verdict = (
        mb.Verdict.NO_VIOLATION_AT_RESOLUTION if certificate is None else mb.Verdict.VIOLATED
    )
    return mb.MembershipReport(
        verdict, certificate, grid.nx * grid.ny * grid.nt, max_slack, max_gap
    )


def _bits(report):
    cert = report.certificate
    cert_bits = None
    if cert is not None:
        cert_bits = tuple(
            float(v).hex() for v in (cert.x, cert.y, cert.t, cert.lhs, cert.rhs, cert.gap)
        )
    return (
        report.verdict,
        cert_bits,
        report.samples,
        report.max_gap.hex(),
        report.max_slack.hex(),
    )


def _assert_matches_dense(f, interval, systems, grid, concave):
    """check_classes over `systems`, and the one-class scan of the first of
    them, against the dense reference of each system, bit for bit."""
    scan = mb.check_concave if concave else mb.check_convex
    sign = -1.0 if concave else 1.0
    wants = []
    for ws in systems:
        try:
            wants.append(_dense_scan(f, interval, ws, grid, sign))
        except (NonFiniteError, ExprDomainError) as exc:
            # the first system in order whose own scan raises decides; a NaN
            # of f is the first system's, at f's first NaN point
            with pytest.raises(type(exc)) as got:
                mb.check_classes(f, interval, systems, grid, concave)
            assert str(got.value) == str(exc)
            if not wants:
                with pytest.raises(type(exc)) as got:
                    scan(f, interval, ws, grid)
                assert str(got.value) == str(exc)
            return
    reports = mb.check_classes(f, interval, systems, grid, concave)
    assert [_bits(r) for r in reports] == [_bits(w) for w in wants]
    assert _bits(scan(f, interval, systems[0], grid)) == _bits(wants[0])
    return reports


def _tile_cuts(ny, nt):
    """The y slice bounds of one x row, by the documented tile rule."""
    if ny * nt <= mb._BLOCK_SAMPLES:
        return [0, ny]
    count = math.ceil(ny / max(1, mb._BLOCK_SAMPLES // nt))
    return [ny * s // count for s in range(count + 1)]


SOURCES = [
    "x^2",
    "-1",
    "x",
    "-x",
    "exp(x)",
    "sqrt(x + 3)",
    "sin(3*x)",
    "x^3 - x",
    "-abs(x - 0.3)",
    "abs(x + 0.2)",
    "exp(exp(3*x))",  # overflows to inf on the right of the interval
    "1.7e308",  # finite, but w_y * f overflows where w_y > 1
    "exp(710*x) - exp(710*x)",  # NaN from x = 1, and 0 below it
    "0*exp(710 - 1000000*(x - 0.3123)^2)",  # NaN only within ~5e-4 of 0.3123
]
SYSTEMS = [classical(), nesbitt(), young(1.5), young(2.0), young(7.0)]
# a few samples short of, at, and past one tile, and one pair per tile
NT_VALUES = st.one_of(
    st.integers(2, 60),
    st.sampled_from([mb._BLOCK_SAMPLES // 4 - 1, mb._BLOCK_SAMPLES // 8]),
    st.integers(mb._BLOCK_SAMPLES - 2, mb._BLOCK_SAMPLES + 40),
)


@settings(deadline=None, max_examples=120)
@given(
    source=st.sampled_from(SOURCES),
    systems=st.lists(st.sampled_from(SYSTEMS), min_size=1, max_size=4),
    concave=st.booleans(),
    a=st.floats(-2.0, 1.0),
    width=st.floats(0.25, 3.0),
    nt=NT_VALUES,
    nx=st.integers(2, 40),
    ny=st.integers(2, 40),
    t_min=st.sampled_from([1e-4, 0.05, 0.5]),
    tol=st.sampled_from([1e-9, 1e-3]),
)
def test_blocked_scan_matches_dense(
    source, systems, concave, a, width, nt, nx, ny, t_min, tol
):
    if nt > 100:
        # keep the dense reference small: few pairs when t rows are long
        nx, ny = min(nx, 3), min(ny, 5)
    grid = mb.GridSpec(nx=nx, ny=ny, nt=nt, t_min=t_min, tol=tol)
    _assert_matches_dense(
        parse_function(source), Interval(a, a + width), systems, grid, concave
    )


@settings(deadline=None, max_examples=60)
@given(
    nt=st.integers(97, 400),
    blocks=st.integers(1, 2),
    extra=st.integers(1, 30),
    nx=st.integers(2, 4),
    ws=st.sampled_from(SYSTEMS[:3]),
)
def test_first_violator_just_after_block_boundary(nt, blocks, extra, nx, ws):
    # -|x - c| is linear on each side of c, so in scan order the first
    # violating pair is (a, y) with y the first grid point past c; c is put
    # so that pair opens the y slice after the first `blocks` slices
    ny = blocks * (mb._BLOCK_SAMPLES // nt) + extra
    interval = Interval(0.0, 1.0)
    ys = np.linspace(interval.a, interval.b, ny)
    first = _tile_cuts(ny, nt)[blocks]
    c = 0.5 * (float(ys[first - 1]) + float(ys[first]))
    f = parse_function(f"-abs(x - {c!r})")
    grid = mb.GridSpec(nx=nx, ny=ny, nt=nt)
    report = mb.check_convex(f, interval, ws, grid)
    assert report.verdict is mb.Verdict.VIOLATED
    if ws.kind.value == "classical":
        assert report.certificate.x == 0.0
        assert report.certificate.y == float(ys[first])
    _assert_matches_dense(f, interval, [ws], grid, concave=False)


@settings(deadline=None, max_examples=40)
@given(
    nt=st.integers(97, 400),
    blocks=st.integers(1, 2),
    extra=st.integers(1, 30),
    nx=st.integers(2, 4),
    ws=st.sampled_from(SYSTEMS[1:]),
    concave=st.booleans(),
)
def test_one_class_violator_just_after_block_boundary(
    nt, blocks, extra, nx, ws, concave
):
    # with w_x = t*L(t) and w_y = (1-t)*L(t), the convex gap of c - x (and
    # the concave gap of x - c) at (0, y, t) is (L - 1) * ((1-t)*y - c):
    # zero in the classical class (L = 1) and, for L > 1, positive from
    # the first y past c / (1 - t_min), placed to open the y slice after
    # the first `blocks` slices
    ny = blocks * (mb._BLOCK_SAMPLES // nt) + extra
    interval = Interval(0.0, 1.0)
    grid = mb.GridSpec(nx=nx, ny=ny, nt=nt)
    ys = np.linspace(interval.a, interval.b, ny)
    first = _tile_cuts(ny, nt)[blocks]
    c = (1.0 - grid.t_min) * 0.5 * (float(ys[first - 1]) + float(ys[first]))
    source = f"x - {c!r}" if concave else f"{c!r} - x"
    f = parse_function(source)
    reports = _assert_matches_dense(f, interval, [classical(), ws], grid, concave)
    assert reports[0].verdict is mb.Verdict.NO_VIOLATION_AT_RESOLUTION
    cert = reports[1].certificate
    assert (cert.x, cert.y, cert.t) == (0.0, float(ys[first]), grid.t_min)


# (ny, nt) around the tile rule of 8,192-sample tiles: whole x rows per tile
# up to ny*nt = 8,192 (8,191 is prime, so 8,190 stands for one short),
# balanced y slices past it; the same slices just past the current tile;
# and one (x, y) pair per tile once nt alone exceeds it
TILE_REGIMES = [
    pytest.param(45, 91, id="two_rows-4095"),
    pytest.param(90, 91, id="one_row-8190"),
    pytest.param(64, 128, id="one_row-8192"),
    pytest.param(2731, 3, id="two_slices-8193"),
    pytest.param(3, 2731, id="slices_of_1_and_2_rows-8193"),
    pytest.param(mb._BLOCK_SAMPLES // 3 + 1, 3, id="two_slices-past_block"),
    pytest.param(3, mb._BLOCK_SAMPLES // 3 + 1, id="slices_of_1_and_2_rows-past_block"),
    pytest.param(3, mb._BLOCK_SAMPLES + 8, id="one_pair-nt_past_block"),
]


def test_tiles_follow_the_rule():
    shapes = [(41, 41, 99), (161, 161, 199), (101, 101, 199), (200, 100, 83),
              (200, 41, 199), (300, 3000, 3), (2**16, 2, 2), (2, 2, 2**16),
              (7, 45, 91), (5, 2731, 3), (4, 3, 2731)]
    for nx, ny, nt in shapes:
        cuts = _tile_cuts(ny, nt)
        y_slices = list(zip(cuts, cuts[1:]))
        rows = max(1, mb._BLOCK_SAMPLES // (ny * nt))
        assert list(mb._tiles(nx, ny, nt)) == [
            (i0, min(i0 + rows, nx), y_slices) for i0 in range(0, nx, rows)
        ]
        sizes = [j1 - j0 for j0, j1 in y_slices]
        assert max(sizes) - min(sizes) <= 1
        assert rows * max(sizes) * nt <= max(mb._BLOCK_SAMPLES, nt)


@pytest.mark.parametrize("ny, nt", TILE_REGIMES)
@pytest.mark.parametrize("source", ["sin(3*x)", "x^3 - x", "exp(x)", "x",
                                    "0*exp(710 - 1000000*(x - 0.3123)^2)"])
def test_tile_regimes_match_dense(ny, nt, source):
    # nx = 5 leaves a short last tile when two x rows make one; f = x
    # returns a copy of its points, whose place the differences take; the
    # last f is NaN only between grid points
    grid = mb.GridSpec(nx=5, ny=ny, nt=nt)
    f = parse_function(source)
    for systems in (SYSTEMS[:1], SYSTEMS):
        for concave in (False, True):
            _assert_matches_dense(f, Interval(-1.0, 1.5), systems, grid, concave)


@pytest.mark.parametrize("ny, nt", TILE_REGIMES)
def test_first_violator_just_after_tile_boundary(ny, nt):
    # with whole x rows per tile the boundary falls between x rows k - 1 and
    # k; otherwise between y slices, and the violator opens the second one
    interval = Interval(0.0, 1.0)
    ys = np.linspace(interval.a, interval.b, ny)
    cases = []
    if ny * nt <= mb._BLOCK_SAMPLES:
        k = mb._BLOCK_SAMPLES // (ny * nt)
        grid = mb.GridSpec(nx=k + 3, ny=ny, nt=nt)
        xs = np.linspace(interval.a, interval.b, grid.nx)
        # x^2 - beta*|x - c| breaks classical convexity only on pairs that
        # straddle c less than 2*beta apart: with c halfway between x_row
        # and the next y, the pair (x_row, that y) is the first, and every
        # pair from an earlier x row is at least half an x step too wide;
        # row k opens a tile, and row k + 1 is inside one when k > 1
        for row in (k, k + 1):
            x, y = float(xs[row]), float(ys[np.searchsorted(ys, xs[row], side="right")])
            c = 0.5 * (x + y)
            beta = 0.5 * (y - x + 0.5 * float(xs[1] - xs[0]))
            cases.append((x, y, f"x^2 - {beta!r}*abs(x - {c!r}) + 2"))
    else:
        grid = mb.GridSpec(nx=3, ny=ny, nt=nt)
        # -|x - c|, as above: the first violating pair is (a, first y past c)
        first = _tile_cuts(ny, nt)[1]
        x, y = interval.a, float(ys[first])
        c = 0.5 * (float(ys[first - 1]) + y)
        cases.append((x, y, f"-abs(x - {c!r})"))
    for x, y, source in cases:
        for concave, text in ((False, source), (True, f"-({source})")):
            f = parse_function(text)
            for systems in (SYSTEMS[:1], SYSTEMS):
                reports = _assert_matches_dense(f, interval, systems, grid, concave)
                cert = reports[0].certificate
                assert (cert.x, cert.y) == (x, y)


def test_non_finite_cell_inside_a_tile():
    # two x rows per tile (45 * nt is just under half a tile); f is finite
    # except within ~3e-14 of c = x_3, the second row of the second tile,
    # which no earlier point or y reaches, so the first non-finite cell is
    # (x_3, y_0, t_0), where w_x * f(x) = inf
    grid = mb.GridSpec(nx=8, ny=45, nt=mb._BLOCK_SAMPLES // 90)
    assert mb._BLOCK_SAMPLES // (grid.ny * grid.nt) == 2
    interval = Interval(0.0, 1.0)
    c = float(np.linspace(interval.a, interval.b, grid.nx)[3])
    f = parse_function(f"exp(-1e26*(x - {c!r})^2)*1e308*2")
    for systems in (SYSTEMS[:1], SYSTEMS):
        for concave in (False, True):
            with pytest.raises(NonFiniteError, match=rf"at x={c!r}, y=0.0, t=0.0001 "):
                mb.check_classes(f, interval, systems, grid, concave)
            _assert_matches_dense(f, interval, systems, grid, concave)


# f is 0 except within ~4.7e-4 of 0.3123 (~4.7e-5 for the narrower one),
# where it is 0 * inf = NaN. Of the grid points only 0.3125 = 50/160, on
# the 161-point grid, lies in a window, the wider one, so there f(xs)
# raises before any tile; in the other cases f first meets a NaN in a tile
NAN_BETWEEN_GRID_POINTS = [
    pytest.param("0*exp(710 - 1000000*(x - 0.3123)^2)", (41, 41, 99),
                 "0.3122136734693878", id="41"),
    pytest.param("0*exp(710 - 1000000*(x - 0.3123)^2)", (161, 161, 199),
                 "0.3125", id="161-grid_point"),
    pytest.param("0*exp(710 - 100000000*(x - 0.3123)^2)", (41, 41, 99),
                 "0.31225367346938776", id="41-narrow"),
    pytest.param("0*exp(710 - 100000000*(x - 0.3123)^2)", (161, 161, 199),
                 "0.312279375", id="161-narrow"),
]


@pytest.mark.parametrize("source, shape, x", NAN_BETWEEN_GRID_POINTS)
@pytest.mark.parametrize("concave", [False, True])
@pytest.mark.parametrize("count", [1, 5])
def test_nan_of_f_between_grid_points(source, shape, x, concave, count):
    # f's own error, at its first NaN point in scan order, for every system
    # count and both senses: the scan's NaN test is the first system's
    f = parse_function(source)
    grid = mb.GridSpec(*shape)
    with pytest.raises(ExprDomainError) as got:
        mb.check_classes(f, Interval(0.0, 1.0), SYSTEMS[:count], grid, concave)
    assert str(got.value) == f"evaluation produced NaN (at x={x})"
    assert repr(got.value.x) == x
    on_grid = np.linspace(0.0, 1.0, shape[0])
    assert (float(x) in on_grid) == (x == "0.3125")


def test_scan_of_no_system_raises_before_any_array(monkeypatch):
    # nothing to scan for: no f call, and not even the 32 MiB of xs
    def call(self, x, scratch=None):
        raise AssertionError("a scan of no system evaluated f")

    monkeypatch.setattr(FunctionDef, "__call__", call)
    f = parse_function("x^2")
    for concave in (False, True):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="at least one weight system"):
                mb.check_classes(f, Interval(0.0, 1.0), [], mb.GridSpec(2**22, 2, 2), concave)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_tile_loop_calls_f_once_per_tile_into_fixed_views(monkeypatch):
    # the fixed cost of a tile: one f call, into the points and scratch
    # views made once for its shape, of which a scan has at most two
    call = FunctionDef.__call__
    calls = []  # (points, scratch) of each tile's f call

    def recording(self, x, scratch=None):
        if scratch is not None:
            calls.append((x, scratch))
        return call(self, x, scratch)

    monkeypatch.setattr(FunctionDef, "__call__", recording)
    f = parse_function("exp(sqrt(1 + x^2)) + x/(x + 3) + 0.5*x^4")
    for nx, ny, nt in [(5, 45, 91), (9, 2731, 3), (3, 3, mb._BLOCK_SAMPLES // 3 + 1),
                       (161, 161, 199), (41, 41, 99), (2, 2, mb._BLOCK_SAMPLES + 8)]:
        calls.clear()
        mb.check_classes(f, Interval(-1.0, 2.0), SYSTEMS[:3], mb.GridSpec(nx, ny, nt))
        tiles = [
            (i1 - i0, j1 - j0, nt)
            for i0, i1, y_slices in mb._tiles(nx, ny, nt)
            for j0, j1 in y_slices
        ]
        assert [x.shape for x, _ in calls] == tiles
        first = {}  # tile shape -> the first tile's (points, scratch)
        for x, scratch in calls:
            points, views = first.setdefault(x.shape, (x, scratch))
            assert x is points and len(scratch) == len(views) == len(f.scratch(1))
            assert all(a is b and a.shape == x.shape for a, b in zip(scratch, views))
        assert len(first) <= 2


def test_classes_violate_independently():
    # -1 holds with equality in the classical class and fails wherever
    # w_x + w_y > 1; each failing class carries its own first certificate
    f = parse_function("-1")
    systems = [young(2.0), classical(), nesbitt(), young(1.5)]
    grid = mb.GridSpec(nx=9, ny=7, nt=31)
    reports = _assert_matches_dense(f, Interval(0.0, 1.0), systems, grid, concave=False)
    verdicts = [r.verdict for r in reports]
    assert verdicts == [
        mb.Verdict.VIOLATED,
        mb.Verdict.NO_VIOLATION_AT_RESOLUTION,
        mb.Verdict.VIOLATED,
        mb.Verdict.VIOLATED,
    ]
    assert reports[1].certificate is None
    certs = {r.certificate for r in reports if r.certificate is not None}
    assert len(certs) == 3


@pytest.mark.parametrize(
    "order, raised",
    [
        ((0, 1, 2), 1),  # nesbitt raises, though young(7) meets inf a tile earlier
        ((2, 1, 0), 2),
        ((1, 2), 1),
        ((0,), None),
    ],
)
def test_non_finite_error_of_the_first_raising_class(order, raised):
    # f = 1e308*x is finite, and so is its classical right-hand side;
    # w_y * f(y) overflows for y past ~0.005 under young(7) (w_y ~ 383
    # at t_min) and only for y past 0.9 under nesbitt (w_y <= 2), which is
    # in the last y slice of the first x row
    f = parse_function("1e308*x")
    systems = [classical(), nesbitt(), young(7.0)]
    grid = mb.GridSpec(nx=2, ny=41, nt=400)
    interval = Interval(0.0, 1.0)
    chosen = [systems[k] for k in order]
    if raised is None:
        _assert_matches_dense(f, interval, chosen, grid, concave=False)
        return
    with pytest.raises(NonFiniteError) as want:
        _dense_scan(f, interval, systems[raised], grid, 1.0)
    with pytest.raises(NonFiniteError) as got:
        mb.check_classes(f, interval, chosen, grid)
    assert str(got.value) == str(want.value)
    _assert_matches_dense(f, interval, chosen, grid, concave=False)


def _count_scans(monkeypatch):
    """The system count of each check_classes call, the scan's own rescans
    included, as the calls are made."""
    scan, calls = mb.check_classes, []

    def counting(f, interval, systems, *args):
        calls.append(len(systems))
        return scan(f, interval, systems, *args)

    monkeypatch.setattr(mb, "check_classes", counting)
    return calls


def test_passing_multi_class_scan_scans_once(monkeypatch):
    # a scan that raises nothing runs no one-class scan
    calls = _count_scans(monkeypatch)
    reports = mb.check_classes(parse_function("x^2"), Interval(0.0, 1.0), SYSTEMS)
    assert calls == [5]
    assert {r.verdict for r in reports} == {mb.Verdict.NO_VIOLATION_AT_RESOLUTION}


@pytest.mark.parametrize(
    "source, shape, order, scans, error",
    [
        # as in test_non_finite_error_of_the_first_raising_class: young(7)
        # meets inf first, but the one-class scans run in the given order,
        # and nesbitt's, the second, raises
        ("1e308*x", (2, 41, 400), (0, 1, 2), [3, 1, 1], NonFiniteError),
        ("1e308*x", (2, 41, 400), (2, 1, 0), [3, 1], NonFiniteError),
        # f's NaN error, raised by the first system's one-class scan
        ("0*exp(710 - 1000000*(x - 0.3123)^2)", (41, 41, 99), (0, 1, 2), [3, 1],
         ExprDomainError),
        ("0*exp(710 - 1000000*(x - 0.3123)^2)", (41, 41, 99), (1,), [1],
         ExprDomainError),
    ],
)
def test_failing_multi_class_scan_asks_its_one_class_scans(
    source, shape, order, scans, error, monkeypatch
):
    systems = [[classical(), nesbitt(), young(7.0)][k] for k in order]
    calls = _count_scans(monkeypatch)
    with pytest.raises(error):
        mb.check_classes(parse_function(source), Interval(0.0, 1.0), systems,
                         mb.GridSpec(*shape))
    assert calls == scans


def test_scan_memory_is_bounded(monkeypatch):
    # one dense 101x101x199 float64 array is 16 MB; a tiled scan holds one
    # tile buffer, f's scratch arrays and the ny x nt (y, t) terms
    f = parse_function("exp(sqrt(1 + x^2))")
    grid = mb.GridSpec(nx=101, ny=101, nt=199)
    tracemalloc.start()
    try:
        report = mb.check_convex(f, Interval(-1.0, 2.0), nesbitt(), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict is mb.Verdict.NO_VIOLATION_AT_RESOLUTION
    assert peak < 2 * 2**20
    # GridSpec lets a scan hold the x axis and the (y, t) terms whole;
    # measured 24.1 B per x point, and per (y, t) term 56.0 B for one
    # system and 100.1 B for five, for this f
    cases = (
        ((2**16, 2, 2), SYSTEMS[1:2], 32),
        ((2, 2, 2**16), SYSTEMS[1:2], 64),
        ((2, 2, 2**16), SYSTEMS, 128),
    )
    for (nx, ny, nt), systems, per_point in cases:
        tracemalloc.start()
        try:
            mb.check_classes(f, Interval(-1.0, 2.0), systems, mb.GridSpec(nx, ny, nt))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < per_point * max(nx, ny * nt)
    # nor does it grow with the tile count: at 64 samples a tile, a row of
    # this grid is two tiles, and 750 more rows add only xs and f(xs);
    # measured 16 B per row, and 170 B when each tile's gap and slack were kept
    monkeypatch.setattr(mb, "_BLOCK_SAMPLES", 64)
    peaks = []
    for nx in (250, 1000):
        tracemalloc.start()
        try:
            mb.check_convex(f, Interval(-1.0, 2.0), nesbitt(), mb.GridSpec(nx, 2, 40))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 64 * (1000 - 250)


@pytest.mark.parametrize("ny, nt", [
    pytest.param(80, mb._BLOCK_SAMPLES // 80, id="one_row"),
    pytest.param(200, 83, id="y_slices"),
    pytest.param(2, mb._BLOCK_SAMPLES + 8, id="one_pair"),
])
def test_tile_loop_allocates_no_tile(monkeypatch, ny, nt):
    # every tile-sized array is allocated before the first tile: between
    # two tiles' f calls nothing near a tile's size is allocated, and a
    # scan of 64 x rows peaks less than half a tile above one of 2
    call = FunctionDef.__call__
    between = []  # traced bytes allocated since the previous tile's f call

    def tracing(self, x, scratch=None):
        if scratch is not None:
            current, peak = tracemalloc.get_traced_memory()
            between.append(peak - current)
            tracemalloc.reset_peak()
        return call(self, x, scratch)

    monkeypatch.setattr(FunctionDef, "__call__", tracing)
    f = parse_function("exp(sqrt(1 + x^2)) + x/(x + 3) + 0.5*x^4")
    tile_bytes = 8 * min(mb._BLOCK_SAMPLES, ny * nt)
    peaks = []
    # at numpy's default buffer size: a broadcasting add would malloc the
    # iterator's 64 KiB buffer, which the tile loop's equal-shape adds skip
    for nx in (2, 64):
        between.clear()
        tracemalloc.start()
        try:
            report = mb.check_classes(
                f, Interval(-1.0, 2.0), SYSTEMS[:2], mb.GridSpec(nx, ny, nt)
            )[0]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.verdict is mb.Verdict.NO_VIOLATION_AT_RESOLUTION
    # before the first tile the scan's set-up frees temporaries of its own
    assert len(between) > 8 and max(between[1:]) < tile_bytes / 10
    assert peaks[1] - peaks[0] < tile_bytes / 2


def test_rounding_in_large_values_is_not_a_violation():
    # exp(exp(x)) is convex; near x = y = 2.5 the gap of ~4e-9 is rounding
    # at lhs ~ 2e5, above the absolute tol but not above tol * |lhs|
    f = parse_function("exp(exp(x))")
    report = mb.check_convex(f, Interval(0.0, 2.6), classical())
    assert report.max_gap > mb.GridSpec().tol
    assert report.verdict is mb.Verdict.NO_VIOLATION_AT_RESOLUTION


def test_scaled_violation_threshold():
    tol = 1e-9
    assert mb._exceeds(2e-9, 0.5, 0.5, tol)
    assert not mb._exceeds(2e-9, 3.0, -1.0, tol)
    assert not mb._exceeds(2e-9, 1.0, -3.0, tol)
    assert mb._exceeds(4e-9, -3.0, 1.0, tol)


def test_non_finite_values_raise():
    f = parse_function("exp(exp(x))")
    with pytest.raises(NonFiniteError, match="non-finite value at x=0.0"):
        mb.check_convex(f, Interval(0.0, 7.0), classical())


def test_non_finite_slack_raises():
    # f is finite, but the right-hand side overflows: every gap is <= 0, so
    # only the slack is infinite
    f = parse_function("1.7e308")
    with pytest.raises(NonFiniteError, match=r"rhs=inf"):
        mb.check_convex(f, Interval(0.0, 1.0), young(1.5))


def test_zero_maximum_reads_positive_zero():
    # the classical differences of the affine f = x peak at zero, so the
    # slack's zero maximum is a negated +0.0 minimum; f = 0 makes every
    # difference a zero for every system and both senses
    report = mb.check_convex(parse_function("x"), Interval(0.0, 1.0), classical())
    assert report.max_slack.hex() == "0x0.0p+0"
    for ws in SYSTEMS:
        for concave in (False, True):
            report = mb.check_classes(
                parse_function("0"), Interval(0.0, 1.0), [ws], concave=concave
            )[0]
            assert (report.max_gap.hex(), report.max_slack.hex()) == ("0x0.0p+0",) * 2
