"""Grid-search membership tester for the generalized convexity classes.

A grid cannot prove membership, so the passing verdict is deliberately
worded NoViolationAtResolution. Scan order is fixed (x outer, y middle,
t inner, all ascending) and the first violating cell is certified, which
makes the result deterministic and exactly reproducible. A cell violates
when its gap exceeds tol * max(1, |lhs|, |rhs|), so rounding in large
values is not reported as a violation. The scan runs over tiles of whole
x rows, or of y slices of one x row, each with whole t rows, and keeps
running extrema, so its memory grows only with the nx and ny * nt it holds
whole, which GridSpec caps, not with the tile count. f writes its
temporaries into scratch arrays that f hands out once per scan, viewed in
each tile's shape, and leaves its NaN test to the scan, which makes it only
when a system's differences are not finite, so a NaN of f still raises
f's ExprDomainError at the first such point. Any other inf or NaN on the
grid raises NonFiniteError instead of becoming a verdict. One scan serves
several weight systems, since f(tx+(1-t)y) does not depend on the
weights; one that fails runs the one-class scans again to find the error.
"""

import enum
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError
from .expr import FunctionDef, check_nan
from .quadrature import Interval
from .weights import WeightSystem


# the most grid points a scan holds along x, or in its (y, t) terms
_MAX_SCAN_AXIS = 2**22


@dataclass(frozen=True)
class GridSpec:
    nx: int = 41
    ny: int = 41
    nt: int = 99
    t_min: float = 1e-4
    tol: float = 1e-9

    def __post_init__(self):
        for name in ("nx", "ny", "nt"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise DomainError(f"grid point count {name} must be an integer, got {n!r}")
            object.__setattr__(self, name, int(n))  # a JSON number
        if self.nx < 2 or self.ny < 2 or self.nt < 2:
            raise DomainError("grid point counts nx, ny, nt must be >= 2")
        if max(self.nx, self.ny * self.nt) > _MAX_SCAN_AXIS:
            raise DomainError(
                f"grid nx={self.nx}, ny={self.ny}, nt={self.nt} is too large: "
                f"nx and ny*nt must each be at most {_MAX_SCAN_AXIS}"
            )
        if not 0.0 < self.t_min < 1.0:
            raise DomainError(f"t_min must lie in (0, 1), got {self.t_min}")
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tol must be positive and finite, got {self.tol}")


class Verdict(enum.Enum):
    NO_VIOLATION_AT_RESOLUTION = "NoViolationAtResolution"
    VIOLATED = "Violated"


@dataclass(frozen=True)
class ViolationCertificate:
    """A concrete (x, y, t) where the defining inequality fails.

    lhs is f(tx+(1-t)y), rhs the weighted side; gap is the violated margin
    (lhs - rhs for the convex check, rhs - lhs for the concave one). All
    values recompute bit-identically from (x, y, t).
    """

    x: float
    y: float
    t: float
    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class MembershipReport:
    verdict: Verdict
    certificate: ViolationCertificate | None
    samples: int
    max_slack: float  # max over the grid of the satisfied-side margin
    max_gap: float  # max over the grid of the violated-side margin


# samples per tile. A scan allocates its tile buffers and f's scratch arrays
# once, before the first tile, so a larger tile only cuts the fixed cost per
# tile. At 16 samples under 2^14 each of those arrays (130,944 B) lies under
# glibc's default 128 KiB mmap threshold, so it comes from the heap, where
# the next scan can reuse it; a 2^16 x 2 x 2 scan reads 0.75 of the memory
# bound in tests/test_scan_blocks.py
_BLOCK_SAMPLES = 16384 - 16
# cells a certificate search tests at once
_CANDIDATES = 1024


def _certificate_at(f, ws, x, y, t, sign) -> ViolationCertificate:
    # scalar recomputation; ws.eval shares the grid scan's evaluation path
    pair = ws.eval(t)
    lhs = f(t * x + (1.0 - t) * y)
    rhs = pair.wx * f(x) + pair.wy * f(y)
    return ViolationCertificate(x, y, t, lhs, rhs, sign * (lhs - rhs))


def _exceeds(gap, lhs, rhs, tol):
    """The violation test: the gap exceeds tol relative to the compared values."""
    return gap > tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _first_certificate(f, ws, sign, tol, d, lhs, rhs_terms, cell_point):
    """The tile's first cell, in scan order, whose gap exceeds tol by the
    scaled test and whose scalar recomputation does too, or None.

    rhs_terms are the tile's w_x f(x) and w_y f(y) parts, and cell_point
    maps a cell's index to its (x, y, t). Cells are taken _CANDIDATES at
    a time, so the search forms no tile-sized array.
    """
    wx_fx, wy_fy = (np.broadcast_to(term, d.shape) for term in rhs_terms)
    flat = d.reshape(-1)
    for start in range(0, flat.size, _CANDIDATES):
        cells = start + np.flatnonzero(sign * flat[start : start + _CANDIDATES] > tol)
        rhs = wx_fx.flat[cells] + wy_fy.flat[cells]
        for cell in cells[_exceeds(sign * flat[cells], lhs.flat[cells], rhs, tol)]:
            x, y, t = cell_point(*np.unravel_index(int(cell), d.shape))
            cert = _certificate_at(f, ws, x, y, t, sign)
            if _exceeds(cert.gap, cert.lhs, cert.rhs, tol):
                return cert
    return None


def _tiles(nx: int, ny: int, nt: int):
    """The scan's tiles in scan order, as (i0, i1, y slices) per x row group.

    A tile is max(1, _BLOCK_SAMPLES // (ny*nt)) x rows by the fewest balanced
    y slices of at most max(1, _BLOCK_SAMPLES // nt) rows, with whole t rows.
    """
    count = -(-ny // max(1, _BLOCK_SAMPLES // nt))
    cuts = [ny * s // count for s in range(count + 1)]
    y_slices = list(zip(cuts, cuts[1:]))
    rows = max(1, _BLOCK_SAMPLES // (ny * nt))
    for i0 in range(0, nx, rows):
        yield i0, min(i0 + rows, nx), y_slices


def check_classes(
    f: FunctionDef,
    interval: Interval,
    systems: Sequence[WeightSystem],
    grid: GridSpec = GridSpec(),
    concave: bool = False,
) -> list[MembershipReport]:
    """One scan of f against several weight systems, one report per system.

    The points and f(tx+(1-t)y) do not depend on the weights, so each tile
    computes them once and every system forms its own right-hand side,
    difference, extrema and certificate from them. Each report is
    bit-identical to the one-class scan of its system. A one-class scan
    raises at its first non-finite difference; a scan of several systems
    then runs their one-class scans in the given order, so the error raised
    is the one they raise first.
    """
    if not systems:
        raise DomainError("a membership scan needs at least one weight system")
    sign = -1.0 if concave else 1.0
    xs = np.linspace(interval.a, interval.b, grid.nx)
    ys = np.linspace(interval.a, interval.b, grid.ny)
    ts = np.linspace(grid.t_min, 1.0, grid.nt)
    max_gaps = [-math.inf] * len(systems)
    max_slacks = [-math.inf] * len(systems)
    certificates = [None] * len(systems)
    with np.errstate(all="ignore"):
        fx = f(xs)
        fy = f(ys)
        # the (y, t) terms, each bit-identical to its dense broadcast; tiles
        # slice them instead of forming the products per tile
        y_part = (1.0 - ts)[None, :] * ys[:, None]
        terms = []
        for ws in systems:
            wx, wy = ws.eval_arrays(ts)
            terms.append((wx, wy[None, :] * fy[:, None]))
        # every tile fills views of the same buffers, and f writes its
        # temporaries into the same scratch arrays, so no tile allocates an
        # array of its size. The views are made once per tile shape, of
        # which a scan has at most two. A tile's x row terms are copied into
        # its buffer, and then the held (y, t) rows are added with equal
        # shapes: numpy would run a broadcasting add one t row at a time
        # through its buffered iterator, which mallocs a 64 KiB buffer per call
        size = max(_BLOCK_SAMPLES, grid.nt)
        buffer = np.empty(size)
        rows = max(1, _BLOCK_SAMPLES // (grid.ny * grid.nt))
        x_part, wx_fx = row_buffers = [np.empty((rows, 1, grid.nt)) for _ in range(2)]
        scratch = f.scratch(size)
        tile_views = {}  # tile shape -> the points' and f's scratch views
        for i0, i1, y_slices in _tiles(grid.nx, grid.ny, grid.nt):
            if len(x_part) != i1 - i0:  # the last tile's x rows may be fewer
                x_part, wx_fx = (b[: i1 - i0] for b in row_buffers)
            np.multiply(ts, xs[i0:i1, None, None], out=x_part)
            fxi = fx[i0:i1, None, None]
            for j0, j1 in y_slices:
                shape = (i1 - i0, j1 - j0, grid.nt)
                if shape not in tile_views:
                    n = math.prod(shape)
                    tile_views[shape] = (
                        buffer[:n].reshape(shape),
                        tuple(a[:n].reshape(shape) for a in scratch),
                    )
                points, tile_scratch = tile_views[shape]
                np.copyto(points, x_part)
                np.add(points, y_part[j0:j1], out=points)
                # f leaves its NaN test to the scan: a NaN in lhs makes the
                # first system's differences non-finite, and only then is
                # lhs tested
                lhs = f(points, tile_scratch)
                d = points  # f has read the points, and never returns them
                for c, (ws, (wx, wy_fy)) in enumerate(zip(systems, terms)):
                    # w_x f(x) is one t row per x, so it is formed per tile
                    # and copied, like the x row; d holds the right-hand
                    # side, then lhs - rhs, and a cell's rhs is added again
                    # where it is reported
                    np.multiply(wx, fxi, out=wx_fx)
                    np.copyto(d, wx_fx)
                    np.add(d, wy_fy[j0:j1], out=d)
                    np.subtract(lhs, d, out=d)
                    top = float(np.maximum.reduce(d, axis=None))
                    bottom = float(np.minimum.reduce(d, axis=None))
                    if not (math.isfinite(top) and math.isfinite(bottom)):
                        if len(systems) > 1:
                            # the error is the one that the one-class
                            # scans, run in the given order, raise first
                            for one in systems:
                                check_classes(f, interval, (one,), grid, concave)
                        a, b, k = np.unravel_index(
                            int(np.argmax(~np.isfinite(d))), d.shape
                        )
                        error = NonFiniteError(
                            f"membership scan produced a non-finite value at "
                            f"x={float(xs[i0 + a])!r}, y={float(ys[j0 + b])!r}, "
                            f"t={float(ts[k])!r} (lhs={float(lhs[a, b, k])!r}, "
                            f"rhs={float(wx_fx[a, 0, k] + wy_fy[j0 + b, k])!r})"
                        )
                        # f's NaN error comes first, blamed at its first NaN
                        # point of the tile, so the points that d overwrote
                        # are rebuilt
                        np.copyto(points, x_part)
                        np.add(points, y_part[j0:j1], out=points)
                        check_nan(lhs, points)
                        raise error
                    gap, slack = (-bottom, top) if concave else (top, -bottom)
                    max_gaps[c] = max(max_gaps[c], gap)
                    max_slacks[c] = max(max_slacks[c], slack)
                    if certificates[c] is not None or not gap > grid.tol:
                        continue
                    certificates[c] = _first_certificate(
                        f, ws, sign, grid.tol, d, lhs, (wx_fx, wy_fy[j0:j1]),
                        lambda a, b, k: (float(xs[i0 + a]), float(ys[j0 + b]), float(ts[k])),
                    )
    samples = grid.nx * grid.ny * grid.nt
    # + 0.0 reads a zero maximum as +0.0, whatever the tiling or lane order
    return [
        MembershipReport(
            Verdict.NO_VIOLATION_AT_RESOLUTION if cert is None else Verdict.VIOLATED,
            cert,
            samples,
            max_slacks[c] + 0.0,
            max_gaps[c] + 0.0,
        )
        for c, cert in enumerate(certificates)
    ]


def check_convex(
    f: FunctionDef,
    interval: Interval,
    ws: WeightSystem,
    grid: GridSpec = GridSpec(),
) -> MembershipReport:
    """Test f(tx+(1-t)y) <= w_x(t) f(x) + w_y(t) f(y) over the grid."""
    return check_classes(f, interval, (ws,), grid)[0]


def check_concave(
    f: FunctionDef,
    interval: Interval,
    ws: WeightSystem,
    grid: GridSpec = GridSpec(),
) -> MembershipReport:
    """Test the reversed inequality over the grid."""
    return check_classes(f, interval, (ws,), grid, concave=True)[0]


def nonnegativity_witness(
    f: FunctionDef, interval: Interval, resolution: int
) -> float | None:
    """First grid point with f < 0, if any (class members must be nonnegative)."""
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    xs = np.linspace(interval.a, interval.b, resolution)
    values = f(xs)
    negative = values < 0.0
    if not negative.any():
        return None
    return float(xs[int(np.argmax(negative))])
