"""Grid-search membership tester for the generalized convexity classes.

A grid cannot prove membership, so the passing verdict is deliberately
worded NoViolationAtResolution. Scan order is fixed (x outer, y middle,
t inner, all ascending) and the first violating cell is certified, which
makes the result deterministic and exactly reproducible. A cell violates
when its gap exceeds tol * max(1, |lhs|, |rhs|), so rounding in large
values is not reported as a violation. The scan runs over tiles of whole
x rows, or of y slices of one x row, each with whole t rows, so its memory
does not grow with nx * ny * nt, and GridSpec caps the nx and ny * nt it
holds whole;
an inf or NaN anywhere on the grid raises NonFiniteError instead of
becoming a verdict. One scan serves several weight systems, since
f(tx+(1-t)y) does not depend on the weights.
"""

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError
from .expr import FunctionDef
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


# samples per tile of the scan: 64 KiB per float64 temporary keeps a tile
# in L2 and under glibc's default 128 KiB mmap threshold, so temporaries are
# reused from the heap instead of being mapped and faulted in per tile
_BLOCK_SAMPLES = 8192


def _certificate_at(f, ws, x, y, t, sign) -> ViolationCertificate:
    # scalar recomputation through the same evaluation path as the grid scan
    wx, wy = ws.eval_arrays(np.array([t]))
    lhs = f(t * x + (1.0 - t) * y)
    rhs = float(wx[0]) * f(x) + float(wy[0]) * f(y)
    return ViolationCertificate(x, y, t, lhs, rhs, sign * (lhs - rhs))


def _exceeds(gap, lhs, rhs, tol):
    """The violation test: the gap exceeds tol relative to the compared values."""
    return gap > tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _tiles(nx: int, ny: int, nt: int):
    """The scan's tiles in scan order, as (i0, i1, y slices) per x row group.

    A tile has whole t rows: k = _BLOCK_SAMPLES // (ny*nt) whole x rows when
    one fits, else one x row cut into the fewest y slices of at most
    max(1, _BLOCK_SAMPLES // nt) rows, balanced so no slice is a short tail.
    """
    if ny * nt <= _BLOCK_SAMPLES:
        rows, y_slices = _BLOCK_SAMPLES // (ny * nt), [(0, ny)]
    else:
        count = -(-ny // max(1, _BLOCK_SAMPLES // nt))
        cuts = [ny * s // count for s in range(count + 1)]
        rows, y_slices = 1, list(zip(cuts, cuts[1:]))
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
    bit-identical to the one-class scan of its system, and the
    NonFiniteError raised is the one the one-class scans, run in the given
    order, would raise first.
    """
    sign = -1.0 if concave else 1.0
    xs = np.linspace(interval.a, interval.b, grid.nx)
    ys = np.linspace(interval.a, interval.b, grid.ny)
    ts = np.linspace(grid.t_min, 1.0, grid.nt)
    gaps = [[] for _ in systems]
    slacks = [[] for _ in systems]
    certificates = [None] * len(systems)
    errors = [None] * len(systems)
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
        for i0, i1, y_slices in _tiles(grid.nx, grid.ny, grid.nt):
            x_part = ts * xs[i0:i1, None, None]
            fxi = fx[i0:i1, None, None]
            for j0, j1 in y_slices:
                points = x_part + y_part[j0:j1]
                lhs = f(points)
                for c, (ws, (wx, wy_fy)) in enumerate(zip(systems, terms)):
                    if errors[c] is not None:
                        continue
                    # w_x f(x) is one t row per x, so it is formed per tile
                    rhs = wx * fxi + wy_fy[j0:j1]
                    d = lhs - rhs
                    top = float(d.max())
                    bottom = float(d.min())
                    if not (math.isfinite(top) and math.isfinite(bottom)):
                        a, b, k = np.unravel_index(
                            int(np.argmax(~np.isfinite(d))), d.shape
                        )
                        errors[c] = NonFiniteError(
                            f"membership scan produced a non-finite value at "
                            f"x={float(xs[i0 + a])!r}, y={float(ys[j0 + b])!r}, "
                            f"t={float(ts[k])!r} (lhs={float(lhs[a, b, k])!r}, "
                            f"rhs={float(rhs[a, b, k])!r})"
                        )
                        if c == 0:
                            # no earlier system's scan can raise first
                            raise errors[c]
                        continue
                    gap, slack = (-bottom, top) if concave else (top, -bottom)
                    gaps[c].append(gap)
                    slacks[c].append(slack)
                    if certificates[c] is not None or not gap > grid.tol:
                        continue
                    signed = sign * d
                    cells = np.flatnonzero(signed > grid.tol)
                    cells = cells[
                        _exceeds(
                            signed.flat[cells], lhs.flat[cells], rhs.flat[cells], grid.tol
                        )
                    ]
                    for flat in cells:
                        a, b, k = np.unravel_index(int(flat), d.shape)
                        cert = _certificate_at(
                            f, ws, float(xs[i0 + a]), float(ys[j0 + b]),
                            float(ts[k]), sign,
                        )
                        if _exceeds(cert.gap, cert.lhs, cert.rhs, grid.tol):
                            certificates[c] = cert
                            break
    for error in errors:
        if error is not None:
            raise error
    samples = grid.nx * grid.ny * grid.nt
    # + 0.0 reads a zero maximum as +0.0, whatever the tiling or lane order
    return [
        MembershipReport(
            Verdict.NO_VIOLATION_AT_RESOLUTION if cert is None else Verdict.VIOLATED,
            cert,
            samples,
            max(slacks[c]) + 0.0,
            max(gaps[c]) + 0.0,
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
