"""Grid-search membership tester for the generalized convexity classes.

A grid cannot prove membership, so the passing verdict is deliberately
worded NoViolationAtResolution. Scan order is fixed (x outer, y middle,
t inner, all ascending) and the first violating cell is certified, which
makes the result deterministic and exactly reproducible. A cell violates
when its gap exceeds tol * max(1, |lhs|, |rhs|), so rounding in large
values is not reported as a violation. The scan runs over blocks of
consecutive (x, y) pairs with whole t rows, so its memory does not grow
with nx * ny * nt; an inf or NaN anywhere on the grid raises
NonFiniteError instead of becoming a verdict.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError
from .expr import FunctionDef
from .quadrature import Interval
from .weights import WeightSystem


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


# samples per block of the scan: 64 KiB per float64 temporary keeps a block
# in L2 and under glibc's default 128 KiB mmap threshold, so temporaries are
# reused from the heap instead of being mapped and faulted in per block
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


def _ieee_max(values: np.ndarray) -> float:
    """np.max with +0.0 above -0.0, as in IEEE 754-2019 maximum.

    np.max leaves a tie of signed zeros to its SIMD lane order, so without
    this the sign of a zero maximum would depend on the block boundaries.
    """
    top = float(np.max(values))
    if top == 0.0 and math.copysign(1.0, top) < 0.0 and not np.signbit(
        values[values == 0.0]
    ).all():
        return 0.0
    return top


def _scan(f, interval: Interval, ws: WeightSystem, grid: GridSpec, sign: float):
    xs = np.linspace(interval.a, interval.b, grid.nx)
    ys = np.linspace(interval.a, interval.b, grid.ny)
    ts = np.linspace(grid.t_min, 1.0, grid.nt)
    pairs = grid.nx * grid.ny
    step = max(1, _BLOCK_SAMPLES // grid.nt)
    gaps, slacks = [], []
    certificate = None
    with np.errstate(all="ignore"):
        wx, wy = ws.eval_arrays(ts)
        fx = f(xs)
        fy = f(ys)
        # the (y, t) terms, each bit-identical to its dense broadcast
        y_part = (1.0 - ts)[None, :] * ys[:, None]
        wy_fy = wy[None, :] * fy[:, None]
        for start in range(0, pairs, step):
            # consecutive (x, y) pairs in scan order, each with its whole t row
            i, j = np.divmod(np.arange(start, min(start + step, pairs)), grid.ny)
            points = ts[None, :] * xs[i, None] + y_part[j]
            lhs = f(points)
            rhs = wx[None, :] * fx[i, None] + wy_fy[j]
            gap = sign * (lhs - rhs)
            block_gap = _ieee_max(gap)
            block_slack = _ieee_max(-gap)
            if not (math.isfinite(block_gap) and math.isfinite(block_slack)):
                r, k = np.unravel_index(
                    int(np.argmax(~np.isfinite(gap))), gap.shape
                )
                raise NonFiniteError(
                    f"membership scan produced a non-finite value at "
                    f"x={float(xs[i[r]])!r}, y={float(ys[j[r]])!r}, "
                    f"t={float(ts[k])!r} (lhs={float(lhs[r, k])!r}, "
                    f"rhs={float(rhs[r, k])!r})"
                )
            gaps.append(block_gap)
            slacks.append(block_slack)
            if certificate is not None or not block_gap > grid.tol:
                continue
            cells = np.flatnonzero(gap > grid.tol)
            cells = cells[
                _exceeds(gap.flat[cells], lhs.flat[cells], rhs.flat[cells], grid.tol)
            ]
            for flat in cells:
                r, k = np.unravel_index(int(flat), gap.shape)
                cert = _certificate_at(
                    f, ws, float(xs[i[r]]), float(ys[j[r]]), float(ts[k]), sign
                )
                if _exceeds(cert.gap, cert.lhs, cert.rhs, grid.tol):
                    certificate = cert
                    break
    samples = pairs * grid.nt
    max_gap = _ieee_max(np.array(gaps))
    max_slack = _ieee_max(np.array(slacks))
    if certificate is None:
        return MembershipReport(
            Verdict.NO_VIOLATION_AT_RESOLUTION, None, samples, max_slack, max_gap
        )
    return MembershipReport(Verdict.VIOLATED, certificate, samples, max_slack, max_gap)


def check_convex(
    f: FunctionDef,
    interval: Interval,
    ws: WeightSystem,
    grid: GridSpec = GridSpec(),
) -> MembershipReport:
    """Test f(tx+(1-t)y) <= w_x(t) f(x) + w_y(t) f(y) over the grid."""
    return _scan(f, interval, ws, grid, 1.0)


def check_concave(
    f: FunctionDef,
    interval: Interval,
    ws: WeightSystem,
    grid: GridSpec = GridSpec(),
) -> MembershipReport:
    """Test the reversed inequality over the grid."""
    return _scan(f, interval, ws, grid, -1.0)


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
