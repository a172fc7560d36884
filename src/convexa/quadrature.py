"""Adaptive Gauss-Kronrod integration on finite intervals.

Supports integrands with an integrable power singularity t^alpha
(alpha in (-1, 0]) at the left endpoint via the substitution
t = a + u^(1/(1+alpha)), which turns the singular factor into a bounded one.
Divergent integrands are reported (converged=False), never guessed: a
left-endpoint blow-up is stopped once the leftmost panel stops shrinking
under bisection and a probe next to the endpoint confirms it (QUADPACK
dqagse reports the same condition as ier=5).
"""

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
_XGK = (
    0.991455371120812639207,
    0.949107912342758524526,
    0.864864423359769072790,
    0.741531185599394439864,
    0.586087235467691130294,
    0.405845151377397166907,
    0.207784955007898467601,
    0.0,
)
_WGK = (
    0.022935322010529224964,
    0.063092092629978553291,
    0.104790010322250183840,
    0.140653259715525918745,
    0.169004726639267902827,
    0.190350578064785409913,
    0.204432940075298892414,
    0.209482141084727828013,
)
# Gauss weights pair with the odd-index Kronrod nodes.
_WG = (
    0.129484966168869693271,
    0.279705391489276667901,
    0.381830050505118944950,
    0.417959183673469387755,
)


@dataclass(frozen=True)
class Interval:
    """Ordered finite endpoints a < b, with a finite width b - a."""

    a: float
    b: float

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise DomainError(
                f"interval requires finite a < b, got [{self.a}, {self.b}]"
            )
        if not math.isfinite(self.width):
            raise DomainError(
                f"interval width b - a overflows a double on [{self.a}, {self.b}]"
            )

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class QuadSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    left_singularity_exponent: float | None = None

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not self.rel_tol > 0.0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be a positive integer")
        e = self.left_singularity_exponent
        if e is not None and not (-1.0 < e <= 0.0):
            raise DomainError(f"left_singularity_exponent must lie in (-1, 0], got {e}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    # why the refinement stopped: "converged", "budget" (max_subdivisions
    # reached), "stalled" (a panel or its children cannot be resolved in
    # double precision) or "divergent" (the left-endpoint test below)
    stop_reason: str
    # panels bisected, at most spec.max_subdivisions (a bisection whose
    # children are non-finite stops the run and is not counted)
    subdivisions: int


# off-centre node offsets in panel half-widths, one -x, +x pair per node x;
# the centre is placed directly, as h * 0.0 is NaN when the width overflows
_OFFSETS = tuple(s * x for x in _XGK[:7] for s in (-1.0, 1.0))


def _value_or_nan(f, t: float) -> float:
    try:
        return f(t)
    except (ArithmeticError, ValueError):
        return math.nan


def _gk15(f, lo: float, hi: float, vectorized: bool):
    """One Gauss-Kronrod panel: (kronrod value, |K15 - G7| error estimate)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = [c] + [c + h * x for x in _OFFSETS]
    if vectorized:
        with np.errstate(all="ignore"):
            vals = np.asarray(f(np.array(nodes)), dtype=float).tolist()
    else:
        # an outermost node can round onto an end of the panel, where f may
        # be undefined: an exception there reads as the non-finite value a
        # vectorized f returns, one at an inner node propagates
        vals = [f(t) if lo < t < hi else _value_or_nan(f, t) for t in nodes]
    kron = _WGK[7] * vals[0]
    gauss = _WG[3] * vals[0]
    for i in range(7):
        pair = vals[1 + 2 * i] + vals[2 + 2 * i]
        kron += _WGK[i] * pair
        if i % 2 == 1:
            gauss += _WG[i // 2] * pair
    value = kron * h
    # floor at one rounding unit of the panel value: the embedded-rule
    # difference can round to zero while the panel still carries ulp error
    err = max(abs(kron - gauss), 2.0**-52 * abs(kron)) * abs(h)
    return value, err


def integrate(
    f: Callable[[float], float],
    interval: Interval,
    spec: QuadSpec = QuadSpec(),
    vectorized: bool = False,
) -> QuadResult:
    """Integrate f over the interval to the requested tolerance.

    With `vectorized=True` the integrand is called once per panel with an
    ndarray of nodes instead of once per node. Evaluator exceptions
    propagate to the caller. Refinement always bisects the panel with the
    largest error estimate; identical inputs give bit-identical results.
    """
    alpha = spec.left_singularity_exponent
    if alpha is not None and alpha != 0.0:
        return _integrate_desingularized(f, interval, spec, alpha, vectorized)
    return _adaptive(f, interval.a, interval.b, spec, vectorized)


def integrate_unit(
    f: Callable[[float], float],
    spec: QuadSpec = QuadSpec(),
    vectorized: bool = False,
) -> QuadResult:
    """Integrate f over [0, 1]."""
    return integrate(f, Interval(0.0, 1.0), spec, vectorized)


def _integrate_desingularized(f, interval, spec, alpha, vectorized):
    # t = a + u^m with m = 1/(1+alpha): a factor (t-a)^alpha in f becomes
    # bounded, at the cost of the Jacobian m*u^(m-1).
    a = interval.a
    c = interval.width
    m = 1.0 / (1.0 + alpha)
    upper = c ** (1.0 + alpha)

    def g(u):
        return f(a + u**m) * (m * u ** (m - 1.0))

    return _adaptive(g, 0.0, upper, spec, vectorized)


# The divergence test. An integrable t^alpha keeps 2^-(1+alpha) < 1 of the
# leftmost panel's value per bisection, a t^alpha with alpha <= -1 keeps all
# of it. After _STILL_HALVINGS consecutive bisections of the leftmost panel
# whose left child keeps more than _STILL_RATIO of its parent's |value|, one
# probe panel _PROBE_ULPS ulps wide at the endpoint (a few bisections short
# of where bisection stalls) decides: still more than _STILL_RATIO of the
# leftmost panel, or non-finite, is divergence. Otherwise the integrand only
# looks singular at the scales seen so far, like 1/(t + 1e-6), and the test
# is off for the rest of the run.
_STILL_HALVINGS = 16
_STILL_RATIO = 0.99
_PROBE_ULPS = 2.0**8


def _adaptive(f, lo, hi, spec, vectorized):
    value0, err0 = _gk15(f, lo, hi, vectorized)
    evaluations = 15
    # heap entries: (-err, insertion seq, lo, hi, value, err)
    heap = [(-err0, 0, lo, hi, value0, err0)]
    seq = 1
    total_value = value0
    total_err = err0
    subdivisions = 0
    still = 0  # consecutive non-shrinking bisections of the leftmost panel
    reason = None if math.isfinite(value0) and math.isfinite(err0) else "stalled"

    while reason is None:
        if subdivisions >= spec.max_subdivisions:
            reason = "budget"
            break
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total_value)):
            break
        _, _, plo, phi, pval, perr = heap[0]
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # bisection cannot make progress at double precision
            reason = "stalled"
            break
        lval, lerr = _gk15(f, plo, mid, vectorized)
        rval, rerr = _gk15(f, mid, phi, vectorized)
        evaluations += 30
        if not all(map(math.isfinite, (lval, lerr, rval, rerr))):
            # the stalled panel is still heap[0], so it stays in the totals
            reason = "stalled"
            break
        heapq.heapreplace(heap, (-lerr, seq, plo, mid, lval, lerr))
        heapq.heappush(heap, (-rerr, seq + 1, mid, phi, rval, rerr))
        seq += 2
        total_value += lval + rval - pval
        total_err += lerr + rerr - perr
        subdivisions += 1
        if plo == lo and still >= 0:
            still = still + 1 if abs(lval) > _STILL_RATIO * abs(pval) else 0
            if still == _STILL_HALVINGS:
                probe_hi = min(lo + _PROBE_ULPS * math.ulp(lo), mid)
                probe, _ = _gk15(f, lo, probe_hi, vectorized)
                evaluations += 15
                if not abs(probe) <= _STILL_RATIO * abs(lval):
                    reason = "divergent"
                still = -1  # one probe per run

    # authoritative totals: fixed reduction order by panel position
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
        # the running totals met the tolerance, the final sums do not
        reason = "stalled"
    return QuadResult(value, err, evaluations, converged, reason, subdivisions)
