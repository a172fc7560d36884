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
        return _midpoint(self.a, self.b)


@dataclass(frozen=True)
class QuadSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    left_singularity_exponent: float | None = None

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {tol}")
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


# half-width offsets, centre first (Interval keeps h finite, so c + h * 0.0 == c)
_OFFSETS = [0.0] + [s * x for x in _XGK[:7] for s in (-1.0, 1.0)]


def _midpoint(lo: float, hi: float) -> float:
    """(lo + hi) / 2, also where lo + hi overflows. The halves are added
    only then: below 2^-1021 halving an end can round, 0.5 * (lo + hi)
    cannot."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


def _gk15(f, *panels):
    """Gauss-Kronrod panels (lo, hi) in one integrand call, 15 nodes each
    in panel order: per panel, (kronrod value, |K15 - G7| error estimate).

    An exception from a call of several panels is raised as the one-panel
    calls would raise it, the first panel first, so an error names the
    same point whichever panels share the call.
    """
    centred = [(_midpoint(lo, hi), 0.5 * (hi - lo)) for lo, hi in panels]
    nodes = np.array([c + h * x for c, h in centred for x in _OFFSETS])
    try:
        out = np.asarray(f(nodes), dtype=float)
    except Exception:
        if len(panels) == 1:
            raise
        for panel in panels:
            _gk15(f, panel)
        raise
    if out.shape != nodes.shape:
        raise TypeError(
            "an integrand must return one value per node: "
            f"shape {nodes.shape}, got {out.shape}"
        )
    # per panel: the centre, then each Kronrod node pair (-x, +x)
    panel_values = zip(*[iter(out.tolist())] * 15)
    return [_gk15_rule(h, *values) for (_, h), values in zip(centred, panel_values)]


def _gk15_rule(h, c, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, larger=max):
    """(kronrod value, |K15 - G7| error estimate) of one panel of
    half-width h from its 15 values, the centre first. Floats, or one
    ndarray column per node with `larger` = `_larger`: the operations and
    their order are the same, so each column entry keeps a float's bits."""
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    p1, p3, p5 = l1 + r1, l3 + r3, l5 + r5
    kron = (k7 * c + k0 * (l0 + r0) + k1 * p1 + k2 * (l2 + r2) + k3 * p3
            + k4 * (l4 + r4) + k5 * p5 + k6 * (l6 + r6))
    gauss = g3 * c + g0 * p1 + g1 * p3 + g2 * p5
    # floor at one rounding unit of the panel value: the embedded-rule
    # difference can round to zero while the panel still carries ulp error
    err = larger(abs(kron - gauss), 2.0**-52 * abs(kron)) * abs(h)
    return kron * h, err


def _larger(a, b):
    """max(a, b) per entry, NaN included: b where b > a, else a."""
    return np.where(b > a, b, a)


def _desingularize(u, a, m):
    """(t, dt/du) of the substitution t = a + u^m; m a float, or a column of
    one m per row of u."""
    return a + u**m, m * u ** (m - 1.0)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    interval: Interval,
    spec: QuadSpec = QuadSpec(),
) -> QuadResult:
    """Integrate f over the interval to the requested tolerance.

    The integrand receives an ndarray with the 15 nodes of one panel (the
    first panel, the divergence probe), or the 30 nodes of both halves of
    a split panel, the left half first. It returns one value per node; a
    return of any other shape raises TypeError naming the node count of
    the failing call. Evaluator exceptions propagate to the caller, as the
    one-panel calls would raise them, the left half first. Refinement
    always bisects the panel with the largest error estimate; identical
    inputs give bit-identical results. One np.errstate covers the whole
    run, not each panel: the integrand's floating-point warnings are
    ignored, and a non-finite panel stops the run as "stalled".
    """
    alpha = spec.left_singularity_exponent
    with np.errstate(all="ignore"):
        if alpha is not None and alpha != 0.0:
            return _integrate_desingularized(f, interval, spec, alpha)
        return _adaptive(f, interval.a, interval.b, spec)


def integrate_unit(
    f: Callable[[np.ndarray], np.ndarray], spec: QuadSpec = QuadSpec()
) -> QuadResult:
    """Integrate f over [0, 1]."""
    return integrate(f, Interval(0.0, 1.0), spec)


def _integrate_desingularized(f, interval, spec, alpha):
    # t = a + u^m with m = 1/(1+alpha): a factor (t-a)^alpha in f becomes
    # bounded, at the cost of the Jacobian m*u^(m-1).
    a = interval.a
    m = 1.0 / (1.0 + alpha)

    def g(u):
        t, jacobian = _desingularize(u, a, m)
        return f(t) * jacobian

    return _adaptive(g, 0.0, interval.width ** (1.0 + alpha), spec)


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


def _adaptive(f, lo, hi, spec):
    """`_refine` of f over [lo, hi], each request in one integrand call."""
    run = _refine(lo, hi, spec)
    panels = next(run)
    while True:
        try:
            panels = run.send(_gk15(f, *panels))
        except StopIteration as done:
            return done.value


def _refine(lo, hi, spec):
    """The refinement of one integral over [lo, hi], as a generator that
    evaluates nothing itself. It yields the panels ((lo, hi), ...) whose
    GK15 (value, error) it needs next: the first panel, both halves of a
    bisection (the left first) or the divergence probe. It is sent their
    list in the same order, and returns the QuadResult. Drivers differ only
    in how they evaluate panels, so the rules below exist once."""
    [(value0, err0)] = yield ((lo, hi),)
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
        mid = _midpoint(plo, phi)
        if mid <= plo or mid >= phi:
            # bisection cannot make progress at double precision
            reason = "stalled"
            break
        (lval, lerr), (rval, rerr) = yield ((plo, mid), (mid, phi))
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
                [(probe, _)] = yield ((lo, probe_hi),)
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
