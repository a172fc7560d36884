"""Adaptive Gauss-Kronrod integration on finite intervals.

Supports integrands with an integrable power singularity t^alpha
(alpha in (-1, 0]) at the left endpoint via the substitution
t = a + u^(1/(1+alpha)), which turns the singular factor into a bounded one.
Divergent integrands are reported (converged=False), never guessed: a
left-endpoint blow-up is stopped once the leftmost panel stops shrinking
under bisection and a probe next to the endpoint confirms it (QUADPACK
dqagse reports the same condition as ier=5).

The refinement rules have two forms: `_refine`, a loop over one integral
that evaluates each request of panels in one integrand call, which
`integrate` runs, and `_Refinements`, many integrals as arrays, one numpy
step per round, which the lockstep moment oracle (`weights.oracle`) runs.
The array form is pinned to `_refine` bit for bit; `_refine` is the
reference.
"""

import heapq
import math
import numbers
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
        n = self.max_subdivisions
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError("max_subdivisions must be a positive integer")
        object.__setattr__(self, "max_subdivisions", int(n))  # a JSON number
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
        if alpha is None or alpha == 0.0:
            return _refine(f, interval.a, interval.b, spec)
        # t = a + u^m with m = 1/(1+alpha): a factor (t-a)^alpha in f becomes
        # bounded, at the cost of the Jacobian m*u^(m-1).
        m = 1.0 / (1.0 + alpha)

        def g(u):
            t, jacobian = _desingularize(u, interval.a, m)
            return f(t) * jacobian

        return _refine(g, 0.0, interval.width ** (1.0 + alpha), spec)


def integrate_unit(
    f: Callable[[np.ndarray], np.ndarray], spec: QuadSpec = QuadSpec()
) -> QuadResult:
    """Integrate f over [0, 1]."""
    return integrate(f, Interval(0.0, 1.0), spec)


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


def _refine(f, lo, hi, spec):
    """The QuadResult of f over [lo, hi]. Each request is one `_gk15`
    call: the first panel, both halves of a bisection (the left first) or
    the divergence probe. `_Refinements` is the same rules as arrays, for
    many integrals at once; this form is its reference, and a change to a
    rule here is made there too."""
    [(value0, err0)] = _gk15(f, (lo, hi))
    evaluations, subdivisions, seq = 15, 0, 1
    # heap entries: (-err, insertion seq, lo, hi, value, err)
    heap = [(-err0, 0, lo, hi, value0, err0)]
    total_value, total_err = value0, err0
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
        (lval, lerr), (rval, rerr) = _gk15(f, (plo, mid), (mid, phi))
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
                [(probe, _)] = _gk15(f, (lo, probe_hi))
                evaluations += 15
                if not abs(probe) <= _STILL_RATIO * abs(lval):
                    reason = "divergent"
                still = -1  # one probe per run

    # authoritative totals: fixed reduction order by panel position
    value = err = 0.0
    for _, _, _, _, pval, perr in sorted(heap, key=lambda e: (e[2], e[3])):
        value += pval
        err += perr
    return _result(value, err, reason, evaluations, subdivisions, spec)


def _result(value, err, reason, evaluations, subdivisions, spec):
    """The QuadResult of a run whose final sums are value and err, stopped
    for reason: None where its running totals met the tolerance."""
    converged = (reason in (None, "budget") and math.isfinite(value) and math.isfinite(err)
                 and err <= max(spec.abs_tol, spec.rel_tol * abs(value)))
    if converged:
        reason = "converged"
    elif reason is None:
        # the running totals met the tolerance, the final sums do not
        reason = "stalled"
    return QuadResult(value, err, evaluations, converged, reason, subdivisions)


# The array form of the rules, `_Refinements`. A run asks for a bisection of
# its worst panel or, once, the divergence probe; why a run stopped is one of
# _STOPS, _GOING while it has not
_BISECT, _PROBE = 1, 2
_GOING = 0
_STOPS = (None, None, "budget", "stalled", "divergent")
_MET, _BUDGET, _STALLED, _DIVERGENT = range(1, 5)
# panel slots of a run's first block in the pool
_FIRST_SLOTS = 4


class _Refinements:
    """`_refine` of n integrals over [lo, hi], as arrays: one numpy step of
    the same rules per round for every unfinished run. `asking` gives the
    unfinished runs, in order, and their requests; `send` takes the GK15
    (value, error) of the requested panels and returns each run that
    stopped with its QuadResult, built in that round. Each result is that
    of a `_refine(f, lo, hi, spec)` run, bit for bit.

    A run keeps its panels in its own block of one pool, in insertion
    order: a bisection appends its left child, then its right, and retires
    its parent with error -inf. The first largest error of a block is then
    the panel `_refine`'s heap bisects, the oldest among ties. The blocks
    of the unfinished runs lie in run order, each reaching to the start of
    the next, the last to the end of the pool. Every slot without a live
    panel reads error -inf: room not yet used, retired parents, and the
    panels of stopped runs, whose room joins the block before. When a
    block has no room for two more panels, the whole pool is rebuilt from
    the live panels, each block in its live count, half as many slots
    again and four more."""

    def __init__(self, n, lo, hi, spec):
        self.lo, self.spec = lo, spec
        self.probe_hi = lo + _PROBE_ULPS * math.ulp(lo)
        # per unfinished run: its request, the panel (a, mid) and, when it
        # bisects, (mid, b); and its running totals
        self.floats = np.array([[lo], [hi], [hi], [0.0], [0.0]]).repeat(n, axis=1)
        # per unfinished run: its number, what it asks for (0 its first
        # panel), the pool slot of the panel it bisects, its counters, the
        # slots it has used of its block and the block's first slot
        self.ints = np.zeros((8, n), dtype=np.int64)
        self.ints[0] = np.arange(n)
        self.ints[7] = np.arange(n) * _FIRST_SLOTS
        # per panel slot: the panel's ends, value and error
        self.pool = np.full((4, n * _FIRST_SLOTS), -math.inf)
        self.probes = 0  # runs that ask for the probe

    def asking(self):
        """(run numbers, panel counts, panel lo, panel hi) of the unfinished
        runs, in order: the panels of each run's request, one after another."""
        a, mid, b = self.floats[:3]
        bisects = self.ints[1] == _BISECT
        self.count = count = 1 + bisects
        self.first = count.cumsum() - count
        self.second = self.first + bisects
        lo, hi = np.empty((2, len(bisects) + bisects.sum()))
        lo[self.second], hi[self.second] = mid, b
        lo[self.first], hi[self.first] = a, mid
        return self.ints[0], count, lo, hi

    def send(self, value, error):
        """The (run number, QuadResult) of each run that stops, given the
        value and error arrays of the panels `asking` asked for, in order."""
        floats, ints, spec, first, second = self.floats, self.ints, self.spec, self.first, self.second
        a, mid, b, total, total_err = floats
        _, phase, parent, evaluations, subdivisions, still, used, start = ints
        lo, hi, val, err = self.pool
        room = np.append(start[1:], len(err)) - start  # the slots of each block
        lval, lerr, rval, rerr = value[first], error[first], value[second], error[second]
        finite = np.logical_and.reduce(np.isfinite(np.array((lval, lerr, rval, rerr))))
        evaluations += 15 * self.count
        probe = first[:0]
        if not used[0]:  # every run's first panel
            lo[start], hi[start], val[start], err[start] = a, mid, lval, lerr
            total[:], total_err[:] = lval, lerr
            used += 1
            why = _STALLED * ~finite
        else:
            bisects = self.count == 2
            # a bisection into non-finite children stops the run, its parent live
            why = _STALLED * (bisects & ~finite)
            if self.probes:
                q = (~bisects).nonzero()[0]
                # against the left child of the bisection before the probe
                probed = val[start[q] + used[q] - 2]
                why[q] = _DIVERGENT * ~(abs(lval[q]) <= _STILL_RATIO * abs(probed))
                still[q] = -1
                self.probes = 0
            k = (bisects & finite).nonzero()[0]
            pk = parent[k]
            pval, perr = val[pk], err[pk]
            err[pk] = -math.inf
            if (used[k] + 2 > room[k]).any():
                room = self._rebuild(room)
                lo, hi, val, err = self.pool
            lval, lerr, rval, rerr, ak, mk = lval[k], lerr[k], rval[k], rerr[k], a[k], mid[k]
            slot = start[k] + used[k]
            lo[slot], hi[slot], val[slot], err[slot] = ak, mk, lval, lerr
            slot += 1
            lo[slot], hi[slot], val[slot], err[slot] = mk, b[k], rval, rerr
            used[k] += 2
            total[k] += (lval + rval) - pval
            total_err[k] += (lerr + rerr) - perr
            subdivisions[k] += 1
            leftmost = (ak == self.lo) & (still[k] >= 0)
            if leftmost.any():
                j = k[leftmost]
                still[j] = (still[j] + 1) * (abs(lval[leftmost])
                                             > _STILL_RATIO * abs(pval[leftmost]))
                probe = j[still[j] == _STILL_HALVINGS]
                phase[probe] = _PROBE
                mid[probe] = np.where(mid[probe] < self.probe_hi, mid[probe], self.probe_hi)
                self.probes = len(probe)

        # each run that goes on without a probe stops at the budget, or at
        # the tolerance, or where its worst panel cannot be split
        going = why == _GOING
        going[probe] = False
        r = going.nonzero()[0]
        why[r] = np.maximum(
            _BUDGET * (subdivisions[r] >= spec.max_subdivisions),
            _MET * (total_err[r] <= np.fmax(spec.rel_tol * abs(total[r]), spec.abs_tol)))
        r = r[why[r] == _GOING]
        worst = self._worst(r, room)
        plo, phi = lo[worst], hi[worst]
        half = 0.5 * (plo + phi)  # _midpoint
        if not np.isfinite(half).all():
            half = np.where(np.isfinite(half), half, 0.5 * plo + 0.5 * phi)
        ok = (plo < half) & (half < phi)
        why[r] = _STALLED * ~ok
        r = r[ok]
        phase[r], parent[r] = _BISECT, worst[ok]
        a[r], mid[r], b[r] = plo[ok], half[ok], phi[ok]

        if not why.any():
            return []
        stopped = why.nonzero()[0]
        done = self._results(stopped, why[stopped], room)
        keep = why == _GOING
        self.floats, self.ints = floats.compress(keep, axis=1), ints.compress(keep, axis=1)
        return done

    def _worst(self, rows, room):
        """The pool slot of the first largest error in the block of each of
        rows: one pass over the blocks finds each block's largest error, and
        one more the first slot of each block that holds it."""
        start = self.ints[7]
        errors = self.pool[3, start[0]:]
        at = start - start[0]
        hits = (errors == np.maximum.reduceat(errors, at).repeat(room)).nonzero()[0]
        return hits[hits.searchsorted(at[rows])] + start[0]

    def _rebuild(self, room):
        """The room of each block in a pool rebuilt from the live panels of
        the unfinished runs, in order: its live count, half as many slots
        again and four more."""
        used, start = self.ints[6:]
        old = self.pool[:, start[0]:]
        live = old[3] != -math.inf
        used[:] = np.bincount(np.arange(len(room)).repeat(room)[live], minlength=len(room))
        room = used + used // 2 + 4
        start[:] = room.cumsum() - room
        self.pool = np.full((4, room.sum()), -math.inf)
        self.pool[:, np.arange(self.pool.shape[1]) < (start + used).repeat(room)] = old[:, live]
        return room

    def _results(self, rows, why, room):
        """(run number, QuadResult) of each of rows, which stopped for why:
        the values and errors of its live panels summed in panel order from
        +0.0, one at a time, as `_refine` sums them. Their slots then read
        error -inf."""
        run, _, _, evaluations, subdivisions = self.ints[:5, rows]
        base = self.ints[7, 0]
        lo, _, val, err = self.pool
        # per slot from the first block: the position in rows of its run, or -1
        owner = np.full(len(room), -1)
        owner[rows] = np.arange(len(rows))
        owner = owner.repeat(room)
        slots = ((owner >= 0) & (err[base:] != -math.inf)).nonzero()[0]
        owner = owner[slots]
        slots += base
        slots = slots[np.lexsort((lo[slots], owner))]
        panels = np.bincount(owner, minlength=len(rows))
        # one row per run, +0.0 first: padding it with +0.0 leaves each sum's
        # bits alone, as a sum from +0.0 is never -0.0; accumulate adds in
        # order, where np.sum adds pairwise
        width = panels.max() + 1
        at = owner * width + np.arange(1, len(slots) + 1) - (panels.cumsum() - panels)[owner]
        sums = np.zeros((2, len(rows) * width))
        sums[0, at], sums[1, at] = val[slots], err[slots]
        err[slots] = -math.inf
        value, error = np.add.accumulate(sums.reshape(2, len(rows), width), axis=2)[:, :, -1]
        return [
            (number, _result(v, e, _STOPS[w], n, s, self.spec))
            for number, v, e, w, n, s in zip(
                run.tolist(), value.tolist(), error.tolist(), why.tolist(),
                evaluations.tolist(), subdivisions.tolist())
        ]
