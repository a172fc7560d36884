"""Weight systems for generalized convexity classes.

A weight system is the pair (w_x, w_y) of functions of t in (0, 1] that
multiply f(x) and f(y) in a convexity definition. Three systems are
provided: the classical pair (t, 1-t), the Young pair derived from Young's
inequality with exponent p > 1, and the Nesbitt pair derived from Nesbitt's
inequality. Weight moments (integrals over [0, 1] of the weights and their
products) generate every Hadamard-type theorem constant; they are available
both as closed forms and through the quadrature oracle.
"""

import dataclasses
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import quadrature, specfun
from .errors import DomainError, NonConvergenceError, NonFiniteError
from .quadrature import QuadResult, QuadSpec

LN3 = math.log(3.0)

# A term of the weight-moment oracle: g(w_x, w_y), and the degree (i, j) of
# its most singular monomial w_x^i w_y^j
Term = tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], tuple[int, int]]


class WeightKind(enum.Enum):
    CLASSICAL = "classical"
    YOUNG = "young"
    NESBITT = "nesbitt"


@dataclass(frozen=True)
class WeightPair:
    wx: float
    wy: float


@dataclass(frozen=True)
class MomentTable:
    """The five weight moments; None marks a divergent or unconverged one."""

    m10: float | None  # int w_x
    m01: float | None  # int w_y
    m20: float | None  # int w_x^2
    m02: float | None  # int w_y^2
    m11: float | None  # int w_x * w_y

    def entries(self) -> dict[str, float | None]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def symmetric(cls, first: float, second: float, cross: float) -> "MomentTable":
        """The table of a system whose w_y(t) is w_x(1 - t): m01 = m10, m02 = m20."""
        return cls(first, first, second, second, cross)


def _unit_t(t, subject: str) -> np.ndarray:
    """t as a float array, refused unless every value lies in (0, 1]. A NaN
    is refused too: min and max propagate it, and it fails both tests."""
    t = np.asarray(t, dtype=float)
    if t.size and not (t.min() > 0.0 and t.max() <= 1.0):
        bad = t[~((t > 0.0) & (t <= 1.0))].flat[0]
        raise DomainError(f"{subject} defined for t in (0, 1], got t={bad}")
    return t


@dataclass(frozen=True)
class WeightSystem:
    kind: WeightKind
    p: float | None = None

    def __post_init__(self):
        if self.kind is WeightKind.YOUNG:
            if self.p is None or not 1.0 < self.p < math.inf:
                raise DomainError(
                    f"Young weights require a finite p > 1, got p={self.p}"
                )
        elif self.p is not None:
            raise DomainError(f"{self.kind.value} weights take no exponent p")

    def label(self) -> str:
        if self.kind is WeightKind.YOUNG:
            return f"young(p={exponent_text(self.p)})"
        return self.kind.value

    # -- pointwise evaluation ------------------------------------------------

    def eval_arrays(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w_x, w_y) on an array of t values in (0, 1].

        Single evaluation path for both the scalar API and grid scans, so a
        violation certificate recomputes bit-identically.
        """
        return _weight_pair(self.kind, _unit_t(t, "weights are"), self.p)

    def eval(self, t: float) -> WeightPair:
        wx, wy = self.eval_arrays(np.array([t]))
        return WeightPair(float(wx[0]), float(wy[0]))

    def lemma_rhs_arrays(self, t: np.ndarray) -> np.ndarray:
        """L = w_x + w_y, the right-hand side of the defining lemma
        inequality (>= 1 on (0, 1])."""
        wx, wy = self.eval_arrays(_unit_t(t, "lemma_rhs is"))
        return wx + wy

    def lemma_rhs(self, t: float) -> float:
        return float(self.lemma_rhs_arrays(np.array([t]))[0])

    # -- moments ---------------------------------------------------------------

    def moments_closed_form(self) -> MomentTable:
        """Moment table from the closed-form (rational / Beta / log) constants.

        The Young cross moment uses the Beta combination confirmed by the
        quadrature oracle (the one appearing in the product-bound proof);
        see `theorems.constants_table` for the alternative display. The
        Young m02 entry diverges for p >= 2 and is None. A Young p past
        ~7.7e153, where 3p^2 overflows a double, raises NonFiniteError on
        every call; any other table is computed once and kept.
        """
        return self._closed_form

    @functools.cached_property
    def _closed_form(self) -> MomentTable:
        if self.kind is WeightKind.CLASSICAL:
            return MomentTable.symmetric(0.5, 1.0 / 3.0, 1.0 / 6.0)
        if self.kind is WeightKind.NESBITT:
            return MomentTable.symmetric(
                1.5 * LN3 - 1.0,
                125.0 / 6.0 - (147.0 / 8.0) * LN3,
                (117.0 / 8.0) * LN3 - 95.0 / 6.0,
            )
        p = self.p
        # 3p^2 is the largest intermediate below; while it is finite, no
        # product or power of the Young closed forms overflows
        if not math.isfinite(3.0 * p * p):
            raise NonFiniteError(
                f"the closed-form moments of {self.label()} overflow a double"
            )
        m02 = None
        if 2.0 / p - 1.0 > 0.0:
            m02 = (
                ((p - 1.0) / p) ** 2 * specfun.beta(2.0 / p + 1.0, 3.0)
                + 2.0 * (p - 1.0) / p**2 * specfun.beta(2.0 / p, 3.0)
                + 1.0 / p**2 * specfun.beta(2.0 / p - 1.0, 3.0)
            )
        return MomentTable(
            (p * p + 2.0 * p) / ((p + 1.0) * (2.0 * p + 1.0)),
            3.0 * p * p / ((p + 1.0) * (2.0 * p + 1.0)),
            1.0 / (p * (2.0 + p))
            + (p - 1.0) / (p * (1.0 + p))
            + (p - 1.0) ** 2 / (p * (2.0 + 3.0 * p)),
            m02,
            young_cross_moment_proof_display(p),
        )

    def weight_mass(self) -> float:
        """m10 + m01 = int (w_x + w_y) over t in [0, 1], in closed form: 1,
        2p/(p+1) (finite until 2p overflows) or 3 ln 3 - 2."""
        if self.kind is WeightKind.CLASSICAL:
            return 1.0
        if self.kind is WeightKind.YOUNG:
            return 2.0 * self.p / (self.p + 1.0)
        return 3.0 * LN3 - 2.0

    def integrals(
        self, terms: Iterable[Term], spec: QuadSpec = QuadSpec()
    ) -> Iterator[QuadResult]:
        """`oracle` of this one system: one QuadResult per (g, degree) of
        terms, in order."""
        [(_, results)] = oracle([(self, dict(enumerate(terms)))], spec)
        return results

    def moments(self, spec: QuadSpec = QuadSpec()) -> MomentTable:
        """Moment table from the adaptive-quadrature oracle.

        The Young m02 entry genuinely diverges for p >= 2 and is None
        (reported, not guessed).
        """
        results = self.integrals(MOMENT_INTEGRANDS.values(), spec)
        return MomentTable(*map(moment_value, results))


def _weight_pair(kind: WeightKind, t: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """(w_x, w_y) at t, the one place the weights are written; p is the
    Young exponent, a float or a column of one p per row of t. Each shared
    subexpression is computed once, each sum and product in its written
    order, so the bits depend neither on the sharing nor on the rows."""
    one_minus_t = 1.0 - t
    if kind is WeightKind.CLASSICAL:
        return t, one_minus_t
    if kind is WeightKind.YOUNG:
        inv_p = 1.0 / p
        ratio = (p - 1.0) / p
        root = t**inv_p
        wx = inv_p * root + ratio * t ** (1.0 + inv_p)
        wy = ratio * one_minus_t * root + inv_p * t ** (inv_p - 1.0) * one_minus_t
        return wx, wy
    two_t = 2.0 * t
    left = 3.0 - two_t
    right = 1.0 + two_t
    cross = two_t * one_minus_t
    wx = 2.0 * t**2 / left + cross / right
    wy = cross / left + 2.0 * one_minus_t**2 / right
    return wx, wy


# systems whose integrals refine in lockstep at most, so the oracle's working
# memory does not grow with the number of cases
_BATCH_SYSTEMS = 64


def oracle(
    cases: Iterable[tuple[WeightSystem, Mapping[str, Term]]], spec: QuadSpec = QuadSpec()
) -> Iterator[tuple[tuple[WeightSystem, Mapping[str, Term]], Iterator[QuadResult]]]:
    """Quadrature of each g(w_x, w_y) over t in [0, 1]: per case (ws, terms),
    in order, the case and an iterator of one QuadResult per term.

    degree = (i, j) names the most singular monomial w_x^i w_y^j of g.
    Young weights behave like w_x ~ t^(1/p) and w_y ~ t^(1/p - 1) at
    t = 0, so that monomial carries t^((i + j)/p - j); the exponent is
    the quadrature's left-endpoint hint when it lies in (-1, 0).
    Integrands that diverge are reported (converged=False). An integrable
    monomial that double precision cannot resolve raises
    NonConvergenceError when its term is reached: its exponent rounds to
    -1 (p past ~1.8e16), or t underflows to 0 in the hint's substitution
    (m01 at most p past ~121, m02 at most p in [1.984, 2)).

    The integrals of up to 64 cases at a time refine in lockstep, one
    numpy pass per round over the panels every unfinished integral asks
    for, weighing each distinct (system, panel) row once per round, and
    one numpy step of the refinement rules (`quadrature._Refinements`).
    Each result is that of `integrate_unit` on the term alone with its
    hint, bit for bit. The cases are read in order, and an error they
    raise comes after the results of the cases before it. A batch whose
    lockstep run raises, from an integral or from g, yields each case's
    terms run alone instead, so its error is the one a run of one case
    and one term at a time raises, after the results before it.
    """
    cases = iter(cases)
    while True:
        batch, later = [], None
        try:
            for case in itertools.islice(cases, _BATCH_SYSTEMS):
                batch.append(case)
        except Exception as exc:  # raised once the cases before it are read
            later = exc
        try:
            batch_results = _lockstep(batch, spec)
        except Exception:  # found again, in order, by each term alone
            batch_results = [_alone(ws, terms, spec) for ws, terms in batch]
        for case, results in zip(batch, batch_results):
            yield case, iter(results)
        if later is not None:
            raise later
        if len(batch) < _BATCH_SYSTEMS:
            return


def _alone(ws: WeightSystem, terms: Mapping[str, Term], spec: QuadSpec):
    """The result of each term of ws run alone, in order, until one raises."""
    for key, term in terms.items():
        [[result]] = _lockstep([(ws, {key: term})], spec)
        yield result


def _unresolved(ws: WeightSystem, degree, why: str) -> NonConvergenceError:
    return NonConvergenceError(
        f"the {ws.label()} integral of degree {degree} cannot be resolved: {why}"
    )


def _hint(ws: WeightSystem, degree) -> float | None:
    """The left-endpoint exponent of the term of this degree, where it lies
    in (-1, 0), else None; NonConvergenceError where it rounds to -1."""
    if ws.kind is not WeightKind.YOUNG:
        return None
    i, j = degree
    exponent = (i + j) / ws.p - j
    if (i + j) / ws.p > j - 1 and not exponent > -1.0:
        raise _unresolved(ws, degree, f"{i + j}/p - {j} rounds to -1")
    return exponent if -1.0 < exponent < 0.0 else None


# Kronrod node offsets within a panel, centre first, as in quadrature._gk15
_NODE_OFFSETS = np.array(quadrature._OFFSETS)
# one weight row per panel: w_x, w_y and the Jacobian of the substitution
# at its 15 nodes, then its half-width
_WX, _WY, _JAC, _HALF = slice(0, 15), slice(15, 30), slice(30, 45), 45
# numpy runs a scalar exponent of -1, 0, 0.5, 1 or 2 as reciprocal, ones,
# sqrt, a copy or square, whose bits can differ from pow's; a column of
# exponents always runs pow
_FAST_EXPONENTS = frozenset((-1.0, 0.0, 0.5, 1.0, 2.0))
# parts below this are one column part per kind, parts from it one group each
_SCALAR_PARTS = len(WeightKind)


def _lockstep(batch, spec: QuadSpec) -> list[list[QuadResult]]:
    """Every integral of the batch's cases, refined in lockstep: per case,
    its QuadResults in term order. It raises the first error it meets, of
    a hint, of a t = u^m that underflows to 0 or of g; in a batch of one
    term, that term's error, as `oracle` raises it.

    The integrals are the runs of one `quadrature._Refinements` over u in
    [0, 1], which each run's substitution maps onto t in [0, 1]. Runs are
    grouped by system and substitution, so the runs of a group put the same
    t at the same panel. A round weighs the panels of each distinct request
    (group, panels) of its runs once, and holds no weight row past the
    round. Then each term is evaluated once on the rows of its runs, and
    the GK15 sums are formed per column.
    """
    results = [[None] * len(case_terms) for _, case_terms in batch]
    groups = {}  # (system, hint) -> group number
    terms = {}  # g -> term number
    runs = []  # (term number, group number, case, slot)
    for case, (ws, case_terms) in enumerate(batch):
        for slot, (g, degree) in enumerate(case_terms.values()):
            group = groups.setdefault((ws, _hint(ws, degree)), len(groups))
            runs.append((terms.setdefault(g, len(terms)), group, case, slot))
    # in term order, so that a round's rows of one term are one slice
    runs.sort(key=lambda run: run[0])
    term_g = list(terms)
    table = _GroupTable(list(groups))
    run_term, run_group = np.array([run[:2] for run in runs], dtype=np.int64).reshape(-1, 2).T
    refinements = quadrature._Refinements(len(runs), 0.0, 1.0, spec)

    with np.errstate(all="ignore"):
        while True:
            live, count, lo, hi = refinements.asking()
            if not live.size:
                return results
            # the distinct (group, panel) pairs, sorted by part, so that each
            # part is one slice of the weighing; panel k's row is index[k]
            group = run_group[live].repeat(count)
            order = np.lexsort((hi, lo, group, table.part[group]))
            keys = np.array((group, lo, hi))[:, order]
            fresh = np.ones(len(order), dtype=bool)
            fresh[1:] = np.logical_or.reduce(keys[:, 1:] != keys[:, :-1])
            index = np.empty_like(order)
            index[order] = fresh.cumsum() - 1
            pick = order[fresh]
            try:
                rows = _weigh(table, group[pick], lo[pick], hi[pick])
            except DomainError as exc:
                _, _, case, slot = runs[live[0]]
                ws, case_terms = batch[case]
                degree = list(case_terms.values())[slot][1]
                raise _unresolved(ws, degree, "t underflows to 0") from exc
            # each term's panels are one slice
            term = run_term[live]
            change = [0, *((term[1:] != term[:-1]).nonzero()[0] + 1).tolist()]
            first = refinements.first[change].tolist()
            slices = [(term_g[t], row) for t, row in zip(term[change].tolist(), first)]
            value, error = _panel_sums(rows, index, slices)
            for number, result in refinements.send(value, error):
                _, _, case, slot = runs[number]
                results[case][slot] = result


def _panel_sums(rows, index, slices):
    """(value, error) arrays of the panels whose weight rows are
    rows[index]: each term g, given as (g, first panel of its slice),
    evaluated once on the rows of its panels, gathered per term, and times
    the Jacobian, then GK15 summed per column."""
    values = np.empty((len(index), 15))
    ends = [first for _, first in slices[1:]] + [len(index)]
    for (g, lo), hi in zip(slices, ends):
        block = rows[index[lo:hi]]
        block.flags.writeable = False
        out = g(block[:, _WX], block[:, _WY])
        if np.shape(out) != (hi - lo, 15):
            raise TypeError("a weight term must return one value per node: "
                            f"shape {(hi - lo, 15)}, got {np.shape(out)}")
        values[lo:hi] = out
        values[lo:hi] *= block[:, _JAC]
    return quadrature._gk15_rule(rows[index, _HALF], *values.T, larger=quadrature._larger)


class _GroupTable:
    """Per group of a lockstep batch: its kind, Young p, and substitution
    exponent m = 1/(1 + alpha), m = 1 without a hint, and the part it is
    weighed in. Groups with an exponent numpy would run by a scalar fast
    path are weighed one group at a time with scalar exponents, bit for
    bit as `eval_arrays`; the others by kind, with columns, where pow
    gives u^1 = u and u^0 = 1 exactly."""

    def __init__(self, groups):
        self.kinds = [ws.kind for ws, _ in groups]
        self.p = np.array([math.nan if ws.p is None else ws.p for ws, _ in groups])
        self.m = np.array([1.0 if alpha is None else 1.0 / (1.0 + alpha)
                           for _, alpha in groups])
        part = []
        for number, (ws, alpha) in enumerate(groups):
            exponents = set()
            if ws.p is not None:
                exponents |= {1.0 / ws.p, 1.0 + 1.0 / ws.p, 1.0 / ws.p - 1.0}
            if alpha is not None:
                exponents |= {self.m[number], self.m[number] - 1.0}
            if exponents & _FAST_EXPONENTS:
                part.append(_SCALAR_PARTS + number)
            else:
                part.append(list(WeightKind).index(ws.kind))
        self.part = np.array(part)


def _weigh(table: _GroupTable, group, lo, hi):
    """The weight rows of the panels (lo, hi) of the given groups, in order,
    each at t = u^m, the rows of each part one slice; DomainError where a t
    leaves (0, 1], as where t = u^m underflows to 0."""
    new = np.empty((len(group), 46))
    half = new[:, _HALF] = 0.5 * (hi - lo)
    # quadrature._midpoint: lo + hi cannot overflow inside [0, 1]
    u = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODE_OFFSETS
    t = np.empty_like(u)
    part = table.part[group]
    cuts = [0, *(np.flatnonzero(part[1:] != part[:-1]) + 1).tolist(), len(group)]
    for a, b in zip(cuts, cuts[1:]):
        first = group[a]
        if part[a] >= _SCALAR_PARTS:  # one group, its scalars
            p, m = float(table.p[first]), float(table.m[first])
        else:
            p, m = table.p[group[a:b], None], table.m[group[a:b], None]
        t[a:b], new[a:b, _JAC] = quadrature._desingularize(u[a:b], 0.0, m)
        new[a:b, _WX], new[a:b, _WY] = _weight_pair(table.kinds[first], t[a:b], p)
    _unit_t(t, "weights are")
    return new


def moment_value(result: QuadResult) -> float | None:
    """An oracle moment: the integral's value, None when it did not converge."""
    return result.value if result.converged else None


# moment key -> (integrand of (w_x, w_y), degree (i, j) of its monomial)
MOMENT_INTEGRANDS = {
    "m10": (lambda wx, wy: wx, (1, 0)),
    "m01": (lambda wx, wy: wy, (0, 1)),
    "m20": (lambda wx, wy: wx**2, (2, 0)),
    "m02": (lambda wx, wy: wy**2, (0, 2)),
    "m11": (lambda wx, wy: wx * wy, (1, 1)),
}


def exponent_text(p: float) -> str:
    """p as text: its :g form when that reads back as p, else its repr."""
    short = f"{p:g}"
    return short if float(short) == p else repr(p)


def classical() -> WeightSystem:
    return WeightSystem(WeightKind.CLASSICAL)


def young(p: float) -> WeightSystem:
    return WeightSystem(WeightKind.YOUNG, p)


def nesbitt() -> WeightSystem:
    return WeightSystem(WeightKind.NESBITT)


def young_cross_moment_proof_display(p: float) -> float:
    """int w_x w_y per the Beta combination the product-bound proof derives."""
    return (
        2.0 * (p - 1.0) / p**2 * specfun.beta(2.0 / p + 1.0, 2.0)
        + ((p - 1.0) / p) ** 2 * specfun.beta(2.0 / p + 2.0, 2.0)
        + 1.0 / p**2 * specfun.beta(2.0 / p, 2.0)
    )


def young_cross_moment_theorem_display(p: float) -> float:
    """The cross coefficient as displayed in the product-bound theorem.

    Coincides with the proof display at p = 2 but differs elsewhere; it is
    kept only so the discrepancy can be tabulated, and is never used in a
    bound.
    """
    return (
        (p - 1.0) / p**2 * specfun.beta(2.0 / p, 2.0)
        + ((p - 1.0) / p) ** 2 * specfun.beta(2.0 / p + 2.0, 2.0)
        + 1.0 / p * specfun.beta(2.0 / p + 1.0, 2.0)
    )


def _pow_to_inf(base: float, exponent: float) -> float:
    # positive base: treat float overflow as IEEE +inf instead of raising
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def young_inequality(a: float, b: float, p: float) -> float:
    """Gap a^p/p + b^q/q - ab with 1/p + 1/q = 1; zero iff a^p = b^q."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"young_inequality requires a, b > 0, got ({a}, {b})")
    if not p > 1.0:
        raise DomainError(f"young_inequality requires p > 1, got {p}")
    q = p / (p - 1.0)
    return _pow_to_inf(a, p) / p + _pow_to_inf(b, q) / q - a * b


def nesbitt_inequality(a: float, b: float, c: float) -> float:
    """Gap a/(b+c) + b/(a+c) + c/(a+b) - 3/2, nonnegative for positive inputs."""
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise DomainError(
            f"nesbitt_inequality requires positive inputs, got ({a}, {b}, {c})"
        )
    return a / (b + c) + b / (a + c) + c / (a + b) - 1.5


def dominates_classical(ws: WeightSystem, resolution: int) -> tuple[bool, float]:
    """Check w_x(t) >= t and w_y(t) >= 1-t on the grid {k/resolution}.

    Pointwise domination of the classical weights means every nonnegative
    classically convex function is also convex in the ws sense; the margin
    is the grid minimum of the two slacks (exact zero for the classical
    system itself).
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    t = np.arange(1, resolution + 1, dtype=float) / float(resolution)
    wx, wy = ws.eval_arrays(t)
    margin = float(min(np.min(wx - t), np.min(wy - (1.0 - t))))
    return margin >= -1e-12, margin
