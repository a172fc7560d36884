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
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import specfun
from .errors import DomainError, NonConvergenceError, NonFiniteError
from .quadrature import QuadResult, QuadSpec, integrate_unit

LN3 = math.log(3.0)


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
        t = _unit_t(t, "weights are")
        # each shared subexpression once, each sum and product in its
        # written order, so the bits do not depend on the sharing
        one_minus_t = 1.0 - t
        if self.kind is WeightKind.CLASSICAL:
            return t, one_minus_t
        if self.kind is WeightKind.YOUNG:
            p = self.p
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

    def eval(self, t: float) -> WeightPair:
        wx, wy = self.eval_arrays(np.array([t]))
        return WeightPair(float(wx[0]), float(wy[0]))

    def lemma_rhs_arrays(self, t: np.ndarray) -> np.ndarray:
        """Right-hand side of the defining lemma inequality (>= 1 on (0, 1])."""
        t = _unit_t(t, "lemma_rhs is")
        if self.kind is WeightKind.CLASSICAL:
            return np.ones_like(t)
        if self.kind is WeightKind.YOUNG:
            p = self.p
            return (1.0 / p) * t ** (1.0 / p - 1.0) + (1.0 - 1.0 / p) * t ** (1.0 / p)
        return 2.0 * t / (3.0 - 2.0 * t) + 2.0 * (1.0 - t) / (1.0 + 2.0 * t)

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
        self,
        terms: Iterable[tuple[Callable[[np.ndarray, np.ndarray], np.ndarray],
                              tuple[int, int]]],
        spec: QuadSpec = QuadSpec(),
    ) -> Iterator[QuadResult]:
        """Quadrature of each g(w_x, w_y) over t in [0, 1], one QuadResult
        per (g, degree) of terms, in order and only when asked for.

        degree = (i, j) names the most singular monomial w_x^i w_y^j of g.
        Young weights behave like w_x ~ t^(1/p) and w_y ~ t^(1/p - 1) at
        t = 0, so that monomial carries t^((i + j)/p - j); the exponent is
        passed to the quadrature as a left-endpoint hint when it lies in
        (-1, 0). Integrands that diverge are reported (converged=False).
        An integrable monomial that double precision cannot resolve raises
        NonConvergenceError when its term is reached: its exponent rounds
        to -1 (p past ~1.8e16), or t underflows to 0 in the hint's
        substitution (m01 at most p past ~121, m02 at most p in [1.984, 2)).

        Integrals with the same substitution bisect the same panels first,
        so the weights at the nodes of each integrand call (a panel, or
        both halves of a bisection) are computed once and shared by this
        call's integrals, read-only; the values are those of
        separate integrals, bit for bit. Nothing is kept after the call.
        """
        panels = {}  # node bytes -> read-only (w_x, w_y) at those nodes

        def weights_at(t):
            key = t.tobytes()
            pair = panels.get(key)
            if pair is None:
                pair = self.eval_arrays(t)
                for values in pair:
                    values.flags.writeable = False
                panels[key] = pair
            return pair

        for g, degree in terms:
            hint = None
            unresolved = (
                f"the {self.label()} integral of degree {degree} cannot be resolved"
            )
            if self.kind is WeightKind.YOUNG:
                i, j = degree
                exponent = (i + j) / self.p - j
                if (i + j) / self.p > j - 1 and not exponent > -1.0:
                    raise NonConvergenceError(
                        f"{unresolved}: {i + j}/p - {j} rounds to -1"
                    )
                if -1.0 < exponent < 0.0:
                    hint = exponent
            local = dataclasses.replace(spec, left_singularity_exponent=hint)
            try:
                result = integrate_unit(lambda t: g(*weights_at(t)), local)
            except DomainError as exc:
                raise NonConvergenceError(f"{unresolved}: t underflows to 0") from exc
            yield result

    def moments(self, spec: QuadSpec = QuadSpec()) -> MomentTable:
        """Moment table from the adaptive-quadrature oracle.

        The Young m02 entry genuinely diverges for p >= 2 and is None
        (reported, not guessed).
        """
        results = self.integrals(MOMENT_INTEGRANDS.values(), spec)
        return MomentTable(*map(moment_value, results))


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
