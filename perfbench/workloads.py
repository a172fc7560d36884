"""The benchmark's three workloads, their seeded inputs and correctness checks.

Each workload is built from a seed into a cycle of batches; a batch is one
timed iteration and holds a list of operations. Every operation carries its
own check, whose expectation comes from the mathematics (or, for
verify-paper, from pinned report bytes), never from the program's current
output. Calls go through module attributes (``membership.check_convex``,
not a captured reference) so the tracer's wrappers see them.

Probes are fixed inputs with a known defect at the time the benchmark was
defined. They run once per run outside the timed loop; their checks use
the same mathematical expectations, and a failing probe is reported by
name and in the ``probe.failed`` count instead of in the gated
``attempted``/``failed`` totals, which cover only the seeded operations.
"""

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from convexa import cli, membership, theorems, weights
from convexa.expr import parse_function
from convexa.quadrature import Interval

# sha256 of `render(verify_paper(), "json")` at the commit that defined the
# benchmark; a refactor must keep these bytes or declare a schema bump
VERIFY_PAPER_SHA256 = "736e82d6944ab12dff4e5ba808fd2272e52136b5cb2f6e5cb4706a24b751a4cb"

# one grid-scan scan: 161 * 161 * 199 = 5,158,079 samples
SCAN_GRID = membership.GridSpec(nx=161, ny=161, nt=199)

# |program value - closed form| <= REL_TOL * max(1, |closed form|)
REL_TOL = 1e-9

LN3 = math.log(3.0)


@dataclass
class Op:
    """One call into the program plus the check of what it returned.

    `check(result)` lists the failures in a returned result; `outcomes` is
    the number of checked outcomes one result holds, and `items(result)` the
    work it did for items_per_s (by default, `outcomes`).
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    outcomes: int = 1
    items: Callable[[Any], int] | None = None


def evaluate(op: Op, result) -> tuple[list[str], int]:
    """(failures, items) of one result; an exception fails every outcome."""
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"] * op.outcomes, 0
    items = op.outcomes if op.items is None else op.items(result)
    return op.check(result), items


@dataclass
class Workload:
    batches: list[list[Op]]
    probes: list[Op] = field(default_factory=list)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= REL_TOL * max(1.0, abs(want))


# --- verify-paper ---------------------------------------------------------------


def _verify_paper_run():
    report = cli.verify_paper()
    return report, cli.render(report, "json")


def _verify_paper_check(result):
    failures = []
    report, text = result
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != VERIFY_PAPER_SHA256:
        failures.append(f"report sha256 {digest} != pinned {VERIFY_PAPER_SHA256}")
    if report.overall.value != "AllHold":
        failures.append(f"overall {report.overall.value} != AllHold")
    return failures


def verify_paper(seed: int) -> Workload:
    """The fixed built-in suite: no input depends on the seed."""
    op = Op("verify-paper", _verify_paper_run, _verify_paper_check,
            items=lambda r: len(r[0].results))
    return Workload([[op]])


# --- grid-scan ------------------------------------------------------------------

NO_VIOLATION = membership.Verdict.NO_VIOLATION_AT_RESOLUTION
VIOLATED = membership.Verdict.VIOLATED


def _scan_op(name, source, interval, ws, concave, expected) -> Op:
    f = parse_function(source)
    sign = -1.0 if concave else 1.0
    grid = SCAN_GRID

    def run():
        check = membership.check_concave if concave else membership.check_convex
        return check(f, interval, ws, grid)

    def check(report):
        failures = []
        if report.samples != grid.nx * grid.ny * grid.nt:
            failures.append(f"samples {report.samples} != grid size")
        if not (math.isfinite(report.max_gap) and math.isfinite(report.max_slack)):
            failures.append(f"non-finite max_gap={report.max_gap} max_slack={report.max_slack}")
        if report.verdict is not expected:
            failures.append(f"verdict {report.verdict.value} != expected {expected.value}")
        cert = report.certificate
        if report.verdict is VIOLATED:
            failures += _certificate_failures(f, ws, interval, grid, sign, cert)
        elif cert is not None:
            failures.append("certificate attached to a passing verdict")
        return failures

    return Op(name, run, check, items=lambda r: r.samples)


def _certificate_failures(f, ws, interval, grid, sign, cert) -> list[str]:
    """Recompute a certificate through the scalar path; it must match bit for bit."""
    if cert is None:
        return ["Violated without a certificate"]
    x, y, t = cert.x, cert.y, cert.t
    if not (interval.a <= x <= interval.b and interval.a <= y <= interval.b
            and grid.t_min <= t <= 1.0):
        return [f"certificate point ({x}, {y}, {t}) outside the grid box"]
    pair = ws.eval(t)
    lhs = f(t * x + (1.0 - t) * y)
    rhs = pair.wx * f(x) + pair.wy * f(y)
    gap = sign * (lhs - rhs)
    failures = []
    if (lhs, rhs, gap) != (cert.lhs, cert.rhs, cert.gap):
        failures.append(
            f"certificate does not recompute: ({lhs!r}, {rhs!r}, {gap!r}) vs "
            f"({cert.lhs!r}, {cert.rhs!r}, {cert.gap!r})"
        )
    if not gap > grid.tol:
        failures.append(f"certificate gap {gap!r} <= tol {grid.tol}")
    return failures


def grid_scan(seed: int) -> Workload:
    """Seeded expressions scanned against four weight systems on ~5M-sample grids.

    Every batch holds one expression of each shape, so batches cost the
    same and the median iteration is not a mix of cheap and dear scans.
    Expected verdicts follow from the mathematics:
    - a nonnegative classically convex f is a member of every class,
      because the Young and Nesbitt weights dominate (t, 1 - t);
    - f < 0 violates the Young and Nesbitt definitions at x = y, where
      w_x + w_y > 1, and a strictly concave f violates the classical one;
    - the concave check of a positive f fails for Young and Nesbitt for the
      same reason, and holds in the classical sense when f is concave.
    """
    rng = random.Random(seed)
    u = rng.uniform
    p_low = round(u(1.05, 1.95), 4)
    p_high = round(u(2.0, 10.0), 4)
    systems = [weights.classical(), weights.nesbitt(), weights.young(p_low),
               weights.young(p_high)]

    c2, c1 = u(0.5, 2.0), u(-1.0, 1.0)
    c0 = c1 * c1 / (4.0 * c2) + u(0.1, 1.0)  # minimum value stays >= 0.1
    a = u(-1.0, 0.0)
    poly = (f"{_fmt(c2)}*x^2 + {_fmt(c1)}*x + {_fmt(c0)}", Interval(a, a + u(2.0, 3.0)))
    a = u(-1.5, -0.5)
    comp = (f"exp(sqrt({_fmt(u(0.5, 2.0))} + ({_fmt(u(0.5, 1.2))}*x)^2))",
            Interval(a, a + u(2.0, 3.0)))
    a = u(-1.5, -0.5)
    negative = (f"-{_fmt(u(0.5, 2.0))} - {_fmt(u(0.5, 2.0))}*x^2",
                Interval(a, a + u(1.5, 3.0)))
    concave = (f"sqrt(x + {_fmt(u(0.5, 2.0))})", Interval(0.0, u(2.0, 4.0)))

    batches = []
    for ws in systems:
        is_classical = ws.kind is weights.WeightKind.CLASSICAL
        cases = [
            ("member_poly", poly, False, NO_VIOLATION),
            ("member_transcendental", comp, False, NO_VIOLATION),
            ("violator_negative", negative, False, VIOLATED),
            ("concave_sqrt", concave, True, NO_VIOLATION if is_classical else VIOLATED),
        ]
        batch = []
        for tag, (source, interval), is_concave, expected in cases:
            check = "concave" if is_concave else "convex"
            name = f"{tag}/{check}/{ws.label()}: {source} on [{_fmt(interval.a)}, {_fmt(interval.b)}]"
            batch.append(_scan_op(name, source, interval, ws, is_concave, expected))
        batches.append(batch)

    # ROADMAP item 4: exp(exp(x)) is convex and positive, so a member; the
    # absolute scan tolerance reports rounding at x = y as a violation
    probe = _scan_op(
        "probe exp(exp(x))/convex/classical on [0, 2.6]",
        "exp(exp(x))", Interval(0.0, 2.6), weights.classical(), False, NO_VIOLATION,
    )
    return Workload(batches, [probe])


# --- oracle-sweep ---------------------------------------------------------------

# p strata over (1, 10]; [1.98, 2) is left to the probe below
P_STRATA = ((1.0, 1.25), (1.25, 1.5), (1.5, 1.98), (2.0, 3.0), (3.0, 5.0), (5.0, 10.0))
# several draws per stratum and pair shape, so one iteration averages over
# the p-dependence of the oracle's cost and lasts about as long as the other
# workloads' iterations
P_PER_STRATUM = 16
PAIRS_PER_SHAPE = 8


def _young_rows(p: float) -> list[str]:
    names = ["young_m10", "young_m01", "young_m20"]
    if p < 2.0:
        names.append("young_m02")
    return names + ["young_m11", "young_m11_theorem_display", "young_w_sum"]


NESBITT_ROWS = ["nesbitt_m10", "nesbitt_m01", "nesbitt_m20", "nesbitt_m02",
                "nesbitt_m11", "nesbitt_ordered_coeff", "nesbitt_w_sum"]


def _constants_op(name: str, p_values: list[float]) -> Op:
    expected = [(row, p) for p in p_values for row in _young_rows(p)]
    expected += [(row, None) for row in NESBITT_ROWS]

    def check(rows):
        got = {(r.name, r.p): r for r in rows}
        failures = []
        for key in expected:
            row = got.get(key)
            if row is None:
                failures.append(f"row {key} missing")
            elif row.name == "young_m11_theorem_display":
                if row.note != "erratum candidate":
                    failures.append(f"row {key} lost its erratum-candidate note")
            elif not row.abs_diff <= 1e-9:
                failures.append(f"row {key}: |closed form - oracle| = {row.abs_diff!r} > 1e-9")
        if len(rows) != len(expected):
            failures.append(f"{len(rows)} rows, expected {len(expected)}")
        return failures

    return Op(name, lambda: theorems.constants_table(p_values), check,
              outcomes=len(expected), items=len)


# A function is a list of terms (c, n, k) meaning c * x^n * exp(k x).


def _term_source(c, n, k) -> str:
    parts = [_fmt(c)]
    if n:
        parts.append("x" if n == 1 else f"x^{n}")
    if k:
        parts.append(f"exp({_fmt(k)}*x)")
    return "*".join(parts)


def _terms_value(terms, x: float) -> float:
    return sum(c * x**n * math.exp(k * x) for c, n, k in terms)


def _terms_product(f, g):
    return [(cf * cg, nf + ng, kf + kg) for cf, nf, kf in f for cg, ng, kg in g]


def _antiderivative(terms, x: float) -> float:
    total = 0.0
    for c, n, k in terms:
        if k == 0.0:
            total += c * x ** (n + 1) / (n + 1)
            continue
        # int x^n e^{kx} = e^{kx} sum_j (-1)^j n!/(n-j)! x^(n-j) / k^(j+1)
        s = 0.0
        for j in range(n + 1):
            s += (-1) ** j * math.perm(n, j) * x ** (n - j) / k ** (j + 1)
        total += c * math.exp(k * x) * s
    return total


def _average(terms, a: float, b: float) -> float:
    return (_antiderivative(terms, b) - _antiderivative(terms, a)) / (b - a)


def _beta(x: float, y: float) -> float:
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _young_product_coefficients(p: float) -> tuple[float, float, float]:
    """(int w_x^2, int w_y^2, int w_x w_y) of the Young weights, 1 < p < 2."""
    m20 = 1.0 / (p * (2.0 + p)) + (p - 1.0) / (p * (1.0 + p)) + (p - 1.0) ** 2 / (
        p * (2.0 + 3.0 * p))
    m02 = (((p - 1.0) / p) ** 2 * _beta(2.0 / p + 1.0, 3.0)
           + 2.0 * (p - 1.0) / p**2 * _beta(2.0 / p, 3.0)
           + 1.0 / p**2 * _beta(2.0 / p - 1.0, 3.0))
    m11 = (2.0 * (p - 1.0) / p**2 * _beta(2.0 / p + 1.0, 2.0)
           + ((p - 1.0) / p) ** 2 * _beta(2.0 / p + 2.0, 2.0)
           + 1.0 / p**2 * _beta(2.0 / p, 2.0))
    return m20, m02, m11


def _value_failures(report, expected: dict) -> list[str]:
    failures = []
    for attr, want in expected.items():
        got = getattr(report, attr)
        if not _close(got, want):
            failures.append(f"{attr} = {got!r}, closed form {want!r}")
    return failures


def _sandwich_check(expected: dict):
    def check(rep):
        failures = _value_failures(rep, expected)
        if not (rep.left_holds and rep.right_holds):
            failures.append(f"verdict ({rep.left_holds}, {rep.right_holds}) != (True, True)")
        return failures

    return check


def _product_failures(rep, expected: dict) -> list[str]:
    failures = _value_failures(rep, expected)
    if rep.holds is not True:
        failures.append("bound reported as failing; it holds for these f, g")
    return failures


def _product_check(expected: dict):
    return lambda rep: _product_failures(rep, expected)


def _pachpatte_check(upper: dict, lower: dict):
    def check(reps):
        return (["upper: " + s for s in _product_failures(reps[0], upper)]
                + ["lower: " + s for s in _product_failures(reps[1], lower)])

    return check


def _theorem_ops(tag: str, f_terms, g_terms, interval: Interval, p_s: float,
                 p_y: float) -> list[Op]:
    """Every sandwich and product theorem on one seeded pair (f, g).

    f and g are nonnegative, classically convex and increasing on the
    interval, so they belong to every class and are similarly ordered:
    each bound holds, and each value has a closed form.
    """
    f = parse_function(" + ".join(_term_source(*t) for t in f_terms))
    g = parse_function(" + ".join(_term_source(*t) for t in g_terms))
    a, b = interval.a, interval.b
    mid = interval.midpoint
    fa, fb, fm = (_terms_value(f_terms, x) for x in (a, b, mid))
    ga, gb, gm = (_terms_value(g_terms, x) for x in (a, b, mid))
    avg_f = _average(f_terms, a, b)
    avg_fg = _average(_terms_product(f_terms, g_terms), a, b)
    m_term = fa * ga + fb * gb
    n_term = fa * gb + fb * ga
    m10 = (p_s * p_s + 2.0 * p_s) / ((p_s + 1.0) * (2.0 * p_s + 1.0))
    m01 = 3.0 * p_s * p_s / ((p_s + 1.0) * (2.0 * p_s + 1.0))
    y20, y02, y11 = _young_product_coefficients(p_y)
    n_m = 125.0 / 6.0 - (147.0 / 8.0) * LN3
    n_n = (117.0 / 8.0) * LN3 - 95.0 / 6.0
    label = f"{tag} f={f.source}, g={g.source} on [{_fmt(a)}, {_fmt(b)}]"

    def op(name, run, check, outcomes=1):
        return Op(f"{name}/{label}", run, check, outcomes)

    def sandwich(left, right):
        return {"left_value": left, "middle_value": avg_f, "right_value": right}

    def product(bound):
        return {"integral_avg": avg_fg, "bound": bound}
    return [
        op("hadamard_classical", lambda: theorems.hadamard_classical(f, interval),
           _sandwich_check(sandwich(fm, 0.5 * (fa + fb)))),
        op(f"young_sandwich_p{p_s:g}", lambda: theorems.young_sandwich(f, interval, p_s),
           _sandwich_check(sandwich(2.0 ** (1.0 / p_s) * p_s / (p_s + 1.0) * fm,
                                    2.0 * p_s / (p_s + 1.0) * 0.5 * (fa + fb)))),
        op(f"young_right_bound_p{p_s:g}",
           lambda: theorems.young_right_bound(f, interval, p_s),
           _sandwich_check(sandwich(avg_f, m10 * fa + m01 * fb))),
        op("nesbitt_sandwich", lambda: theorems.nesbitt_sandwich(f, interval),
           _sandwich_check(sandwich(fm, (1.5 * LN3 - 1.0) * (fa + fb)))),
        op("pachpatte_bounds", lambda: theorems.pachpatte_bounds(f, g, interval),
           _pachpatte_check(
               product(m_term / 3.0 + n_term / 6.0),
               dict(product(m_term / 6.0 + n_term / 3.0),
                    midpoint_product=2.0 * fm * gm)),
           outcomes=2),
        op("nesbitt_product_bound",
           lambda: theorems.nesbitt_product_bound(f, g, interval),
           _product_check(product(n_m * m_term + n_n * n_term))),
        op("nesbitt_similarly_ordered_bound",
           lambda: theorems.nesbitt_similarly_ordered_bound(f, g, interval),
           _product_check(product((5.0 - (30.0 / 8.0) * LN3) * m_term))),
        op(f"young_product_bound_p{p_y:g}",
           lambda: theorems.young_product_bound(f, g, interval, p_y),
           _product_check(product(y20 * fa * ga + y02 * fb * gb + y11 * n_term))),
    ]


def oracle_sweep(seed: int) -> Workload:
    """constants_table over a stratified seeded sweep of p, plus every
    theorem on seeded (f, g) pairs whose integrals have closed forms.
    Every integral here converges."""
    rng = random.Random(seed)

    def u(lo, hi):
        # rounded so that the expression source and the closed form agree
        return float(_fmt(rng.uniform(lo, hi)))

    p_values = [round(max(rng.uniform(lo, hi), lo + 1e-3), 4)
                for lo, hi in P_STRATA for _ in range(P_PER_STRATUM)]

    def poly():
        return [(u(0.2, 2.0), 2, 0.0), (u(0.0, 1.0), 1, 0.0), (u(0.1, 1.0), 0, 0.0)]

    def expo():
        return [(u(0.5, 2.0), 0, u(0.2, 1.5))]

    pairs = []
    for _ in range(PAIRS_PER_SHAPE):
        a = u(0.0, 1.0)
        pairs.append(("poly*poly", poly(), poly(), Interval(a, a + u(0.5, 2.0))))
        a = u(-1.0, 1.0)
        pairs.append(("exp*exp", expo(), expo(), Interval(a, a + u(0.5, 2.0))))
        a = u(0.0, 1.0)
        pairs.append(("poly*exp", poly(), expo(), Interval(a, a + u(0.5, 2.0))))

    ops = [_constants_op(f"constants_table({len(p_values)} seeded p)", p_values)]
    for tag, f_terms, g_terms, interval in pairs:
        p_s = round(u(1.05, 10.0), 4)
        p_y = round(u(1.05, 1.95), 4)
        ops += _theorem_ops(tag, f_terms, g_terms, interval, p_s, p_y)

    # the desingularizing substitution for the m02 oracle underflows to
    # t = 0 for p in [1.984, 2) at the default quadrature settings
    probe = _constants_op("probe constants_table([1.99])", [1.99])
    return Workload([ops], [probe])


WORKLOADS = {
    "verify-paper": verify_paper,
    "grid-scan": grid_scan,
    "oracle-sweep": oracle_sweep,
}
