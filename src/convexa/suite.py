"""The verify-paper suite: every check of the paper's claims in one report.

Each check builder returns records {name, status, metric, threshold,
relation}; `verify_paper` runs them in a fixed order and derives the
overall verdict. Other layers are reached through module attributes
(`th.product_bound`, `w.young`, `expr.parse_function`) rather than
imported names, so wrappers installed on those modules (the per-layer
tracing in perfbench/tracing.py) see every call of a name they wrap. Each
bound goes through a theorem body (`th.sandwich`, `th.product_bound`,
...), which that tracer does not wrap. A battery item's bounds read one
`th.Average` of f and one of f*f, so each is integrated once and f is
called once per end and midpoint of each; they take the systems of the
battery's scan, so each closed-form moment table is computed once.
"""

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from . import membership as mb
from . import theorems as th
from . import weights as w
from .errors import DivergentCoefficient
from .quadrature import Interval, QuadSpec

SCHEMA_VERSION = "1"


class Overall(enum.Enum):
    ALL_HOLD = "AllHold"
    VIOLATION_FOUND = "ViolationFound"
    NUMERIC_FAILURE = "NumericFailure"


@dataclass(frozen=True)
class Report:
    config: dict
    results: list[dict]
    overall: Overall


BATTERY_SOURCES = ("x^2", "exp(x)", "x", "1", "x^4", "x+1")
BATTERY_INTERVALS = ((0.0, 1.0), (1.0, 3.0))
LEMMA_P_VALUES = (1.01, 1.1, 1.5, 2.0, 3.0, 10.0)
MOMENT_P_FULL = (1.01, 1.1, 1.5, 1.9)
MOMENT_P_FIRST_ONLY = (2.0, 3.0, 10.0)
SANDWICH_P_VALUES = (1.1, 1.5, 2.0)
PRODUCT_P_VALUES = (1.1, 1.5)

# Young p=2 equal-argument slack (3/2)/sqrt(2) - 1, the Proposition witness gap
NEGATIVE_CONST_GAP = 1.5 / 2.0**0.5 - 1.0


def _check(name, metric, threshold, relation, kind="violation", reason=None) -> dict:
    """A check record. A non-finite metric is written as None, which strict
    JSON reads as null, and only such a record carries a reason: why its
    metric has no value."""
    ok = metric >= threshold if relation == "ge" else metric <= threshold
    record = {
        "name": name,
        "status": "hold" if ok else ("numeric_failure" if kind == "numeric" else "violation"),
        "metric": float(metric),
        "threshold": float(threshold),
        "relation": relation,
    }
    if not math.isfinite(record["metric"]):
        record["metric"] = None
        record["reason"] = reason or "the metric is not finite"
    return record


def _oracle_gap(oracles: dict, label: str, key: str, exact: float):
    """(|exact - oracle value|, None), or (inf, why) where the oracle
    integral of key for the system label did not converge."""
    result = oracles[label, key]
    if not result.converged:
        return math.inf, f"oracle {key} of {label} did not converge: {result.stop_reason}"
    return abs(exact - result.value), None


def _membership_check(name, report: mb.MembershipReport, tol) -> dict:
    """A membership record: max_gap against tol, with the status of the
    scan's verdict, whose test scales tol by the compared values."""
    holds = report.verdict is mb.Verdict.NO_VIOLATION_AT_RESOLUTION
    return _check(name, report.max_gap, tol, "le") | {"status": "hold" if holds else "violation"}


def _lemma_checks() -> list[dict]:
    ts = np.linspace(1e-4, 1.0, 999)
    systems = [w.nesbitt()] + [w.young(p) for p in LEMMA_P_VALUES]
    out = []
    for ws in systems:
        margin = float((ws.lemma_rhs_arrays(ts) - 1.0).min())
        out.append(_check(f"lemma/{ws.label()}", margin, -1e-12, "ge"))
    return out


# oracle integrals that later checks read, by system label: they run in the
# moment checks' oracle call, so each round weighs a system's panels once
# for all of its integrals
LATER_ORACLES = {
    "young(p=2)": {"m02": w.MOMENT_INTEGRANDS["m02"]},
    "nesbitt": {"square": (lambda wx, wy: (wx + wy) ** 2, (0, 2))},
}


def _moment_checks(quad: QuadSpec) -> tuple[list[dict], dict]:
    """The moment checks, and the oracle values of their integrals and of
    LATER_ORACLES keyed by (label, key): each QuadResult, whose stop_reason
    a failed check names. Every integral runs in one lockstep oracle call."""
    every = tuple(w.MOMENT_INTEGRANDS)
    cases = [(w.young(p), every) for p in MOMENT_P_FULL]
    cases += [(w.young(p), ("m10", "m01")) for p in MOMENT_P_FIRST_ONLY]
    cases.append((w.nesbitt(), every))
    oracle_cases = [
        (ws, {key: w.MOMENT_INTEGRANDS[key] for key in keys} | LATER_ORACLES.get(ws.label(), {}))
        for ws, keys in cases
    ]
    oracles = {}
    for (ws, terms), results in w.oracle(oracle_cases, quad):
        for key, res in zip(terms, results):
            oracles[ws.label(), key] = res
    out = []
    for ws, keys in cases:
        closed = ws.moments_closed_form().entries()
        for key in keys:
            diff, why = _oracle_gap(oracles, ws.label(), key, closed[key])
            out.append(_check(f"moments/{ws.label()}/{key}", diff, 1e-9, "le",
                              kind="numeric", reason=why))
    return out, oracles


def _erratum_checks(oracles: dict) -> list[dict]:
    cross = w.moment_value(oracles["young(p=1.5)", "m11"])
    if cross is None:
        _, why = _oracle_gap(oracles, "young(p=1.5)", "m11", 0.0)
        return [_check("erratum/oracle_p1.5", math.inf, 1e-9, "le", kind="numeric",
                       reason=why)]
    proof = w.young_cross_moment_proof_display(1.5)
    theorem = w.young_cross_moment_theorem_display(1.5)
    diff_p2 = abs(
        w.young_cross_moment_proof_display(2.0) - w.young_cross_moment_theorem_display(2.0)
    )
    return [
        _check("erratum/proof_display_matches_oracle_p1.5", abs(cross - proof), 1e-9, "le"),
        _check("erratum/theorem_display_deviates_p1.5", abs(cross - theorem), 0.04, "ge"),
        _check("erratum/displays_coincide_p2", diff_p2, 1e-9, "le"),
    ]


def _divergence_checks(quad: QuadSpec, oracles: dict) -> list[dict]:
    out = []
    f1 = expr.parse_function("x")
    for p in (2.0, 3.0):
        try:
            th.product_bound(w.young(p), th.Average(f1, Interval(0.0, 1.0), quad, f1))
            raised = 0.0
        except DivergentCoefficient:
            raised = 1.0
        out.append(_check(f"divergence/young_product_p{w.exponent_text(p)}", raised, 0.5, "ge"))
    diverged = 0.0 if oracles["young(p=2)", "m02"].converged else 1.0
    out.append(_check("divergence/young_m02_integrand_p2", diverged, 0.5, "ge"))
    return out


def _battery() -> list[tuple[expr.FunctionDef, Interval, str]]:
    items = []
    for a, b in BATTERY_INTERVALS:
        for src in BATTERY_SOURCES:
            items.append((expr.parse_function(src), Interval(a, b), f"{src}@[{a:g},{b:g}]"))
    return items


def _slack(rep: th.ProductBoundReport) -> float:
    """How far a product bound holds; negative when it fails."""
    if rep.midpoint_product is None:
        return rep.bound - rep.integral_avg
    return rep.integral_avg + rep.bound - rep.midpoint_product


def _bound_margins(
    f: expr.FunctionDef, interval: Interval, members: dict[str, w.WeightSystem], quad: QuadSpec
) -> list[tuple[str, float]]:
    """(check name, margin) of each bound of the classes f belongs to, in
    report order; members maps each such class name to its battery system."""
    mean, square = th.Average(f, interval, quad), th.Average(f, interval, quad, f)
    out = []
    if (ws := members.get("classical")) is not None:
        out += [
            ("sandwich/hadamard", min(th.sandwich(ws, mean).margins)),
            ("product/pachpatte_upper", _slack(th.product_bound(ws, square))),
            ("product/pachpatte_lower", _slack(th.pachpatte_lower(square))),
        ]
    for p in map(w.exponent_text, SANDWICH_P_VALUES):
        if (ws := members.get(f"young_p{p}")) is not None:
            out += [
                (f"sandwich/young_p{p}", min(th.sandwich(ws, mean).margins)),
                (f"right_bound/young_p{p}", th.right_bound(ws, mean).margins[1]),
            ]
    for p in map(w.exponent_text, PRODUCT_P_VALUES):
        if (ws := members.get(f"young_p{p}")) is not None:
            out.append((f"product/young_p{p}", _slack(th.product_bound(ws, square))))
    if (ws := members.get("nesbitt")) is not None:
        out += [
            ("sandwich/nesbitt", min(th.sandwich(ws, mean).margins)),
            ("product/nesbitt_a3", _slack(th.product_bound(ws, square))),
            ("product/nesbitt_a5", _slack(th.similarly_ordered_bound(square))),
        ]
    return out


def _battery_checks(quad: QuadSpec, grid: mb.GridSpec) -> list[dict]:
    out = []
    classes = [("classical", w.classical()), ("nesbitt", w.nesbitt())]
    classes += [(f"young_p{w.exponent_text(p)}", w.young(p)) for p in SANDWICH_P_VALUES]
    systems = [ws for _, ws in classes]
    for f, interval, tag in _battery():
        members: dict[str, w.WeightSystem] = {}
        reports = mb.check_classes(f, interval, systems, grid)
        for (cname, ws), report in zip(classes, reports):
            out.append(_membership_check(f"membership/{tag}/{cname}", report, grid.tol))
            if out[-1]["status"] == "hold":
                members[cname] = ws
        for name, margin in _bound_margins(f, interval, members, quad):
            out.append(_check(f"{name}/{tag}", margin, -1e-8, "ge"))
    return out


def _degeneration_checks(quad: QuadSpec) -> list[dict]:
    out = []
    young, classical = w.young(1.0 + 1e-8), w.classical()
    table = young.moments_closed_form()
    out.append(
        _check(
            "degeneration/right_coefficients",
            max(abs(table.m10 - 0.5), abs(table.m01 - 0.5)),
            1e-6,
            "le",
        )
    )
    for src, (a, b) in (("x^2", (0.0, 1.0)), ("exp(x)", (1.0, 3.0))):
        mean = th.Average(expr.parse_function(src), Interval(a, b), quad)
        ys = th.sandwich(young, mean)
        yr = th.right_bound(young, mean)
        hc = th.sandwich(classical, mean)
        metric = max(
            abs(ys.left_value - hc.left_value),
            abs(ys.right_value - hc.right_value),
            abs(yr.right_value - hc.right_value),
        )
        out.append(
            _check(f"degeneration/young_vs_hadamard/{src}@[{a:g},{b:g}]", metric, 1e-6, "le")
        )
    return out


def _proposition_checks(grid: mb.GridSpec) -> list[dict]:
    out = []
    f = expr.parse_function("-1")
    interval = Interval(0.0, 1.0)
    ws = w.young(2.0)
    # canonical Proposition witness: a t-grid whose first point is 1/2
    witness_grid = dataclasses.replace(grid, nt=2, t_min=0.5)
    report = mb.check_convex(f, interval, ws, witness_grid)
    cert = report.certificate
    metric = (
        abs(cert.gap - NEGATIVE_CONST_GAP) + abs(cert.t - 0.5)
        if report.verdict is mb.Verdict.VIOLATED
        else 1.0
    )
    out.append(_check("proposition/negative_constant_gap_at_half", metric, 1e-4, "le"))
    default_report = mb.check_convex(f, interval, ws, grid)
    out.append(
        _check(
            "proposition/negative_constant_default_grid",
            1.0 if default_report.verdict is mb.Verdict.VIOLATED else 0.0,
            0.5,
            "ge",
        )
    )
    witness = mb.nonnegativity_witness(expr.parse_function("x-0.5"), interval, 41)
    out.append(
        _check(
            "proposition/nonnegativity_witness",
            abs(witness - 0.0) if witness is not None else 1.0,
            0.0,
            "le",
        )
    )
    return out


def _equality_checks(quad: QuadSpec) -> list[dict]:
    interval, classical = Interval(0.0, 1.0), w.classical()
    fx, one = expr.parse_function("x"), expr.parse_function("1")
    square, ones = th.Average(fx, interval, quad, fx), th.Average(one, interval, quad, one)
    reports = {
        "upper_fx": th.product_bound(classical, square),
        "lower_fx": th.pachpatte_lower(square),
        "upper_const1": th.product_bound(classical, ones),
    }
    return [
        _check(f"pachpatte/equality_{name}", abs(_slack(rep)), 1e-10, "le")
        for name, rep in reports.items()
    ]


def _constant_checks(oracles: dict) -> list[dict]:
    table = w.nesbitt().moments_closed_form()
    ordered = table.m20 + table.m11
    square = table.m20 + 2.0 * table.m11 + table.m02
    gap, why = _oracle_gap(oracles, "nesbitt", "square", square)
    return [
        _check("constants/nesbitt_right_decimal",
               abs(th.NESBITT_RIGHT_COEFF - 0.6479184330), 1e-10, "le"),
        _check("constants/a5_paper_decimal", abs(th.NESBITT_ORDERED_COEFF - 0.8802), 5e-5, "le"),
        _check("constants/a5_is_sum_of_a3", abs(th.NESBITT_ORDERED_COEFF - ordered), 1e-12, "le"),
        _check("constants/nesbitt_square_expansion", gap, 1e-9, "le", kind="numeric",
               reason=why),
    ]


def verify_paper(quad: QuadSpec = QuadSpec()) -> Report:
    """Run the full verification suite and collect a deterministic report."""
    grid = mb.GridSpec()
    results: list[dict] = []
    results += _lemma_checks()
    moment_results, oracles = _moment_checks(quad)
    results += moment_results
    results += _erratum_checks(oracles)
    results += _divergence_checks(quad, oracles)
    results += _battery_checks(quad, grid)
    results += _degeneration_checks(quad)
    results += _proposition_checks(grid)
    results += _equality_checks(quad)
    results += _constant_checks(oracles)
    statuses = {r["status"] for r in results}
    if "numeric_failure" in statuses:
        overall = Overall.NUMERIC_FAILURE
    elif "violation" in statuses:
        overall = Overall.VIOLATION_FOUND
    else:
        overall = Overall.ALL_HOLD
    config = {"subcommand": "verify-paper", "quad": dataclasses.asdict(quad),
              "grid": dataclasses.asdict(grid)}
    return Report(config, results, overall)
