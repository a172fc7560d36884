"""The verify-paper suite: every check of the paper's claims in one report.

Each check builder returns records {name, status, metric, threshold,
relation}; `verify_paper` runs them in a fixed order and derives the
overall verdict. Other layers are reached through module attributes
(`th.young_sandwich`, `w.young`, `expr.parse_function`) rather than
imported names, so wrappers installed on those modules (the per-layer
tracing in perfbench/tracing.py) see every call.
"""

import dataclasses
import enum
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
    schema_version: str
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


def _check(name, metric, threshold, relation, kind="violation") -> dict:
    ok = metric >= threshold if relation == "ge" else metric <= threshold
    return {
        "name": name,
        "status": "hold" if ok else ("numeric_failure" if kind == "numeric" else "violation"),
        "metric": float(metric),
        "threshold": float(threshold),
        "relation": relation,
    }


def _lemma_checks() -> list[dict]:
    ts = np.linspace(1e-4, 1.0, 999)
    systems = [w.nesbitt()] + [w.young(p) for p in LEMMA_P_VALUES]
    out = []
    for ws in systems:
        margin = float((ws.lemma_rhs_arrays(ts) - 1.0).min())
        out.append(_check(f"lemma/{ws.label()}", margin, -1e-12, "ge"))
    return out


def _moment_checks(quad: QuadSpec) -> list[dict]:
    every = tuple(w.MOMENT_INTEGRANDS)
    cases = [(w.young(p), every) for p in MOMENT_P_FULL]
    cases += [(w.young(p), ("m10", "m01")) for p in MOMENT_P_FIRST_ONLY]
    cases.append((w.nesbitt(), every))
    out = []
    for ws, keys in cases:
        closed = ws.moments_closed_form().entries()
        for key in keys:
            oracle = ws.moment(key, quad)
            diff = float("inf") if oracle is None else abs(closed[key] - oracle)
            out.append(
                _check(f"moments/{ws.label()}/{key}", diff, 1e-9, "le", kind="numeric")
            )
    return out


def _erratum_checks(quad: QuadSpec) -> list[dict]:
    cross = w.young(1.5).moment("m11", quad)
    if cross is None:
        return [_check("erratum/oracle_p1.5", float("inf"), 1e-9, "le", kind="numeric")]
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


def _divergence_checks(quad: QuadSpec) -> list[dict]:
    out = []
    f1 = expr.parse_function("x")
    for p in (2.0, 3.0):
        try:
            th.young_product_bound(f1, f1, Interval(0.0, 1.0), p, quad)
            raised = 0.0
        except DivergentCoefficient:
            raised = 1.0
        out.append(_check(f"divergence/young_product_p{p:g}", raised, 0.5, "ge"))
    m02 = w.young(2.0).moment("m02", quad)
    diverged = 1.0 if m02 is None else 0.0
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
    f: expr.FunctionDef, interval: Interval, members: dict[str, bool], quad: QuadSpec
) -> list[tuple[str, float]]:
    """(check name, margin) of each bound of the classes f belongs to, in report order."""
    out = []
    if members["classical"]:
        hadamard = th.hadamard_classical(f, interval, quad)
        upper, lower = th.pachpatte_bounds(f, f, interval, quad)
        out += [
            ("sandwich/hadamard", min(hadamard.margins)),
            ("product/pachpatte_upper", _slack(upper)),
            ("product/pachpatte_lower", _slack(lower)),
        ]
    for p in SANDWICH_P_VALUES:
        if members[f"young_p{p:g}"]:
            sandwich = th.young_sandwich(f, interval, p, quad)
            right = th.young_right_bound(f, interval, p, quad)
            out += [
                (f"sandwich/young_p{p:g}", min(sandwich.margins)),
                (f"right_bound/young_p{p:g}", right.margins[1]),
            ]
    for p in PRODUCT_P_VALUES:
        if members[f"young_p{p:g}"]:
            rep = th.young_product_bound(f, f, interval, p, quad)
            out.append((f"product/young_p{p:g}", _slack(rep)))
    if members["nesbitt"]:
        sandwich = th.nesbitt_sandwich(f, interval, quad)
        a3 = th.nesbitt_product_bound(f, f, interval, quad)
        a5 = th.nesbitt_similarly_ordered_bound(f, f, interval, quad)
        out += [
            ("sandwich/nesbitt", min(sandwich.margins)),
            ("product/nesbitt_a3", _slack(a3)),
            ("product/nesbitt_a5", _slack(a5)),
        ]
    return out


def _battery_checks(quad: QuadSpec, grid: mb.GridSpec) -> list[dict]:
    out = []
    classes = [("classical", w.classical()), ("nesbitt", w.nesbitt())]
    classes += [(f"young_p{p:g}", w.young(p)) for p in SANDWICH_P_VALUES]
    systems = [ws for _, ws in classes]
    for f, interval, tag in _battery():
        members: dict[str, bool] = {}
        reports = mb.check_classes(f, interval, systems, grid)
        for (cname, _), report in zip(classes, reports):
            members[cname] = report.verdict is mb.Verdict.NO_VIOLATION_AT_RESOLUTION
            out.append(
                _check(f"membership/{tag}/{cname}", report.max_gap, grid.tol, "le")
            )
        for name, margin in _bound_margins(f, interval, members, quad):
            out.append(_check(f"{name}/{tag}", margin, -1e-8, "ge"))
    return out


def _degeneration_checks(quad: QuadSpec) -> list[dict]:
    out = []
    p = 1.0 + 1e-8
    table = w.young(p).moments_closed_form()
    out.append(
        _check(
            "degeneration/right_coefficients",
            max(abs(table.m10 - 0.5), abs(table.m01 - 0.5)),
            1e-6,
            "le",
        )
    )
    for src, (a, b) in (("x^2", (0.0, 1.0)), ("exp(x)", (1.0, 3.0))):
        f = expr.parse_function(src)
        interval = Interval(a, b)
        ys = th.young_sandwich(f, interval, p, quad)
        yr = th.young_right_bound(f, interval, p, quad)
        hc = th.hadamard_classical(f, interval, quad)
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
    witness_grid = mb.GridSpec(
        nx=grid.nx, ny=grid.ny, nt=2, t_min=0.5, tol=grid.tol
    )
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
    interval = Interval(0.0, 1.0)
    fx = expr.parse_function("x")
    upper_fx, lower_fx = th.pachpatte_bounds(fx, fx, interval, quad)
    one = expr.parse_function("1")
    upper_one, _ = th.pachpatte_bounds(one, one, interval, quad)
    reports = {"upper_fx": upper_fx, "lower_fx": lower_fx, "upper_const1": upper_one}
    return [
        _check(f"pachpatte/equality_{name}", abs(_slack(rep)), 1e-10, "le")
        for name, rep in reports.items()
    ]


def _constant_checks(quad: QuadSpec) -> list[dict]:
    ws = w.nesbitt()
    table = ws.moments_closed_form()
    ordered = table.m20 + table.m11
    square = table.m20 + 2.0 * table.m11 + table.m02
    res = ws.integral(lambda wx, wy: (wx + wy) ** 2, (0, 2), quad)
    return [
        _check("constants/nesbitt_right_decimal",
               abs(th.NESBITT_RIGHT_COEFF - 0.6479184330), 1e-10, "le"),
        _check("constants/a5_paper_decimal", abs(th.NESBITT_ORDERED_COEFF - 0.8802), 5e-5, "le"),
        _check("constants/a5_is_sum_of_a3", abs(th.NESBITT_ORDERED_COEFF - ordered), 1e-12, "le"),
        _check("constants/nesbitt_square_expansion",
               abs(square - res.value) if res.converged else float("inf"), 1e-9, "le",
               kind="numeric"),
    ]


def verify_paper(quad: QuadSpec = QuadSpec()) -> Report:
    """Run the full verification suite and collect a deterministic report."""
    grid = mb.GridSpec()
    results: list[dict] = []
    results += _lemma_checks()
    results += _moment_checks(quad)
    results += _erratum_checks(quad)
    results += _divergence_checks(quad)
    results += _battery_checks(quad, grid)
    results += _degeneration_checks(quad)
    results += _proposition_checks(grid)
    results += _equality_checks(quad)
    results += _constant_checks(quad)
    statuses = {r["status"] for r in results}
    if "numeric_failure" in statuses:
        overall = Overall.NUMERIC_FAILURE
    elif "violation" in statuses:
        overall = Overall.VIOLATION_FOUND
    else:
        overall = Overall.ALL_HOLD
    config = {"subcommand": "verify-paper", "quad": dataclasses.asdict(quad),
              "grid": dataclasses.asdict(grid)}
    return Report(SCHEMA_VERSION, config, results, overall)
