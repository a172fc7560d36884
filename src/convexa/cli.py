"""Command-line front end: argument handling and report rendering.

Subcommands: check (membership grid search), sandwich, product, constants,
moments, verify-paper (the suite in `suite.py`). Reports are emitted as
text, JSON (schema_version "1", byte-stable across runs), or CSV with '.'
decimals and 17 significant digits.

Exit codes: 0 all checks hold, 1 violation or failed inequality, 2 usage or
parse error or an unwritable --out, 3 numeric failure (any ArithmeticError:
non-convergence, divergence, overflow or a non-finite value). Every failure
is one "error: ..." line on stderr, argparse's usage errors included.
"""

import argparse
import dataclasses
import json
import sys
import textwrap
from typing import Any

from . import membership as mb
from . import theorems as th
from . import weights as w
from .errors import DomainError, OrderingError
from .expr import GRAMMAR, ExprDomainError, ExprSyntaxError, parse_function
from .quadrature import Interval, QuadSpec
from .suite import SCHEMA_VERSION, Overall, Report, verify_paper

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRAMMAR_HELP = (
    "expression grammar (EBNF):\n"
    + textwrap.indent(GRAMMAR, "  ")
    + '"^" is real power: repeated multiplication for constant integer exponents,\n'
    "exp(y*ln x) with x > 0 otherwise.\n"
)

_EXIT_BY_OVERALL = {
    Overall.ALL_HOLD: EXIT_OK,
    Overall.VIOLATION_FOUND: EXIT_VIOLATION,
    Overall.NUMERIC_FAILURE: EXIT_NUMERIC,
}


# --- report assembly -----------------------------------------------------------


def _record(kind: str, name: str, payload: dict) -> dict:
    return {"kind": kind, "name": name} | payload


def _membership_payload(report: mb.MembershipReport) -> dict:
    payload = dataclasses.asdict(report)
    if report.certificate is None:
        del payload["certificate"]
    return payload | {"verdict": report.verdict.value}


def _holds(ok: bool) -> Overall:
    return Overall.ALL_HOLD if ok else Overall.VIOLATION_FOUND


# --- output formatting ----------------------------------------------------------


def _fmt(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _flatten(value: Any, prefix: str = "", out: dict | None = None) -> dict:
    out = {} if out is None else out
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value
    return out


def report_to_json(report: Report) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": report.config,
        "results": report.results,
        "overall": report.overall.value,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def report_to_text(report: Report) -> str:
    lines = [f"overall: {report.overall.value}"]
    for rec in report.results:
        if "status" in rec and "metric" in rec:
            mark = "PASS" if rec["status"] == "hold" else "FAIL"
            lines.append(
                f"[{mark}] {rec['name']}: metric={_fmt(rec['metric'])} "
                f"{rec['relation']} threshold={_fmt(rec['threshold'])}"
                + (f" ({rec['reason']})" if "reason" in rec else "")
            )
            continue
        flat = _flatten(rec)
        name = flat.pop("name", "")
        kind = flat.pop("kind", "")
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in flat.items())
        lines.append(f"{kind} {name}: {parts}")
    return "\n".join(lines) + "\n"


def report_to_csv(report: Report) -> str:
    rows = report.results
    if all(r.get("kind") == "constants" for r in rows):
        keys = ["name", "p", "closed_form", "oracle", "abs_diff"]
    elif all("metric" in r for r in rows):
        keys = ["name", "status", "relation", "metric", "threshold"]
        keys += ["reason"] * any("reason" in r for r in rows)
    else:
        rows = [_flatten(r) for r in rows]
        keys = list(dict.fromkeys(k for flat in rows for k in flat))
    lines = [",".join(keys)] + [",".join(_fmt(r.get(k)) for k in keys) for r in rows]
    return "\n".join(lines) + "\n"


# --format name -> renderer
_RENDERERS = {"text": report_to_text, "json": report_to_json, "csv": report_to_csv}


def render(report: Report, fmt: str) -> str:
    return _RENDERERS[fmt](report)


# --- argument handling -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for `run` to report instead of printing usage."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convexa",
        description="Numerical verification of Young-/Nesbitt-convexity and "
        "their Hadamard-type inequalities.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # the input groups, each declared once; a subcommand lists those it reads
    function = argparse.ArgumentParser(add_help=False)
    function.add_argument("--f", dest="f_source", required=True, help="function of x")
    weight_class = argparse.ArgumentParser(add_help=False)
    weight_class.add_argument("--class", dest="convexity_class", required=True,
                              choices=[k.value for k in w.WeightKind])
    weight_class.add_argument("--p", type=float, help="Young exponent (p > 1)")
    interval = argparse.ArgumentParser(add_help=False)
    interval.add_argument("--a", type=float, required=True)
    interval.add_argument("--b", type=float, required=True)
    exponents = argparse.ArgumentParser(add_help=False)
    exponents.add_argument("--p", type=float, action="append",
                           help="Young exponent; repeatable")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=list(_RENDERERS), default="text")
    output.add_argument("--out", help="write the report to this path")
    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument("--abs-tol", type=float, default=QuadSpec.abs_tol)
    quadrature.add_argument("--rel-tol", type=float, default=QuadSpec.rel_tol)
    quadrature.add_argument("--max-subdivisions", type=int, default=QuadSpec.max_subdivisions)
    theorem_groups = [function, weight_class, interval, output, quadrature]

    sp = sub.add_parser("check", parents=[function, weight_class, interval, output],
                        help="grid-search membership test")
    sp.set_defaults(command=_cmd_check)
    sp.add_argument("--nx", type=int, default=mb.GridSpec.nx)
    sp.add_argument("--ny", type=int, default=mb.GridSpec.ny)
    sp.add_argument("--nt", type=int, default=mb.GridSpec.nt)
    sp.add_argument("--t-min", type=float, default=mb.GridSpec.t_min)
    sp.add_argument("--tol", type=float, default=mb.GridSpec.tol)
    sp = sub.add_parser("sandwich", parents=theorem_groups,
                        help="evaluate the class's sandwich inequality")
    sp.set_defaults(command=_cmd_sandwich)
    sp = sub.add_parser("product", parents=theorem_groups,
                        help="evaluate the class's product bound(s)")
    sp.set_defaults(command=_cmd_product)
    sp.add_argument("--g", dest="g_source", required=True, help="second function of x")
    sp = sub.add_parser("constants", parents=[exponents, output, quadrature],
                        help="closed-form constants vs quadrature oracle")
    sp.set_defaults(command=_cmd_constants)
    sp = sub.add_parser("moments", parents=[weight_class, output, quadrature],
                        help="weight moments: closed form and quadrature")
    sp.set_defaults(command=_cmd_moments)
    sp = sub.add_parser("verify-paper", parents=[output, quadrature],
                        help="run the full verification suite")
    sp.set_defaults(command=lambda args: verify_paper(_quad_spec(args)))
    return parser


def _quad_spec(args) -> QuadSpec:
    return QuadSpec(
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        max_subdivisions=args.max_subdivisions,
    )


def _weight_system(args) -> w.WeightSystem:
    return w.WeightSystem(w.WeightKind(args.convexity_class), args.p)


def _config_echo(args) -> dict:
    return {key: value for key, value in sorted(vars(args).items())
            if key not in ("out", "command")}


def _cmd_check(args) -> Report:
    f = parse_function(args.f_source)
    ws = _weight_system(args)
    grid = mb.GridSpec(args.nx, args.ny, args.nt, args.t_min, args.tol)
    report = mb.check_convex(f, Interval(args.a, args.b), ws, grid)
    rec = _record("membership", f"{args.f_source}/{ws.label()}", _membership_payload(report))
    overall = _holds(report.verdict is mb.Verdict.NO_VIOLATION_AT_RESOLUTION)
    return Report(_config_echo(args), [rec], overall)


# record names of each class's sandwich and product bound, a Young one
# followed by _p and the exponent
_THEOREM_NAMES = {
    w.WeightKind.CLASSICAL: ("hadamard_classical", "pachpatte_upper"),
    w.WeightKind.YOUNG: ("young_sandwich", "young_product"),
    w.WeightKind.NESBITT: ("nesbitt_sandwich", "nesbitt_product"),
}


def _theorem_names(ws: w.WeightSystem) -> list[str]:
    suffix = "" if ws.p is None else f"_p{w.exponent_text(ws.p)}"
    return [stem + suffix for stem in _THEOREM_NAMES[ws.kind]]


def _cmd_sandwich(args) -> Report:
    f = parse_function(args.f_source)
    ws = _weight_system(args)
    rep = th.sandwich(ws, th.Average(f, Interval(args.a, args.b), _quad_spec(args)))
    rec = _record("sandwich", _theorem_names(ws)[0], dataclasses.asdict(rep))
    overall = _holds(rep.left_holds and rep.right_holds)
    return Report(_config_echo(args), [rec], overall)


def _cmd_product(args) -> Report:
    f = parse_function(args.f_source)
    g = parse_function(args.g_source)
    ws = _weight_system(args)
    mean = th.Average(f, Interval(args.a, args.b), _quad_spec(args), g)
    reports = {_theorem_names(ws)[1]: th.product_bound(ws, mean)}
    if ws.kind is w.WeightKind.CLASSICAL:
        reports["pachpatte_lower"] = th.pachpatte_lower(mean)
    if ws.kind is w.WeightKind.NESBITT:
        try:
            reports["nesbitt_similarly_ordered"] = th.similarly_ordered_bound(mean)
        except OrderingError:
            pass  # the ordered bound only applies to similarly ordered f, g
    records = [
        _record("product", name, dataclasses.asdict(rep)) for name, rep in reports.items()
    ]
    overall = _holds(all(r["holds"] for r in records))
    return Report(_config_echo(args), records, overall)


def _cmd_constants(args) -> Report:
    p_values = args.p if args.p else [1.5]
    rows = th.constants_table(p_values, _quad_spec(args))
    records = [_record("constants", row.name, dataclasses.asdict(row)) for row in rows]
    return Report(_config_echo(args), records, Overall.ALL_HOLD)


def _cmd_moments(args) -> Report:
    ws = _weight_system(args)
    closed = ws.moments_closed_form().entries()
    oracle = ws.moments(_quad_spec(args)).entries()
    records = []
    for key, c in closed.items():
        o = oracle[key]
        payload = {
            "closed_form": c,
            "oracle": o,
            "defined": c is not None,
            "abs_diff": None if c is None or o is None else abs(c - o),
        }
        records.append(_record("moments", f"{ws.label()}/{key}", payload))
    agree = all((c is None) == (oracle[key] is None) for key, c in closed.items())
    overall = Overall.ALL_HOLD if agree else Overall.NUMERIC_FAILURE
    return Report(_config_echo(args), records, overall)


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join "--opt -x^2" into "--opt=-x^2", which argparse would read as two
    options: every option but -h is spelled with "--", so a token after an
    option that starts with one "-" and is not -h is the option's value."""
    out: list[str] = []
    for arg in argv:
        if (
            out
            and out[-1].startswith("--")
            and "=" not in out[-1]
            and arg.startswith("-")
            and not arg.startswith("--")
            and arg != "-h"
        ):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(_attach_dash_values(argv))
        report = args.command(args)
        text = render(report, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except SystemExit:  # --help has printed
        return EXIT_OK
    except (argparse.ArgumentError, ExprSyntaxError, ExprDomainError, DomainError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return _EXIT_BY_OVERALL[report.overall]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
