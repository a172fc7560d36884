import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexa import suite, theorems
from convexa.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    Overall,
    render,
    run,
    verify_paper,
)
from convexa.quadrature import QuadSpec, integrate


def test_check_passes(capsys):
    code = run(["check", "--f", "x^2", "--class", "nesbitt", "--a", "0", "--b", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "NoViolationAtResolution" in out
    assert "overall: AllHold" in out


def test_check_violation_exit_code(capsys):
    code = run(
        ["check", "--f", "-1", "--class", "young", "--p", "2", "--a", "0", "--b", "1"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATION
    assert "Violated" in out


def test_sandwich_json(capsys):
    code = run(
        [
            "sandwich",
            "--f",
            "x",
            "--class",
            "young",
            "--p",
            "2",
            "--a",
            "0",
            "--b",
            "1",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    record = payload["results"][0]
    assert record["left_value"] == pytest.approx(0.4714045207910317, abs=1e-12)
    assert record["middle_value"] == pytest.approx(0.5, abs=1e-10)
    assert record["right_value"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert payload["overall"] == "AllHold"


def test_constants_csv_contains_erratum_row(capsys):
    code = run(["constants", "--p", "1.5", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "name,p,closed_form,oracle,abs_diff"
    erratum = [l for l in lines if l.startswith("young_m11_theorem_display")]
    assert len(erratum) == 1
    abs_diff = float(erratum[0].split(",")[4])
    assert abs(abs_diff - 0.042857142857142858) <= 1e-4


def test_constants_decimal_format(capsys):
    run(["constants", "--p", "1.5", "--format", "csv"])
    out = capsys.readouterr().out
    assert "," in out and ";" not in out
    for line in out.strip().splitlines()[1:]:
        for cell in line.split(",")[2:]:
            if cell:
                float(cell)  # parses with '.' decimal


def test_product_divergent_exit_code(capsys):
    code = run(
        [
            "product",
            "--f",
            "x",
            "--g",
            "x",
            "--class",
            "young",
            "--p",
            "2",
            "--a",
            "0",
            "--b",
            "1",
        ]
    )
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert "beta" in err


@pytest.mark.parametrize("p,suffix", [("1.5", "1.5"), ("1.9999999999", "1.9999999999")])
def test_young_record_names_read_back_as_p(p, suffix, capsys):
    for sub, extra in (("sandwich", []), ("product", ["--g", "x"])):
        code = run([sub, "--f", "x", *extra, "--class", "young", "--p", p,
                    "--a", "0", "--b", "1", "--format", "json"])
        (record,) = json.loads(capsys.readouterr().out)["results"]
        assert code == EXIT_OK
        assert record["name"] == f"young_{sub}_p{suffix}"


@pytest.mark.parametrize("p", ["8e153", "1.3e154", "1e300", "1.7e308"])
def test_young_sandwich_finite_until_2p_overflows(p):
    """The closed-form moments stop where 3p^2 overflows (~7.7e153); the
    sandwich's bracket 2p/(p+1) only where 2p does (~9e307)."""
    argv = ["sandwich", "--f", "x", "--class", "young", "--p", p, "--a", "0", "--b", "1",
            "--format", "json"]
    code, out, err = _run_strict(argv)
    if float(p) * 2.0 == float("inf"):
        _assert_strict(code, out, err, EXIT_NUMERIC,
                       "error: bound member right is not finite: inf")
        return
    assert (code, err) == (EXIT_OK, "")
    (rec,) = json.loads(out)["results"]
    assert all(math.isfinite(rec[k]) for k in ("left_value", "middle_value", "right_value"))


def test_product_requires_g(capsys):
    code = run(
        ["product", "--f", "x", "--class", "nesbitt", "--a", "0", "--b", "1"]
    )
    assert code == EXIT_USAGE


def test_young_requires_p(capsys):
    code = run(["check", "--f", "x", "--class", "young", "--a", "0", "--b", "1"])
    assert code == EXIT_USAGE


def test_p_rejected_for_nesbitt(capsys):
    code = run(
        ["check", "--f", "x", "--class", "nesbitt", "--p", "2", "--a", "0", "--b", "1"]
    )
    assert code == EXIT_USAGE


def test_parse_error_exit_code(capsys):
    code = run(["check", "--f", "2$x", "--class", "nesbitt", "--a", "0", "--b", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "offset 1" in err


def test_bad_interval_exit_code(capsys):
    code = run(["check", "--f", "x", "--class", "nesbitt", "--a", "1", "--b", "0"])
    assert code == EXIT_USAGE


def test_product_nesbitt_includes_ordered_bound(capsys):
    code = run(
        [
            "product",
            "--f",
            "x",
            "--g",
            "x",
            "--class",
            "nesbitt",
            "--a",
            "0",
            "--b",
            "1",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    payload = json.loads(out)
    names = [r["name"] for r in payload["results"]]
    assert names == ["nesbitt_product", "nesbitt_similarly_ordered"]
    # an opposite ordering drops the ordered bound, not the report
    code = run(["product", "--f", "x", "--g", "1-x", "--class", "nesbitt",
                "--a", "0", "--b", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [r["name"] for r in payload["results"]] == ["nesbitt_product"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sandwich", "--class", "young", "--p", "1.5"],
        ["product", "--g", "x", "--class", "classical"],
        ["product", "--g", "x", "--class", "young", "--p", "1.5"],
        ["product", "--g", "x", "--class", "nesbitt"],
    ],
    ids=["sandwich", "product-classical", "product-young", "product-nesbitt"],
)
def test_theorem_command_integrates_once(argv, monkeypatch, capsys):
    # every bound of one report reads one average of f (or of f*g)
    calls = []

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(theorems, "integrate", counting)
    assert run(argv + ["--f", "x^2", "--a", "0", "--b", "1"]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 1


def test_moments_text(capsys):
    code = run(["moments", "--class", "young", "--p", "1.5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "m10" in out and "m02" in out


def test_help_shows_grammar(capsys):
    code = run(["--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "expression grammar" in out
    assert "FUNC" in out


def test_json_roundtrip_bytes():
    report = verify_paper(QuadSpec())
    text = render(report, "json")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_verify_paper_out_file_stable(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert run(["verify-paper", "--format", "json", "--out", str(path_a)]) == EXIT_OK
    assert run(["verify-paper", "--format", "json", "--out", str(path_b)]) == EXIT_OK
    assert path_a.read_bytes() == path_b.read_bytes()


def test_verify_paper_all_hold():
    report = verify_paper(QuadSpec())
    assert report.overall is Overall.ALL_HOLD
    assert all(r["status"] == "hold" for r in report.results)


def test_verify_paper_loose_tolerance_fails_numerically():
    # 1e-2 quadrature tolerance cannot support the 1e-9 moment agreement
    report = verify_paper(QuadSpec(abs_tol=1e-2, rel_tol=1e-2))
    assert report.overall is Overall.NUMERIC_FAILURE


def test_verify_paper_violation_text(monkeypatch, capsys):
    # a Proposition gap the witness cannot meet: one failed check, exit 1
    monkeypatch.setattr(suite, "NEGATIVE_CONST_GAP", 0.0)
    code = run(["verify-paper", "--format", "text"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_VIOLATION
    assert lines[0] == "overall: ViolationFound"
    failed = [line for line in lines[1:] if not line.startswith("[PASS] ")]
    assert len(lines) == 286 and len(failed) == 1
    assert failed[0].startswith("[FAIL] proposition/negative_constant_gap_at_half: metric=")


def test_exit_matches_overall(capsys):
    code = run(["verify-paper", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == "name,status,relation,metric,threshold"


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
MISSING_DIR = os.path.join(SRC, "no-such-directory")


def _run_strict(argv):
    """(exit code, stdout, stderr) of `run` with every Python warning an error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _assert_strict(got, out, stderr, code, err):
    assert got == code, stderr
    if err is None:
        assert stderr == ""
    else:
        assert stderr.startswith(err)
        assert stderr.count("\n") == 1
        assert out == ""


STRICT_CASES = [
    # convex; its ~4e-9 gaps are rounding at lhs ~ 2e5
    (["check", "--f", "exp(exp(x))", "--class", "classical", "--a", "0",
      "--b", "2.6"], EXIT_OK, None),
    # exp(exp(7)) overflows, so gaps are inf - inf
    (["check", "--f", "exp(exp(x))", "--class", "classical", "--a", "0",
      "--b", "7"], EXIT_NUMERIC, "error: membership scan produced a non-finite value"),
    (["check", "--f", "x^2", "--class", "young", "--p", "inf", "--a", "0",
      "--b", "1"], EXIT_USAGE, "error: Young weights require a finite p > 1"),
    (["constants", "--p", "inf"], EXIT_USAGE,
     "error: Young weights require a finite p > 1"),
    (["check", "--f", "x^2", "--class", "classical", "--a", "-1e-3",
      "--b", "1"], EXIT_OK, None),
    (["check", "--f", "x^2", "--class", "classical", "--a", "0",
      "--b", "inf"], EXIT_USAGE, "error: interval requires finite a < b"),
    # the sandwich's bracket 2p/(p+1) stays finite until 2p overflows
    (["sandwich", "--f", "x", "--class", "young", "--p", "1e300", "--a", "0",
      "--b", "1"], EXIT_OK, None),
    # (p - 1)**2 overflows in the closed-form moment table
    (["moments", "--class", "young", "--p", "1e300"], EXIT_NUMERIC,
     "error: the closed-form moments of young(p=1e+300) overflow"),
    (["check", "--f", "x", "--class", "classical", "--a", "0", "--b", "1",
      "--tol", "inf"], EXIT_USAGE, "error: tol must be positive and finite"),
    # rejected before the scan allocates its ny*nt (y, t) terms
    (["check", "--f", "x^2", "--class", "classical", "--a", "0", "--b", "1",
      "--nx", "2", "--ny", "2", "--nt", "100000000"], EXIT_USAGE,
     "error: grid nx=2, ny=2, nt=100000000 is too large"),
    (["product", "--f", "x", "--g", "x", "--class", "young", "--p", "1e300",
      "--a", "0", "--b", "1"], EXIT_NUMERIC,
     "error: the closed-form moments of young(p=1e+300) overflow"),
    (["constants", "--p", "1e300"], EXIT_NUMERIC,
     "error: the closed-form moments of young(p=1e+300) overflow"),
    # too deep for the parser, and a flat sum too deep for the evaluator
    (["check", "--f", "(" * 400 + "x" + ")" * 400, "--class", "classical",
      "--a", "0", "--b", "1"], EXIT_USAGE,
     "error: expression is nested deeper than 100 levels"),
    (["check", "--f", "+".join(["x"] * 3000), "--class", "classical",
      "--a", "0", "--b", "1"], EXIT_USAGE,
     "error: expression is nested deeper than 100 levels"),
    # '²' is a digit to str.isdigit but not to float(): no number
    (["check", "--f", "²", "--class", "classical", "--a", "0", "--b", "1"],
     EXIT_USAGE, "error: unknown identifier '²'"),
    (["check", "--f", "1²", "--class", "classical", "--a", "0", "--b", "1"],
     EXIT_USAGE, "error: unexpected token '²'"),
    # 3p^2 overflows although p^2 does not: the closed forms read inf,
    # 0 and NaN here unless the overflow is named
    (["constants", "--p", "8e153", "--format", "csv"], EXIT_NUMERIC,
     "error: the closed-form moments of young(p=8e+153) overflow a double"),
    (["constants", "--p", "1e154"], EXIT_NUMERIC,
     "error: the closed-form moments of young(p=1e+154) overflow a double"),
    # past the closed-form moments' 3p^2 overflow, the sandwich still holds
    (["sandwich", "--f", "x", "--class", "young", "--p", "1.3e154", "--a", "0",
      "--b", "1"], EXIT_OK, None),
    # argparse's usage errors, one line each
    (["check", "--class", "classical", "--a", "0", "--b", "1"], EXIT_USAGE,
     "error: the following arguments are required: --f"),
    (["check", "--f", "x", "--class", "classical", "--a", "0", "--b", "1",
      "--nx", "abc"], EXIT_USAGE, "error: argument --nx: invalid int value: 'abc'"),
    (["bogus"], EXIT_USAGE, "error: argument subcommand: invalid choice: 'bogus'"),
    (["product", "--f", "x", "--class", "nesbitt", "--a", "0", "--b", "1"],
     EXIT_USAGE, "error: the following arguments are required: --g"),
    (["constants", "--p", "1.5", "--out", MISSING_DIR + "/x.csv"], EXIT_USAGE,
     "error: [Errno 2] No such file or directory"),
    # the oracle's hint substitution underflows t, or its exponent rounds
    (["constants", "--p", "200"], EXIT_NUMERIC, "error: the young(p=200) "
     "integral of degree (0, 1) cannot be resolved: t underflows to 0"),
    (["constants", "--p", "1.99"], EXIT_NUMERIC, "error: the young(p=1.99) "
     "integral of degree (0, 2) cannot be resolved: t underflows to 0"),
    (["constants", "--p", "1e17"], EXIT_NUMERIC, "error: the young(p=1e+17) "
     "integral of degree (0, 1) cannot be resolved: 1/p - 1 rounds to -1"),
    # b - a overflows a double although a and b are finite
    (["check", "--f", "x", "--class", "classical", "--a", "-1e308", "--b", "1e308"],
     EXIT_USAGE, "error: interval width b - a overflows a double"),
    (["sandwich", "--f", "x", "--class", "classical", "--a", "-1e308", "--b", "1e308"],
     EXIT_USAGE, "error: interval width b - a overflows a double"),
    (["product", "--f", "x", "--g", "x", "--class", "classical", "--a", "-1e308",
      "--b", "1e308"], EXIT_USAGE, "error: interval width b - a overflows a double"),
    # p is named by text that reads back as p, not as its :g rounding 2
    (["moments", "--class", "young", "--p", "1.9999999999"], EXIT_NUMERIC,
     "error: the young(p=1.9999999999) integral of degree (0, 2) cannot be "
     "resolved: t underflows to 0"),
    # a + b overflows a double although b - a does not: the midpoints of the
    # interval and of every quadrature panel stay finite
    (["sandwich", "--f", "1e-300*1e-10*x", "--class", "classical", "--a", "1e308",
      "--b", "1.7e308"], EXIT_OK, None),
    (["product", "--f", "1e-300*1e-10*x", "--g", "1e-300*1e-10*x", "--class",
      "classical", "--a", "1e308", "--b", "1.7e308"], EXIT_OK, None),
    # an infinite tolerance would accept any first panel as converged
    (["constants", "--p", "1.5", "--abs-tol", "inf"], EXIT_USAGE,
     "error: abs_tol must be positive and finite, got inf"),
    (["moments", "--class", "young", "--p", "2", "--abs-tol", "inf"], EXIT_USAGE,
     "error: abs_tol must be positive and finite, got inf"),
    # the systems are built one at a time: p = 1e17 fails in its oracle
    # before p = 0.5 is refused
    (["constants", "--p", "1e17", "--p", "0.5"], EXIT_NUMERIC, "error: the "
     "young(p=1e+17) integral of degree (0, 1) cannot be resolved: 1/p - 1 "
     "rounds to -1"),
    # an integrand that overflows a double is named, not blamed on convergence
    (["product", "--f", "1e-300*1e-10*x", "--g", "exp(x)", "--class", "classical",
      "--a", "1e308", "--b", "1.7e308"], EXIT_NUMERIC,
     "error: integral over [1e+308, 1.7e+308] is not finite: inf"),
    (["sandwich", "--f", "exp(x)", "--class", "classical", "--a", "700", "--b", "800"],
     EXIT_NUMERIC, "error: integral over [700.0, 800.0] is not finite: inf"),
    # the integral overflows a double, the average 1.35e307 does not
    (["sandwich", "--f", "x", "--class", "classical", "--a", "1e307", "--b", "1.7e307"],
     EXIT_OK, None),
    # the oracle names the system, the row and the error estimate
    (["constants", "--p", "1.5", "--max-subdivisions", "1"], EXIT_NUMERIC,
     "error: constants oracle young_m10 of young(p=1.5) did not converge "
     "(error estimate 1.94634e-05)"),
    # a theorem integral that does not converge names its stop reason
    (["sandwich", "--f", "1/x", "--class", "classical", "--a", "0", "--b", "1"],
     EXIT_NUMERIC, "error: integral over [0.0, 1.0] did not converge (divergent, "
     "error estimate 1.84609)"),
    (["sandwich", "--f", "x", "--class", "nesbitt", "--a", "1e307", "--b", "1.7e307"],
     EXIT_OK, None),
    (["product", "--f", "x", "--g", "1", "--class", "classical", "--a", "1e307",
      "--b", "1.7e307"], EXIT_OK, None),
    # sqrt(4) does not depend on x, so it is the integer exponent 2
    (["check", "--f", "x^sqrt(4)", "--class", "classical", "--a", "-1", "--b", "1"],
     EXIT_OK, None),
]


@pytest.mark.parametrize("argv,code,err", STRICT_CASES)
def test_strict_exit_and_one_line_stderr(argv, code, err):
    _assert_strict(*_run_strict(argv), code, err)


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("argv,code,err", [
    case for case in STRICT_CASES
    if case[0][0] in ("check", "sandwich", "product", "moments", "constants")
    and "--format" not in case[0]])
def test_strict_cases_write_strict_json(argv, code, err):
    got, out, _ = _run_strict([*argv, "--format", "json"])
    assert got == code
    if out:
        json.loads(out, parse_constant=_reject_constant)


def test_failed_verify_paper_report_is_strict_json_with_reasons():
    """One subdivision leaves 26 moments, the erratum's oracle and the
    Nesbitt square unconverged: their metrics are null, each of those
    records and no other says why, in every format."""
    code, out, err = _run_strict(["verify-paper", "--max-subdivisions", "1",
                                  "--format", "json"])
    assert (code, err) == (EXIT_NUMERIC, "")
    results = json.loads(out, parse_constant=_reject_constant)["results"]
    failures = [r for r in results if r.get("status") == "numeric_failure"]
    assert len(failures) == 28
    assert [r for r in results if "reason" in r] == failures
    assert all(r["metric"] is None for r in failures)
    by_name = {r["name"]: r["reason"] for r in failures}
    assert by_name["moments/young(p=1.01)/m10"] == \
        "oracle m10 of young(p=1.01) did not converge: budget"
    assert by_name["erratum/oracle_p1.5"] == \
        "oracle m11 of young(p=1.5) did not converge: budget"
    assert by_name["constants/nesbitt_square_expansion"] == \
        "oracle square of nesbitt did not converge: budget"
    for fmt in ("text", "csv"):
        _, out, _ = _run_strict(["verify-paper", "--max-subdivisions", "1", "--format", fmt])
        assert all(out.count(reason) >= 1 for reason in by_name.values())
        assert "inf" not in out.lower()


@pytest.mark.parametrize("argv,code,err", STRICT_CASES[:2])
def test_module_entry_point_strict(argv, code, err):
    """`python -W error -m convexa.cli` in a fresh interpreter, so that a
    warning at import time fails too, and the exit code reaches the shell."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "convexa.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    _assert_strict(proc.returncode, proc.stdout, proc.stderr, code, err)


def test_negative_scientific_notation_reaches_option(capsys):
    code = run(["check", "--f", "x^2", "--class", "classical", "--a", "-1E+0",
                "--b", "-.5", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert (payload["config"]["a"], payload["config"]["b"]) == (-1.0, -0.5)


# (argv, option, value, exit code): every value starts with one "-", so
# argparse alone would read it as an option flag; "--opt value" must read
# as "--opt=value"
DASH_VALUES = [
    (["check", "--class", "classical", "--a", "0", "--b", "1"], "--f", "-x^2",
     EXIT_VIOLATION),
    (["product", "--f", "x", "--class", "classical", "--a", "0", "--b", "1"],
     "--g", "-x+2", EXIT_OK),
    (["check", "--f", "x^2", "--class", "classical", "--b", "1"], "--a", "-inf",
     EXIT_USAGE),
    (["check", "--f", "x^2", "--class", "classical", "--b", "1"], "--a", "-nan",
     EXIT_USAGE),
]


@pytest.mark.parametrize("argv, option, value, code", DASH_VALUES)
def test_value_starting_with_a_dash_reaches_its_option(argv, option, value, code):
    spaced = _run_strict(argv + [option, value, "--format", "json"])
    joined = _run_strict(argv + [f"{option}={value}", "--format", "json"])
    assert spaced == joined
    assert spaced[0] == code


def test_dash_h_after_an_option_stays_the_help_flag():
    # so "--f -h" is --f with no value, not f = -h
    code, out, err = _run_strict(["check", "--f", "-h"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: argument --f: expected one argument\n"


_BAD_NUMBERS = ["nan", "inf", "-inf", "1e300", "-1e300", "1e308", "-1e308", "abc", ""]
_TOLERANCES = (["1e-10", "1e-6", "1e-3"],
               ["1e-300", "0", "-1", "1e300", "nan", "inf", "abc", ""])
# option -> (usual values, hostile values)
_FUNCTION_OPTIONS = {
    "--f": (["x", "x^2", "-1", "1-x", "exp(x)", "sqrt(x)", "ln(x)", "1/x", "abs(x-0.5)",
             "sin(x)", "x^0.5", "pow(x, 3)"],
            ["exp(exp(x))", "1e308*x", "-x", "(", "2$x", ""]),
    "--a": (["0", "-1", "0.5", "-1e-3"], _BAD_NUMBERS),
    "--b": (["1", "2", "0.5"], _BAD_NUMBERS),
}
_P = (["1.5", "2", "3", "1.01", "1.99", "10"],
      ["200", "1e17", "1e300", "1", "0.5"] + _BAD_NUMBERS)
_CLASS_OPTIONS = {"--class": (["classical", "young", "nesbitt"], ["bogus"]), "--p": _P}
_QUADRATURE_OPTIONS = {"--abs-tol": _TOLERANCES, "--rel-tol": _TOLERANCES,
                       "--max-subdivisions": (["2000", "50", "1"], ["0", "-1", "abc", ""])}
_GRID = ([str(n) for n in range(2, 10)], ["-1", "0", "1", "abc", ""])
_FUZZ_OPTIONS = {
    "check": _FUNCTION_OPTIONS | _CLASS_OPTIONS | {
        "--nx": _GRID, "--ny": _GRID, "--nt": _GRID,
        "--t-min": (["1e-4", "0.01"], _BAD_NUMBERS), "--tol": _TOLERANCES},
    "sandwich": _FUNCTION_OPTIONS | _CLASS_OPTIONS | _QUADRATURE_OPTIONS,
    "product": _FUNCTION_OPTIONS | _CLASS_OPTIONS | _QUADRATURE_OPTIONS
    | {"--g": _FUNCTION_OPTIONS["--f"]},
    "constants": {"--p": _P} | _QUADRATURE_OPTIONS,
    "moments": _CLASS_OPTIONS | _QUADRATURE_OPTIONS,
}
_REQUIRED = {"--f", "--g", "--class", "--a", "--b"}
_NAN = re.compile(r"\bnan\b", re.IGNORECASE)


@st.composite
def _fuzz_argv(draw):
    """argv of one subcommand, plus a path for --out relative to a fresh directory.

    A per-case hostility h in tenths sets how often a required option is
    missing or doubled and how often a value comes from the hostile list, so
    that well-formed runs that reach the numerics are common too.
    """
    hostility = draw(st.sampled_from([0, 0, 1, 3]))

    def hostile():
        return draw(st.integers(0, 9)) < hostility

    subcommand = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [subcommand]
    for option, (usual, bad) in _FUZZ_OPTIONS[subcommand].items():
        present = option in _REQUIRED and not hostile() or draw(st.booleans())
        for _ in range(present + hostile()):
            argv += [option, draw(st.sampled_from(bad if hostile() else usual))]
    argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    if hostile():
        argv += draw(st.sampled_from([["--format", "xml"], ["--bogus"], ["-1"]]))
    out = draw(st.sampled_from([None, "report.txt", "missing/report.txt"]))
    return argv, out


@settings(deadline=None, max_examples=200)
@given(_fuzz_argv())
def test_fuzz_cli_argv(case):
    argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        if out is not None:
            out = os.path.join(tmp, out)
            argv = argv + ["--out", out]
        code, report, err = _run_strict(argv)
        if out is not None and os.path.exists(out):
            assert report == ""
            with open(out, encoding="utf-8") as handle:
                report = handle.read()
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_NUMERIC)
    # a report with exit 3 is one whose overall is NumericFailure
    numeric_failure_report = code == EXIT_NUMERIC and err == ""
    if code in (EXIT_OK, EXIT_VIOLATION) or numeric_failure_report:
        assert err == ""
        assert report != ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert report == ""
    if not numeric_failure_report:
        assert not _NAN.search(report), report
