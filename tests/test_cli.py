import json
import os
import subprocess
import sys

import pytest

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
from convexa.quadrature import QuadSpec


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


def test_exit_matches_overall(capsys):
    code = run(["verify-paper", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == "name,status,relation,metric,threshold"


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _run_strict(argv):
    """The CLI in a fresh interpreter with every Python warning an error."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "convexa.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "argv,code,err",
    [
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
        # the Young bracket is inf/inf = nan at this p
        (["sandwich", "--f", "x", "--class", "young", "--p", "1e300", "--a", "0",
          "--b", "1"], EXIT_NUMERIC, "error: Young sandwich bracket mismatch"),
        # (p - 1)**2 overflows in the closed-form moment table
        (["moments", "--class", "young", "--p", "1e300"], EXIT_NUMERIC, "error: "),
        (["check", "--f", "x", "--class", "classical", "--a", "0", "--b", "1",
          "--tol", "inf"], EXIT_USAGE, "error: tol must be positive and finite"),
    ],
)
def test_strict_exit_and_one_line_stderr(argv, code, err):
    proc = _run_strict(argv)
    assert proc.returncode == code, proc.stderr
    if err is None:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith(err)
        assert proc.stderr.count("\n") == 1


def test_negative_scientific_notation_reaches_option(capsys):
    code = run(["check", "--f", "x^2", "--class", "classical", "--a", "-1E+0",
                "--b", "-.5", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert (payload["config"]["a"], payload["config"]["b"]) == (-1.0, -0.5)
