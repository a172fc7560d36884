"""The verify-paper suite: tolerance plumbing, its quadrature budget and
the records of a failed paper check."""

import collections
import dataclasses
import json

import numpy as np
import pytest

from convexa import expr, quadrature, suite
from convexa import membership as mb
from convexa import theorems as th
from convexa import weights as w
from convexa.cli import EXIT_VIOLATION, run
from convexa.quadrature import Interval, QuadSpec
from convexa.suite import (
    MOMENT_P_FIRST_ONLY,
    MOMENT_P_FULL,
    Overall,
    verify_paper,
)

# integrand evaluations of the default verify_paper() run, in its 61
# quadrature runs; raising it means the suite computes integrals it does
# not check. 495 + 15 of them stop the divergent Young p=2 m02 integral (16
# bisections and the endpoint probe). Each battery item's average of f and
# of f*f is integrated once, and every bound of the item reads it
VERIFY_PAPER_EVALUATIONS = 8_160
VERIFY_PAPER_INTEGRALS = 61
# 7,740 of them are the 33 integrals of the moment oracle, run in lockstep
# outside integrate and integrate_unit. Their 516 panels weigh 324 distinct
# (system, substitution, panel) weight rows
VERIFY_PAPER_ORACLE_EVALUATIONS = 7_740
VERIFY_PAPER_ORACLE_PANELS = 324
# (weighings, rows weighed, rounds, rows summed) of the oracle call: each
# round sums all 516 panels the call asks for
VERIFY_PAPER_ORACLE_ROUNDS = (20, 324, 20, 516)
# points the default verify_paper() run evaluates through FunctionDef:
# 12 battery scans of 41*41*99 samples (one per (f, interval), shared by
# its five classes), the Proposition's 41*41*99 default-grid and 41*41*2
# witness scans, their x and y axes, certificates, the quadrature panels
# (one run per theorem average) and each average's f values at its ends and
# midpoint, read once per average
VERIFY_PAPER_F_POINTS = 2_168_717


def test_square_expansion_uses_suite_quad_spec():
    report = verify_paper(QuadSpec(max_subdivisions=1))
    record = next(
        r for r in report.results if r["name"] == "constants/nesbitt_square_expansion"
    )
    assert record["status"] == "numeric_failure"
    assert report.overall is Overall.NUMERIC_FAILURE


def test_verify_paper_evaluation_budget(monkeypatch):
    # every quadrature run, a theorem average's or a lockstep oracle
    # integral's, is one quadrature._refine run
    original = quadrature._refine
    evaluations = []

    def counting(lo, hi, spec):
        result = yield from original(lo, hi, spec)
        evaluations.append(result.evaluations)
        return result

    monkeypatch.setattr(quadrature, "_refine", counting)
    assert verify_paper().overall is Overall.ALL_HOLD
    assert len(evaluations) == VERIFY_PAPER_INTEGRALS
    assert sum(evaluations) == VERIFY_PAPER_EVALUATIONS


def test_verify_paper_f_evaluation_budget(monkeypatch):
    original = expr.FunctionDef.__call__
    points = []

    def counting(self, x, scratch=None):
        points.append(np.size(x))
        return original(self, x, scratch)

    monkeypatch.setattr(expr.FunctionDef, "__call__", counting)
    assert verify_paper().overall is Overall.ALL_HOLD
    assert sum(points) <= VERIFY_PAPER_F_POINTS


def test_each_oracle_panel_is_weighted_once(monkeypatch):
    # every weight-system oracle integral of the report (the moments, the
    # Young p=2 divergence check, Nesbitt's square expansion) runs in one
    # lockstep oracle call, so the weights of each system at each 15-node
    # panel are evaluated once per report
    original_weigh = w._weigh
    original_pair = w._weight_pair
    original_sums = w._panel_sums
    inside = []
    panels = collections.defaultdict(list)  # system label -> t bytes of each panel
    weighed, summed = [], []

    def weigh(table, fresh):
        weighed.append(sum(len(asked) for _, asked in fresh))
        inside.append(None)
        try:
            return original_weigh(table, fresh)
        finally:
            inside.pop()

    def panel_sums(block, slices):
        summed.append(len(block))
        return original_sums(block, slices)

    def weight_pair(kind, t, p):
        if inside:  # an oracle panel row, not a scan's t grid
            p_rows = np.broadcast_to(p, (len(t), 1))[:, 0].tolist()
            for nodes, p_row in zip(t, p_rows):
                ws = w.WeightSystem(kind, p_row if kind is w.WeightKind.YOUNG else None)
                panels[ws.label()].append(nodes.tobytes())
        return original_pair(kind, t, p)

    monkeypatch.setattr(w, "_weigh", weigh)
    monkeypatch.setattr(w, "_weight_pair", weight_pair)
    monkeypatch.setattr(w, "_panel_sums", panel_sums)
    assert verify_paper().overall is Overall.ALL_HOLD
    rounds = len(weighed), sum(weighed), len(summed), sum(summed)
    assert rounds == VERIFY_PAPER_ORACLE_ROUNDS
    systems = [w.young(p) for p in MOMENT_P_FULL + MOMENT_P_FIRST_ONLY] + [w.nesbitt()]
    assert sorted(panels) == sorted(ws.label() for ws in systems)
    for label, seen in panels.items():
        assert len(seen) == len(set(seen)), label
    # the rows of the suite's 33 oracle integrals
    assert sum(map(len, panels.values())) == VERIFY_PAPER_ORACLE_PANELS


# the suite's membership record compares max_gap with the absolute grid.tol,
# while the scan's verdict scales tol by the compared values: for 1e6*x^2
# the classical scan reads NoViolationAtResolution with max_gap 3.7e-9
_RECORD_USES_ABSOLUTE_TOL = pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="the membership record ignores the verdict's relative tolerance (ROADMAP)",
)


@pytest.mark.parametrize("ws, k", [
    pytest.param(ws, k, id=f"{ws.label()}-1e{k}",
                 marks=_RECORD_USES_ABSOLUTE_TOL if ws.label() == "classical" and k >= 6 else ())
    for ws in (w.classical(), w.nesbitt(), w.young(1.5)) for k in (0, 3, 6, 9, 12)
])
def test_membership_record_agrees_with_verdict(ws, k):
    grid = mb.GridSpec()
    f = expr.parse_function(f"1e{k}*x^2")
    report = mb.check_convex(f, Interval(1.0, 3.0), ws, grid)
    record = suite._check("membership", report.max_gap, grid.tol, "le")
    no_violation = report.verdict is mb.Verdict.NO_VIOLATION_AT_RESOLUTION
    assert (record["status"] == "hold") == no_violation


def _young_p2_m02_converges(monkeypatch):
    # product_bound as if the Young p = 2 m02 coefficient were finite
    original = th.product_bound

    def product_bound(ws, mean):
        return None if ws == w.young(2.0) else original(ws, mean)

    monkeypatch.setattr(th, "product_bound", product_bound)


def _witness_not_violated(monkeypatch):
    # the Proposition's t grid {1/2, 1} finds no violation of f = -1
    original = mb.check_convex

    def check_convex(f, interval, ws, grid=mb.GridSpec()):
        report = original(f, interval, ws, grid)
        if grid.t_min != 0.5:
            return report
        return dataclasses.replace(
            report, verdict=mb.Verdict.NO_VIOLATION_AT_RESOLUTION, certificate=None
        )

    monkeypatch.setattr(mb, "check_convex", check_convex)


@pytest.mark.parametrize("patch, name", [
    (_young_p2_m02_converges, "divergence/young_product_p2"),
    (_witness_not_violated, "proposition/negative_constant_gap_at_half"),
])
def test_failed_paper_check_is_one_violation_record(patch, name, monkeypatch, capsys):
    patch(monkeypatch)
    code = run(["verify-paper", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_VIOLATION, "")
    report = json.loads(captured.out)
    assert report["overall"] == "ViolationFound"
    failed = [(r["name"], r["status"]) for r in report["results"] if r["status"] != "hold"]
    assert failed == [(name, "violation")]
