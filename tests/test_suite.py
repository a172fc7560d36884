"""The verify-paper suite: tolerance plumbing and its quadrature budget."""

import collections

import numpy as np
import pytest

from convexa import expr, quadrature, suite
from convexa import membership as mb
from convexa import weights as w
from convexa.quadrature import Interval, QuadSpec
from convexa.suite import (
    MOMENT_P_FIRST_ONLY,
    MOMENT_P_FULL,
    Overall,
    verify_paper,
)

# integrand evaluations of the default verify_paper() run; raising it means
# the suite computes integrals it does not check. 495 + 15 of them stop the
# divergent Young p=2 m02 integral (16 bisections and the endpoint probe).
# Each battery item's average of f and of f*f is integrated once, and every
# bound of the item reads it
VERIFY_PAPER_EVALUATIONS = 8_160
# points the default verify_paper() run evaluates through FunctionDef:
# 12 battery scans of 41*41*99 samples (one per (f, interval), shared by
# its five classes), the Proposition's 41*41*99 default-grid and 41*41*2
# witness scans, their x and y axes, certificates and the quadrature panels
# (one run per theorem average)
VERIFY_PAPER_F_POINTS = 2_169_282


def test_square_expansion_uses_suite_quad_spec():
    report = verify_paper(QuadSpec(max_subdivisions=1))
    record = next(
        r for r in report.results if r["name"] == "constants/nesbitt_square_expansion"
    )
    assert record["status"] == "numeric_failure"
    assert report.overall is Overall.NUMERIC_FAILURE


def test_verify_paper_evaluation_budget(monkeypatch):
    original = quadrature._adaptive
    evaluations = []

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(quadrature, "_adaptive", counting)
    assert verify_paper().overall is Overall.ALL_HOLD
    assert evaluations, "verify_paper ran no quadrature through _adaptive"
    assert sum(evaluations) <= VERIFY_PAPER_EVALUATIONS


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
    # Young p=2 divergence check, Nesbitt's square expansion) runs in its
    # system's one integrals call, so the weights at each 15-node panel are
    # evaluated once per report
    original_integrate = w.integrate_unit
    original_eval = w.WeightSystem.eval_arrays
    inside = []
    panels = collections.defaultdict(list)  # system label -> node bytes

    def integrate_unit(f, spec):
        inside.append(None)
        try:
            return original_integrate(f, spec)
        finally:
            inside.pop()

    def eval_arrays(self, t):
        if inside:  # a quadrature node set, not a scan's t grid
            for nodes in np.asarray(t).reshape(-1, 15):
                panels[self.label()].append(nodes.tobytes())
        return original_eval(self, t)

    monkeypatch.setattr(w, "integrate_unit", integrate_unit)
    monkeypatch.setattr(w.WeightSystem, "eval_arrays", eval_arrays)
    assert verify_paper().overall is Overall.ALL_HOLD
    systems = [w.young(p) for p in MOMENT_P_FULL + MOMENT_P_FIRST_ONLY] + [w.nesbitt()]
    assert sorted(panels) == sorted(ws.label() for ws in systems)
    for label, seen in panels.items():
        assert len(seen) == len(set(seen)), label


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
