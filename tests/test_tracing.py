"""The benchmark's per-layer tracer (perfbench/tracing.py) against the package.

The tracer wraps public names of every layer by name, so a renamed or
deleted name breaks `perfbench/run.py --trace 1`; installing it here makes
that a Tier-1 failure instead. One traced verify-paper cycle must count the
integrand evaluations (those of the moment oracle's lockstep integrals
aside, which it cannot see) and f-points that tests/test_suite.py gates,
so a wrapper that stops counting fails too.
"""

import importlib
import pathlib

import convexa
from convexa import cli, expr, membership, quadrature, specfun, suite, theorems, weights
from convexa.suite import Overall
from test_suite import (
    VERIFY_PAPER_EVALUATIONS,
    VERIFY_PAPER_F_POINTS,
    VERIFY_PAPER_ORACLE_EVALUATIONS,
)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (convexa, cli, expr, membership, quadrature, specfun, suite, theorems, weights)
CLASSES = (weights.WeightSystem, expr.FunctionDef)


def _bindings():
    return [{name: id(value) for name, value in vars(owner).items()}
            for owner in MODULES + CLASSES]


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _bindings()
    beta, moments_closed_form = specfun.beta, weights.WeightSystem.moments_closed_form
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert specfun.beta is not beta
        assert convexa.beta is specfun.beta
        assert weights.WeightSystem.moments_closed_form is not moments_closed_form
        assert weights.young(1.5).moments_closed_form().m10 is not None
        assert tracer.counts["specfun.calls"] > 0
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert specfun.beta is beta and convexa.beta is beta


def test_traced_verify_paper_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        report = cli.verify_paper()
        text = cli.render(report, "json")
        counts, *_ = tracer.finish_cycle()
    finally:
        tracer.uninstall()
    assert report.overall is Overall.ALL_HOLD
    # the tracer wraps integrate and integrate_unit by name; the moment
    # oracle's lockstep integrals call neither, so it sees the rest
    assert counts["quadrature.evals"] == VERIFY_PAPER_EVALUATIONS - VERIFY_PAPER_ORACLE_EVALUATIONS
    assert counts["expr.eval_points"] == VERIFY_PAPER_F_POINTS
    assert counts["cli.render_calls"] == 1
    assert counts["cli.report_bytes"] == len(text.encode("utf-8"))
