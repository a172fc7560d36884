"""The benchmark's per-layer tracer (perfbench/tracing.py) against the package.

The tracer wraps public names of every layer by name, so a renamed or
deleted name breaks `perfbench/run.py --trace 1`; installing it here makes
that a Tier-1 failure instead.
"""

import importlib
import pathlib

import convexa
from convexa import cli, expr, membership, quadrature, specfun, suite, theorems, weights

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
        assert theorems.beta is specfun.beta
        assert weights.WeightSystem.moments_closed_form is not moments_closed_form
        assert weights.young(1.5).moments_closed_form().m10 is not None
        assert tracer.counts["specfun.calls"] > 0
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert specfun.beta is beta and theorems.beta is beta and convexa.beta is beta
