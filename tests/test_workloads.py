"""The benchmark's own correctness checks (perfbench/workloads.py) in Tier-1.

One verify-paper cycle renders the suite's JSON report and checks its
digest and the AllHold verdict. One oracle-sweep cycle at seed 0 runs
constants_table and the eight theorems on seeded inputs whose values have
closed forms; one grid-scan cycle at seed 0 scans seeded members and
violators of four classes and recomputes each certificate. Each cycle runs
once, under the benchmark's tracer (perfbench/tracing.py), as the
benchmark's worker runs a traced cycle. Each result, or the exception it
raised, then goes through the workload's `evaluate`, so a change that would
make the benchmark report incorrect outputs fails here first, and the
cycle's deterministic counters must equal `COUNTS`, so a change that does
more or less work in any layer fails here too. The known-defect probes are
left out.
"""

import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# the counters of one traced seed-0 cycle, each met exactly. A change that
# lowers a count lowers it here, and one that raises a count says why.
# verify-paper's membership.* and weights.moment_calls are left out: the
# tracer wraps neither check_classes nor the moment oracle's integrals. So
# are membership.computed_bytes and membership.max_scan_bytes, which model
# the dense scan rather than the tiled one, and trace.spans, which counts
# the tracer's own work. verify-paper's theorems.calls counts only the
# wrapped names, and it calls none: its bounds go through the theorem
# bodies, which the tracer does not wrap, and the Young sandwich spells its
# left coefficient instead of calling young_sandwich_coefficients. Its
# weights.eval_* include the lemma checks' 7 x 999 points, since L is
# w_x + w_y from eval_arrays.
COUNTS = {
    "verify_paper": {
        "quadrature.calls": 61,
        "quadrature.evals": 8_160,
        "quadrature.useful_evals": 7_650,
        "quadrature.nonconverged": 1,
        "expr.parse_calls": 19,
        "expr.eval_calls": 304,
        "expr.eval_points": 2_168_717,
        "weights.eval_calls": 243,
        "weights.eval_points": 17_896,
        "specfun.calls": 72,
        "theorems.calls": 0,
        "theorems.integrals": 28,
        "theorems.redundant_integrals": 4,
        "cli.render_calls": 1,
        "cli.report_bytes": 47_523,
    },
    "grid_scan": {
        "expr.eval_calls": 5_205,
        "expr.eval_points": 82_537_637,
        "weights.eval_calls": 23,
        "weights.eval_points": 3_191,
        "membership.scans": 16,
        "membership.samples": 82_532_464,
        "membership.certificates": 7,
    },
    "oracle_sweep": {
        "quadrature.calls": 727,
        "quadrature.evals": 133_995,
        "quadrature.useful_evals": 133_995,
        "quadrature.nonconverged": 0,
        "expr.eval_calls": 992,
        "expr.eval_points": 5_256,
        "weights.eval_calls": 2_625,
        "weights.eval_points": 74_415,
        "specfun.calls": 948,
        "theorems.calls": 193,
        "theorems.integrals": 192,
        "theorems.redundant_integrals": 144,
    },
}


@pytest.fixture(scope="module")
def cycle():
    """(operations, failures, counts) of the named workload builder's traced
    seed-0 cycle, run once per module."""
    cycles = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")

        def run(builder):
            if builder not in cycles:
                ops = [op for batch in getattr(workloads, builder)(0).batches for op in batch]
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    results = []
                    for op in ops:
                        try:
                            results.append(op.run())
                        except Exception as exc:  # a failed operation, checked below
                            results.append(exc)
                    counts, *_ = tracer.finish_cycle()
                finally:
                    tracer.uninstall()
                # checked untraced, as the worker checks, so no recompute is counted
                failures = [f"{op.name}: {s}" for op, result in zip(ops, results)
                            for s in workloads.evaluate(op, result)[0]]
                cycles[builder] = len(ops), failures, counts
            return cycles[builder]

        yield run


def test_oracle_sweep_cycle_passes_its_checks(cycle):
    assert cycle("oracle_sweep")[:2] == (193, [])


def test_grid_scan_cycle_passes_its_checks(cycle):
    assert cycle("grid_scan")[:2] == (16, [])


def test_verify_paper_cycle_passes_its_checks(cycle):
    assert cycle("verify_paper")[:2] == (1, [])


@pytest.mark.parametrize("builder", list(COUNTS))
def test_cycle_counts(cycle, builder):
    counts = cycle(builder)[2]
    assert {name: counts[name] for name in COUNTS[builder]} == COUNTS[builder]
