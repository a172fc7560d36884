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

from convexa import quadrature, weights

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
# w_x + w_y from eval_arrays. The moment oracle's lockstep integrals call
# neither integrate_unit nor eval_arrays, so quadrature.* and weights.eval_*
# leave them out: the tracer cannot see them, they still run, and
# test_oracle_sweep_oracle_work pins them from inside the program.
COUNTS = {
    "verify_paper": {
        "quadrature.calls": 28,
        "quadrature.evals": 420,
        "quadrature.useful_evals": 420,
        "quadrature.nonconverged": 0,
        "expr.parse_calls": 19,
        "expr.eval_calls": 304,
        "expr.eval_points": 2_168_717,
        "weights.eval_calls": 71,
        "weights.eval_points": 13_036,
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
        "quadrature.calls": 192,
        "quadrature.evals": 3_000,
        "quadrature.useful_evals": 3_000,
        "quadrature.nonconverged": 0,
        "expr.eval_calls": 992,
        "expr.eval_points": 5_256,
        "weights.eval_calls": 0,
        "weights.eval_points": 0,
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


def test_oracle_sweep_oracle_work(monkeypatch):
    """The seed-0 constants_table's integrals, counted where every
    quadrature run goes: 535 `quadrature._refine` runs of 130,995
    evaluations, all converged, as before they refined in lockstep. Its
    lockstep rounds weigh 4,961 rows in 59 weighings and sum 8,733 rows
    in 60 rounds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    [constants, *_] = workloads.oracle_sweep(0).batches[0]
    assert constants.name.startswith("constants_table(96 seeded p)")
    original = quadrature._refine
    original_weigh, original_sums = weights._weigh, weights._panel_sums
    results, weighed, summed = [], [], []

    def counting(lo, hi, spec):
        result = yield from original(lo, hi, spec)
        results.append(result)
        return result

    def weigh(table, fresh):
        weighed.append(sum(len(asked) for _, asked in fresh))
        return original_weigh(table, fresh)

    def panel_sums(block, slices):
        summed.append(len(block))
        return original_sums(block, slices)

    monkeypatch.setattr(quadrature, "_refine", counting)
    monkeypatch.setattr(weights, "_weigh", weigh)
    monkeypatch.setattr(weights, "_panel_sums", panel_sums)
    constants.run()
    assert len(results) == 535
    assert sum(result.evaluations for result in results) == 130_995
    assert all(result.converged for result in results)
    assert (len(weighed), sum(weighed)) == (59, 4_961)
    assert (len(summed), sum(summed)) == (60, 8_733)
