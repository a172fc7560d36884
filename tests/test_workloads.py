"""The benchmark's own correctness checks (perfbench/workloads.py) in Tier-1.

One oracle-sweep cycle at seed 0 runs constants_table and the eight
theorems on seeded inputs whose values have closed forms. Each result, or
the exception it raised, goes through the workload's `evaluate`, as the
benchmark's worker does, so a change that would make the benchmark report
incorrect outputs fails here first. The known-defect probes are left out.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_oracle_sweep_cycle_passes_its_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = [op for batch in workloads.oracle_sweep(0).batches for op in batch]
    assert len(ops) == 193
    failures = []
    for op in ops:
        try:
            result = op.run()
        except Exception as exc:  # a failed operation, checked below
            result = exc
        failures += [f"{op.name}: {s}" for s in workloads.evaluate(op, result)[0]]
    assert failures == []
