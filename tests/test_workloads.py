"""The benchmark's own correctness checks (perfbench/workloads.py) in Tier-1.

One verify-paper cycle renders the suite's JSON report and checks its
digest and the AllHold verdict. One oracle-sweep cycle at seed 0 runs
constants_table and the eight theorems on seeded inputs whose values have
closed forms; one grid-scan cycle at seed 0 scans seeded members and
violators of four classes and recomputes each certificate. Each result, or
the exception it raised, goes through the workload's `evaluate`, as the
benchmark's worker does, so a change that would make the benchmark report
incorrect outputs fails here first. The known-defect probes are left out.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _cycle_failures(monkeypatch, builder: str, operations: int) -> list[str]:
    """Run one cycle of the named workload builder and collect its failures."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = [op for batch in getattr(workloads, builder)(0).batches for op in batch]
    assert len(ops) == operations
    failures = []
    for op in ops:
        try:
            result = op.run()
        except Exception as exc:  # a failed operation, checked below
            result = exc
        failures += [f"{op.name}: {s}" for s in workloads.evaluate(op, result)[0]]
    return failures


def test_oracle_sweep_cycle_passes_its_checks(monkeypatch):
    assert _cycle_failures(monkeypatch, "oracle_sweep", 193) == []


def test_grid_scan_cycle_passes_its_checks(monkeypatch):
    assert _cycle_failures(monkeypatch, "grid_scan", 16) == []


def test_verify_paper_cycle_passes_its_checks(monkeypatch):
    assert _cycle_failures(monkeypatch, "verify_paper", 1) == []
