"""One workload process: `setup` builds the inputs and exits, `measure` runs
the closed loop and prints its raw results as one JSON line.

Run through perfbench/run.py, which starts one of these at a time.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import convexa  # noqa: E402

if not os.path.abspath(convexa.__file__).startswith(SRC + os.sep):
    sys.exit(f"convexa imported from {convexa.__file__}, not from {SRC}")

import workloads  # noqa: E402
from calibration import pin_fastest_cpu, reference_s  # noqa: E402

# at least this many timed iterations, so the tail percentile has >= 10 beyond
# it, and this many traced cycles for the per-layer medians
MIN_ITERATIONS = 21
MIN_TRACED_CYCLES = 3
# the loop ends at the first cycle boundary after --seconds, and never later
# than this many seconds beyond it
MAX_OVERRUN_S = 30.0
MAX_REPORTED_FAILURES = 20


def _run_batch(batch):
    """(wall time, reference time beside it, results) of one iteration."""
    pin_fastest_cpu()
    before = reference_s()
    start = time.perf_counter()
    results = []
    for op in batch:
        try:
            results.append(op.run())
        except Exception as exc:  # a failed operation, checked below
            results.append(exc)
    elapsed = time.perf_counter() - start
    return elapsed, 0.5 * (before + reference_s()), results


class Tally:
    """Checks results outside the timed region and keeps the totals."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.failures = []

    def add(self, batch, results):
        for op, result in zip(batch, results):
            failures, items = workloads.evaluate(op, result)
            self.attempted += op.outcomes
            self.failed += min(len(failures), op.outcomes)
            self.items += items
            for failure in dict.fromkeys(failures):
                if len(self.failures) < MAX_REPORTED_FAILURES:
                    self.failures.append(f"{op.name}: {failure}")


def _run_probes(workload):
    out = []
    for op in workload.probes:
        _, _, (result,) = _run_batch([op])
        failures, _ = workloads.evaluate(op, result)
        out.append({"name": op.name, "failures": failures})
    return out


def _untraced_cycle(cycle, tally, times, refs):
    for batch in cycle:
        dt, ref, results = _run_batch(batch)
        times.append(dt)
        refs.append(ref)
        tally.add(batch, results)


def measure(workload, seconds, trace, spans_out):
    cycle = workload.batches
    _untraced_cycle(cycle, Tally(), [], [])  # warm-up: lazy imports, caches

    tally = Tally()
    times, refs, traced_times, cycles = [], [], [], []
    tracer = None
    spans = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        _untraced_cycle(cycle, tally, times, refs)
        if tracer is not None:
            tracer.install()
            tracer.keep_spans = not cycles
            tracer.reset()
            outputs = []
            try:
                for batch in cycle:
                    dt, _, results = _run_batch(batch)
                    traced_times.append(dt)
                    outputs.append(results)
                cycles.append(tracer.finish_cycle())
            finally:
                tracer.uninstall()
            for batch, results in zip(cycle, outputs):
                tally.add(batch, results)
            if spans is None:
                t0 = tracer.cycle_start
                spans = [[name, layer, s - t0, e - t0, parent]
                         for name, layer, s, e, parent in tracer.spans]
        now = time.perf_counter()
        if tracer is None:
            enough = len(times) >= MIN_ITERATIONS
        else:
            enough = len(cycles) >= MIN_TRACED_CYCLES
        if (now >= deadline and enough) or now >= deadline + MAX_OVERRUN_S:
            break

    out = {
        "iter_s": times,
        "ref_s": refs,
        "items": tally.items,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probes": _run_probes(workload),
    }
    if tracer is not None:
        first = cycles[0][0]
        out["nondeterministic"] = sorted(
            {k for counts, *_ in cycles[1:] for k in counts if counts[k] != first[k]}
        )
        out["layer"] = tracing.layer_metrics(
            cycles, traced_times, times, out["peak_rss_mb"],
            sum(1 for p in out["probes"] if p["failures"]),
        )
        out["traced_cycles"] = len(cycles)
        _write_spans(spans_out, spans)
    return out


def _write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "layer", "start_s", "end_s", "parent"],
                   "root": "bench.cycle (parent -1), times from its start", "spans": spans}, handle)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.mode == "setup":
        return
    result = measure(workload, args.seconds, args.trace, args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
