#!/usr/bin/env python3
"""convexa benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify-paper,grid-scan,oracle-sweep}
        --seed N --seconds S --trace {0,1}

The program is used from source (`src/convexa`); nothing is installed.
Every workload is a closed loop with one caller in one process. This
script starts one process at a time, with BLAS and OpenMP capped at one
thread and each timed step pinned to the least contended CPU. Iteration
times are reported in units of a fixed reference kernel timed beside each
iteration (calibration.py), which cancels the shared host's speed changes.
It runs:

- with --trace 0, SETUP_RUNS fresh interpreters that import convexa and
  build the workload's inputs (setup_s is their median wall time), then one
  worker process that runs the timed loop untraced for --seconds;
- with --trace 1, one worker that alternates untraced and traced cycles and
  reports the per-layer metrics; its spans go to perfbench/out/.

The last line of standard output is the result object. Every operation's
output is checked; see workloads.py for the expectations. A missing
`src/convexa` or any worker failure exits non-zero without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibration import pin_fastest_cpu, unpin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-paper", "grid-scan", "oracle-sweep")

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
# the worker may overrun --seconds by one cycle, capped in worker.py
WORKER_SLACK_S = 90

TAIL_BEYOND = 10

# verify-paper counts per cycle as ROADMAP.md records them for the commit
# that defined this benchmark: 221 integrations, 112,395 integrand
# evaluations, 62 scans. 61 scans have 41*41*99 samples and the Proposition
# witness scan 41*41*2. A mismatch at that commit means a missed binding;
# after a change that cuts work it is expected, so it is printed, not gated.
ROADMAP_VERIFY_PAPER = {
    "quadrature.calls": 221,
    "quadrature.evals": 112_395,
    "membership.scans": 62,
    "membership.samples": 61 * 41 * 41 * 99 + 41 * 41 * 2,
}


def _env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # a fixed mmap threshold stops glibc from adapting it to the first large
    # free, after which freed arrays stay in the heap and peak RSS depends on
    # fragmentation rather than on the arrays the program holds
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env.pop("PYTHONPATH", None)
    return env


def _worker(mode, args, timeout, extra=()):
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {mode} exited with {proc.returncode}")
    return proc.stdout


def _setup_s(args) -> float:
    walls = []
    for _ in range(SETUP_RUNS):
        pin_fastest_cpu()  # inherited by the probe process
        start = time.perf_counter()
        _worker("setup", args, SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
    unpin()  # the measuring worker chooses its own CPU per iteration
    return statistics.median(walls)


def _tail(times):
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "convexa", "__init__.py")):
        print(f"error: no convexa sources under {ROOT}/src", file=sys.stderr)
        return 2

    setup_s = None if args.trace else _setup_s(args)
    spans_out = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.json")
    raw = json.loads(_worker(
        "measure", args, args.seconds + WORKER_SLACK_S,
        ("--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spans-out", spans_out),
    ).strip().splitlines()[-1])

    times = raw["iter_s"]
    print(f"workload {args.workload} seed {args.seed}: {len(times)} iterations, "
          f"{raw['attempted']} checked outcomes, {raw['failed']} failed")
    for failure in raw["failures"]:
        print(f"  FAIL {failure}")
    for probe in raw["probes"]:
        verdict = "FAIL " + "; ".join(dict.fromkeys(probe["failures"])) if probe["failures"] else "ok"
        print(f"  known-defect {probe['name']}: {verdict}")

    correct = raw["failed"] == 0
    if args.trace:
        metrics = raw["layer"]
        if raw["nondeterministic"]:
            correct = False
            print(f"  FAIL counts differ between traced cycles: {raw['nondeterministic']}")
        print(f"  {raw['traced_cycles']} traced cycles; per-layer counts are per cycle")
        if args.workload == "verify-paper":
            diffs = {k: (metrics[k]["value"], v) for k, v in ROADMAP_VERIFY_PAPER.items()
                     if metrics[k]["value"] != v}
            print("  counts against the ROADMAP baseline: "
                  + (f"differ {diffs}" if diffs else "all match"))
    else:
        # iteration time in units of the reference kernel timed beside it
        rel = [t / r for t, r in zip(times, raw["ref_s"])]
        tail, tail_pct = _tail(rel)
        metrics = {
            "iter_ref_p50": _metric(statistics.median(rel), "ref"),
            "iter_ref_tail": _metric(tail, "ref"),
            "items_per_ref": _metric(raw["items"] / sum(rel), "1/ref"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(raw["peak_rss_mb"], "MB"),
        }
        wall_tail, _ = _tail(times)
        print(f"  tails are p{tail_pct:.1f} of {len(times)} samples ({TAIL_BEYOND} beyond)")
        print(f"  wall time: iter_s_p50 = {statistics.median(times)!r} s, "
              f"iter_s_tail = {wall_tail!r} s, items_per_s = {raw['items'] / sum(times)!r}; "
              f"reference kernel p50 = {statistics.median(raw['ref_s'])!r} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
