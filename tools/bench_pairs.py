#!/usr/bin/env python3
"""Alternating benchmark pairs of two git revisions, summarised as JSON.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py PARENT CHANGE --workload oracle-sweep --seed 0
        --pairs 10 --seconds 30 --out BENCH_N.json

PARENT and CHANGE are git revisions (`git stash create` names the working
tree's tracked changes as one). Each is extracted with `git archive` into
its own directory under --workdir; the two directories are siblings whose
paths have equal length, because the length of the checkout path alone can
move a workload's timings. Each pair runs `perfbench/run.py` once in each
tree, the parent first in odd pairs and the change first in even pairs.

The summary goes under the key "<workload> seed <seed>" of --out, which is
created or updated in place, so several workloads share one file: per
end-to-end metric of BENCHMARK.json, both series, their quartiles, the
pairs the change wins, the median's relative change and whether it is
within the metric's bound, plus the two revisions and each tree's
correct and failed counts. When a run exits non-zero, the summary covers
the pairs completed before it, names that run under "failed_run" (pair,
tree, exit code and the last line of its stderr), and the tool exits 1.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile


def _extract(revision, directory):
    """The files of the revision, fresh, in directory."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")


def _run(tree, args):
    """The result object of one perfbench run in tree, or, where the run
    exits non-zero, its exit code and the last line of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode,
                "stderr": (proc.stderr.strip().splitlines() or [""])[-1]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def _summary(metric, parent, change):
    """The comparison of one metric's paired series."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    pq, cq = _quartiles(parent), _quartiles(change)
    rel = (cq[1] - pq[1]) / pq[1]
    worse = rel if lower else -rel
    return {
        "unit": metric["unit"], "better": metric["better"],
        "parent": parent, "change": change,
        "parent_quartiles": pq, "change_quartiles": cq,
        "change_wins": wins, "median_change_rel": round(rel, 4),
        "bound": metric["bound"], "within_bound": worse <= metric["bound"],
        "medians_apart_more_than_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workdir", default="bench-trees")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    trees = {name: os.path.abspath(os.path.join(args.workdir, name))
             for name in ("parent", "change")}
    for name, revision in (("parent", args.parent), ("change", args.change)):
        _extract(revision, trees[name])
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}

    series = {name: {metric: [] for metric in metrics} for name in trees}
    failed = {name: 0 for name in trees}
    correct, first, failed_run = True, [], None
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {}
        for name in order:
            results[name] = result = _run(trees[name], args)
            if "exit_code" in result:
                failed_run = {"pair": pair + 1, "tree": name, **result}
                break
        if failed_run is not None:
            print(f"pair {pair + 1}: the {name} run exited {result['exit_code']}: "
                  f"{result['stderr']}", file=sys.stderr)
            break
        first.append(order[0])
        for name, result in results.items():
            correct &= bool(result["correct"])
            failed[name] += result["failed"]
            for metric in metrics:
                series[name][metric].append(result["metrics"][metric]["value"])
        print(f"pair {pair + 1}/{args.pairs}: " + ", ".join(
            f"{m} {series['parent'][m][-1]:.4g} -> {series['change'][m][-1]:.4g}"
            for m in metrics), file=sys.stderr)

    summary = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            summary = json.load(f)
    summary.setdefault("method", {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} "
                   "--trace 0",
        "pairs": "alternating: the parent runs first in odd pairs and the change first in "
                 "even pairs; first_in_pair names the tree that ran first",
        "checkout": "each revision extracted with git archive into one of two sibling "
                    "directories whose paths have equal length",
    })
    workload = {
        "revisions": {"parent": args.parent, "change": args.change},
        "pairs": len(first),
        "first_in_pair": first,
        "correct_all": correct,
        "failed_total": failed,
        # quartiles need two pairs
        "metrics": {name: _summary(metric, series["parent"][name], series["change"][name])
                    for name, metric in metrics.items()} if len(first) >= 2 else {},
    }
    if failed_run is not None:
        workload["failed_run"] = failed_run
    summary.setdefault("workloads", {})[f"{args.workload} seed {args.seed}"] = workload
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    return 0 if failed_run is None else 1


if __name__ == "__main__":
    sys.exit(main())
