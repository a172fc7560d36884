"""tools/bench_pairs.py: the comparison of paired series, and the summary it
writes when a run fails. The tool is loaded by path, as it is no module of
the package."""

import importlib.util
import json
import os
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER = {"unit": "ref", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "1/ref", "better": "higher", "bound": 0.25}


def test_ties_count_as_a_win_for_neither_side(bench_pairs):
    parent, change = [1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0]
    assert bench_pairs._summary(LOWER, parent, change)["change_wins"] == 1
    assert bench_pairs._summary(HIGHER, parent, change)["change_wins"] == 1


def test_a_drop_in_a_higher_is_better_metric_counts_against_the_bound(bench_pairs):
    parent = [10.0, 10.0, 10.0, 10.0]
    drop = bench_pairs._summary(HIGHER, parent, [7.0, 7.0, 7.0, 7.0])
    assert (drop["median_change_rel"], drop["within_bound"]) == (-0.3, False)
    assert bench_pairs._summary(HIGHER, parent, [13.0] * 4)["within_bound"] is True
    assert bench_pairs._summary(HIGHER, parent, [8.0] * 4)["within_bound"] is True
    # the same moves in a lower-is-better metric count the other way
    assert bench_pairs._summary(LOWER, parent, [7.0] * 4)["within_bound"] is True
    assert bench_pairs._summary(LOWER, parent, [13.0] * 4)["within_bound"] is False


def test_medians_apart_more_than_the_parent_iqr(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # inclusive quartiles 2, 3, 4: IQR 2
    far = bench_pairs._summary(LOWER, parent, [5.5, 5.5, 5.5, 5.5, 5.5])
    assert far["parent_quartiles"] == [2.0, 3.0, 4.0]
    assert far["medians_apart_more_than_parent_iqr"] is True
    near = bench_pairs._summary(LOWER, parent, [5.0, 5.0, 5.0, 5.0, 5.0])
    assert near["medians_apart_more_than_parent_iqr"] is False  # 2 apart, not more


def test_a_failed_run_keeps_the_pairs_before_it(bench_pairs, tmp_path, monkeypatch):
    """The third pair's parent run fails: the two pairs before it are
    summarised, the failed run is named, and the tool exits 1."""
    runs = []

    def extract(revision, directory):
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "BENCHMARK.json"), "w") as f:
            json.dump({"end_to_end": [{"name": "iter_ref_p50", **LOWER}]}, f)

    def run(tree, args):
        runs.append(os.path.basename(tree))
        if len(runs) == 5:
            return {"exit_code": 2, "stderr": "ValueError: boom"}
        value = 10.0 if runs[-1] == "parent" else 9.0
        return {"correct": True, "failed": 0,
                "metrics": {"iter_ref_p50": {"value": value + len(runs)}}}

    out = tmp_path / "bench.json"
    monkeypatch.setattr(bench_pairs, "_extract", extract)
    monkeypatch.setattr(bench_pairs, "_run", run)
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "A", "B", "--workload", "w", "--pairs", "4",
        "--workdir", str(tmp_path / "trees"), "--out", str(out)])
    assert bench_pairs.main() == 1
    assert runs == ["parent", "change", "change", "parent", "parent"]
    workload = json.loads(out.read_text())["workloads"]["w seed 0"]
    assert workload["pairs"] == 2
    assert workload["first_in_pair"] == ["parent", "change"]
    assert workload["failed_run"] == {"pair": 3, "tree": "parent", "exit_code": 2,
                                      "stderr": "ValueError: boom"}
    metric = workload["metrics"]["iter_ref_p50"]
    assert (metric["parent"], metric["change"]) == ([11.0, 14.0], [11.0, 12.0])
