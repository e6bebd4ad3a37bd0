"""scripts/bench_pairs.py keeps only valid runs as pairs."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout_printing(root: Path, result: dict) -> Path:
    """A checkout whose perfbench/run.py prints ``result`` as its result line."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    return root


VALID = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}


def test_valid_run_is_returned(bench_pairs, tmp_path):
    checkout = checkout_printing(tmp_path / "good", VALID)
    assert bench_pairs.run_once(checkout, "paper-presets", 7) == VALID


@pytest.mark.parametrize("fault", [{"correct": False}, {"failed": 2}, {"correct": None}])
def test_invalid_run_names_checkout_workload_and_seed(bench_pairs, tmp_path, fault):
    checkout = checkout_printing(tmp_path / "bad", {**VALID, **fault})
    with pytest.raises(SystemExit) as caught:
        bench_pairs.run_once(checkout, "scale-ring-n32-d10", 205)
    message = str(caught.value)
    assert str(checkout) in message
    assert "workload scale-ring-n32-d10, seed 205" in message


def test_machine_records_usable_cpus(bench_pairs, monkeypatch):
    assert bench_pairs.machine()["usable_cpus"] == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert bench_pairs.machine()["usable_cpus"] == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert bench_pairs.machine()["usable_cpus"] == 5


@pytest.mark.parametrize("cached", [["parent"], ["change"], [], ["parent", "change"]])
def test_bytecode_caches_on_one_side_only_are_refused(bench_pairs, tmp_path, cached):
    sides = {side: tmp_path / side for side in ("parent", "change")}
    for side, path in sides.items():
        (path / "src" / "dffr").mkdir(parents=True)
        if side in cached:
            (path / "src" / "dffr" / "__pycache__").mkdir()
    if len(cached) == 1:
        with pytest.raises(SystemExit, match="__pycache__") as caught:
            bench_pairs.check_bytecode_caches(sides)
        assert str(caught.value).startswith(f"{sides[cached[0]]}: ")
    else:
        bench_pairs.check_bytecode_caches(sides)


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [
        {side: {"metrics": {"save_s": {"value": v}}} for side, v in (("parent", p), ("change", c))}
        for p, c in zip(parent, change)
    ]


@pytest.mark.parametrize(
    "change, lower_in, outside",
    [
        ([0.5, 0.9, 1.9, 2.9, 3.9], 4, False),  # the median 0.1 lower, inside the parent's q3 - q1 of 2
        ([-1.0, -1.0, -0.5, 2.5, 3.5], 5, True),  # 2.5 lower
        ([4.5, 4.5, 4.5, 4.5, 4.5], 0, True),  # 2.5 higher
        ([2.0, 2.0, 4.0, 4.0, 4.0], 0, False),  # 2 higher: on the edge of the spread, not past it
    ],
    ids=["lower-inside", "lower-outside", "higher-outside", "higher-on-the-edge"],
)
def test_summary_says_whether_the_medians_differ_by_more_than_the_parents_spread(
    bench_pairs, change, lower_in, outside
):
    """The parent's runs 0..4 have median 2 and quartiles 1 and 3."""
    summary = bench_pairs.summarize(_pairs([0.0, 1.0, 2.0, 3.0, 4.0], change), {})["save_s"]
    assert summary["parent"] == {"median": 2.0, "q1": 1.0, "q3": 3.0}
    assert summary["change_lower_in"] == lower_in
    assert summary["outside_parent_spread"] is outside


@pytest.mark.parametrize(
    "change, worse, gain",
    [
        ([2.4] * 10, False, False),  # 20 % above the parent's median 2: inside the bound 0.25
        ([2.6] * 10, True, False),  # 30 % above
        ([1.0] * 9 + [3.0], False, True),  # lower in 9 of 10 pairs, 1 below the median, past q3 - q1 = 0.5
        ([1.0] * 8 + [3.0] * 2, False, False),  # lower in only 8 of 10
        ([1.8] * 10, False, False),  # lower in 9 of 10 pairs, but 0.2 below: inside the spread
    ],
    ids=["worse-inside-bound", "worse-past-bound", "gain", "lower-in-8-of-10", "lower-inside-spread"],
)
def test_summary_says_whether_the_change_is_worse_past_its_bound_or_a_gain(bench_pairs, change, worse, gain):
    """The parent's ten runs have median 2 and quartiles 1.8125 and 2.1875."""
    parent = [1.5, 1.75, 1.75, 2.0, 2.0, 2.0, 2.0, 2.25, 2.25, 2.5]
    summary = bench_pairs.summarize(_pairs(parent, change), {"save_s": 0.25})["save_s"]
    assert summary["parent"] == {"median": 2.0, "q1": 1.8125, "q3": 2.1875}
    assert summary["worse_beyond_bound"] is worse
    assert summary["gain"] is gain


def test_a_metric_without_a_bound_is_not_judged_against_one(bench_pairs):
    summary = bench_pairs.summarize(_pairs([1.0, 2.0, 3.0], [9.0, 9.0, 9.0]), {"run_s": 0.25})["save_s"]
    assert summary["worse_beyond_bound"] is None


def test_bounds_are_read_from_the_benchmark_file(bench_pairs):
    benchmark = json.loads(bench_pairs.BENCHMARK.read_text())
    bounds = bench_pairs.end_to_end_bounds()
    assert bounds == {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    assert "rescore_s" in bounds
