"""scripts/bench_pairs.py keeps only valid runs as pairs."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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
    result = bench_pairs.run_once(checkout, "paper-presets", 7)
    assert set(result.pop("machine_load")) == {"steal_s", "other_cpu_s"}
    assert result == VALID


def fake_stat(user: int, steal: int) -> str:
    """A /proc/stat text whose cpu line has these user and steal ticks."""
    return f"cpu  {user} 20 30 4000 50 6 7 {steal} 9 0\ncpu0 50 10 15 2000 25 3 3 4 0 0\nintr 5 1\n"


def test_machine_cpu_reads_busy_and_stolen_seconds(bench_pairs, tmp_path):
    """Busy is user, nice, system, irq and softirq; idle, iowait, steal and
    guest are not."""
    hz = os.sysconf("SC_CLK_TCK")
    stat = tmp_path / "stat"
    stat.write_text(fake_stat(user=100, steal=8))
    assert bench_pairs.machine_cpu(stat) == ((100 + 20 + 30 + 6 + 7) / hz, 8 / hz)
    assert bench_pairs.machine_cpu(tmp_path / "missing") is None
    stat.write_text("cpu  1 2 3\n")  # too few fields
    assert bench_pairs.machine_cpu(stat) is None


def test_machine_load_is_the_busy_time_outside_the_run(bench_pairs):
    assert bench_pairs.machine_load((10.0, 1.0), (13.5, 1.25), 2.0) == {"steal_s": 0.25, "other_cpu_s": 1.5}
    for readings in [(None, (13.5, 1.25)), ((10.0, 1.0), None)]:
        assert bench_pairs.machine_load(*readings, 2.0) == {"steal_s": None, "other_cpu_s": None}


def test_a_run_records_the_machines_load_during_it(bench_pairs, tmp_path):
    """The fake run adds 5 s of busy time and 2 s of steal to the stat file; its
    own CPU time, under a second, is taken off the busy time."""
    hz = os.sysconf("SC_CLK_TCK")
    stat = tmp_path / "stat"
    stat.write_text(fake_stat(user=100, steal=8))
    checkout = checkout_printing(tmp_path / "busy", VALID)
    run = checkout / "perfbench" / "run.py"
    after = fake_stat(user=100 + 5 * hz, steal=8 + 2 * hz)
    run.write_text(f"open({str(stat)!r}, 'w').write({after!r})\n" + run.read_text())
    load = bench_pairs.run_once(checkout, "paper-presets", 7, stat)["machine_load"]
    assert load["steal_s"] == 2.0
    assert 4.0 < load["other_cpu_s"] < 5.0
    no_stat = bench_pairs.run_once(checkout, "paper-presets", 7, tmp_path / "missing")["machine_load"]
    assert no_stat == {"steal_s": None, "other_cpu_s": None}


def test_each_sides_median_load_is_summarized(bench_pairs):
    loads = {"parent": [(0.0, 1.0), (0.5, 3.0), (0.25, 2.0)], "change": [(0.0, 0.5), (0.0, 0.25), (0.0, 0.0)]}
    pairs = [
        {side: {"machine_load": {"steal_s": loads[side][k][0], "other_cpu_s": loads[side][k][1]}} for side in loads}
        for k in range(3)
    ]
    assert bench_pairs.load_medians(pairs) == {
        "parent": {"steal_s": 0.25, "other_cpu_s": 2.0},
        "change": {"steal_s": 0.0, "other_cpu_s": 0.25},
    }
    pairs[1]["change"]["machine_load"]["other_cpu_s"] = None
    assert bench_pairs.load_medians(pairs)["change"] == {"steal_s": 0.0, "other_cpu_s": None}


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


def test_machine_records_whether_bytecode_is_written(bench_pairs, monkeypatch):
    assert bench_pairs.machine()["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
    for flag in (1, 0):
        monkeypatch.setattr(sys, "flags", SimpleNamespace(dont_write_bytecode=flag))
        assert bench_pairs.machine()["dont_write_bytecode"] is bool(flag)


def _git(repo: Path, *args: str) -> str:
    config = ["-c", "user.name=bench", "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false"]
    proc = subprocess.run(["git", "-C", str(repo), *config, *args], capture_output=True, text=True, check=True)
    return proc.stdout.strip()


@pytest.fixture
def repo(tmp_path):
    """A git repository whose one commit holds src/dffr/a.py and README."""
    (tmp_path / "src" / "dffr").mkdir(parents=True)
    (tmp_path / "src" / "dffr" / "a.py").write_text("A = 1\n")
    (tmp_path / "README").write_text("readme\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    return tmp_path


@pytest.mark.parametrize("edit", ["clean", "tracked-edit", "untracked-module"])
def test_commit_records_the_src_tree_as_run(bench_pairs, repo, edit):
    """The recorded ``src_tree`` is that of a commit holding exactly the files
    on disk, and a new module not yet added counts as dirty."""
    if edit == "tracked-edit":
        (repo / "src" / "dffr" / "a.py").write_text("A = 2\n")
    elif edit == "untracked-module":
        (repo / "src" / "dffr" / "b.py").write_text("B = 1\n")
    recorded = bench_pairs.commit(repo)
    assert recorded["head"] == _git(repo, "rev-parse", "HEAD")
    assert recorded["dirty"] is (edit != "clean")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "--allow-empty", "-m", "as run")
    assert recorded["src_tree"] == _git(repo, "rev-parse", "HEAD:src")
    assert _git(repo, "status", "--porcelain") == ""


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


@pytest.mark.parametrize(
    "parent, change, unresolved",
    [
        ([1.5, 1.75, 1.75, 2.0, 2.0, 2.0, 2.0, 2.25, 2.25, 2.5], [2.0] * 10, False),  # 0.375 < 0.25 * 2
        ([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 5.0], [3.0] * 10, True),  # 1 > 0.25 * 3
        ([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 5.0], [0.5] * 10, False),  # every change run lower
        ([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 5.0], [0.5] * 9 + [1.0], True),  # one ties the lowest
    ],
    ids=["narrow-parent", "wide-parent", "wide-parent-all-lower", "wide-parent-one-not-lower"],
)
def test_summary_says_whether_the_parents_spread_is_wider_than_the_bound(bench_pairs, parent, change, unresolved):
    summary = bench_pairs.summarize(_pairs(parent, change), {"save_s": 0.25})["save_s"]
    assert summary["unresolved"] is unresolved


def test_a_metric_without_a_bound_is_not_judged_against_one(bench_pairs):
    summary = bench_pairs.summarize(_pairs([1.0, 2.0, 3.0], [9.0, 9.0, 9.0]), {"run_s": 0.25})["save_s"]
    assert summary["worse_beyond_bound"] is None
    assert summary["unresolved"] is None


def test_bounds_are_read_from_the_benchmark_file(bench_pairs):
    benchmark = json.loads(bench_pairs.BENCHMARK.read_text())
    bounds = bench_pairs.end_to_end_bounds()
    assert bounds == {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    assert "rescore_s" in bounds


def benchmark_checkout(root: Path, run_py: str) -> Path:
    """A checkout with a BENCHMARK.json, a perfbench/workloads.py and this
    perfbench/run.py, which leaves a file ``ran`` in the checkout if it runs."""
    checkout_printing(root, VALID)
    (root / "BENCHMARK.json").write_text('{"end_to_end": []}\n')
    (root / "perfbench" / "workloads.py").write_text("CASES = []\n")
    (root / "perfbench" / "run.py").write_text(f"open('ran', 'w')\n{run_py}")
    (root / "perfbench" / "README.md").write_text(f"{root.name}\n")  # not part of the benchmark
    return root


def test_the_same_benchmark_gives_its_digest_on_both_sides(bench_pairs, tmp_path):
    sides = {side: benchmark_checkout(tmp_path / side, "print(1)\n") for side in ("parent", "change")}
    digests = bench_pairs.check_same_benchmark(sides)
    files = ["BENCHMARK.json", "perfbench/run.py", "perfbench/workloads.py"]
    lines = "".join(
        f"{hashlib.sha256((sides['parent'] / name).read_bytes()).hexdigest()}  {name}\n" for name in files
    )
    assert digests == dict.fromkeys(sides, hashlib.sha256(lines.encode()).hexdigest())


@pytest.mark.parametrize("edit", ["run.py", "new.py", "BENCHMARK.json"])
def test_different_benchmarks_end_the_script_before_any_run(bench_pairs, tmp_path, monkeypatch, edit):
    sides = {side: benchmark_checkout(tmp_path / side, "print(1)\n") for side in ("parent", "change")}
    changed = sides["change"] / ("BENCHMARK.json" if edit == "BENCHMARK.json" else f"perfbench/{edit}")
    changed.write_text('{"end_to_end": [], "workloads": []}\n' if edit == "BENCHMARK.json" else "print(2)\n")
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(sides["parent"]), "--change", str(sides["change"]),
        "--workload", "paper-presets", "--seeds", "1..2", "--out", str(out),
    ])
    with pytest.raises(SystemExit) as caught:
        bench_pairs.main()
    name = "BENCHMARK.json" if edit == "BENCHMARK.json" else f"perfbench/{edit}"
    assert str(caught.value) == (
        f"the checkouts measure with different benchmarks: {name} differ "
        f"between {sides['parent']} and {sides['change']}"
    )
    assert not any((path / "ran").exists() for path in sides.values()) and not out.exists()
