#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and record the results.

    python3 scripts/bench_pairs.py --parent ../old --change . \\
        --workload scale-ring-n32-d10 --seeds 201..210 --out BENCH_6.json

Each seed is one pair: ``perfbench/run.py --trace 0`` of both checkouts
(each its own copy, from its own directory, at its default run length), the
parent first in odd pairs and the change first in even ones.  It refuses to
start when only one checkout's ``src/`` holds bytecode caches, since
``setup_s`` would then time a compile on one side only, and when the two
checkouts' benchmarks differ (``BENCHMARK.json`` and ``perfbench/*.py``),
naming the files that differ.  The output file
records the machine (CPU model and count, the CPUs this process may
use, whether bytecode writing is off, Python and numpy versions), each
checkout's commit (whether its tracked files or ``src/`` differ from
it, the git tree of the ``src/`` it ran, untracked files included, and
its ``benchmark_digest``), every run's result
line with the machine's load during the run (``machine_load``: the
CPU-seconds stolen by the hypervisor, and those the machine spent busy
outside the run, from ``/proc/stat``; null without it), each side's
median load, the seeds, and for each end-to-end metric the median and
quartiles of each side, the number of pairs in which the change was lower,
whether the medians differ by more than the parent's q3 - q1, whether the
change's median is worse than the parent's by more than the metric's bound
in ``BENCHMARK.json`` (relative to the parent's median), whether the
change is a gain: lower in at least 9 of every 10 pairs, with a lower
median outside the parent's spread, and whether the metric is unresolved:
the parent's q3 - q1 is wider than the bound times its median, so a change
inside the bound cannot be told from noise, unless every change run is lower
than every parent run.  An existing output file keeps its other workloads,
so one file can hold several.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from dffr import cli, harness

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PROC_STAT = Path("/proc/stat")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        # The CPUs this process may use; write_trace's worker process runs beside it.
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        # Set (PYTHONDONTWRITEBYTECODE=1 or -B): nothing caches bytecode, so every
        # set-up probe compiles src/dffr again, and setup_s holds that compile.
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def git(checkout: Path, *args: str, env: dict | None = None) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def commit(checkout: Path) -> dict:
    """HEAD, whether the tracked files or src/ differ from it, and the tree of src/ as run.

    ``src_tree`` is written from a temporary index that holds HEAD with src/
    as it is on disk, untracked files included, so it equals
    ``git rev-parse <commit>:src`` of any commit whose src/ holds exactly the
    measured files, dirty or not.
    """
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no")
                 or git(checkout, "ls-files", "--others", "--exclude-standard", "--", "src"))
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git(checkout, "read-tree", "HEAD", env=env)
        git(checkout, "add", "-A", "--", "src", env=env)
        tree = git(checkout, "write-tree", env=env)
    return {
        "head": git(checkout, "rev-parse", "HEAD") or None,
        "dirty": dirty,
        "src_tree": (tree and git(checkout, "rev-parse", f"{tree}:src")) or None,
    }


def check_bytecode_caches(sides: dict[str, Path]) -> None:
    """End the script if exactly one checkout's ``src/`` holds ``__pycache__``.

    ``setup_s`` times fresh interpreters, so the checkout without caches
    would also time compiling its sources.
    """
    cached = [path for path in sides.values() if next((path / "src").rglob("__pycache__"), None)]
    if len(cached) == 1:
        raise SystemExit(
            f"{cached[0]}: src/ holds __pycache__ and the other checkout's does not, so setup_s "
            "would time a compile on one side only; remove the caches or create them on both sides"
        )


def benchmark_files(checkout: Path) -> dict[str, str]:
    """The SHA-256 of each file of a checkout that defines its benchmark,
    ``BENCHMARK.json`` and ``perfbench/*.py``, by path, in sorted path order."""
    paths = sorted([checkout / "BENCHMARK.json", *(checkout / "perfbench").glob("*.py")])
    return {
        path.relative_to(checkout).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
        if path.is_file()
    }


def check_same_benchmark(sides: dict[str, Path]) -> dict[str, str]:
    """Each checkout's ``benchmark_digest``: the SHA-256 of its ``benchmark_files``
    as ``sha256sum`` prints them, so ``sha256sum BENCHMARK.json perfbench/*.py |
    sha256sum`` in the checkout gives it.  Ends the script, naming the files
    that differ, if the two checkouts' benchmarks are not the same."""
    files = {side: benchmark_files(path) for side, path in sides.items()}
    parent, change = files["parent"], files["change"]
    if differ := sorted(path for path in parent.keys() | change.keys() if parent.get(path) != change.get(path)):
        raise SystemExit(
            f"the checkouts measure with different benchmarks: {', '.join(differ)} differ "
            f"between {sides['parent']} and {sides['change']}"
        )
    return {
        side: hashlib.sha256("".join(f"{digest}  {path}\n" for path, digest in found.items()).encode()).hexdigest()
        for side, found in files.items()
    }


def machine_cpu(stat: Path = PROC_STAT) -> tuple[float, float] | None:
    """The machine's busy and stolen CPU-seconds since boot, summed over its
    CPUs, from the ``cpu`` line of ``stat``; None if it cannot be read.

    Busy is user, nice, system, irq and softirq time (guest time is inside
    user); idle, iowait and steal are not busy.
    """
    try:  # the first line: "cpu", then user, nice, system, idle, iowait, irq, softirq, steal ticks
        user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, stat.read_text().split()[1:9])
    except (OSError, ValueError):
        return None
    hz = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / hz, steal / hz


def machine_load(before, after, own_cpu_s: float) -> dict:
    """``steal_s`` and ``other_cpu_s`` between two ``machine_cpu`` readings:
    the stolen CPU-seconds, and the busy ones minus ``own_cpu_s``, the run's
    own.  Both are None without a reading."""
    if before is None or after is None:
        return {"steal_s": None, "other_cpu_s": None}
    return {"steal_s": after[1] - before[1], "other_cpu_s": after[0] - before[0] - own_cpu_s}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout: Path, workload: str, seed: int, stat: Path = PROC_STAT) -> dict:
    """One benchmark run of a checkout; its result line, parsed, with the
    machine's load during the run (``machine_load``) added.

    A run that fails, or whose result line is not correct or counts a failed
    operation, ends the script: it is no valid pair.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    before, own = machine_cpu(stat), _children_cpu_s()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    load = machine_load(before, machine_cpu(stat), _children_cpu_s() - own)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        raise SystemExit(
            f"{checkout}: workload {workload}, seed {seed}: the run is not valid "
            f"(correct {result.get('correct')!r}, failed {result.get('failed')!r})"
        )
    return result | {"machine_load": load}


def load_medians(pairs: list[dict]) -> dict:
    """Each side's median ``steal_s`` and ``other_cpu_s`` over the pairs; None
    if a run has none."""
    return {
        side: {
            key: None if None in (values := [p[side]["machine_load"][key] for p in pairs])
            else statistics.median(values)
            for key in ("steal_s", "other_cpu_s")
        }
        for side in ("parent", "change")
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end_bounds(path: Path = BENCHMARK) -> dict[str, float]:
    """Each end-to-end metric's bound in a BENCHMARK.json: how much worse than
    the parent's median, relative to it, the change's median may be."""
    return {metric["name"]: metric["bound"] for metric in json.loads(path.read_text())["end_to_end"]}


def summarize(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Each metric's spread on both sides and how the change compares; every
    metric is better lower.  ``worse_beyond_bound`` and ``unresolved`` are
    None for a metric without a bound."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        value = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in ("parent", "change")}
        parent, change = spread(value["parent"]), spread(value["change"])
        lower_in = sum(c < p for p, c in zip(value["parent"], value["change"]))
        outside = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        bound = bounds.get(name)
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_lower_in": lower_in,
            "outside_parent_spread": outside,
            "worse_beyond_bound": None if bound is None else change["median"] > parent["median"] * (1 + bound),
            "gain": 10 * lower_in >= 9 * len(pairs) and outside and change["median"] < parent["median"],
            "unresolved": None if bound is None else (
                parent["q3"] - parent["q1"] > bound * parent["median"]
                and not max(value["change"]) < min(value["parent"])
            ),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="one seed per pair: '1,2,3' or '1..10'")
    parser.add_argument("--out", required=True, type=Path, help="output JSON, e.g. BENCH_6.json")
    args = parser.parse_args()
    try:
        seeds = cli._parse_seeds(args)
    except harness.ParseError as exc:
        parser.error(str(exc))
    if len(seeds) < 2:
        parser.error(f"need at least 2 pairs, one seed each; got {len(seeds)} seeds")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    check_bytecode_caches(sides)
    digests = check_same_benchmark(sides)
    bounds = end_to_end_bounds()

    pairs = []
    for k, seed in enumerate(seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed)
        pairs.append(pair)
        print(
            f"pair {k + 1}/{len(seeds)} seed {seed}: "
            + ", ".join(
                f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> {pair['change']['metrics'][name]['value']:.4g}"
                for name in pair["parent"]["metrics"]
            ),
            flush=True,
        )

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["machine"] = machine()
    record.setdefault("workloads", {})[args.workload] = {
        "commits": {side: commit(path) | {"benchmark_digest": digests[side]} for side, path in sides.items()},
        "command": f"perfbench/run.py --workload {args.workload} --seed SEED --trace 0",
        "seeds": seeds,
        "pairs": pairs,
        "summary": summarize(pairs, bounds),
        "machine_load": load_medians(pairs),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
