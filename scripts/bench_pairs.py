#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and record the results.

    python3 scripts/bench_pairs.py --parent ../old --change . \\
        --workload scale-ring-n32-d10 --seeds 201..210 --out BENCH_6.json

Each seed is one pair: ``perfbench/run.py --trace 0`` of both checkouts
(each its own copy, from its own directory, at its default run length), the
parent first in odd pairs and the change first in even ones.  It refuses to
start when only one checkout's ``src/`` holds bytecode caches, since
``setup_s`` would then time a compile on one side only.  The output file
records the machine (CPU model and count, the CPUs this process may
use, Python and numpy versions), each checkout's commit (whether its tree
was dirty, and the git tree of the ``src/`` it ran), every run's result
line, the seeds, and for each end-to-end metric the median and quartiles
of each side, the number of pairs in which the change was lower,
whether the medians differ by more than the parent's q3 - q1, whether the
change's median is worse than the parent's by more than the metric's bound
in ``BENCHMARK.json`` (relative to the parent's median), and whether the
change is a gain: lower in at least 9 of every 10 pairs, with a lower
median outside the parent's spread.  An existing output file keeps its
other workloads, so one file can hold several.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from dffr import cli, harness

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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
        "usable_cpus": harness._usable_cpus(),  # more than 1: write_trace can split the body
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def commit(checkout: Path) -> dict:
    """HEAD, whether the tracked files differ from it, and the tree of src/ as run.

    ``src_tree`` equals ``git rev-parse <commit>:src`` of any commit whose
    src/ is the measured one, dirty or not.
    """
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    snapshot = git(checkout, "stash", "create") if dirty else "HEAD"
    return {
        "head": git(checkout, "rev-parse", "HEAD") or None,
        "dirty": dirty,
        "src_tree": git(checkout, "rev-parse", f"{snapshot}:src") or None,
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


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run of a checkout; its result line, parsed.

    A run that fails, or whose result line is not correct or counts a failed
    operation, ends the script: it is no valid pair.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        raise SystemExit(
            f"{checkout}: workload {workload}, seed {seed}: the run is not valid "
            f"(correct {result.get('correct')!r}, failed {result.get('failed')!r})"
        )
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end_bounds(path: Path = BENCHMARK) -> dict[str, float]:
    """Each end-to-end metric's bound in a BENCHMARK.json: how much worse than
    the parent's median, relative to it, the change's median may be."""
    return {metric["name"]: metric["bound"] for metric in json.loads(path.read_text())["end_to_end"]}


def summarize(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Each metric's spread on both sides and how the change compares; every
    metric is better lower.  ``worse_beyond_bound`` is None for a metric
    without a bound."""
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
        "commits": {side: commit(path) for side, path in sides.items()},
        "command": f"perfbench/run.py --workload {args.workload} --seed SEED --trace 0",
        "seeds": seeds,
        "pairs": pairs,
        "summary": summarize(pairs, bounds),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
