#!/usr/bin/env python3
"""Benchmark of the dffr package, end to end and by layer.

    python3 perfbench/run.py --workload paper-presets --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process, with BLAS limited to
one thread.  A pass parses the workload's configs, runs every config with
``harness.run_experiment`` (in memory), saves every trace with
``harness.write_trace`` and re-scores every saved trace with
``harness.recompute_metrics``.  Passes repeat until --seconds have gone by
(at least two, so the CSV body of one config is made twice); each pass is
then checked for correctness (checks.py), one operation per check.

--trace 0 reports the end-to-end metrics: set-up time (median over fresh
interpreters, see setup_probe.py), the median wall time of each phase over
the passes, and the peak resident memory.  --trace 1 runs one untraced pass,
then traced passes with every layer's public functions wrapped (tracer.py),
and reports per-layer counts and self times plus the tracing overhead.
Spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
TMP_DIR = HERE / "tmp"

PROBES_PER_BATCH = 3
PROBE_TIMEOUT_S = 60
MIN_PASSES = 2
REPEATS = 3  # save and re-score are short phases; repeating them steadies their medians

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "save_s": "s",
    "rescore_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import dffr from this checkout's src/, or exit without a result."""
    if not (SRC / "dffr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dffr package under {SRC}")
    sys.path.insert(0, str(SRC))
    from dffr import harness

    if SRC.resolve() not in Path(harness.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported dffr from {harness.__file__}, not {SRC}")
    return harness


class Operations:
    """Counts attempted and failed operations; keeps the failures' details."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, label: str, fn, *args):
        """Run fn(*args) as one operation; None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, fn, *args) -> None:
        """Run a correctness check as one operation."""
        result = self.call(label, fn, *args)
        if result is not None and not result[0]:
            self.failures.append(f"{label}: {result[1]}")


@dataclass
class Pass:
    phases: dict = field(default_factory=lambda: {"run": [], "save": [], "rescore": []})
    results: list = field(default_factory=list)  # (case, cfg, summary)
    saved: list = field(default_factory=list)    # (case, cfg, trace, base path)
    rescored: dict = field(default_factory=dict)  # base path -> recompute_metrics results
    trace_bytes: int = 0
    csv_body: bytes = b""

    @property
    def total_s(self) -> float:
        return sum(statistics.median(samples) for samples in self.phases.values())


def run_pass(harness, ops, workload, seed, tmp: Path, span, repeats=1) -> Pass:
    """One pass over the workload; each call is timed with perf_counter.

    The save and re-score phases run ``repeats`` times (each repetition
    rewrites or re-reads the same files).
    """
    out = Pass()
    clock = time.perf_counter

    def timed(label, fn, *args):
        start = clock()
        result = ops.call(label, fn, *args)
        return result, clock() - start

    tmp.mkdir(parents=True, exist_ok=True)
    with span("bench.config"):
        cases = workloads.cases(workload, seed, harness.PRESETS)
        configs = [
            (case, ops.call(f"{case.name}: config", harness.ExperimentConfig.from_dict, case.raw))
            for case in cases
        ]
    with span("bench.run"):
        total = 0.0
        for case, cfg in configs:
            if cfg is not None:
                summary, seconds = timed(f"{case.name}: run", harness.run_experiment, cfg)
                total += seconds
                if summary is not None:
                    out.results.append((case, cfg, summary))
        out.phases["run"].append(total)
    with span("bench.save"):
        for repeat in range(repeats):
            total = 0.0
            for case, cfg, summary in out.results:
                for trace in summary["traces"]:
                    base = tmp / f"{cfg.name}-seed{trace.seed}"
                    written, seconds = timed(f"{base.name}: save", harness.write_trace, trace, cfg.rho, base)
                    total += seconds
                    if written and repeat == 0:
                        out.saved.append((case, cfg, trace, base))
            out.phases["save"].append(total)
    with span("bench.rescore"):
        for _ in range(repeats):
            total = 0.0
            for case, cfg, trace, base in out.saved:
                result, seconds = timed(f"{base.name}: rescore", harness.recompute_metrics, base, cfg.rho)
                total += seconds
                if result is not None:
                    out.rescored.setdefault(base, []).append(result)
            out.phases["rescore"].append(total)
    keep = workloads.determinism_case(workload)
    for case, cfg, trace, base in out.saved:
        csv_path = base.with_suffix(".csv")
        out.trace_bytes += csv_path.stat().st_size + base.with_suffix(".meta.json").stat().st_size
        if cfg.name == keep and not out.csv_body:
            out.csv_body = csv_path.read_bytes()
    shutil.rmtree(tmp)
    return out


def check_pass(ops: Operations, p: Pass, first_csv: bytes | None) -> None:
    """Every correctness check of checks.py that applies to the pass's outputs."""
    finals: dict[tuple[str, float], list[float]] = {}
    for case, cfg, summary in p.results:
        per_seed = {entry["seed"]: entry for entry in summary["per_seed"]}
        alg = case.algorithm
        for trace in summary["traces"]:
            label = f"{cfg.name} seed {trace.seed}"
            entry = per_seed[trace.seed]
            if case.problem is None:
                gaps = trace.loss_global.mean(axis=1) - trace.f_star
                for rho in cfg.rho:
                    ops.check(f"{label}: remark-1 spikes", checks.remark1_spikes, gaps, rho)
            else:
                ops.check(f"{label}: losses", checks.own_and_global_losses, case.problem, trace)
                ops.check(f"{label}: optimum", checks.round_optimum, case.problem, trace)
                ops.check(f"{label}: gaps", checks.gaps_nonnegative, trace)
                ops.check(f"{label}: gossip", checks.gossip, case.problem, trace)
                if alg.get("kind") == "gradient_free":
                    ops.check(f"{label}: shrunk box", checks.shrunk_box, case.problem, trace, alg["delta"])
                    ops.check(f"{label}: estimator norms", checks.estimator_norms, case.problem, trace)
            for rho in cfg.rho:
                reported = entry["final_dffr"][repr(float(rho))]
                ops.check(f"{label}: final DFFR", checks.final_dffr, trace, rho, reported)
                gaps = trace.loss_global.mean(axis=1) - trace.f_star
                finals.setdefault((cfg.name, rho), []).append(checks.explicit_dffr(gaps, rho))
        for rho_key, curve in summary.get("bounds", {}).items():
            ops.check(
                f"{cfg.name} rho {rho_key}: bound dominance",
                checks.bound_dominance,
                curve["mean_dffr"],
                curve["bound"],
                finals[(cfg.name, float(rho_key))],
            )
        if case.stable_steps:
            step = alg["step"]
            ops.check(
                f"{cfg.name}: step below 2/L_s",
                checks.step_below_stability,
                case.problem,
                step["c"],
                step.get("p", 0.0),
                cfg.problem.horizon,
            )
    by_seed = {
        (cfg.name, entry["seed"]): entry["final_dffr"]
        for _, cfg, summary in p.results
        for entry in summary["per_seed"]
    }
    for case, cfg, trace, base in p.saved:
        for result in p.rescored.get(base, []):
            ops.check(
                f"{base.name}: rescore",
                checks.rescore_matches,
                result,
                by_seed[(cfg.name, trace.seed)],
            )
    if first_csv is not None:
        ops.check("CSV body made twice", checks.identical_bytes, first_csv, p.csv_body)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its configs are validated."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[0]) - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(harness, ops, args, tmp) -> dict:
    setups: list[float] = []
    samples: dict[str, list[float]] = {"run": [], "save": [], "rescore": []}

    def probe_batch():
        for _ in range(PROBES_PER_BATCH):
            seconds = ops.call("set-up probe", probe_setup, args.workload, args.seed)
            if seconds is not None:
                setups.append(seconds)

    first_csv = None
    passes = 0
    began = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - began < args.seconds:
        probe_batch()
        # Only the timings outlive the pass, so every pass starts from the same heap.
        p = run_pass(
            harness, ops, args.workload, args.seed, tmp, lambda _: contextlib.nullcontext(),
            repeats=REPEATS,
        )
        check_pass(ops, p, first_csv)
        first_csv = p.csv_body if first_csv is None else first_csv
        passes += 1
        for phase, values in p.phases.items():
            samples[phase].extend(values)
        print(
            f"pass {passes}: "
            + ", ".join(f"{phase} " + " ".join(f"{v:.4f}" for v in values) + " s" for phase, values in p.phases.items()),
            flush=True,
        )
        del p
    probe_batch()
    print("set-up probes: " + " ".join(f"{s:.4f}" for s in setups), flush=True)
    return {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        **{f"{phase}_s": statistics.median(values) for phase, values in samples.items()},
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_pass(harness, ops, args, tmp, recorder, baseline_s: float, first_csv: bytes) -> dict:
    """One traced pass and its checks; returns the pass's per-layer metrics."""
    lo = len(recorder)
    with recorder.span("bench.pass"):
        p = run_pass(harness, ops, args.workload, args.seed, tmp, recorder.span)
    totals = recorder.totals(lo, len(recorder))
    agent_rounds = sum(
        trace.n * trace.T
        for case, _, summary in p.results
        if case.problem is not None
        for trace in summary["traces"]
    )
    layer = tracer.layer_metrics(totals, agent_rounds)
    layer["harness.trace_bytes"] = p.trace_bytes
    layer["tracing.overhead_s"] = p.total_s - baseline_s
    check_pass(ops, p, first_csv)
    print(f"traced pass: {p.total_s:.4f} s, {layer['tracing.spans']} spans", flush=True)
    return layer


def traced(harness, ops, args, tmp) -> dict:
    began = time.perf_counter()
    baseline = run_pass(harness, ops, args.workload, args.seed, tmp, lambda _: contextlib.nullcontext())
    check_pass(ops, baseline, None)
    first_csv, baseline_s = baseline.csv_body, baseline.total_s
    del baseline
    print(f"untraced pass: {baseline_s:.4f} s", flush=True)
    recorder = tracer.SpanRecorder()
    per_pass: list[dict] = []
    with tracer.instrument(recorder):
        while not per_pass or time.perf_counter() - began < args.seconds:
            per_pass.append(traced_pass(harness, ops, args, tmp, recorder, baseline_s, first_csv))
    recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    counts = [
        {k: v for k, v in layer.items() if tracer.PER_LAYER[k] != "s"} for layer in per_pass
    ]
    ops.check(
        "traced passes give identical counts",
        lambda: (all(c == counts[0] for c in counts), f"{len(counts)} traced passes"),
    )
    metrics = dict(counts[0])
    for name, unit in tracer.PER_LAYER.items():
        if unit == "s":
            metrics[name] = statistics.median(layer[name] for layer in per_pass)
    return {name: metrics[name] for name in tracer.PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    harness = load_program()
    ops = Operations()
    tmp = TMP_DIR / f"{args.workload}-{os.getpid()}"
    try:
        values = (traced if args.trace else untraced)(harness, ops, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()
    units = tracer.PER_LAYER if args.trace else END_TO_END_UNITS
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for name, value in values.items():
        print(f"{name:42s} {value!r:>24} {units[name]}")
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
