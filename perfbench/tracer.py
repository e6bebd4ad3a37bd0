"""Span tracing of the dffr layers from outside the program.

``instrument`` replaces the public functions and methods of each layer
module with wrappers that record a span (name, start, end, parent) per
call.  A module-level function is rebound under every name that any
``dffr`` module holds for it (``objectives.round_optimum`` is also
``algorithms.round_optimum`` and ``metrics.round_optimum``), so calls are
traced whichever module makes them.  Methods are replaced on their class.
Private helpers are not wrapped; their time counts as self time of the
public caller.

Spans live in flat arrays (24 bytes each) and are written out once, at the
end of the run.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "harness",
    "algorithms",
    "objectives",
    "geometry",
    "network",
    "linesearch",
    "metrics",
    "trace",
)

# Public methods wrapped per class, "layer.Class.method".  Module-level
# public functions of every layer are found by inspection.
METHODS = (
    "harness.ExperimentConfig.from_dict",
    "harness.ExperimentConfig.validate",
    "harness.ExperimentConfig.to_dict",
    "harness.ExperimentConfig.build_box",
    "harness.ExperimentConfig.build_stream",
    "harness.ExperimentConfig.build_weight_matrix",
    "harness.ExperimentConfig.build_algorithm",
    "harness.ExperimentConfig.effective_lambda",
    "objectives.ObjectiveStream.value",
    "objectives.ObjectiveStream.gradient",
    "objectives.ObjectiveStream.average_value",
    "objectives.ObjectiveStream.batch_average_value",
    "objectives.QuadraticTrackingFamily.__init__",
    "objectives.QuadraticTrackingFamily.batch_average_value",
    "objectives.QuadraticTrackingFamily.line_minimum_coefficient",
    "objectives.QuadraticTrackingFamily.unconstrained_optimum",
    "geometry.BoxSet.contains",
    "geometry.BoxSet.project",
    "geometry.BoxSet.sample",
    "geometry.ShrunkSet.contains",
    "geometry.ShrunkSet.project",
    "geometry.ShrunkSet.sample",
    "metrics.BoundInputs.from_traces",
    "trace.Trace.gaps",
    "trace.Trace.nu",
    "trace.Trace.eps_seq",
    "trace.Trace.eps_increments",
    "trace.Trace.initial_norms",
    "trace.Trace.from_gap_sequence",
)


class SpanRecorder:
    """Flat in-memory span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code (a phase)."""
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name_id, parent, start, end) of spans lo..hi as numpy arrays."""
        hi = len(self) if hi is None else hi
        return (
            np.frombuffer(self.name_id, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
        )

    def totals(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time) over spans lo..hi.

        Spans lo..hi must be whole subtrees (a pass), so every parent of a
        span in the range other than -1 or an outer span is in the range.
        """
        name_id, parent, start, end = self.arrays(lo, hi)
        dur = end - start
        child = np.zeros(dur.size)
        local = parent - lo
        inside = (parent >= lo) & (local < dur.size)
        np.add.at(child, local[inside], dur[inside])
        self_time = dur - child
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        selfs = np.bincount(name_id, weights=self_time, minlength=size)
        return {
            self.names[k]: (int(calls[k]), float(selfs[k]))
            for k in range(size)
            if calls[k]
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        name_id, parent, start, end = self.arrays()
        np.savez(
            path,
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
            names=np.array(json.dumps(self.names)),
        )


def _modules():
    return {layer: sys.modules[f"dffr.{layer}"] for layer in LAYERS}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every layer's public functions and listed methods; undo on exit."""
    import dffr.harness  # noqa: F401  (loads every layer module)

    modules = _modules()
    dffr_modules = [m for k, m in sys.modules.items() if k == "dffr" or k.startswith("dffr.")]
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for layer, module in modules.items():
            for fname, fn in list(_public_functions(module)):
                wrapped = recorder.wrap(fn, f"{layer}.{fname}")
                for holder in dffr_modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            rebind(holder, attr, wrapped)
        for spec in METHODS:
            layer, cls_name, attr = spec.split(".")
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(raw.__func__, spec))
            elif isinstance(raw, staticmethod):
                new = staticmethod(recorder.wrap(raw.__func__, spec))
            elif isinstance(raw, property):
                new = property(recorder.wrap(raw.fget, spec), raw.fset, raw.fdel, raw.__doc__)
            else:
                new = recorder.wrap(raw, spec)
            rebind(cls, attr, new)
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# --- per-layer metrics ---------------------------------------------------------

CONFIG_SPANS = {
    "harness.preset",
    "harness.parse_config",
    "harness.ExperimentConfig.from_dict",
    "harness.ExperimentConfig.validate",
    "harness.ExperimentConfig.build_box",
    "harness.ExperimentConfig.build_stream",
    "harness.ExperimentConfig.build_weight_matrix",
    "harness.ExperimentConfig.build_algorithm",
    "harness.ExperimentConfig.effective_lambda",
}
STEP_SPANS = {
    "algorithms.gradient_free_step",
    "algorithms.projection_free_step",
    "algorithms.projected_gradient_step",
}
PROJECT_SPANS = {"geometry.BoxSet.project", "geometry.ShrunkSet.project", "geometry.project"}
CONTAINS_SPANS = {"geometry.BoxSet.contains", "geometry.ShrunkSet.contains"}
SAMPLE_SPANS = {
    "geometry.BoxSet.sample",
    "geometry.ShrunkSet.sample",
    "geometry.sample_unit_sphere",
    "geometry.sample_unit_ball",
    "geometry.sphere_batch",
    "geometry.ball_batch",
}
BOUND_SPANS = {
    "metrics.BoundInputs.from_traces",
    "metrics.gradient_free_regret_bound",
    "metrics.gradient_free_constant_step_bound",
    "metrics.projection_free_regret_bound",
}

# Per-layer metric -> unit.  Counts repeat exactly between passes and runs.
PER_LAYER = {
    "objectives.value_calls_per_agent_round": "calls/agent-rnd",
    "objectives.value_calls": "count",
    "objectives.value_s": "s",
    "objectives.gradient_calls": "count",
    "objectives.round_optimum_calls": "count",
    "objectives.round_optimum_s": "s",
    "objectives.stream_build_calls": "count",
    "objectives.stream_build_s": "s",
    "network.validate_calls": "count",
    "network.validate_s": "s",
    "harness.config_s": "s",
    "algorithms.step_calls": "count",
    "algorithms.step_s": "s",
    "algorithms.run_self_s": "s",
    "geometry.project_calls": "count",
    "geometry.contains_calls": "count",
    "geometry.sample_calls": "count",
    "geometry.lmo_calls": "count",
    "metrics.forgetting_series_calls": "count",
    "metrics.forgetting_series_s": "s",
    "metrics.bound_eval_s": "s",
    "metrics.optimum_path_s": "s",
    "harness.summary_s": "s",
    "harness.write_trace_s": "s",
    "harness.trace_bytes": "bytes",
    "harness.read_trace_s": "s",
    "trace.gaps_calls": "count",
    "linesearch.golden_section_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}


def layer_metrics(totals: dict[str, tuple[int, float]], agent_rounds: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""

    def calls(names):
        names = {names} if isinstance(names, str) else names
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(names):
        names = {names} if isinstance(names, str) else names
        return float(sum(totals.get(n, (0, 0.0))[1] for n in names))

    def in_layer(layer):
        return {n for n in totals if n.startswith(layer + ".")}

    value = "objectives.ObjectiveStream.value"
    out = {
        "objectives.value_calls_per_agent_round": calls(value) / agent_rounds,
        "objectives.value_calls": calls(value),
        "objectives.value_s": self_s(value),
        "objectives.gradient_calls": calls("objectives.ObjectiveStream.gradient"),
        "objectives.round_optimum_calls": calls("objectives.round_optimum"),
        "objectives.round_optimum_s": self_s("objectives.round_optimum"),
        "objectives.stream_build_calls": calls("objectives.QuadraticTrackingFamily.__init__"),
        "objectives.stream_build_s": self_s("objectives.QuadraticTrackingFamily.__init__"),
        "network.validate_calls": calls("network.validate_weight_matrix"),
        "network.validate_s": self_s("network.validate_weight_matrix"),
        "harness.config_s": self_s(CONFIG_SPANS),
        "algorithms.step_calls": calls(STEP_SPANS),
        "algorithms.step_s": self_s(STEP_SPANS | {"algorithms.gradient_estimate"}),
        "algorithms.run_self_s": self_s("algorithms.run"),
        "geometry.project_calls": calls(PROJECT_SPANS),
        "geometry.contains_calls": calls(CONTAINS_SPANS),
        "geometry.sample_calls": calls(SAMPLE_SPANS),
        "geometry.lmo_calls": calls("geometry.lmo"),
        "metrics.forgetting_series_calls": calls("metrics.forgetting_weighted_series"),
        "metrics.forgetting_series_s": self_s("metrics.forgetting_weighted_series"),
        "metrics.bound_eval_s": self_s(BOUND_SPANS),
        "metrics.optimum_path_s": self_s("metrics.optimum_path_lengths"),
        "harness.summary_s": self_s("harness.run_experiment"),
        "harness.write_trace_s": self_s("harness.write_trace"),
        "harness.read_trace_s": self_s("harness.read_trace"),
        "trace.gaps_calls": calls("trace.Trace.gaps"),
        "linesearch.golden_section_calls": calls("linesearch.golden_section"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(in_layer(layer))
    out["tracing.spans"] = sum(c for c, _ in totals.values())
    return out
