"""Experiment configuration, presets, execution, and trace serialization.

Configs are declarative JSON documents with nested sections (problem,
topology, algorithm); every cross-field constraint is checked at parse time.
A run writes, per seed, a CSV trace body, a JSON metadata sidecar and a
binary copy of the parsed body; the CSV bytes are a pure function of
(config, seed), so identical runs are byte-identical.  ``score`` builds a
run's whole summary from its traces, so the traces ``read_trace`` gives back
and the config in a sidecar rebuild the written summary byte for byte.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import re
import reprlib
import signal
import sys
import tempfile
import threading
import time
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import algorithms, metrics, network
from .algorithms import AlgorithmConfig, StepSchedule
from .errors import (
    ConstraintViolation,
    DffrError,
    MalformedTrace,
    ParseError,
    SchemaVersionMismatch,
    UnknownParameter,
)
from .geometry import BoxSet, ShrunkSet
from .metrics import BoundInputs
from .network import MixingConstants, WeightMatrix, generator_matrix, mixing_constants
from .objectives import ObjectiveStream, QuadraticTrackingFamily, paper_tracking_stream
from .trace import Trace

SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"

# Thresholds of the tracking benchmark: agreement and target-tracking use
# 0.001 on decisions; the regret-crossing diagnostic uses 0.01.
CONSENSUS_THRESHOLD = 1e-3
TRACKING_THRESHOLD = 1e-3
REGRET_CROSS_THRESHOLD = 1e-2

_NUMBER_EXPR = r"\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*"
_TARGET_EXPR = re.compile(rf"^{_NUMBER_EXPR}(?:/\s*t\s*\^{_NUMBER_EXPR})?$")

_CUSTOM_STREAMS: dict[str, callable] = {}


def register_stream(name: str, factory) -> None:
    """Register a named stream factory: factory(problem: ProblemConfig) -> ObjectiveStream."""
    _CUSTOM_STREAMS[name] = factory


@dataclass
class ProblemConfig:
    stream: str = "paper_tracking"
    horizon: int = 1000
    box: list = field(default_factory=lambda: [[-10.0, 10.0]])
    scales: list | None = None
    target: str | None = None
    custom_name: str | None = None


@dataclass
class TopologyConfig:
    generator: str | None = "paper4"
    params: dict = field(default_factory=dict)
    matrix: list | None = None
    B: int = 1
    lambda_override: float | None = None


@dataclass
class ExperimentConfig:
    problem: ProblemConfig
    name: str = "experiment"
    topology: TopologyConfig | None = None
    algorithm: dict | None = None
    rho: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: [0])
    bounds: bool = False
    out: str | None = None
    _built: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "problem": asdict(self.problem),
            "topology": asdict(self.topology) if self.topology else None,
            "algorithm": copy.deepcopy(self.algorithm),
            "rho": list(self.rho),
            "seeds": list(self.seeds),
            "bounds": self.bounds,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_fields(raw, _CONFIG_FIELDS, ParseError, "field")
        fields = copy.deepcopy({k: v for k, v in raw.items() if k != "schema_version"})
        fields["problem"] = ProblemConfig(**fields["problem"])
        for section in ("topology", "algorithm"):
            if fields.get(section) is None and fields["problem"].stream != "remark1":
                raise ParseError(f"config is missing the {section!r} section")
        if fields.get("topology") is not None:
            fields["topology"] = TopologyConfig(**fields["topology"])
        cfg = cls(**fields)
        cfg.validate()
        return cfg

    # --- construction of the experiment pieces -----------------------------

    def build_box(self) -> BoxSet:
        box = self.problem.box
        bounds = np.asarray(box, dtype=float)
        try:
            return BoxSet(bounds[:, 0], bounds[:, 1])
        except (ValueError, DffrError) as exc:
            raise ParseError(f"field 'problem.box' {box!r} is not a box: {exc}") from None

    def build_stream(self) -> ObjectiveStream | None:
        p = self.problem
        if p.stream == "paper_tracking":
            return paper_tracking_stream(horizon=p.horizon)
        if p.stream == "quadratic":
            if p.scales is None or p.target is None:
                raise ParseError("quadratic stream needs 'scales' and 'target'")
            target = _parse_target(p.target)
            try:
                return QuadraticTrackingFamily(p.scales, target, self.build_box(), p.horizon)
            except ArithmeticError:  # t**p overflows, or underflows to 0
                raise ConstraintViolation(
                    f"problem.target {p.target!r} leaves the floats by round {p.horizon}"
                ) from None
        if p.stream == "custom":
            if p.custom_name not in _CUSTOM_STREAMS:
                raise ParseError(f"unknown custom stream {p.custom_name!r}")
            return _CUSTOM_STREAMS[p.custom_name](p)
        return None  # remark1: a hand-set gap sequence, no stream

    def build_weight_matrix(self) -> WeightMatrix:
        t = self.topology
        if t.matrix is not None:
            return network.validate_weight_matrix(t.matrix, B=t.B)
        if t.generator is None:
            raise ParseError("topology needs either a generator or a matrix")
        try:
            w = generator_matrix(t.generator, **t.params)
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"field 'topology' has params {t.params!r} that {t.generator!r} refuses: {exc}"
            ) from None
        return network.validate_weight_matrix(w, B=t.B)

    def build_algorithm(self) -> AlgorithmConfig:
        section = dict(self.algorithm)
        step = section.pop("step", None)
        return AlgorithmConfig(**section, step=StepSchedule(**step) if step else None)

    def built(self) -> tuple[ObjectiveStream | None, WeightMatrix]:
        """The stream and weight matrix, built once and shared by every seed.

        They are built again if the problem or topology section changed since.
        """
        key = repr((self.problem, self.topology))
        if self._built is None or self._built[0] != key:
            self._built = (
                key,
                (self.build_stream(), self.build_weight_matrix()),
            )
        return self._built[1]

    def effective_lambda(self) -> float:
        if self.topology.lambda_override is not None:
            return float(self.topology.lambda_override)
        return mixing_constants(self.built()[1]).lam

    # --- validation ---------------------------------------------------------

    def validate(self) -> None:
        p = self.problem
        if p.stream == "remark1":
            self._check_run_bytes("remark1", 1, 1)
            return
        box = self.build_box()
        try:
            algo = self.build_algorithm()
        except ValueError as exc:
            raise ConstraintViolation(str(exc)) from None
        stream, wm = self.built()
        own = np.column_stack([stream.box.lower, stream.box.upper]).tolist()
        if own != np.column_stack([box.lower, box.upper]).tolist():
            raise ConstraintViolation(
                f"problem.box {p.box} is not the box of the {p.stream!r} stream, {own}"
            )
        if wm.n != stream.n:
            raise ConstraintViolation(
                f"the topology has {wm.n} agents, the {p.stream!r} stream has {stream.n}"
            )
        self._check_run_bytes(algo.kind, stream.n, stream.d)
        if algo.kind == "gradient_free":
            try:
                ShrunkSet(box, algo.delta)
            except ValueError as exc:
                raise ConstraintViolation(f"smoothing {exc}") from None
        constants = {"L": stream.L, "L_s": stream.L_s, "L_1": stream.L_1}
        if bad := [f"{name} = {value!r}" for name, value in constants.items() if not math.isfinite(value)]:
            raise ConstraintViolation(
                f"the run needs finite stream constants; the {p.stream!r} stream has {', '.join(bad)}"
            )
        if self.bounds:
            if algo.kind == "projected_gd":
                raise ConstraintViolation("no bound evaluator exists for the projected_gd baseline")
            if algo.kind == "projection_free" and algo.alpha0 is None:
                raise ConstraintViolation("bound evaluation for projection_free needs alpha0")
            lam = self.effective_lambda()
            # The largest row sum of |W - 1/n| bounds that modulus from above, so
            # an override at or above it (the presets') needs no eigen-solver,
            # whose first call adds about 0.6 MB of LAPACK pages to a process.
            if (
                self.topology.lambda_override is not None
                and wm.B == 1
                and lam < np.max(np.sum(np.abs(wm.w - 1.0 / wm.n), axis=1))
            ):
                floor = network.second_eigenvalue_modulus(wm)
                if lam < floor:
                    raise ConstraintViolation(
                        f"topology.lambda_override {lam!r} is below {floor:.6g}, the weight matrix's "
                        "second-largest eigenvalue modulus, so its mixing bound cannot hold"
                    )
            for rho in self.rho:
                if rho <= lam:
                    raise ConstraintViolation(
                        f"bound evaluation needs rho > lambda, got rho={rho}, lambda={lam}"
                    )

    def _check_run_bytes(self, kind: str, n: int, d: int) -> None:
        T, S = self.problem.horizon, len(self.seeds)
        if (need := run_bytes(kind, T, S, n, d)) > MAX_RUN_BYTES:
            raise ConstraintViolation(
                f"the run's arrays would take about {need:.3g} bytes for T = {T}, S = {S} seeds, "
                f"n = {n} agents and d = {d}, above the budget of {MAX_RUN_BYTES} bytes"
            )

    def stability_warnings(self) -> list[str]:
        """Known failure causes that a valid config can still have, with numbers.

        A step at or above 2/L_s, the stability limit of the steepest agent's
        gradient step, is reported with alpha_1*L_s and the last round t at
        which alpha_t*L_s >= 2 (the schedule c/t^p does not increase, so that
        round is found by bisection).
        """
        step = None if self.problem.stream == "remark1" else self.build_algorithm().step
        if step is None:
            return []
        L_s, horizon = self.built()[0].L_s, self.problem.horizon
        last, above = 0, horizon  # alpha_t*L_s >= 2 for t <= last, < 2 for t > above
        while last < above:
            mid = (last + above + 1) // 2
            last, above = (mid, above) if step(mid) * L_s >= 2.0 else (last, mid - 1)
        if last == 0:
            return []
        return [
            f"the step reaches the stability limit 2/L_s = {2.0 / L_s:.4g}: alpha_1*L_s = "
            f"{step(1) * L_s:.4g}, and alpha_t*L_s >= 2 up to round t = {last} of {horizon}"
        ]


# A field table's row: the value's test, what it asks for, an object's table, null?, required?
_Field = namedtuple("_Field", "test what fields null required", defaults=(None, False, False))


def _check_fields(raw: dict, table: dict, error: type, lead: str, path: str = "") -> None:
    """Raise ``error``, naming the dotted path after ``lead``, at the first field of
    ``raw`` that is missing, unknown to ``table`` or fails its row's test."""
    for key, row in table.items():
        if row.required and key not in raw:
            raise error(f"{lead} '{path}{key}' is missing")
    for key, value in raw.items():
        row = table.get(key)
        if row is None:
            raise error(f"{lead} '{path}{key}' is not a known field")
        if value is None and row.null:
            continue
        if not row.test(value):
            what = f"{row.what} or null" if row.null else row.what
            raise error(f"{lead} '{path}{key}' must be {what}, got {reprlib.repr(value)}")
        if row.fields:
            _check_fields(value, row.fields, error, lead, f"{path}{key}.")


def _is_int(value) -> bool:
    """An int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float; a bool is not one."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _list_of(test, least: int = 0, most: float = math.inf, distinct: bool = False):
    """A test for a list of ``least`` to ``most`` values that each pass ``test``."""
    return lambda value: isinstance(value, list) and least <= len(value) <= most and all(
        map(test, value)) and not (distinct and len(set(value)) < len(value))


def _parse_target(spec) -> tuple[float, float] | None:
    """(A, p) from an 'A/t^p' string, a number A (p = 0) or an [A, p] pair; else None."""
    if isinstance(spec, str) and (m := _TARGET_EXPR.match(spec)):
        spec = [float(m.group(1)), float(m.group(2) or 0.0)]
    elif _is_number(spec):
        spec = [spec, 0.0]
    return tuple(map(float, spec)) if _NUMBERS[0](spec) and len(spec) == 2 else None


def _is_table(value, width: int | None = None, most: float = math.inf) -> bool:
    """A list of 1 to ``most`` number lists, each ``width`` long, or as long as the list."""
    rows = _list_of(_list_of(_is_number), 1, most)(value)
    return rows and all(len(row) == (width or len(value)) for row in value)


def _one_of(choices) -> tuple:
    return (lambda value: value in choices), "one of " + ", ".join(map(repr, choices))


def _at_most(kind: tuple, limit: int) -> tuple:
    return (lambda value: kind[0](value) and value <= limit), f"{kind[1]} at most {limit}"


# (test, what it asks for) of the kinds of value the field tables share.
_ANY = (lambda value: True), "any value"
_BOOL = (lambda value: isinstance(value, bool)), "true or false"
_STRING = (lambda value: isinstance(value, str)), "a string"
_OBJECT = (lambda value: isinstance(value, dict)), "an object"
_COUNT = (lambda value: _is_int(value) and value >= 0), "a non-negative integer"
_POSITIVE_INT = (lambda value: _is_int(value) and value >= 1), "a positive integer"
_POSITIVE = (lambda value: _is_number(value) and value > 0), "a positive number"
_FRACTION = (lambda value: _is_number(value) and 0 < value < 1), "a number in (0, 1)"
_NUMBERS = _list_of(_is_number), "a list of numbers"
_SEED = (lambda value: _is_int(value) and 0 <= value < 2**64), "an integer in [0, 2**64)"
_VERSION = (lambda value: _is_int(value) and value == SCHEMA_VERSION), str(SCHEMA_VERSION)

# Parsing tables the target path c(t) round by round, so the horizon is
# bounded: 10**6 rounds parse in a few seconds.  The agent count and d are
# bounded so that a typo fails here, not in a 75 GiB matrix for 10**5 agents.
MAX_HORIZON = 10**6
MAX_AGENTS = 1000
MAX_DIMENSION = 100
# The run keeps every round of every seed in memory (``run_bytes``), so a
# config whose arrays would pass this many bytes (4 GiB) is refused.
MAX_RUN_BYTES = 2**32


def run_bytes(kind: str, T: int, S: int, n: int, d: int) -> int:
    """Bytes of the float64 arrays a run of rule ``kind`` keeps for T rounds of
    S seeds, n agents and d dimensions: per seed, round and agent the decision
    and the consensus intermediate (d values each), the consensus error, both
    losses and the estimator norm, and for the gradient-free rule its estimate
    and sphere draw (d each); per seed and round the optimum and its value.
    """
    per_agent = 2 * d + 4 + (2 * d if kind == "gradient_free" else 0)
    return 8 * S * T * (n * per_agent + d + 1)

# Every config field.  A field left out takes its default (from ProblemConfig,
# TopologyConfig, AlgorithmConfig, StepSchedule or from_dict).  The checks that
# join fields are ExperimentConfig.validate's.
_CONFIG_FIELDS = {
    "schema_version": _Field(*_VERSION),
    "name": _Field(*_STRING),
    "problem": _Field(*_OBJECT, {
        "stream": _Field(*_one_of(("paper_tracking", "quadratic", "custom", "remark1"))),
        "horizon": _Field(*_at_most(_POSITIVE_INT, MAX_HORIZON)),
        "box": _Field(
            lambda box: _is_table(box, 2, MAX_DIMENSION),
            f"a list of 1 to {MAX_DIMENSION} [lower, upper] pairs",
        ),
        "scales": _Field(
            _list_of(_POSITIVE[0], 1, MAX_AGENTS), f"a list of 1 to {MAX_AGENTS} positive numbers",
            null=True,
        ),
        "target": _Field(
            lambda value: _parse_target(value) is not None,
            "an 'A/t^p' string, a number or an [A, p] pair of numbers", null=True,
        ),
        "custom_name": _Field(*_STRING, null=True),
    }, required=True),
    "topology": _Field(*_OBJECT, {
        "generator": _Field(*_one_of(tuple(network.GENERATORS)), null=True),
        "params": _Field(*_OBJECT, {  # the generators' parameters
            "n": _Field(*_at_most(_POSITIVE_INT, MAX_AGENTS)),
            "weight": _Field(_is_number, "a number"),
        }),
        "matrix": _Field(_is_table, "a square list of number lists", null=True),
        "B": _Field(*_POSITIVE_INT),
        "lambda_override": _Field(*_FRACTION, null=True),
    }, null=True),
    "algorithm": _Field(*_OBJECT, {
        "kind": _Field(*_one_of(algorithms.ALGORITHM_KINDS), required=True),
        "step": _Field(*_OBJECT, {  # alpha_t = c / t^p
            "c": _Field(*_POSITIVE, required=True),
            "p": _Field(lambda value: _is_number(value) and value >= 0, "a non-negative number"),
        }, null=True),
        "delta": _Field(*_POSITIVE, null=True),
        "line_search": _Field(*_one_of(algorithms.LINE_SEARCH_MODES)),
        "alpha0": _Field(*_FRACTION, null=True),
        "clamp_to_feasible": _Field(*_BOOL),
    }, null=True),
    "rho": _Field(_list_of(_FRACTION[0], distinct=True), "a list of distinct numbers in (0, 1)"),
    "seeds": _Field(  # ``algorithms.agent_rngs`` masks a seed to 64 bits
        _list_of(_SEED[0], 1, distinct=True),
        "a non-empty list of distinct integers in [0, 2**64)",
    ),
    "bounds": _Field(*_BOOL),
    "out": _Field(*_STRING, null=True),
}


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"config file {path} does not exist")
    return ExperimentConfig.from_dict(_json_object(path, ParseError, "config"))


def _unreadable(path: Path, exc: OSError | UnicodeDecodeError) -> str:
    """Why the text file at ``path`` could not be read, after its name."""
    return f"{path}: {getattr(exc, 'strerror', None) or exc}"


def _json_object(path: Path, error: type, what: str) -> dict:
    """The JSON object in the file at ``path``; ``error`` names the file if it
    cannot be read, is not JSON (with the line) or is not an object (the ``what``)."""
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(_unreadable(path, exc)) from None
    if not isinstance(raw, dict):
        raise error(f"{path}: the {what} is not a JSON object")
    return raw


def strict_json(value, what: str) -> str:
    """``value`` as JSON text with sorted keys, an indent of 2 and a final newline.

    Strict JSON has no NaN or infinity, so a non-finite number raises a
    DffrError that names ``what`` was being written.
    """
    try:
        return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DffrError(f"cannot write {what} as strict JSON: {exc}") from None


def serialize_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(strict_json(cfg.to_dict(), f"the config {path}"))


# --- presets -----------------------------------------------------------------

def _tracking_base() -> dict:
    return {
        "problem": {"stream": "paper_tracking", "horizon": 1000},
        "topology": {
            "generator": "paper4",
            "B": 1,
            # Mixing rate the benchmark's forgetting factor was calibrated
            # against; the closed-form rate for omega=0.22, n=4 is 0.9965625,
            # which would reject rho=0.9875.
            "lambda_override": 0.98625,
        },
        "rho": [0.9875],
        "bounds": True,
        "seeds": [0],
    }


def _preset_alg1() -> dict:
    return _tracking_base() | {
        "name": "paper-tracking-alg1",
        "algorithm": {"kind": "gradient_free", "step": {"c": 2.0, "p": 0.5}, "delta": 0.01},
        "seeds": list(range(20)),
    }


def _preset_alg2() -> dict:
    return _tracking_base() | {
        "name": "paper-tracking-alg2",
        "algorithm": {"kind": "projection_free", "line_search": "fixed_alpha0", "alpha0": 0.002},
    }


def _preset_alg2_linesearch() -> dict:
    return _tracking_base() | {
        "name": "paper-tracking-alg2-linesearch",
        # alpha0 is used only by the bound evaluator
        "algorithm": {"kind": "projection_free", "line_search": "exact_1d", "alpha0": 0.002},
    }


def _preset_dogd() -> dict:
    return _tracking_base() | {
        "name": "paper-tracking-dogd",
        "algorithm": {"kind": "projected_gd", "step": {"c": 2.0, "p": 1.0}},
        "rho": [0.96, 0.97, 0.98],
        "bounds": False,
    }


def _preset_remark1() -> dict:
    return {
        "name": "remark1-synthetic",
        "problem": {"stream": "remark1", "horizon": 729},
        "rho": [0.9],
        "seeds": [0],
    }


PRESETS = {
    "paper-tracking-alg1": _preset_alg1,
    "paper-tracking-alg2": _preset_alg2,
    "paper-tracking-alg2-linesearch": _preset_alg2_linesearch,
    "paper-tracking-dogd": _preset_dogd,
    "remark1-synthetic": _preset_remark1,
}

PRESET_NAMES = tuple(sorted(PRESETS))


def preset(name: str) -> ExperimentConfig:
    try:
        raw = PRESETS[name]()
    except KeyError:
        raise ParseError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}") from None
    return ExperimentConfig.from_dict(raw)


# --- execution ----------------------------------------------------------------

def run_seeds(cfg: ExperimentConfig, seeds=None) -> list[Trace]:
    """One batch, a trace per seed (default ``cfg.seeds``), each labelled with its seed and ``cfg.to_dict()``."""
    seeds = list(cfg.seeds if seeds is None else seeds)
    if cfg.problem.stream == "remark1":
        gaps = metrics.power_spike_gaps(cfg.problem.horizon)
        traces = [Trace.from_gap_sequence(gaps, algorithm="remark1") for _ in seeds]
    else:
        stream, wm = cfg.built()
        traces = algorithms.run(stream, wm, cfg.build_algorithm(), T=cfg.problem.horizon, seeds=seeds)
    config = cfg.to_dict()
    for seed, trace in zip(seeds, traces):
        trace.seed, trace.config = seed, dict(config)
    return traces


def run_single(cfg: ExperimentConfig, seed: int) -> Trace:
    """One seeded run of the configured experiment: a batch of one."""
    return run_seeds(cfg, [seed])[0]


def _seed_summary(trace: Trace, rhos: list[float]) -> tuple[dict, dict[float, np.ndarray]]:
    """The per-seed summary entry, and each rho's DFFR series."""
    curves = {rho: metrics.dffr_series(trace, rho) for rho in rhos}
    consensus = metrics.consensus_diameter_series(trace)
    tracking = metrics.tracking_error_series(trace)
    return {
        "seed": trace.seed,
        "consensus_time": metrics.persistent_time_below(consensus, CONSENSUS_THRESHOLD),
        "tracking_time": metrics.persistent_time_below(tracking, TRACKING_THRESHOLD),
        "first_tracking_time": metrics.first_time_below(tracking, TRACKING_THRESHOLD),
        "final_gap": metrics.final_round_gap(trace),
        "final_cumulative_regret": float(metrics.cumulative_regret(trace)[-1]),
        "final_dffr": {repr(float(rho)): float(series[-1]) for rho, series in curves.items()},
        "regret_first_below": {
            repr(float(rho)): metrics.first_time_below(series, REGRET_CROSS_THRESHOLD)
            for rho, series in curves.items()
        },
    }, curves


def _median(values) -> float | None:
    vals = sorted(math.inf if v is None else v for v in values)
    mid = vals[len(vals) // 2] if len(vals) % 2 else 0.5 * (
        vals[len(vals) // 2 - 1] + vals[len(vals) // 2]
    )
    return None if math.isinf(mid) else mid


def _aggregate(per_seed: list[dict], rhos: list[float]) -> dict:
    agg = {
        f"median_{key}": _median([e[key] for e in per_seed])
        for key in ("consensus_time", "tracking_time", "first_tracking_time")
    }
    keys = [repr(float(rho)) for rho in rhos]
    agg["mean_final_dffr"] = {
        k: float(np.mean([e["final_dffr"][k] for e in per_seed])) for k in keys
    }
    agg["median_regret_first_below"] = {
        k: _median([e["regret_first_below"][k] for e in per_seed]) for k in keys
    }
    return agg


def _bound_curves(cfg: ExperimentConfig, traces: list[Trace], curves: list[dict]) -> dict:
    """Each rho's bound curve and the mean of the seeds' DFFR ``curves``."""
    stream, wm = cfg.built()
    mc = MixingConstants(gamma=mixing_constants(wm).gamma, lam=cfg.effective_lambda())
    algo = cfg.build_algorithm()
    out = {}
    for rho in cfg.rho:
        if algo.kind == "gradient_free":
            shrunk = ShrunkSet(stream.box, algo.delta)
            inputs = BoundInputs.from_traces(
                traces, stream, mc, rho, delta=algo.delta, path_set=shrunk
            )
            bound = metrics.gradient_free_regret_bound(inputs, algo.step)
        else:
            inputs = BoundInputs.from_traces(traces, stream, mc, rho)
            bound = metrics.projection_free_regret_bound(inputs, algo.alpha0)
        mean_dffr = np.mean([seed_curves[rho] for seed_curves in curves], axis=0)
        out[repr(float(rho))] = {
            "bound": [float(v) for v in bound],
            "mean_dffr": [float(v) for v in mean_dffr],
        }
    return out


def score(cfg: ExperimentConfig, traces: list[Trace]) -> dict:
    """The summary of one trace per configured seed, in order: the per-seed entries,
    their aggregate and, with bounds on, the bound curves.  Traces from ``run_seeds``
    or ``read_trace`` give the same summary, for any ``cfg.rho``, stored or not.
    """
    if (seeds := [trace.seed for trace in traces]) != cfg.seeds:
        raise ConstraintViolation(
            f"{cfg.name}: score needs one trace per configured seed, in order: "
            f"the config has seeds {cfg.seeds}, the traces have seeds {seeds}"
        )
    per_seed, curves = map(list, zip(*(_seed_summary(trace, cfg.rho) for trace in traces)))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": ARTIFACT_VERSION,
        "name": cfg.name,
        "config": cfg.to_dict(),
        "per_seed": per_seed,
        "aggregate": _aggregate(per_seed, cfg.rho),
    }
    if cfg.bounds and cfg.problem.stream != "remark1":
        summary["bounds"] = _bound_curves(cfg, traces, curves)
    return summary


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run every configured seed and ``score`` its traces; with an output directory,
    write each seed's trace files, then the summary.  Partial outputs are removed
    if any seed fails.
    """
    out = Path(out_dir) if out_dir else (Path(cfg.out) if cfg.out else None)
    written: list[Path] = []
    try:
        if out:
            out.mkdir(parents=True, exist_ok=True)
        traces = run_seeds(cfg)
        for trace in traces:
            if out:
                written.extend(write_trace(trace, cfg.rho, out / f"{cfg.name}-seed{trace.seed}"))
        summary = score(cfg, traces)
        if out:
            summary_path = out / f"{cfg.name}-summary.json"
            summary_path.write_text(strict_json(summary, f"the summary {summary_path}"))
            written.append(summary_path)
        summary["traces"] = traces
        return summary
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


# --- trace files ---------------------------------------------------------------

def _fmt(v) -> str:
    return repr(float(v))


# The trace body's layout after the ``t`` and ``agent`` columns: each Trace field
# in column order, its column stem, whether it has one value per agent (else one
# per round, repeated on each agent row) and whether it has one column per
# coordinate.  Per-agent fields come first; ``gap`` and ``dffr_<rho>`` follow.
_INDEX = ("t", "agent")
_LAYOUT = (
    # field, stem, per_agent, per_coordinate
    ("x", "x", True, True),
    ("z", "z", True, True),
    ("eps_norm", "eps_norm", True, False),
    ("g_norm", "g_norm", True, False),
    ("loss_self", "loss_self", True, False),
    ("loss_global", "loss_global", True, False),
    ("x_star", "xstar", False, True),
    ("f_star", "f_star", False, False),
)


def trace_columns(d: int, rhos: list[float]) -> list[str]:
    cols = list(_INDEX)
    for _, stem, _, per_coordinate in _LAYOUT:
        cols += [f"{stem}_{k}" for k in range(d)] if per_coordinate else [stem]
    return cols + ["gap"] + [f"dffr_{_fmt(rho)}" for rho in rhos]


# Per-agent values from which _write_body splits the body between two processes.
# Fork, exit and wait took 2.2-3.9 ms at a 70-90 MB RSS on a 2-vCPU Xeon VM,
# against about 1.1 us of ``repr`` per value, so a child that formats half of
# a block pays for itself from about 4,000-8,000 values.  At 16,800 values
# (n = 4, d = 1, T = 700) a split write took 22.5 ms against 31 ms in one process.
SPLIT_MIN_VALUES = 2**14


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_split() -> bool:
    """Whether work may be shared with a forked child: this platform can fork,
    more than one CPU is usable and no other Python thread runs."""
    return hasattr(os, "fork") and _usable_cpus() > 1 and threading.active_count() == 1


def _write_rounds(write, per_agent: np.ndarray, per_round: np.ndarray, lo: int, hi: int) -> None:
    """Rows of rounds lo + 1..hi (0-based rows lo..hi - 1) of the body, passed
    to ``write`` as ASCII bytes in blocks of whole rounds of about 64 KiB."""
    block, size = [], 0
    for t, (agents, tail) in enumerate(zip(per_agent[lo:hi], per_round[lo:hi].tolist()), start=lo + 1):
        tail = ",".join(map(repr, tail))
        block.append("".join([
            f"{t},{i},{','.join(map(repr, row))},{tail}\n"
            for i, row in enumerate(agents.tolist())
        ]))
        size += len(block[-1])
        if size >= 2**16 or t == hi:
            write("".join(block).encode())
            block, size = [], 0


# Values per chunk of the binary copy's rows: 128 KiB of float64 at most.
COPY_CHUNK_VALUES = 2**14
DIGEST_BYTES = 32  # SHA-256


def _write_copy(out, per_agent: np.ndarray, per_round: np.ndarray) -> None:
    """The rows ``np.loadtxt`` parses from the body, as little-endian float64.

    Row (t, i) is t + 1, i, then per_agent[t, i] and per_round[t], as the CSV
    row; every NaN becomes ``np.nan``, the value the text ``nan`` parses to.
    Chunks of whole rounds, ``COPY_CHUNK_VALUES`` values at most (one round
    if a round alone is larger), go through one reused buffer.
    """
    T, n, width = per_agent.shape
    columns = 2 + width + per_round.shape[1]
    step = max(1, COPY_CHUNK_VALUES // (n * columns))
    buffer = np.empty((min(step, T), n, columns), dtype="<f8")
    buffer[:, :, 1] = np.arange(n)
    for lo in range(0, T, step):
        chunk = buffer[:min(step, T - lo)]
        chunk[:, :, 0] = np.arange(lo + 1, lo + 1 + len(chunk))[:, None]
        chunk[:, :, 2:2 + width] = per_agent[lo:lo + len(chunk)]
        chunk[:, :, 2 + width:] = per_round[lo:lo + len(chunk), None]
        np.copyto(chunk, np.nan, where=np.isnan(chunk))
        out.write(chunk.data)


def _write_body(write, body, per_agent: np.ndarray, per_round: np.ndarray, spill_dir: Path) -> None:
    """Every round of the body through ``_write_rounds`` to ``write``, and the
    copy's rows (``_write_copy``) to ``body``.

    Below ``SPLIT_MIN_VALUES`` per-agent values, or unless ``_can_split``
    holds, this process writes all of it.  Otherwise a forked child formats
    rounds T//2 + 1..T into an anonymous temporary file in ``spill_dir``
    while this process writes rounds 1..T//2 and the copy's rows; the
    child's bytes are then passed to ``write`` in 64 KiB chunks, so the
    bytes are the same either way.  The child always leaves through
    ``os._exit``; if it fails, this process formats its rounds again, so a
    real error surfaces here with its own type.  If this process raises,
    interrupts included, the child is killed and reaped first.
    """
    T = len(per_agent)
    if per_agent.size < SPLIT_MIN_VALUES or not _can_split():
        _write_rounds(write, per_agent, per_round, 0, T)
        _write_copy(body, per_agent, per_round)
        return
    half = T // 2
    with tempfile.TemporaryFile(dir=spill_dir) as spill:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork whenever another OS thread exists, such as
            # a BLAS pool.  No other Python thread runs (``_can_split``), and the
            # child only formats numbers and writes its own file, so it takes no
            # lock another thread could hold.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                with open(spill.fileno(), "wb", closefd=False) as out:
                    _write_rounds(out.write, per_agent, per_round, half, T)
                status = 0
            finally:
                os._exit(status)
        try:
            _write_rounds(write, per_agent, per_round, 0, half)
            _write_copy(body, per_agent, per_round)
            child_ok = os.waitpid(pid, 0)[1] == 0
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if child_ok:
            spill.seek(0)
            while data := spill.read(2**16):
                write(data)
        else:
            _write_rounds(write, per_agent, per_round, half, T)


_TRACE_SUFFIXES = (".csv", ".meta.json", ".body")


def _trace_paths(base_path) -> tuple[Path, Path, Path]:
    """<base>.csv, <base>.meta.json and <base>.body, for a base path or any of
    those three files.  The suffixes are appended to the base's name, so a base
    such as ``run-rho0.96-seed0`` keeps its dots."""
    base = Path(base_path)
    for suffix in _TRACE_SUFFIXES:
        if base.name.endswith(suffix) and base.name != suffix:
            base = base.with_name(base.name.removesuffix(suffix))
            break
    return tuple(base.with_name(base.name + suffix) for suffix in _TRACE_SUFFIXES)


def write_trace(trace: Trace, rhos: list[float], base_path) -> list[Path]:
    """Write <base>.csv (deterministic body), <base>.meta.json (sidecar) and
    <base>.body (a binary copy of the parsed body); returns the three paths.

    Rows are round-major then agent; per-round values (optimum, gap, running
    regret) repeat on each agent row of the round.  Every value is written as
    ``repr(float(v))``.  The body is formatted and written one round at a
    time, and each round's per-round values are formatted once.

    <base>.body holds the array ``np.loadtxt`` gives for the CSV body, (T*n,
    width) little-endian float64 rows with every NaN as ``np.nan``, followed
    by the SHA-256 of the CSV file's bytes.  The digest is taken as the bytes
    are written, so the CSV is not read again; ``read_trace`` uses the copy
    only while that digest matches.

    ``_write_body`` writes the rows and the copy's rows, in two processes for a
    large body; either way the bytes are the same.  A write that fails, or is
    interrupted, leaves none of the three files behind.
    """
    import hashlib  # here, not at the top: the module takes about 5 ms to import

    csv_path, meta_path, body_path = _trace_paths(base_path)
    columns = trace_columns(trace.d, rhos)
    blocks = {True: [], False: []}  # per agent (T, n, width), per round (T, width)
    for name, _, per_agent, per_coordinate in _LAYOUT:
        lead = (trace.T, trace.n) if per_agent else (trace.T,)
        blocks[per_agent].append(getattr(trace, name).reshape(*lead, trace.d if per_coordinate else 1))
    per_agent = np.concatenate(blocks[True], axis=2).astype(float, copy=False)
    per_round = np.column_stack(
        [*blocks[False], trace.gaps, *(metrics.dffr_series(trace, rho) for rho in rhos)]
    ).astype(float, copy=False)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": ARTIFACT_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "algorithm": trace.algorithm,
        "seed": trace.seed,
        "T": trace.T,
        "n": trace.n,
        "d": trace.d,
        "rhos": [float(r) for r in rhos],
        "columns": columns,
        "final_eps_norm": [float(v) for v in trace.final_eps_norm],
        "config": trace.config,
    }
    digest = hashlib.sha256()
    try:
        with csv_path.open("wb") as fh, body_path.open("wb") as body:

            def write(data: bytes) -> None:
                fh.write(data)
                digest.update(data)

            write((",".join(columns) + "\n").encode())
            _write_body(write, body, per_agent, per_round, csv_path.parent)
            body.write(digest.digest())
        meta_path.write_text(strict_json(meta, f"the sidecar {meta_path}"))
    except BaseException:
        for path in (csv_path, meta_path, body_path):
            path.unlink(missing_ok=True)
        raise
    return [csv_path, meta_path, body_path]


# Every sidecar field; read_trace checks the schema version before this table.
_SIDECAR_FIELDS = {
    "schema_version": _Field(*_ANY), "artifact_version": _Field(*_ANY), "created": _Field(*_ANY),
    "config": _Field(*_ANY), "algorithm": _Field(*_STRING, required=True),
    "seed": _Field(*_SEED, null=True, required=True), "T": _Field(*_POSITIVE_INT, required=True),
    "n": _Field(*_POSITIVE_INT, required=True), "d": _Field(*_COUNT, required=True),
    "rhos": _Field(*_NUMBERS, required=True), "final_eps_norm": _Field(*_NUMBERS, required=True),
    "columns": _Field(_list_of(_STRING[0]), "a list of strings", required=True),
}


def read_trace(base_path) -> tuple[dict, Trace, dict]:
    """Re-ingest a trace; returns (meta, trace, stored running-regret columns).

    The body comes from the binary copy <base>.body when it is the copy of
    this CSV file: its size is exactly 8 bytes per value (T*n rows from the
    sidecar, by the header's width) plus the 32-byte digest, and that digest
    is the SHA-256 of the CSV file's bytes.  A helper thread hashes the CSV
    while the copy's rows are checked (``_read``), and nothing taken from the
    copy is returned or raised unless the digest matches.  Otherwise
    ``np.loadtxt`` parses the CSV body.  Both give the same array bit for
    bit, so a file reads back, or fails, the same way.  A file that cannot
    be read as text raises MalformedTrace naming it.
    """
    return _read(base_path, lambda *read: read)


def _read(base_path, then):
    """``then(meta, trace, stored)`` of the trace at ``base_path``, as
    ``read_trace`` reads it.

    With a copy of the expected size, ``then`` runs on the copy's rows while
    a helper thread hashes the CSV (``_from_copy``); if the digest differs,
    what that gave (its result, exception or warnings) is dropped and
    ``then`` runs again on the rows ``np.loadtxt`` parses from the CSV.
    """
    csv_path, meta_path, body_path = _trace_paths(base_path)
    if not csv_path.exists() or not meta_path.exists():
        raise SchemaVersionMismatch(f"missing trace files at {csv_path.with_name(csv_path.stem)}")
    meta = _json_object(meta_path, MalformedTrace, "sidecar")
    if (version := meta.get("schema_version")) != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"trace schema {version} != {SCHEMA_VERSION}")
    try:
        with csv_path.open() as fh:
            header = next(csv.reader([fh.readline()]), [])
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedTrace(_unreadable(csv_path, exc)) from None
    _check_sidecar_fields(meta_path, meta, header)

    def finish(data: np.ndarray):
        return then(meta, *_trace_of(csv_path, header, meta, data))

    if (verified := _from_copy(csv_path, body_path, meta["T"] * meta["n"], len(header), finish)) is not None:
        return verified()
    with csv_path.open() as fh:
        fh.readline()  # the header
        try:
            data = _load_rows(fh)
        except ValueError as exc:
            raise _malformed_row(csv_path, header, exc) from None
    return finish(data)


def _trace_of(csv_path: Path, header: list[str], meta: dict, data: np.ndarray) -> tuple[Trace, dict]:
    """The trace and the stored running-regret columns in the parsed body ``data``."""
    T, n, d = meta["T"], meta["n"], meta["d"]
    rows = data.shape[0]
    if rows and data.shape[1] != len(header):
        raise MalformedTrace(
            f"{csv_path}: line 2: {data.shape[1]} fields, the header has {len(header)}"
        )
    if rows != T * n:
        raise SchemaVersionMismatch(
            f"{csv_path}: line {min(rows, T * n) + 2}: trace has {rows} rows, "
            f"expected T*n = {T * n}"
        )
    body = data.reshape(T, n, len(header))
    _check_rows(csv_path, header, body, d)
    fields, pos = {}, len(_INDEX)
    for name, _, per_agent, per_coordinate in _LAYOUT:
        width = d if per_coordinate else 1
        block = body[:, :, pos:pos + width] if per_agent else body[:, 0, pos:pos + width]
        fields[name] = block if per_coordinate else block[..., 0]
        pos += width
    fields["final_eps_norm"] = np.asarray(meta["final_eps_norm"], dtype=float)
    trace = Trace(meta["algorithm"], meta["seed"], meta.get("config", {}), **fields)
    stored = dict(zip(meta["rhos"], body[:, 0, len(header) - len(meta["rhos"]):].T))
    return trace, stored


# ``warnings.catch_warnings`` swaps process-wide state and puts back what it
# found, so readers in several threads take turns inside it.
_WARNINGS_LOCK = threading.Lock()


def _load_rows(fh) -> np.ndarray:
    with _WARNINGS_LOCK, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)


# The CSV is hashed through one buffer of at most this many bytes.
HASH_CHUNK = 2**18


def _hash_csv(digest, source, buffer: bytearray, failed: list) -> None:
    """Update ``digest`` with the rest of the unbuffered binary file ``source``,
    read into ``buffer``; a read error goes to ``failed``.  Both calls release
    the GIL."""
    view = memoryview(buffer)
    try:
        while got := source.readinto(view):
            digest.update(view[:got])
    except OSError as exc:  # raised again by the thread that started this one
        failed.append(exc)


def _held(fn, *args):
    """``fn(*args)``, held: a callable that issues again the warnings ``fn``
    issued, then raises what it raised or returns what it returned."""
    with _WARNINGS_LOCK, warnings.catch_warnings(record=True) as issued:
        try:
            result, error = fn(*args), None
        except Exception as exc:
            result, error = None, exc

    def replay():
        for w in issued:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
        if error is not None:
            raise error
        return result

    return replay


def _from_copy(csv_path: Path, body_path: Path, rows: int, width: int, finish):
    """``finish`` of the (rows, width) array of <base>.body, held (``_held``),
    or None unless the file is exactly that many float64 values plus the CSV
    file's SHA-256.

    Once the size matches, a helper thread hashes the CSV while this one
    reads the copy and runs ``finish``; the helper has ended before this
    returns or raises.
    """
    import hashlib  # here, not at the top: the module takes about 5 ms to import

    size = 8 * rows * width + DIGEST_BYTES
    try:
        body = body_path.open("rb")
    except OSError:
        return None
    with body, csv_path.open("rb", buffering=0) as source:
        # The size comes first, so a sidecar cannot size the buffer alone.
        if os.fstat(body.fileno()).st_size != size:
            return None
        digest, failed = hashlib.sha256(), []
        buffer = bytearray(min(HASH_CHUNK, os.fstat(source.fileno()).st_size))
        hasher = threading.Thread(target=_hash_csv, args=(digest, source, buffer, failed))
        hasher.start()
        try:
            raw = bytearray(size)
            try:
                got = body.readinto(raw)
            except OSError:
                got = None
            if got == size:
                data = np.frombuffer(raw, dtype="<f8", count=rows * width).reshape(rows, width)
                outcome = _held(finish, data.astype(float, copy=False))
        finally:
            hasher.join()
    if failed:
        raise failed[0]
    if got != size or raw[-DIGEST_BYTES:] != digest.digest():
        return None
    return outcome


def _check_sidecar_fields(meta_path: Path, meta: dict, header: list[str]) -> None:
    """Raise MalformedTrace naming a sidecar field that is missing, wrong or at odds."""
    _check_fields(meta, _SIDECAR_FIELDS, MalformedTrace, f"{meta_path}: sidecar field")
    if len(meta["final_eps_norm"]) != meta["n"]:
        raise MalformedTrace(
            f"{meta_path}: sidecar field 'final_eps_norm' has "
            f"{len(meta['final_eps_norm'])} entries, n is {meta['n']}"
        )
    # The header and the sidecar's columns must both be trace_columns(d, rhos); a
    # huge d fails on the header's width alone.
    d, rhos = meta["d"], meta["rhos"]
    width = len(trace_columns(0, rhos)) + d * sum(per_coordinate for *_, per_coordinate in _LAYOUT)
    implied = f"{meta_path}: sidecar fields 'd' and 'rhos' imply"
    if width != len(header):
        raise MalformedTrace(f"{implied} {width} columns, the header has {len(header)}")
    for where, names in (("the header", header), ("sidecar field 'columns'", meta["columns"])):
        for want, got in zip_longest(trace_columns(d, rhos), names, fillvalue="none"):
            if want != got:
                raise MalformedTrace(f"{implied} the column {want}, {where} has {got}")


def _check_rows(csv_path: Path, header: list[str], body: np.ndarray, d: int) -> None:
    """Raise MalformedTrace at the first row off the round-major (t, agent) grid,
    or whose per-round values differ from its round's first row.
    """
    T, n, _ = body.shape
    off_grid = (body[:, :, 0] != np.arange(1, T + 1)[:, None]) | (body[:, :, 1] != np.arange(n))
    shared = len(_INDEX) + sum(  # the first per-round column
        d if per_coordinate else 1 for _, _, per_agent, per_coordinate in _LAYOUT if per_agent
    )
    bits = body[:, :, shared:].view(np.uint64)  # so -0.0 and 0.0 differ, as their text does
    differs = bits != bits[:, :1]
    bad = np.flatnonzero(off_grid | differs.any(axis=2))
    if bad.size:
        t, i = divmod(int(bad[0]), n)
        if off_grid[t, i]:
            why = f"expected round {t + 1}, agent {i}; rows run round-major over (t, agent)"
        else:
            column = header[shared + np.flatnonzero(differs[t, i])[0]]
            why = f"{column} differs from line {t * n + 2}, the first row of round {t + 1}"
        raise MalformedTrace(f"{csv_path}: line {t * n + i + 2}: {why}")


def _malformed_row(csv_path: Path, header: list[str], exc: ValueError) -> MalformedTrace:
    """Name the first body line that is not one number per header column.

    A byte that is not UTF-8 is read as U+FFFD, so its field is not a number.
    """
    with csv_path.open(errors="replace") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if not row:
                continue
            where = f"{csv_path}: line {reader.line_num}"
            if len(row) != len(header):
                return MalformedTrace(f"{where}: {len(row)} fields, expected {len(header)}")
            for name, value in zip(header, row):
                try:
                    float(value)
                except ValueError:
                    return MalformedTrace(f"{where}: {name} is not a number: {value!r}")
    return MalformedTrace(f"{csv_path}: {exc}")


def recompute_metrics(trace_path, rhos: list[float]) -> dict:
    """One seed's summary entry, as ``score`` builds it, from its stored trace
    rows only (no re-simulation), for any ``rhos``, stored or not.

    The rows come from ``read_trace``'s reader, and the entry is built while
    the CSV is hashed; it is the same with or without the binary copy.

    For every requested forgetting factor that was stored at write time, the
    recomputed running regret is compared against the stored column; the
    worst absolute deviation is reported as ``stored_dffr_max_delta``.
    """
    def entry(meta: dict, trace: Trace, stored: dict) -> dict:
        result, curves = _seed_summary(trace, rhos)
        result["stored_dffr_max_delta"] = {
            repr(float(rho)): float(np.max(np.abs(series - stored[float(rho)])))
            for rho, series in curves.items()
            if float(rho) in stored
        }
        return result

    return _read(trace_path, entry)


# --- parameter sweeps ------------------------------------------------------------

# Each sweep parameter and the config field it sets.  The "[]" marks a list
# field, which the sweep sets to the one-element list [value].
SWEEP_PARAMETERS = {
    "rho": "rho[]",
    "delta": "algorithm.delta",
    "alpha0": "algorithm.alpha0",
    "alpha_schedule_scale": "algorithm.step.c",
    "omega": "topology.params.weight",
}


def _with_value(cfg: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    """``cfg`` with the field that ``parameter`` sets at ``value``; the config must set it."""
    raw = cfg.to_dict()
    if parameter == "omega" and (topo := raw["topology"]) is not None:
        topo["lambda_override"] = None  # it was calibrated for the matrix the sweep replaces
        if topo["generator"] == "paper4":  # the 4-agent ring with edge weight 0.22
            topo.update(generator="ring", params={"n": 4, "weight": 0.22})
    field_path = SWEEP_PARAMETERS[parameter]
    *sections, key = field_path.removesuffix("[]").split(".")
    owner = raw
    for name in sections:
        owner = owner.get(name) or {}
    if key not in owner:
        raise ConstraintViolation(f"the {parameter} sweep sets {field_path}; this config lacks it")
    owner[key] = [float(value)] if field_path.endswith("[]") else float(value)
    raw["name"] = f"{cfg.name}-{parameter}{value}"
    return ExperimentConfig.from_dict(raw)


def sweep(cfg: ExperimentConfig, parameter: str, values, out_dir=None) -> list[dict]:
    """One run batch per value; returns one summary row per value."""
    if parameter not in SWEEP_PARAMETERS:
        raise UnknownParameter(
            f"unknown sweep parameter {parameter!r}; known: {', '.join(SWEEP_PARAMETERS)}"
        )
    values = list(values)
    if not values:
        warnings.warn("empty sweep value list; nothing to do", stacklevel=2)
        return []
    rows = []
    for value in values:
        sub = _with_value(cfg, parameter, value)
        summary = run_experiment(sub, out_dir=out_dir)
        first_rho = repr(float(sub.rho[0])) if sub.rho else None
        # the aggregate, with each per-rho entry taken at the first rho
        rows.append({"value": float(value)} | {
            key: entry.get(first_rho) if isinstance(entry, dict) else entry
            for key, entry in summary["aggregate"].items()
        })
    return rows
