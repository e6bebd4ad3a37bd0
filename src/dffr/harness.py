"""Experiment configuration, presets, execution, and trace serialization.

Configs are declarative JSON documents with nested sections (problem,
topology, algorithm); every cross-field constraint is checked at parse time.
A run writes, per seed, a binary trace record, a JSON metadata sidecar and a
CSV rendering of the record; the CSV bytes are a pure function of
(config, seed), so identical runs are byte-identical.  ``score`` builds a
run's whole summary from its traces, so the traces ``read_trace`` gives back
and the config in a sidecar rebuild the written summary byte for byte.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import re
import reprlib
import sys
import time
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import algorithms, csvrows, metrics, network
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
from .objectives import ObjectiveStream, QuadraticTrackingFamily
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

@dataclass
class ProblemConfig:
    stream: str = "quadratic"
    horizon: int = 1000
    box: list | None = None
    scales: list | None = None
    target: str | None = None


@dataclass
class TopologyConfig:
    generator: str | None = None
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
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ParseError(f"the config must be a JSON object, got {reprlib.repr(raw)}")
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
        if p.stream == "quadratic":
            if p.box is None or p.scales is None or p.target is None:
                raise ParseError("quadratic stream needs 'box', 'scales' and 'target'")
            target = _parse_target(p.target)
            try:
                return QuadraticTrackingFamily(p.scales, target, self.build_box(), p.horizon)
            except ArithmeticError:  # t**p overflows, or underflows to 0
                raise ConstraintViolation(
                    f"problem.target {p.target!r} leaves the floats by round {p.horizon}"
                ) from None
        return None  # remark1: a hand-set gap sequence, no stream

    def build_weight_matrix(self) -> WeightMatrix:
        t = self.topology
        if t.matrix is not None:
            for name, value in (("generator", t.generator), ("params", t.params)):
                if value:
                    raise ParseError(
                        f"fields 'topology.{name}' and 'topology.matrix' are both given; "
                        "a topology names either a generator or a matrix"
                    )
            return network.validate_weight_matrix(t.matrix)
        if t.generator is None:
            raise ParseError("topology needs either a generator or a matrix")
        try:
            w = generator_matrix(t.generator, **t.params)
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"field 'topology' has params {t.params!r} that {t.generator!r} refuses: {exc}"
            ) from None
        return network.validate_weight_matrix(w)

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
            given = {"topology": self.topology, "algorithm": self.algorithm, "problem.box": p.box,
                     "problem.scales": p.scales, "problem.target": p.target, "bounds": self.bounds or None}
            if unread := [name for name, value in given.items() if value is not None]:
                raise ConstraintViolation(
                    f"the remark1 stream is a hand-set gap sequence; a run of it reads none of "
                    f"{', '.join(unread)}, so the config must leave them out"
                )
            self._check_run_bytes(1, 1)
            return
        try:
            algo = self.build_algorithm()
        except ValueError as exc:
            raise ConstraintViolation(str(exc)) from None
        stream, wm = self.built()
        if wm.n != stream.n:
            raise ConstraintViolation(
                f"the topology has {wm.n} agents, the {p.stream!r} stream has {stream.n}"
            )
        self._check_run_bytes(stream.n, stream.d)
        if (step := algo.step) is not None:
            # The float power first: an integer p would take t**p exactly, which
            # can take forever.  The schedule does not increase, so a positive
            # finite step at round T is one at every round before it.
            T = p.horizon
            try:
                alphas = (step.c / float(T) ** float(step.p), step(T))
            except ArithmeticError:
                alphas = (math.nan,)
            if not all(0.0 < alpha < math.inf for alpha in alphas):
                raise ConstraintViolation(
                    f"algorithm.step {self.algorithm['step']!r} leaves the positive floats by round {T}"
                )
        if algo.kind == "gradient_free":
            try:
                ShrunkSet(stream.box, algo.delta)
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

    def _check_run_bytes(self, n: int, d: int) -> None:
        T, S = self.problem.horizon, len(self.seeds)
        if (need := run_bytes(T, S, n, d)) > MAX_RUN_BYTES:
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
# bounded: 10**6 rounds parse in a few seconds.  The agent count, seed count
# and d are bounded so that a typo fails here, not in a 75 GiB matrix for
# 10**5 agents or a list of 10**11 seeds.
MAX_HORIZON = 10**6
MAX_AGENTS = 1000
MAX_SEEDS = 2**17
MAX_DIMENSION = 100
# The run keeps every round of every seed in memory (``run_bytes``), so a
# config whose arrays would pass this many bytes (4 GiB) is refused.
MAX_RUN_BYTES = 2**32


def run_bytes(T: int, S: int, n: int, d: int) -> int:
    """Bytes of the float64 arrays a run keeps for T rounds of S seeds, n
    agents and d dimensions, whatever its rule: per seed, round and agent the
    decision and the consensus intermediate (d values each), the consensus
    error, both losses and the estimator norm; per round the optimum and its
    value, one path that every seed's trace shares; and the two buffers of one
    block of rounds (``algorithms.block_rounds``) that hold the gradient-free
    rule's sphere draws and estimates, (rounds, S, n, d) each.
    """
    block = algorithms.block_rounds(T, S, n, d)
    return 8 * T * (S * n * (2 * d + 4) + d + 1) + 16 * block * S * n * d

# Every config field.  A field left out takes its default (from ProblemConfig,
# TopologyConfig, AlgorithmConfig, StepSchedule or from_dict).  The checks that
# join fields are ExperimentConfig.validate's.
_CONFIG_FIELDS = {
    "schema_version": _Field(*_VERSION),
    "name": _Field(*_STRING),
    "problem": _Field(*_OBJECT, {
        "stream": _Field(*_one_of(("quadratic", "remark1"))),
        "horizon": _Field(*_at_most(_POSITIVE_INT, MAX_HORIZON)),
        "box": _Field(
            lambda box: _is_table(box, 2, MAX_DIMENSION),
            f"a list of 1 to {MAX_DIMENSION} [lower, upper] pairs", null=True,
        ),
        "scales": _Field(
            _list_of(_POSITIVE[0], 1, MAX_AGENTS), f"a list of 1 to {MAX_AGENTS} positive numbers",
            null=True,
        ),
        "target": _Field(
            lambda value: _parse_target(value) is not None,
            "an 'A/t^p' string, a number or an [A, p] pair of numbers", null=True,
        ),
    }, required=True),
    "topology": _Field(*_OBJECT, {
        "generator": _Field(*_one_of(tuple(network.GENERATORS)), null=True),
        "params": _Field(*_OBJECT, {  # the generators' parameters
            "n": _Field(*_at_most(_POSITIVE_INT, MAX_AGENTS)),
            "weight": _Field(_is_number, "a number"),
        }),
        "matrix": _Field(_is_table, "a square list of number lists", null=True),
        "B": _Field(lambda value: _is_int(value) and value == 1,  # no time-varying W_t
                    "1, since the engine gossips with one fixed weight matrix"),
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
    }, null=True),
    "rho": _Field(_list_of(_FRACTION[0], distinct=True), "a list of distinct numbers in (0, 1)"),
    "seeds": _Field(  # ``algorithms.agent_rngs`` masks a seed to 64 bits
        _list_of(_SEED[0], 1, MAX_SEEDS, distinct=True),
        f"a list of 1 to {MAX_SEEDS} distinct integers in [0, 2**64)",
    ),
    "bounds": _Field(*_BOOL),
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
    DffrError that names ``what`` was being written and where the number is.
    """
    try:
        return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        found = _non_finite(value)
        why = f"{found[0].removeprefix('.') or 'the value'} is {found[1]!r}" if found else exc
        raise DffrError(f"cannot write {what} as strict JSON: {why}") from None


def _non_finite(value, path: str = "") -> tuple[str, float] | None:
    """The path and value of the first NaN or infinity in ``value``, keys in
    sorted order, e.g. ``.per_seed[0].final_dffr['0.9']``; None if it has none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        steps = ((f".{k}" if str(k).isidentifier() else f"[{k!r}]", value[k]) for k in sorted(value))
    elif isinstance(value, (list, tuple)):
        steps = ((f"[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite(item, path + step) for step, item in steps)), None)


def serialize_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(strict_json(cfg.to_dict(), f"the config {path}"))


# --- presets -----------------------------------------------------------------

def _tracking_base() -> dict:
    return {
        # The paper's problem: f_i^t(x) = (a_i x - 60/t^2)^2 on [-10, 10], four agents on a ring.
        "problem": {"stream": "quadratic", "horizon": 1000, "box": [[-10.0, 10.0]],
                    "scales": [1.0, 2.0, 3.0, 6.0], "target": "60/t^2"},
        "topology": {
            "generator": "ring",
            "params": {"n": 4, "weight": 0.22},
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

def run_seeds(cfg: ExperimentConfig) -> list[Trace]:
    """One batch, a trace per seed of ``cfg.seeds``, each labelled with its seed and ``cfg.to_dict()``."""
    if cfg.problem.stream == "remark1":
        gaps = metrics.power_spike_gaps(cfg.problem.horizon)
        traces = [Trace.from_gap_sequence(gaps, algorithm="remark1") for _ in cfg.seeds]
    else:
        stream, wm = cfg.built()
        traces = algorithms.run(stream, wm, cfg.build_algorithm(), T=cfg.problem.horizon, seeds=cfg.seeds)
    config = cfg.to_dict()
    for seed, trace in zip(cfg.seeds, traces):
        trace.seed, trace.config = seed, dict(config)
    return traces


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
    if not cfg.rho:
        return {}
    stream, wm = cfg.built()
    mc = MixingConstants(gamma=mixing_constants(wm).gamma, lam=cfg.effective_lambda())
    algo = cfg.build_algorithm()
    if algo.kind == "gradient_free":
        shrunk = ShrunkSet(stream.box, algo.delta)
        inputs = BoundInputs.from_traces(traces, stream, mc, delta=algo.delta, path_set=shrunk)
        evaluate = lambda rho: metrics.gradient_free_regret_bound(inputs, rho, algo.step)
    else:
        inputs = BoundInputs.from_traces(traces, stream, mc)
        evaluate = lambda rho: metrics.projection_free_regret_bound(inputs, rho, algo.alpha0)
    return {
        repr(float(rho)): {
            "bound": [float(v) for v in evaluate(rho)],
            "mean_dffr": [float(v) for v in np.mean([seed_curves[rho] for seed_curves in curves], axis=0)],
        }
        for rho in cfg.rho
    }


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
    write each seed's trace files, then the summary.  If any seed fails, the files
    it wrote are removed, and so are the directories it made for them.
    """
    out = Path(out_dir) if out_dir else None
    written: list[Path] = []
    made: list[Path] = []  # deepest first
    try:
        if out:
            made = [path for path in (out, *out.parents) if not path.exists()]
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise DffrError(f"cannot make the output directory {out}: {exc.strerror or exc}") from None
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
        for path in made:
            try:
                path.rmdir()
            except OSError:  # not made, or it holds files that are not the run's
                pass
        raise


# --- trace files ---------------------------------------------------------------

def _fmt(v) -> str:
    return repr(float(v))


# The trace's layout: each Trace field in column order, its column stem, whether
# it has one value per agent (else one per round, repeated on each agent row of
# the CSV) and whether it has one column per coordinate.  In both files the
# per-agent fields come first, then the per-round ones, ``gap`` and
# ``dffr_<rho>``; the CSV puts the ``t`` and ``agent`` columns before them.
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


def _widths(d: int, rhos: list[float]) -> tuple[int, int]:
    """Values per agent and round (2d + 4) and per round (d + 2 + len(rhos))."""
    width = {True: 0, False: 1 + len(rhos)}  # gap and dffr_<rho> per round
    for _, _, per_agent, per_coordinate in _LAYOUT:
        width[per_agent] += d if per_coordinate else 1
    return width[True], width[False]


# Per-agent values from which write_trace shares the body with the worker
# process (``csvrows``).  On a 2-vCPU Xeon VM (n = 4, d = 1, medians of 80
# writes with a running worker), a shared write took 8-10 ms against 15-16 ms
# in one process at 8,192 values and 12-13 ms against 20-24 ms at 12,288,
# but 5-9 ms either way at 4,096, where the round trip eats the gain.
SPLIT_MIN_VALUES = 2**13


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_rounds(write, per_agent: np.ndarray, per_round: np.ndarray, lo: int, hi: int) -> None:
    """Rows of rounds lo + 1..hi (0-based rows lo..hi - 1) of the body, passed
    to ``write`` in the ASCII blocks of ``csvrows.rows``, one round's values
    made Python floats at a time."""
    agents = (block.tolist() for block in per_agent[lo:hi])
    for block in csvrows.rows(lo + 1, agents, per_round[lo:hi].tolist()):
        write(block)


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
    """Write <base>.body (the record), <base>.csv (its text rendering) and
    <base>.meta.json (the sidecar); returns the CSV, sidecar and record paths.

    The record holds the per-agent block, (T, n, 2d + 4), then the per-round
    block, (T, d + 2 + len(rhos)), as raw little-endian float64 in ``_LAYOUT``'s
    order; ``read_trace`` reads it back bit for bit.  The CSV's rows are
    round-major then agent; per-round values (optimum, gap, running regret)
    repeat on each agent row of the round.  Every value is written as
    ``repr(float(v))``, so the CSV is a pure function of (config, seed); no
    reader reads it.  From ``SPLIT_MIN_VALUES`` per-agent values, and with
    more than one usable CPU, rounds T//2 + 1..T go to this process's
    ``csvrows`` worker before the record is written, and this process
    formats rounds 1..T//2, then appends the worker's reply; a worker that is
    busy, dead or short formats nothing, and this process formats its rounds,
    so the bytes are the same either way.  A write that fails, or is
    interrupted, kills and reaps a worker holding its rounds and leaves none
    of the three files behind.
    """
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
    T = trace.T
    half = T // 2 if T > 1 and per_agent.size >= SPLIT_MIN_VALUES and _usable_cpus() > 1 else T
    share = csvrows.sent(per_agent[half:], per_round[half:], half + 1) if half < T else contextlib.nullcontext()
    try:
        with share as reply:
            with body_path.open("wb") as body:
                for block in (per_agent, per_round):
                    body.write(np.ascontiguousarray(block, dtype="<f8").data)
            meta_path.write_text(strict_json(meta, f"the sidecar {meta_path}"))
            with csv_path.open("wb") as fh:
                fh.write((",".join(columns) + "\n").encode())
                _write_rounds(fh.write, per_agent, per_round, 0, T if reply is None else half)
                if reply is not None and not reply.copy_into(fh):
                    _write_rounds(fh.write, per_agent, per_round, half, T)
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
    """Re-ingest a trace from its sidecar and record; returns (meta, trace,
    stored running-regret columns).  The CSV is never opened.

    The sidecar's fields are checked first, its ``columns`` against
    ``trace_columns(d, rhos)``.  The record must then be exactly
    8*T*(n*(2d + 4) + d + 2 + len(rhos)) bytes, which is checked before
    anything is read, so a sidecar cannot size a buffer alone.  Both blocks
    are sliced by ``_LAYOUT``, as ``write_trace`` wrote them.  A file that
    cannot be read, or a record of another size, raises MalformedTrace
    naming it.
    """
    _, meta_path, body_path = _trace_paths(base_path)
    if not meta_path.exists():
        raise SchemaVersionMismatch(f"missing trace files at {body_path.with_suffix('')}")
    meta = _json_object(meta_path, MalformedTrace, "sidecar")
    if (version := meta.get("schema_version")) != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"trace schema {version} != {SCHEMA_VERSION}")
    _check_sidecar_fields(meta_path, meta)
    T, n, d, rhos = meta["T"], meta["n"], meta["d"], meta["rhos"]
    agent_width, round_width = _widths(d, rhos)
    size = 8 * T * (n * agent_width + round_width)
    try:
        with body_path.open("rb") as fh:
            got = os.fstat(fh.fileno()).st_size
            data = np.fromfile(fh, dtype="<f8", count=size // 8) if got == size else None
    except OSError as exc:
        raise MalformedTrace(_unreadable(body_path, exc)) from None
    if data is None or data.size != size // 8:
        raise MalformedTrace(f"{body_path}: {got} bytes, the sidecar's T, n, d and rhos imply {size}")
    data = data.astype(float, copy=False)
    blocks = {True: data[:T * n * agent_width].reshape(T, n, agent_width),
              False: data[T * n * agent_width:].reshape(T, round_width)}
    fields, pos = {}, {True: 0, False: 0}
    for name, _, per_agent, per_coordinate in _LAYOUT:
        width = d if per_coordinate else 1
        block = blocks[per_agent][..., pos[per_agent]:pos[per_agent] + width]
        fields[name] = block if per_coordinate else block[..., 0]
        pos[per_agent] += width
    fields["final_eps_norm"] = np.asarray(meta["final_eps_norm"], dtype=float)
    trace = Trace(meta["algorithm"], meta["seed"], meta.get("config", {}), **fields)
    stored = dict(zip(rhos, blocks[False][:, round_width - len(rhos):].T))
    return meta, trace, stored


def _check_sidecar_fields(meta_path: Path, meta: dict) -> None:
    """Raise MalformedTrace naming a sidecar field that is missing, wrong or at odds."""
    _check_fields(meta, _SIDECAR_FIELDS, MalformedTrace, f"{meta_path}: sidecar field")
    if len(meta["final_eps_norm"]) != meta["n"]:
        raise MalformedTrace(
            f"{meta_path}: sidecar field 'final_eps_norm' has "
            f"{len(meta['final_eps_norm'])} entries, n is {meta['n']}"
        )
    # The columns must be trace_columns(d, rhos); a huge d fails on their count alone.
    d, rhos, columns = meta["d"], meta["rhos"], meta["columns"]
    width = len(_INDEX) + sum(_widths(d, rhos))
    implied = f"{meta_path}: sidecar fields 'd' and 'rhos' imply"
    if width != len(columns):
        raise MalformedTrace(f"{implied} {width} columns, sidecar field 'columns' has {len(columns)}")
    for want, got in zip(trace_columns(d, rhos), columns):
        if want != got:
            raise MalformedTrace(f"{implied} the column {want}, sidecar field 'columns' has {got}")


def recompute_metrics(trace_path, rhos: list[float]) -> dict:
    """One seed's summary entry, as ``score`` builds it, from its stored trace
    (``read_trace``) only, with no re-simulation, for any ``rhos``, stored or not.

    For every requested forgetting factor that was stored at write time, the
    recomputed running regret is compared against the stored column; the
    worst absolute deviation is reported as ``stored_dffr_max_delta``.
    """
    _, trace, stored = read_trace(trace_path)
    result, curves = _seed_summary(trace, rhos)
    result["stored_dffr_max_delta"] = {
        repr(float(rho)): float(np.max(np.abs(series - stored[float(rho)])))
        for rho, series in curves.items()
        if float(rho) in stored
    }
    return result


# --- parameter sweeps ------------------------------------------------------------

# Each sweep parameter and the config field it sets.
SWEEP_PARAMETERS = {
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
    field_path = SWEEP_PARAMETERS[parameter]
    *sections, key = field_path.split(".")
    owner = raw
    for name in sections:
        owner = owner.get(name) or {}
    if key not in owner:
        raise ConstraintViolation(f"the {parameter} sweep sets {field_path}; this config lacks it")
    owner[key] = float(value)
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
