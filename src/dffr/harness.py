"""Experiment configuration, presets, execution, and trace serialization.

Configs are declarative JSON documents with nested sections (problem,
topology, algorithm); every cross-field constraint is checked at parse time.
A run writes, per seed, a CSV trace body plus a JSON metadata sidecar; the
CSV bytes are a pure function of (config, seed), so identical runs are
byte-identical and every summary number can be recomputed from the files
alone.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import re
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import algorithms, metrics, network
from .algorithms import AlgorithmConfig, StepSchedule
from .errors import (
    ConstraintViolation,
    MalformedTrace,
    ParseError,
    SchemaVersionMismatch,
    UnknownParameter,
)
from .geometry import BoxSet, ShrunkSet
from .metrics import BoundInputs
from .network import WeightMatrix, generator_matrix, mixing_constants
from .objectives import ObjectiveStream, QuadraticTrackingFamily, paper_tracking_stream
from .trace import Trace

SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"

# Thresholds of the tracking benchmark: agreement and target-tracking use
# 0.001 on decisions; the regret-crossing diagnostic uses 0.01.
CONSENSUS_THRESHOLD = 1e-3
TRACKING_THRESHOLD = 1e-3
REGRET_CROSS_THRESHOLD = 1e-2

_TARGET_EXPR = re.compile(
    r"^\s*([0-9.eE+-]+)\s*(?:/\s*t\s*\^\s*([0-9.eE+-]+)\s*)?$"
)

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
    name: str
    problem: ProblemConfig
    topology: TopologyConfig | None
    algorithm: dict | None
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
        try:
            problem = ProblemConfig(**raw["problem"])
        except KeyError:
            raise ParseError("config is missing the 'problem' section") from None
        except TypeError as exc:
            raise ParseError(f"bad 'problem' section: {exc}") from None
        synthetic = problem.stream == "remark1"
        topology_raw = raw.get("topology")
        if topology_raw is None and not synthetic:
            raise ParseError("config is missing the 'topology' section")
        try:
            topology = TopologyConfig(**topology_raw) if topology_raw else None
        except TypeError as exc:
            raise ParseError(f"bad 'topology' section: {exc}") from None
        algorithm = raw.get("algorithm")
        if algorithm is None and not synthetic:
            raise ParseError("config is missing the 'algorithm' section")
        seeds = raw.get("seeds", [0])
        if not isinstance(seeds, list):
            raise ParseError(f"field 'seeds' must be a list of seeds, got {seeds!r}")
        for seed in seeds:
            if not _is_count(seed):
                raise ParseError(f"field 'seeds' holds {seed!r}; a seed is a non-negative integer")
        bounds = raw.get("bounds", False)
        if not isinstance(bounds, bool):
            raise ParseError(f"field 'bounds' must be true or false, got {bounds!r}")
        rhos = raw.get("rho", [])
        if not isinstance(rhos, list) or not all(_is_number(rho) for rho in rhos):
            raise ParseError(f"field 'rho' must be a list of numbers, got {rhos!r}")
        if not _is_count(problem.horizon):
            raise ParseError(
                f"field 'problem.horizon' must be a positive integer, got {problem.horizon!r}"
            )
        cfg = cls(
            name=raw.get("name", "experiment"),
            problem=problem,
            topology=topology,
            algorithm=copy.deepcopy(algorithm),
            rho=list(rhos),
            seeds=list(seeds),
            bounds=bounds,
            out=raw.get("out"),
        )
        cfg.validate()
        return cfg

    # --- construction of the experiment pieces -----------------------------

    def build_box(self) -> BoxSet:
        bounds = np.asarray(self.problem.box, dtype=float)
        return BoxSet(bounds[:, 0], bounds[:, 1])

    def build_stream(self) -> ObjectiveStream | None:
        p = self.problem
        if p.stream == "paper_tracking":
            return paper_tracking_stream(horizon=p.horizon)
        if p.stream == "quadratic":
            if p.scales is None or p.target is None:
                raise ParseError("quadratic stream needs 'scales' and 'target'")
            return QuadraticTrackingFamily(
                scales=p.scales,
                target=_parse_target(p.target),
                box=self.build_box(),
                horizon=p.horizon,
            )
        if p.stream == "custom":
            if p.custom_name not in _CUSTOM_STREAMS:
                raise ParseError(f"unknown custom stream {p.custom_name!r}")
            return _CUSTOM_STREAMS[p.custom_name](p)
        if p.stream == "remark1":
            return None
        raise ParseError(f"unknown stream kind {p.stream!r}")

    def build_weight_matrix(self) -> WeightMatrix:
        t = self.topology
        if t.matrix is not None:
            return network.validate_weight_matrix(t.matrix, B=t.B)
        if t.generator is None:
            raise ParseError("topology needs either a generator or a matrix")
        return network.validate_weight_matrix(
            generator_matrix(t.generator, **t.params), B=t.B
        )

    def build_algorithm(self, seed: int) -> AlgorithmConfig:
        a = dict(self.algorithm)
        step = a.get("step")
        schedule = StepSchedule(c=float(step["c"]), p=float(step.get("p", 0.0))) if step else None
        return AlgorithmConfig(
            kind=a["kind"],
            step=schedule,
            delta=a.get("delta"),
            line_search=a.get("line_search", "fixed_alpha0"),
            alpha0=a.get("alpha0"),
            clamp_to_feasible=bool(a.get("clamp_to_feasible", False)),
            seed=seed,
        )

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
        if p.horizon < 1:
            raise ConstraintViolation("horizon must be a positive integer")
        for rho in self.rho:
            if not 0.0 < rho < 1.0:
                raise ConstraintViolation(f"rho {rho} outside (0, 1)")
        if not self.seeds:
            raise ConstraintViolation("need at least one seed")
        if p.stream == "remark1":
            return
        box = self.build_box()
        if self.algorithm is None:
            raise ParseError("config is missing the 'algorithm' section")
        try:
            algo = self.build_algorithm(seed=0)
        except (KeyError, ValueError) as exc:
            raise ConstraintViolation(str(exc)) from None
        stream, wm = self.built()
        if not (
            np.array_equal(box.lower, stream.box.lower)
            and np.array_equal(box.upper, stream.box.upper)
        ):
            own = np.column_stack([stream.box.lower, stream.box.upper]).tolist()
            raise ConstraintViolation(
                f"problem.box {p.box} is not the box of the {p.stream!r} stream, {own}"
            )
        if wm.n != stream.n:
            raise ConstraintViolation(
                f"the topology has {wm.n} agents, the {p.stream!r} stream has {stream.n}"
            )
        if algo.kind == "gradient_free":
            try:
                ShrunkSet(box, algo.delta)
            except ValueError as exc:
                raise ConstraintViolation(f"smoothing {exc}") from None
        if self.bounds:
            if algo.kind == "projected_gd":
                raise ConstraintViolation(
                    "no bound evaluator exists for the projected_gd baseline"
                )
            if algo.kind == "projection_free" and algo.alpha0 is None:
                raise ConstraintViolation(
                    "bound evaluation for projection_free needs alpha0"
                )
            lam = self.effective_lambda()
            for rho in self.rho:
                if rho <= lam:
                    raise ConstraintViolation(
                        f"bound evaluation needs rho > lambda, got rho={rho}, lambda={lam}"
                    )


def _is_count(value) -> bool:
    """A non-negative integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_number(value) -> bool:
    """An int or a float; a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_target(spec) -> tuple[float, float]:
    """Accept 'A/t^p' strings, bare constants, or (A, p) pairs."""
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        return float(spec[0]), float(spec[1])
    if isinstance(spec, (int, float)):
        return float(spec), 0.0
    m = _TARGET_EXPR.match(str(spec))
    if not m:
        raise ParseError(f"cannot parse target path {spec!r}; expected 'A/t^p'")
    return float(m.group(1)), float(m.group(2) or 0.0)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    return ExperimentConfig.from_dict(raw)


def serialize_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n")


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
    }


def _preset_alg1() -> dict:
    cfg = _tracking_base()
    cfg["name"] = "paper-tracking-alg1"
    cfg["algorithm"] = {
        "kind": "gradient_free",
        "step": {"c": 2.0, "p": 0.5},
        "delta": 0.01,
    }
    cfg["seeds"] = list(range(20))
    return cfg


def _preset_alg2() -> dict:
    cfg = _tracking_base()
    cfg["name"] = "paper-tracking-alg2"
    cfg["algorithm"] = {
        "kind": "projection_free",
        "line_search": "fixed_alpha0",
        "alpha0": 0.002,
    }
    cfg["seeds"] = [0]
    return cfg


def _preset_alg2_linesearch() -> dict:
    cfg = _tracking_base()
    cfg["name"] = "paper-tracking-alg2-linesearch"
    cfg["algorithm"] = {
        "kind": "projection_free",
        "line_search": "exact_1d",
        "alpha0": 0.002,  # used only by the bound evaluator
    }
    cfg["seeds"] = [0]
    return cfg


def _preset_dogd() -> dict:
    cfg = _tracking_base()
    cfg["name"] = "paper-tracking-dogd"
    cfg["algorithm"] = {"kind": "projected_gd", "step": {"c": 2.0, "p": 1.0}}
    cfg["rho"] = [0.96, 0.97, 0.98]
    cfg["bounds"] = False
    cfg["seeds"] = [0]
    return cfg


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

def run_single(cfg: ExperimentConfig, seed: int) -> Trace:
    """One seeded run of the configured experiment."""
    if cfg.problem.stream == "remark1":
        gaps = metrics.power_spike_gaps(cfg.problem.horizon)
        trace = Trace.from_gap_sequence(gaps, algorithm="remark1")
        trace.config.update(cfg.to_dict())
        return trace
    stream, wm = cfg.built()
    algo = cfg.build_algorithm(seed=seed)
    return algorithms.run(
        stream, wm, algo, T=cfg.problem.horizon, config_snapshot=cfg.to_dict()
    )


def _dffr_curves(trace: Trace, rhos: list[float]) -> dict[float, np.ndarray]:
    return {rho: metrics.dffr_series(trace, rho) for rho in rhos}


def _seed_summary(trace: Trace, curves: dict[float, np.ndarray]) -> dict:
    """The per-seed summary entry; ``curves`` maps each rho to its DFFR series."""
    consensus = metrics.consensus_diameter_series(trace)
    tracking = metrics.tracking_error_series(trace)
    entry = {
        "seed": trace.seed,
        "consensus_time": metrics.persistent_time_below(consensus, CONSENSUS_THRESHOLD),
        "tracking_time": metrics.persistent_time_below(tracking, TRACKING_THRESHOLD),
        "first_tracking_time": metrics.first_time_below(tracking, TRACKING_THRESHOLD),
        "final_gap": metrics.final_round_gap(trace),
        "final_cumulative_regret": float(metrics.cumulative_regret(trace)[-1]),
        "final_dffr": {},
        "regret_first_below": {},
    }
    for rho, series in curves.items():
        key = repr(float(rho))
        entry["final_dffr"][key] = float(series[-1])
        entry["regret_first_below"][key] = metrics.first_time_below(
            series, REGRET_CROSS_THRESHOLD
        )
    return entry


def _median(values) -> float | None:
    vals = sorted(math.inf if v is None else v for v in values)
    mid = vals[len(vals) // 2] if len(vals) % 2 else 0.5 * (
        vals[len(vals) // 2 - 1] + vals[len(vals) // 2]
    )
    return None if math.isinf(mid) else mid


def _aggregate(per_seed: list[dict], rhos: list[float]) -> dict:
    agg = {}
    for key in (
        "consensus_time",
        "tracking_time",
        "first_tracking_time",
    ):
        agg[f"median_{key}"] = _median([e[key] for e in per_seed])
    agg["mean_final_dffr"] = {
        repr(float(rho)): float(
            np.mean([e["final_dffr"][repr(float(rho))] for e in per_seed])
        )
        for rho in rhos
    }
    agg["median_regret_first_below"] = {
        repr(float(rho)): _median(
            [e["regret_first_below"][repr(float(rho))] for e in per_seed]
        )
        for rho in rhos
    }
    return agg


def _bound_curves(cfg: ExperimentConfig, traces: list[Trace], curves: list[dict]) -> dict:
    """Each rho's bound curve and the mean of the seeds' DFFR ``curves``."""
    stream, wm = cfg.built()
    mc = mixing_constants(wm)
    algo = cfg.build_algorithm(seed=0)
    lam = cfg.topology.lambda_override
    out = {}
    for rho in cfg.rho:
        if algo.kind == "gradient_free":
            shrunk = ShrunkSet(stream.box, algo.delta)
            inputs = BoundInputs.from_traces(
                traces, stream, mc, rho, delta=algo.delta,
                path_set=shrunk, lam_override=lam,
            )
            bound = metrics.gradient_free_regret_bound(inputs, algo.step)
        else:
            inputs = BoundInputs.from_traces(
                traces, stream, mc, rho, lam_override=lam
            )
            bound = metrics.projection_free_regret_bound(inputs, algo.alpha0)
        mean_dffr = np.mean([seed_curves[rho] for seed_curves in curves], axis=0)
        out[repr(float(rho))] = {
            "bound": [float(v) for v in bound],
            "mean_dffr": [float(v) for v in mean_dffr],
        }
    return out


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run every configured seed; write traces and a summary when an output directory is given.

    Partial outputs are removed if any seed fails.
    """
    out = Path(out_dir) if out_dir else (Path(cfg.out) if cfg.out else None)
    written: list[Path] = []
    traces: list[Trace] = []
    curves: list[dict] = []
    per_seed: list[dict] = []
    try:
        if out:
            out.mkdir(parents=True, exist_ok=True)
        for seed in cfg.seeds:
            trace = run_single(cfg, seed)
            traces.append(trace)
            curves.append(_dffr_curves(trace, cfg.rho))
            per_seed.append(_seed_summary(trace, curves[-1]))
            if out:
                base = out / f"{cfg.name}-seed{seed}"
                written.extend(write_trace(trace, cfg.rho, base))
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
        if out:
            summary_path = out / f"{cfg.name}-summary.json"
            summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
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


def trace_columns(d: int, rhos: list[float]) -> list[str]:
    cols = ["t", "agent"]
    cols += [f"x_{k}" for k in range(d)]
    cols += [f"z_{k}" for k in range(d)]
    cols += ["eps_norm", "g_norm", "loss_self", "loss_global"]
    cols += [f"xstar_{k}" for k in range(d)]
    cols += ["f_star", "gap"]
    cols += [f"dffr_{_fmt(rho)}" for rho in rhos]
    return cols


def write_trace(trace: Trace, rhos: list[float], base_path) -> list[Path]:
    """Write <base>.csv (deterministic body) and <base>.meta.json (sidecar).

    Rows are round-major then agent; per-round values (optimum, gap, running
    regret) repeat on each agent row of the round.  Every value is written as
    ``repr(float(v))``.  The body is formatted and written one round at a
    time, and each round's per-round values are formatted once.  A write
    that fails leaves neither file behind.
    """
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    meta_path = base.with_suffix(".meta.json")
    columns = trace_columns(trace.d, rhos)
    per_agent = np.concatenate(
        [
            trace.x,
            trace.z,
            np.stack([trace.eps_norm, trace.g_norm, trace.loss_self, trace.loss_global], axis=2),
        ],
        axis=2,
    ).astype(float, copy=False)
    per_round = np.column_stack(
        [trace.x_star, trace.f_star, trace.gaps, *(metrics.dffr_series(trace, rho) for rho in rhos)]
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
    try:
        with csv_path.open("w") as fh:
            fh.write(",".join(columns) + "\n")
            for t, (agents, tail) in enumerate(zip(per_agent, per_round.tolist()), start=1):
                tail = ",".join(map(repr, tail))
                fh.write("".join([
                    f"{t},{i},{','.join(map(repr, row))},{tail}\n"
                    for i, row in enumerate(agents.tolist())
                ]))
        meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    except BaseException:
        csv_path.unlink(missing_ok=True)
        meta_path.unlink(missing_ok=True)
        raise
    return [csv_path, meta_path]


# Sidecar fields read_trace needs to rebuild a trace.
_SIDECAR_KEYS = ("algorithm", "seed", "T", "n", "d", "rhos", "columns", "final_eps_norm")


def read_trace(base_path) -> tuple[dict, Trace, dict]:
    """Re-ingest a trace file pair; returns (meta, trace, stored running-regret columns)."""
    base = Path(base_path)
    if base.suffix == ".csv":
        base = base.with_suffix("")
    csv_path = base.with_suffix(".csv")
    meta_path = base.with_suffix(".meta.json")
    if not csv_path.exists() or not meta_path.exists():
        raise SchemaVersionMismatch(f"missing trace files at {base}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise MalformedTrace(f"{meta_path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(meta, dict):
        raise MalformedTrace(f"{meta_path}: the sidecar is not a JSON object")
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"trace schema {meta.get('schema_version')} != {SCHEMA_VERSION}"
        )
    missing = [key for key in _SIDECAR_KEYS if key not in meta]
    if missing:
        raise MalformedTrace(f"{meta_path}: the sidecar lacks {', '.join(missing)}")
    with csv_path.open() as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header != meta["columns"]:
            raise SchemaVersionMismatch("trace columns do not match the sidecar")
        _check_sidecar_fields(meta_path, meta, header)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise _malformed_row(csv_path, header, exc) from None
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
    col = {name: idx for idx, name in enumerate(header)}
    x = np.empty((T, n, d))
    z = np.empty((T, n, d))
    for k in range(d):
        x[:, :, k] = data[:, col[f"x_{k}"]].reshape(T, n)
        z[:, :, k] = data[:, col[f"z_{k}"]].reshape(T, n)
    x_star = np.empty((T, d))
    for k in range(d):
        x_star[:, k] = data[:, col[f"xstar_{k}"]].reshape(T, n)[:, 0]
    trace = Trace(
        algorithm=meta["algorithm"],
        seed=meta["seed"],
        config=meta.get("config", {}),
        x=x,
        z=z,
        eps_norm=data[:, col["eps_norm"]].reshape(T, n),
        loss_self=data[:, col["loss_self"]].reshape(T, n),
        loss_global=data[:, col["loss_global"]].reshape(T, n),
        x_star=x_star,
        f_star=data[:, col["f_star"]].reshape(T, n)[:, 0],
        g_norm=data[:, col["g_norm"]].reshape(T, n),
        final_eps_norm=np.asarray(meta["final_eps_norm"], dtype=float),
    )
    stored = {
        rho: data[:, col[f"dffr_{_fmt(rho)}"]].reshape(T, n)[:, 0]
        for rho in meta["rhos"]
    }
    return meta, trace, stored


def _check_sidecar_fields(meta_path: Path, meta: dict, header: list[str]) -> None:
    """Raise MalformedTrace naming a sidecar field of the wrong type or with columns the header lacks."""
    for key in ("T", "n", "d"):
        if not _is_count(meta[key]):
            raise MalformedTrace(
                f"{meta_path}: sidecar field {key!r} must be a non-negative integer, "
                f"got {meta[key]!r}"
            )
    for key in ("rhos", "final_eps_norm"):
        value = meta[key]
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise MalformedTrace(
                f"{meta_path}: sidecar field {key!r} must be a list of numbers, got {value!r}"
            )
    if len(meta["final_eps_norm"]) != meta["n"]:
        raise MalformedTrace(
            f"{meta_path}: sidecar field 'final_eps_norm' has "
            f"{len(meta['final_eps_norm'])} entries, n is {meta['n']}"
        )
    least = 3 * meta["d"] + 8  # trace_columns(d, []) has this many names
    if least > len(header):
        raise MalformedTrace(
            f"{meta_path}: sidecar field 'd' implies {least} or more columns, "
            f"the header has {len(header)}"
        )
    implied = {
        "d": trace_columns(meta["d"], []),
        "rhos": [f"dffr_{_fmt(rho)}" for rho in meta["rhos"]],
    }
    for key, names in implied.items():
        lacking = [name for name in names if name not in header]
        if lacking:
            raise MalformedTrace(
                f"{meta_path}: sidecar field {key!r} implies columns the header "
                f"lacks: {', '.join(lacking)}"
            )


def _malformed_row(csv_path: Path, header: list[str], exc: ValueError) -> MalformedTrace:
    """Name the first body line that is not one number per header column."""
    with csv_path.open() as fh:
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
    """Recompute the per-seed summary entry from stored trace rows only (no re-simulation).

    For every requested forgetting factor that was stored at write time, the
    recomputed running regret is compared against the stored column; the
    worst absolute deviation is reported as ``stored_dffr_max_delta``.
    """
    meta, trace, stored = read_trace(trace_path)
    curves = _dffr_curves(trace, rhos)
    result = _seed_summary(trace, curves)
    result["stored_dffr_max_delta"] = {
        repr(float(rho)): float(np.max(np.abs(series - stored[float(rho)])))
        for rho, series in curves.items()
        if float(rho) in stored
    }
    return result


# --- parameter sweeps ------------------------------------------------------------

SWEEP_PARAMETERS = ("rho", "delta", "alpha0", "alpha_schedule_scale", "omega")


def _with_value(cfg: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    raw = cfg.to_dict()
    algo = raw.get("algorithm") or {}
    if parameter == "rho":
        raw["rho"] = [float(value)]
    elif parameter == "delta":
        if algo.get("kind") != "gradient_free":
            raise ConstraintViolation("delta sweep applies to gradient_free only")
        algo["delta"] = float(value)
    elif parameter == "alpha0":
        if algo.get("kind") != "projection_free":
            raise ConstraintViolation("alpha0 sweep applies to projection_free only")
        algo["alpha0"] = float(value)
    elif parameter == "alpha_schedule_scale":
        if "step" not in algo:
            raise ConstraintViolation("schedule-scale sweep needs a step schedule")
        algo["step"]["c"] = float(value)
    elif parameter == "omega":
        topo = raw["topology"]
        if topo.get("generator") == "paper4":
            topo["generator"] = "ring"
            topo["params"] = {"n": 4, "weight": float(value)}
        elif topo.get("generator") == "ring":
            topo.setdefault("params", {})["weight"] = float(value)
        else:
            raise ConstraintViolation(
                "omega sweep needs a 'paper4' or 'ring' generator topology"
            )
        topo["lambda_override"] = None
    raw["name"] = f"{cfg.name}-{parameter}{value}"
    return ExperimentConfig.from_dict(raw)


def sweep(cfg: ExperimentConfig, parameter: str, values, out_dir=None) -> list[dict]:
    """One run batch per value; returns one summary row per value."""
    if parameter not in SWEEP_PARAMETERS:
        raise UnknownParameter(
            f"unknown sweep parameter {parameter!r}; known: {SWEEP_PARAMETERS}"
        )
    values = list(values)
    if not values:
        warnings.warn("empty sweep value list; nothing to do", stacklevel=2)
        return []
    rows = []
    for value in values:
        sub = _with_value(cfg, parameter, value)
        summary = run_experiment(sub, out_dir=out_dir)
        agg = summary["aggregate"]
        first_rho = repr(float(sub.rho[0])) if sub.rho else None
        rows.append(
            {
                "value": float(value),
                "median_consensus_time": agg["median_consensus_time"],
                "median_tracking_time": agg["median_tracking_time"],
                "median_first_tracking_time": agg["median_first_tracking_time"],
                "mean_final_dffr": agg["mean_final_dffr"].get(first_rho),
                "median_regret_first_below": agg["median_regret_first_below"].get(first_rho),
            }
        )
    return rows
