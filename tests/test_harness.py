import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dffr import algorithms, cli, harness, metrics, network
from dffr.errors import (
    ConstraintViolation,
    DffrError,
    MalformedTrace,
    NonFiniteInput,
    ParseError,
    SchemaVersionMismatch,
    UnknownParameter,
)
from dffr.harness import ExperimentConfig
from dffr.network import MixingConstants, ring_matrix
from dffr.trace import Trace
from test_golden_traces import GOLDEN

ROOT = Path(__file__).resolve().parents[1]


def small_alg2_config(horizon=40, **overrides) -> ExperimentConfig:
    raw = harness.preset("paper-tracking-alg2").to_dict()
    raw["problem"]["horizon"] = horizon
    raw["bounds"] = False
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def _set_field(raw: dict, key: str, value) -> None:
    """Set a config field given by its dotted path, e.g. 'problem.horizon'.

    A section on the path that the config leaves out is added.
    """
    *sections, name = key.split(".")
    for part in sections:
        raw = raw.setdefault(part, {})
    raw[name] = value


def _unstable_dogd() -> ExperimentConfig:
    """The dogd preset with a step of 1e308, whose first update overflows."""
    raw = harness.preset("paper-tracking-dogd").to_dict()
    raw["algorithm"]["step"] = {"c": 1e308, "p": 0}
    return ExperimentConfig.from_dict(raw)


def _benchmark_configs(monkeypatch) -> list[dict]:
    """The raw config of every case of the benchmark's workloads."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return [case.raw for name in workloads.WORKLOADS for case in workloads.cases(name, 0, harness.PRESETS)]


def _quadratic_ring(n: int, d: int) -> dict:
    """A short quadratic-stream config on a ring of n agents in d dimensions."""
    return {
        "problem": {"stream": "quadratic", "horizon": 5, "box": [[-10.0, 10.0]] * d,
                    "scales": [1.0 + i / n for i in range(n)], "target": "8.0/t^0.5"},
        "topology": {"generator": "ring", "params": {"n": n, "weight": 0.3}},
        "algorithm": {"kind": "projection_free", "alpha0": 0.5},
    }


# A remark-1 run is a hand-set gap sequence, so its config refuses the fields the run would drop.
REMARK1_UNREAD = (
    "the remark1 stream is a hand-set gap sequence; a run of it reads none of {}, "
    "so the config must leave them out"
)

NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position"


class TestPresets:
    def test_alg2_preset_fields(self):
        cfg = harness.preset("paper-tracking-alg2")
        assert cfg.problem.horizon == 1000
        assert cfg.rho == [0.9875]
        assert cfg.algorithm["alpha0"] == 0.002
        assert cfg.topology.lambda_override == 0.98625

    def test_alg1_preset_fields(self):
        cfg = harness.preset("paper-tracking-alg1")
        assert cfg.algorithm["delta"] == 0.01
        assert cfg.algorithm["step"] == {"c": 2.0, "p": 0.5}
        assert len(cfg.seeds) == 20

    def test_all_presets_parse(self):
        for name in harness.PRESET_NAMES:
            cfg = harness.preset(name)
            assert cfg.name == name

    @pytest.mark.parametrize("name", harness.PRESET_NAMES)
    def test_every_preset_passes_validate_and_keeps_B_1(self, tmp_path, capsys, name):
        cfg_path = tmp_path / "cfg.json"
        harness.serialize_config(harness.preset(name), cfg_path)
        topology = json.loads(cfg_path.read_text())["topology"]
        assert topology is None or topology["B"] == 1  # remark1 has no network
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == "OK\n"

    @pytest.mark.parametrize("name", [name for name in harness.PRESET_NAMES if name != "remark1-synthetic"])
    def test_paper_presets_build_the_papers_problem(self, name):
        """Scales (1, 2, 3, 6) and target 60/t^2 on [-10, 10]: the round-1 target
        sets the constants, as the path decays.  W is the 4-agent ring with weight 0.22."""
        stream, wm = harness.preset(name).built()
        assert (stream.L, stream.L_s, stream.L_1) == (1440.0, 72.0, 14400.0)
        assert np.array_equal(wm.w, ring_matrix(4, 0.22))
        assert wm.w[0].tolist() == [0.56, 0.22, 0.0, 0.22]

    def test_unknown_preset(self):
        with pytest.raises(ParseError):
            harness.preset("nonexistent")


class TestConfigValidation:
    def test_bounds_require_rho_above_lambda(self):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["topology"]["lambda_override"] = None
        raw["rho"] = [0.5]
        raw["bounds"] = True
        with pytest.raises(ConstraintViolation):
            ExperimentConfig.from_dict(raw)

    def test_lambda_override_below_the_matrix_rate_is_refused(self):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["topology"]["lambda_override"] = 0.5
        message = (
            "^topology.lambda_override 0.5 is below 0.56, the weight matrix's "
            "second-largest eigenvalue modulus, so its mixing bound cannot hold$"
        )
        with pytest.raises(ConstraintViolation, match=message):
            ExperimentConfig.from_dict(raw)
        # The premise the refusal guards: at 0.5 the mixing bound fails.
        wm = harness.preset("paper-tracking-alg2").built()[1]
        rate = network.MixingConstants(gamma=network.mixing_constants(wm).gamma, lam=0.5)
        assert not network.mixing_bound_check(wm, rate, horizon=20).passed
        raw["bounds"] = False  # no bound curves, nothing to refuse
        ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("name", ["paper-tracking-alg1", "paper-tracking-alg2", "paper-tracking-alg2-linesearch"])
    def test_preset_lambda_override_passes(self, name):
        raw = harness.preset(name).to_dict()
        assert raw["bounds"] and raw["topology"]["lambda_override"] == 0.98625
        ExperimentConfig.from_dict(raw)
        raw["topology"]["lambda_override"] = 0.6  # above the matrix's rate 0.56
        ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "B, override", [(3, None), (0, None), (3, 0.1)], ids=["B3", "B0", "B3-override-below-the-rate"]
    )
    def test_a_connectivity_window_is_refused(self, tmp_path, capsys, B, override):
        """W is one fixed matrix, so B = 3 with an override of 0.1 cannot
        skip the check of that override against W's rate 0.56."""
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["topology"].update(B=B, lambda_override=override)
        assert raw["bounds"]
        message = f"field 'topology.B' must be 1, since the engine gossips with one fixed weight matrix, got {B}"
        with pytest.raises(ParseError) as refused:
            ExperimentConfig.from_dict(raw)
        assert str(refused.value) == message
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_override_below_the_matrix_rate_is_refused_at_B_1(self):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        assert raw["bounds"] and raw["topology"]["B"] == 1
        raw["topology"]["lambda_override"] = 0.1
        with pytest.raises(ConstraintViolation, match="^topology.lambda_override 0.1 is below 0.56, "):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("paper-tracking-dogd", lambda raw: raw.update(bounds=True),
             "no bound evaluator exists for the projected_gd baseline"),
            ("paper-tracking-alg2-linesearch", lambda raw: raw["algorithm"].pop("alpha0"),
             "bound evaluation for projection_free needs alpha0"),
            ("paper-tracking-alg1", lambda raw: raw["algorithm"].pop("step"),
             "gradient_free requires a step schedule"),
            ("paper-tracking-alg1", lambda raw: raw["algorithm"].update(delta=None),
             "gradient_free requires a positive smoothing delta"),
            ("paper-tracking-dogd", lambda raw: raw["algorithm"].pop("step"),
             "projected_gd requires a step schedule"),
            ("paper-tracking-alg2", lambda raw: raw["algorithm"].update(alpha0=None),
             "fixed_alpha0 mode requires alpha0 in (0, 1)"),
            ("remark1-synthetic", lambda raw: raw.update(topology={"generator": "ring", "params": {"n": 4, "weight": 0.22}}),
             REMARK1_UNREAD.format("topology")),
            ("remark1-synthetic", lambda raw: raw.update(algorithm={"kind": "projected_gd", "step": {"c": 1.0}}),
             REMARK1_UNREAD.format("algorithm")),
            ("remark1-synthetic", lambda raw: raw["problem"].update(box=[[-10.0, 10.0]]), REMARK1_UNREAD.format("problem.box")),
            ("remark1-synthetic", lambda raw: raw["problem"].update(scales=[5.0]), REMARK1_UNREAD.format("problem.scales")),
            ("remark1-synthetic", lambda raw: raw["problem"].update(target="1/t^1"), REMARK1_UNREAD.format("problem.target")),
            ("remark1-synthetic", lambda raw: raw.update(bounds=True), REMARK1_UNREAD.format("bounds")),
            ("remark1-synthetic",
             lambda raw: raw.update(algorithm={"kind": "projected_gd", "step": {"c": 1.0}}, bounds=True)
             or raw["problem"].update(scales=[5.0]),
             REMARK1_UNREAD.format("algorithm, problem.scales, bounds")),
        ],
        ids=["projected-gd", "projection-free-without-alpha0", "gradient-free-without-step",
             "gradient-free-without-delta", "projected-gd-without-step", "fixed-alpha0-without-alpha0",
             "remark1-topology", "remark1-algorithm", "remark1-box", "remark1-scales", "remark1-target", "remark1-bounds",
             "remark1-three"],
    )
    def test_refused_config_gives_its_message(self, name, edit, message):
        raw = harness.preset(name).to_dict()
        edit(raw)
        with pytest.raises(ConstraintViolation) as caught:
            ExperimentConfig.from_dict(raw)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("problem.stream", "paper_tracking",
             "field 'problem.stream' must be one of 'quadratic', 'remark1', got 'paper_tracking'"),
            ("topology.generator", "paper4",
             "field 'topology.generator' must be one of 'ring', 'complete' or null, got 'paper4'"),
            ("algorithm.clamp_to_feasible", False, "field 'algorithm.clamp_to_feasible' is not a known field"),
        ],
        ids=["stream", "generator", "clamp-option"],
    )
    def test_a_removed_alias_is_refused(self, tmp_path, capsys, key, value, message):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        _set_field(raw, key, value)
        with pytest.raises(ParseError) as refused:
            ExperimentConfig.from_dict(raw)
        assert str(refused.value) == message
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "topology, field",
        [
            ({"generator": "ring", "params": {"n": 4, "weight": 0.1}}, "generator"),
            ({"generator": None, "params": {"n": 4}}, "params"),
        ],
        ids=["generator", "params"],
    )
    def test_a_matrix_topology_refuses_a_generators_fields(self, topology, field):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["topology"].update(topology, matrix=[[0.25] * 4] * 4)
        with pytest.raises(ParseError) as refused:
            ExperimentConfig.from_dict(raw)
        assert str(refused.value) == (
            f"fields 'topology.{field}' and 'topology.matrix' are both given; "
            "a topology names either a generator or a matrix"
        )

    def test_missing_topology(self):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["topology"] = None
        with pytest.raises(ParseError):
            ExperimentConfig.from_dict(raw)

    def test_zero_horizon_rejected(self):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["problem"]["horizon"] = 0
        with pytest.raises(ParseError, match="^field 'problem.horizon' must be a positive integer"):
            ExperimentConfig.from_dict(raw)

    def test_delta_must_stay_below_inradius(self):
        raw = harness.preset("paper-tracking-alg1").to_dict()
        raw["algorithm"]["delta"] = 10.0
        with pytest.raises(ConstraintViolation):
            ExperimentConfig.from_dict(raw)

    def test_round_trip(self, tmp_path):
        cfg = harness.preset("paper-tracking-alg1")
        path = tmp_path / "cfg.json"
        harness.serialize_config(cfg, path)
        again = harness.parse_config(path)
        assert again == cfg

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seeds", "0"),
            ("seeds", 0),
            ("seeds", [0.5]),
            ("seeds", [-1]),
            ("seeds", [True]),
            ("seeds", [0, "1"]),
            ("seeds", [0, 0]),
            ("seeds", [0, 2**64]),
            ("seeds", []),
            ("bounds", "no"),
            ("bounds", 1),
            ("bounds", None),
            ("problem.horizon", "100"),
            ("problem.horizon", 100.0),
            ("problem.horizon", True),
            ("problem.horizon", 10**400),
            ("problem.horizon", 10**9),
            ("rho", ["0.99"]),
            ("rho", 0.99),
            ("rho", [0.9, 1.0]),
            ("rho", [0.0]),
            ("rho", [0.9, 0.9]),
            ("problem.box", [[1.0, 2.0]]),
            ("problem.box", [[-1.0]]),
            ("problem.box", "x"),
            ("topology.B", "1"),
            ("topology.B", 1.5),
            ("topology.B", 0),
            ("topology.B", True),
            ("algorithm.step", "x"),
            ("algorithm.alpha0", "0.002"),
            ("algorithm.delta", "0.01"),
            ("problem.scales", "x"),
            ("problem.scales", [1.0] * 1001),
            ("problem.box", [[-1.0, 1.0]] * 101),
            ("topology.params.n", 100000),
            ("topology", {"generator": "complete", "params": {"weight": 0.2}}),
            ("topology", {"generator": "ring"}),
            ("topology.params.n", "4"),
            ("topology.params", [4, 0.22]),
            ("topology.matrix", [[0.5, 0.5], [0.5]]),
            ("topology.generator", "torus"),
            ("problem.target", [1, "x"]),
            ("algorithm.line_search", "exact"),
            ("algorithm.step.c", "2"),
            ("topology.lambda_override", "0.9"),
            ("topology.lambda_override", -1.0),
            ("algorithm.alhpa0", 0.002),
            ("colour", "red"),
            ("name", 5),
            ("out", 5),
        ],
        ids=["seeds-str", "seeds-int", "seed-float", "seed-negative", "seed-bool",
             "seed-str", "seeds-repeated", "seed-past-64-bits", "seeds-empty", "bounds-str", "bounds-int",
             "bounds-null", "horizon-str", "horizon-float", "horizon-bool", "horizon-huge",
             "horizon-past-limit", "rho-str", "rho-number", "rho-one", "rho-zero", "rho-repeated", "box-off-origin", "box-no-upper",
             "box-str", "B-str", "B-float", "B-zero", "B-bool",
             "step-str", "alpha0-str", "delta-str", "scales-str", "scales-past-limit", "box-past-limit",
             "params-n-past-limit", "params-not-taken",
             "ring-no-params", "params-n-str", "params-list", "matrix-ragged",
             "generator-unknown", "target-pair-str", "line-search-unknown", "step-c-str", "lambda-str",
             "lambda-negative", "key-misspelt", "key-unknown", "name-int", "out-int"],
    )
    def test_bad_seeds_or_bounds_name_the_field(self, key, value):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        _set_field(raw, key, value)
        with pytest.raises(ParseError, match=f"^field '{key}' "):
            ExperimentConfig.from_dict(raw)

    def test_horizon_limit_is_named(self):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["problem"]["horizon"] = harness.MAX_HORIZON + 1
        with pytest.raises(ParseError, match="at most 1000000, got 1000001$"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("key, value, message", [
        ("topology.params.n", 100000, "a positive integer at most 1000, got 100000"),
        ("problem.scales", [2.0] * 1001,
         "a list of 1 to 1000 positive numbers or null, got [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, ...]"),
        ("problem.box", [[-1.0, 1.0]] * 101,
         "a list of 1 to 100 [lower, upper] pairs or null, got [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], "
         "[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], ...]"),
    ])
    def test_size_limits_are_named(self, key, value, message):
        """A past-limit agent count or d names its field and the limit, and shows
        the value abbreviated."""
        raw = _quadratic_ring(n=4, d=1)
        _set_field(raw, key, value)
        with pytest.raises(ParseError) as caught:
            ExperimentConfig.from_dict(raw)
        assert str(caught.value) == f"field '{key}' must be {message}"

    @pytest.mark.parametrize("key", ["box", "scales", "target"])
    def test_a_quadratic_stream_without_its_inputs_is_refused(self, key):
        raw = _quadratic_ring(n=4, d=1)
        del raw["problem"][key]
        with pytest.raises(ParseError, match="^quadratic stream needs 'box', 'scales' and 'target'$"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("raw", [None, 3, "x", [1]], ids=["null", "number", "string", "list"])
    def test_a_config_that_is_not_an_object_is_refused(self, raw):
        with pytest.raises(ParseError) as refused:
            ExperimentConfig.from_dict(raw)
        assert str(refused.value) == f"the config must be a JSON object, got {raw!r}"

    def test_size_limits_admit_their_maximum(self):
        raw = _quadratic_ring(n=harness.MAX_AGENTS, d=harness.MAX_DIMENSION)
        cfg = ExperimentConfig.from_dict(raw)
        stream, wm = cfg.built()
        assert (stream.n, stream.d, wm.n) == (1000, 100, 1000)

    def test_presets_parse_to_the_same_dicts(self):
        for name in harness.PRESET_NAMES:
            raw = harness.preset(name).to_dict()
            assert ExperimentConfig.from_dict(raw).to_dict() == raw

    def test_parse_error_on_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            harness.parse_config(path)

    def test_quadratic_stream_target_expression(self):
        raw = {
            "name": "quad",
            "problem": {
                "stream": "quadratic",
                "horizon": 20,
                "box": [[-5.0, 5.0]],
                "scales": [1.0, 2.0],
                "target": "12/t^1",
            },
            "topology": {"generator": "complete", "params": {"n": 2}},
            "algorithm": {"kind": "projected_gd", "step": {"c": 0.1}},
            "rho": [0.9],
        }
        cfg = ExperimentConfig.from_dict(raw)
        stream = cfg.build_stream()
        assert stream.value(0, 2, [0.0]) == pytest.approx(36.0)

    @pytest.mark.parametrize("target", ["1/t^400", "1/t^-400"])  # t**p overflows; underflows to 0
    def test_target_leaving_the_floats_by_the_horizon(self, target):
        raw = small_alg2_config(horizon=30).to_dict()
        raw["problem"].update(stream="quadratic", scales=[1.0, 2.0, 3.0, 6.0], target=target)
        with pytest.raises(ConstraintViolation, match=rf"^problem.target '1/t\^-?400' leaves the floats by round 30$"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "step",
        [{"c": 2.0, "p": 400.0}, {"c": 2.0, "p": 400}, {"c": 2.0, "p": 10**30}, {"c": 1e-300, "p": 10}],
        ids=["p-float", "p-int", "p-int-huge", "underflow-to-0"],
    )
    def test_step_leaving_the_positive_floats_by_the_horizon(self, step):
        """alpha_T = c / T**p: T**p past the floats, as a float or an integer
        power (10**30 as an exact one would never finish), or alpha_T rounding to 0."""
        raw = harness.preset("paper-tracking-alg1").to_dict()
        raw["algorithm"]["step"] = step
        start = time.perf_counter()
        with pytest.raises(ConstraintViolation) as refused:
            ExperimentConfig.from_dict(raw)
        assert time.perf_counter() - start < 5.0
        assert str(refused.value) == f"algorithm.step {step!r} leaves the positive floats by round 1000"

    def test_integer_step_exponent_inside_the_floats_passes(self):
        raw = harness.preset("paper-tracking-alg1").to_dict()
        raw["algorithm"]["step"] = {"c": 2.0, "p": 100}  # alpha_1000 = 2 / 10**300
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.build_algorithm().step(1000) == pytest.approx(2e-300, rel=1e-15, abs=0.0)
        assert cfg.stability_warnings()[0].endswith("up to round t = 1 of 1000")

    def test_seed_count_limit_is_named(self):
        raw = harness.PRESETS["remark1-synthetic"]()
        raw["problem"]["horizon"] = 1
        raw["seeds"] = list(range(harness.MAX_SEEDS))
        assert len(ExperimentConfig.from_dict(raw).seeds) == 131072
        raw["seeds"].append(harness.MAX_SEEDS)
        with pytest.raises(ParseError) as caught:
            ExperimentConfig.from_dict(raw)
        assert str(caught.value) == (
            "field 'seeds' must be a list of 1 to 131072 distinct integers in [0, 2**64), "
            "got [0, 1, 2, 3, 4, 5, ...]"
        )


class TestRunExperiment:
    def test_writes_trace_and_summary(self, tmp_path):
        cfg = small_alg2_config()
        summary = harness.run_experiment(cfg, out_dir=tmp_path)
        csv_path = tmp_path / "paper-tracking-alg2-seed0.csv"
        assert csv_path.exists()
        assert (tmp_path / "paper-tracking-alg2-seed0.meta.json").exists()
        assert (tmp_path / "paper-tracking-alg2-summary.json").exists()
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 1 + 40 * 4  # header + T*n
        assert summary["per_seed"][0]["final_dffr"]["0.9875"] > 0

    def test_projection_free_bound_curve(self, paper_stream, paper_mc):
        summary = harness.run_experiment(harness.preset("paper-tracking-alg2"))
        (trace,) = summary["traces"]
        mc = MixingConstants(gamma=paper_mc.gamma, lam=0.98625)
        inputs = metrics.BoundInputs.from_traces([trace], paper_stream, mc)
        curve = summary["bounds"]["0.9875"]
        assert curve["bound"] == list(metrics.projection_free_regret_bound(inputs, 0.9875, 0.002))
        assert curve["mean_dffr"] == list(metrics.dffr_series(trace, 0.9875))

    def test_matrix_topology_runs_as_its_generator(self, tmp_path):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["topology"].update(generator=None, params={}, matrix=ring_matrix(4, 0.22).tolist())
        harness.run_experiment(ExperimentConfig.from_dict(raw), out_dir=tmp_path)
        body = (tmp_path / "paper-tracking-alg2-seed0.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == GOLDEN["paper-tracking-alg2"][0]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_alg2_config()
        harness.run_experiment(cfg, out_dir=tmp_path / "a")
        harness.run_experiment(cfg, out_dir=tmp_path / "b")
        body_a = (tmp_path / "a" / "paper-tracking-alg2-seed0.csv").read_bytes()
        body_b = (tmp_path / "b" / "paper-tracking-alg2-seed0.csv").read_bytes()
        assert body_a == body_b

    def test_recompute_matches_stored(self, tmp_path):
        cfg = small_alg2_config()
        harness.run_experiment(cfg, out_dir=tmp_path)
        result = harness.recompute_metrics(
            tmp_path / "paper-tracking-alg2-seed0", [0.9875, 0.5]
        )
        assert result["stored_dffr_max_delta"]["0.9875"] <= 1e-9
        assert "0.5" in result["final_dffr"]

    def test_recompute_is_the_seed_summary(self, tmp_path):
        raw = small_alg2_config(horizon=30).to_dict()
        raw["algorithm"] = {"kind": "gradient_free", "step": {"c": 2.0, "p": 0.5}, "delta": 0.01}
        raw["rho"] = [0.9875, 0.5]
        raw["seeds"] = [0, 3]
        cfg = ExperimentConfig.from_dict(raw)
        summary = harness.run_experiment(cfg, out_dir=tmp_path)
        for entry in summary["per_seed"]:
            result = harness.recompute_metrics(
                tmp_path / f"{cfg.name}-seed{entry['seed']}", cfg.rho
            )
            assert result.pop("stored_dffr_max_delta") == {"0.9875": 0.0, "0.5": 0.0}
            assert set(result) == set(entry)
            for key, value in entry.items():
                assert result[key] == value, key

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        cfg = small_alg2_config()
        raw = cfg.to_dict()
        raw["seeds"] = [0, 1]
        cfg = ExperimentConfig.from_dict(raw)
        real = harness.write_trace

        def flaky(trace, rhos, base):
            if trace.seed == 1:  # seed 0's files are written by now
                raise RuntimeError("injected failure")
            return real(trace, rhos, base)

        monkeypatch.setattr(harness, "write_trace", flaky)
        with pytest.raises(RuntimeError):
            harness.run_experiment(cfg, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []  # seed 0's record, CSV and sidecar

    def test_pieces_built_once_per_config(self, monkeypatch):
        raw = harness.preset("paper-tracking-alg1").to_dict()
        raw["problem"]["horizon"] = 30
        raw["seeds"] = [0, 1, 2]
        cfg = ExperimentConfig.from_dict(raw)  # validation builds stream, matrix and box
        builds = []
        for name in ("build_stream", "build_weight_matrix", "build_box"):
            real = getattr(ExperimentConfig, name)
            monkeypatch.setattr(
                ExperimentConfig, name,
                lambda self, real=real, name=name: builds.append(name) or real(self),
            )
        summary = harness.run_experiment(cfg)
        assert builds == []
        assert len(summary["traces"]) == 3 and "bounds" in summary
        cfg.problem.horizon = 20  # a changed section is built again
        assert [trace.T for trace in harness.run_seeds(cfg)] == [20, 20, 20]
        # the stream is built on the box; the run reads the box from the stream
        assert sorted(builds) == ["build_box", "build_stream", "build_weight_matrix"]

    def test_score_holds_no_trace_sized_temporary(self):
        """x - x* and the consensus diameter's maximum and minimum over agents
        are formed in round chunks, so on an n = 2, d = 100 trace the score's
        peak stays below half of one (T, n, d) float64 array."""
        T, n, d = 2000, 2, 100
        cfg = ExperimentConfig.from_dict({
            "problem": {"stream": "quadratic", "horizon": T, "box": [[-10.0, 10.0]] * d,
                        "scales": [1.0, 2.0], "target": "8.0/t^0.5"},
            "topology": {"generator": "complete", "params": {"n": n}},
            "algorithm": {"kind": "projected_gd", "step": {"c": 0.02, "p": 0.5}},
            "rho": [0.99],
        })
        traces = harness.run_seeds(cfg)
        tracemalloc.start()
        try:
            harness.score(cfg, traces)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * T * n * d

    def test_hand_set_gap_trace_roundtrip(self, tmp_path):
        trace = Trace.from_gap_sequence([1.0, 1.0, 1.0])
        harness.write_trace(trace, [0.5], tmp_path / "hand")
        result = harness.recompute_metrics(tmp_path / "hand", [0.5])
        assert result["final_dffr"]["0.5"] == pytest.approx(1.75)
        assert result["stored_dffr_max_delta"]["0.5"] == 0.0

    def test_truncated_file_rejected(self, tmp_path):
        """T = 40, n = 4, d = 1 and one rho: 8 * 40 * (4 * 6 + 4) bytes."""
        cfg = small_alg2_config()
        harness.run_experiment(cfg, out_dir=tmp_path)
        body_path = tmp_path / "paper-tracking-alg2-seed0.body"
        body_path.write_bytes(body_path.read_bytes()[:-40])
        message = f"^{body_path}: 8920 bytes, the sidecar's T, n, d and rhos imply 8960$"
        with pytest.raises(MalformedTrace, match=message):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    @pytest.mark.parametrize(
        "edit, implied",
        [
            (lambda meta: meta.update(T=39), 8 * 39 * (4 * 6 + 4)),
            (lambda meta: meta.update(n=5, final_eps_norm=[0.0] * 5), 8 * 40 * (5 * 6 + 4)),
            (lambda meta: meta.update(d=2, columns=harness.trace_columns(2, [0.9875])), 8 * 40 * (4 * 8 + 5)),
            (lambda meta: meta.update(rhos=[0.9875, 0.5], columns=harness.trace_columns(1, [0.9875, 0.5])),
             8 * 40 * (4 * 6 + 5)),
        ],
        ids=["T-one-less", "n-one-more", "d-one-more", "rho-added"],
    )
    def test_a_sidecar_at_odds_with_the_record_names_the_record(self, tmp_path, edit, implied):
        """A sidecar whose fields pass on their own but whose T, n, d or rhos
        imply another size than the record's 8 * 40 * (4 * 6 + 4) bytes."""
        harness.run_experiment(small_alg2_config(), out_dir=tmp_path)
        meta_path = tmp_path / "paper-tracking-alg2-seed0.meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        body_path = tmp_path / "paper-tracking-alg2-seed0.body"
        message = f"^{body_path}: 8960 bytes, the sidecar's T, n, d and rhos imply {implied}$"
        with pytest.raises(MalformedTrace, match=message):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    def test_schema_version_mismatch(self, tmp_path):
        cfg = small_alg2_config()
        harness.run_experiment(cfg, out_dir=tmp_path)
        meta_path = tmp_path / "paper-tracking-alg2-seed0.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SchemaVersionMismatch):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda lines: lines[:3] + ['  "T": 40,,'] + lines[3:], "line 4: "),
            (lambda lines: ["[1, 2]"], "the sidecar is not a JSON object"),
        ],
        ids=["not-json", "not-an-object"],
    )
    def test_corrupt_sidecar_names_file(self, tmp_path, corrupt, message):
        harness.run_experiment(small_alg2_config(), out_dir=tmp_path)
        meta_path = tmp_path / "paper-tracking-alg2-seed0.meta.json"
        lines = meta_path.read_text().splitlines()
        meta_path.write_text("\n".join(corrupt(lines)) + "\n")
        with pytest.raises(MalformedTrace, match=f"seed0.meta.json: {message}"):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    @pytest.mark.parametrize("key", ["columns", "T", "n", "d", "rhos", "final_eps_norm"])
    def test_sidecar_missing_field_names_file_and_field(self, tmp_path, key):
        harness.run_experiment(small_alg2_config(), out_dir=tmp_path)
        meta_path = tmp_path / "paper-tracking-alg2-seed0.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        message = f"seed0.meta.json: sidecar field '{key}' is missing$"
        with pytest.raises(MalformedTrace, match=message):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("T", "20", "sidecar field 'T' must be a positive integer, got '20'"),
            ("T", 20.5, "sidecar field 'T' must be a positive integer, got 20.5"),
            ("T", True, "sidecar field 'T' must be a positive integer, got True"),
            ("n", None, "sidecar field 'n' must be a positive integer, got None"),
            ("d", -1, "sidecar field 'd' must be a non-negative integer, got -1"),
            ("rhos", 0.9875, "sidecar field 'rhos' must be a list of numbers, got 0.9875"),
            ("rhos", [True], "sidecar field 'rhos' must be a list of numbers, got \\[True\\]"),
            ("final_eps_norm", "abc", "sidecar field 'final_eps_norm' must be a list of numbers"),
            ("final_eps_norm", [0.1], "sidecar field 'final_eps_norm' has 1 entries, n is 4"),
            ("d", 2, "sidecar fields 'd' and 'rhos' imply 15 columns, sidecar field 'columns' has 12$"),
            ("d", 10**9, "sidecar fields 'd' and 'rhos' imply 3000000009 columns, sidecar field 'columns' has 12$"),
            ("rhos", [0.5], "sidecar fields 'd' and 'rhos' imply the column dffr_0.5, "
             "sidecar field 'columns' has dffr_0.9875$"),
            ("columns", harness.trace_columns(1, [0.9875])[:-1], "sidecar fields 'd' and 'rhos' "
             "imply 12 columns, sidecar field 'columns' has 11$"),
            ("seed", [1, 2], r"sidecar field 'seed' must be an integer in \[0, 2\*\*64\) or null, got \[1, 2\]$"),
            ("seed", -1, r"sidecar field 'seed' must be an integer in \[0, 2\*\*64\) or null, got -1$"),
            ("seed", 2**64, r"sidecar field 'seed' must be an integer in \[0, 2\*\*64\) or null, got 18446744073709551616$"),
            ("seed", 0.5, r"sidecar field 'seed' must be an integer in \[0, 2\*\*64\) or null, got 0.5$"),
            ("seed", True, r"sidecar field 'seed' must be an integer in \[0, 2\*\*64\) or null, got True$"),
            ("algorithm", 5, "sidecar field 'algorithm' must be a string, got 5$"),
            ("algorithm", None, "sidecar field 'algorithm' must be a string, got None$"),
        ],
        ids=["T-str", "T-float", "T-bool", "n-null", "d-negative", "rhos-number",
             "rhos-bool", "eps-str", "eps-length", "d-columns", "d-huge", "rhos-columns",
             "columns-differ", "seed-list", "seed-negative", "seed-past-64-bits", "seed-float",
             "seed-bool", "algorithm-int", "algorithm-null"],
    )
    def test_bad_sidecar_field_names_file_and_field(self, tmp_path, key, value, message):
        harness.run_experiment(small_alg2_config(), out_dir=tmp_path)
        meta_path = tmp_path / "paper-tracking-alg2-seed0.meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(MalformedTrace, match=f"seed0.meta.json: {message}"):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    @pytest.mark.parametrize("key", ["T", "n"], ids=["T-zero", "n-zero"])
    def test_empty_trace_names_the_field(self, tmp_path, key):
        # A sidecar of no rounds (or no agents).
        harness.write_trace(Trace.from_gap_sequence([1.0, 1.0]), [0.5], tmp_path / "hand")
        meta_path = tmp_path / "hand.meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = 0
        meta_path.write_text(json.dumps(meta))
        message = f"hand.meta.json: sidecar field '{key}' must be a positive integer, got 0$"
        with pytest.raises(MalformedTrace, match=message):
            harness.recompute_metrics(tmp_path / "hand", [0.5])

    def test_a_sidecar_without_a_seed_still_reads(self, tmp_path):
        """Remark-1 traces written before each trace was labelled with its seed
        hold "seed": null in their sidecar."""
        written = harness.run_experiment(harness.preset("remark1-synthetic"), out_dir=tmp_path)["traces"][0]
        meta_path = tmp_path / "remark1-synthetic-seed0.meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "seed": None}))
        meta, trace, _ = harness.read_trace(tmp_path / "remark1-synthetic-seed0")
        assert meta["seed"] is None and trace.seed is None
        assert np.array_equal(trace.loss_global, written.loss_global)

    def test_remark1_synthetic_run(self):
        summary = harness.run_experiment(harness.preset("remark1-synthetic"))
        trace = summary["traces"][0]
        assert trace.T == 729
        assert summary["per_seed"][0]["final_dffr"]["0.9"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "name, rhos", [("paper-tracking-dogd", [0.96, 0.97, 0.98]), ("paper-tracking-alg1", [0.99, 0.995])],
        ids=["dogd", "alg1"],
    )
    def test_each_rho_of_one_run_scores_as_a_run_of_it_alone(self, name, rhos):
        """rho weights the gaps and nothing else, so a rho sweep is a config whose
        rho lists the values: every entry keyed by a rho is that rho's run's."""
        def at(summary, key):  # each per-seed entry and the aggregate, read at one rho
            return [{k: v[key] if isinstance(v, dict) else v for k, v in entry.items()}
                    for entry in summary["per_seed"] + [summary["aggregate"]]]

        raw = harness.preset(name).to_dict() | {"rho": rhos}
        together = harness.run_experiment(ExperimentConfig.from_dict(raw))
        for rho in map(repr, rhos):
            alone = harness.run_experiment(ExperimentConfig.from_dict(raw | {"rho": [float(rho)]}))
            assert at(together, rho) == at(alone, rho)
            assert together.get("bounds", {}).get(rho) == alone.get("bounds", {}).get(rho)
        assert ("bounds" in together) == (name == "paper-tracking-alg1")

    def test_a_failed_run_keeps_a_directory_that_existed_and_its_files(self, tmp_path):
        harness.run_experiment(small_alg2_config(horizon=5), out_dir=tmp_path)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(NonFiniteInput):
            harness.run_experiment(_unstable_dogd(), out_dir=tmp_path)
        assert sorted(tmp_path.iterdir()) == before and len(before) == 4

    def test_to_dict_has_exactly_the_field_tables_keys(self, monkeypatch):
        """Every field a config holds is one a config may set, and the reverse,
        for every preset and benchmark config."""
        raws = [harness.PRESETS[name]() for name in harness.PRESET_NAMES] + _benchmark_configs(monkeypatch)
        for raw in raws:
            config = ExperimentConfig.from_dict(raw).to_dict()
            assert config.keys() == harness._CONFIG_FIELDS.keys()
            for section in ("problem", "topology"):
                if config[section] is not None:
                    assert config[section].keys() == harness._CONFIG_FIELDS[section].fields.keys()


class TestSweep:
    def test_empty_values_warns(self):
        cfg = small_alg2_config()
        with pytest.warns(UserWarning):
            rows = harness.sweep(cfg, "alpha0", [])
        assert rows == []

    def test_unknown_parameter(self):
        cfg = small_alg2_config()
        with pytest.raises(UnknownParameter):
            harness.sweep(cfg, "temperature", [1.0])

    def test_unknown_parameter_lists_the_names(self):
        known = "delta, alpha0, alpha_schedule_scale, omega"
        with pytest.raises(UnknownParameter, match=f"known: {known}$"):
            harness.sweep(small_alg2_config(), "temperature", [1.0])

    @pytest.mark.parametrize(
        "name, parameter, field",
        [
            ("paper-tracking-dogd", "alpha0", "algorithm.alpha0"),
            ("paper-tracking-alg1", "alpha0", "algorithm.alpha0"),
            ("paper-tracking-alg2", "alpha_schedule_scale", "algorithm.step.c"),
            ("remark1-synthetic", "delta", "algorithm.delta"),
            ("remark1-synthetic", "omega", "topology.params.weight"),
        ],
    )
    def test_sweep_of_a_field_the_config_leaves_out(self, name, parameter, field):
        with pytest.raises(ConstraintViolation, match=f"sets {field}; this config lacks it$"):
            harness.sweep(harness.preset(name), parameter, [0.5])

    def test_omega_sweep_rebuilds_topology(self):
        cfg = small_alg2_config(horizon=20)
        rows = harness.sweep(cfg, "omega", [0.2, 0.25])
        assert len(rows) == 2

    def test_omega_sweep_at_the_presets_weight_is_the_presets_run(self):
        cfg = harness.preset("paper-tracking-dogd")
        [row] = harness.sweep(cfg, "omega", [0.22])
        first = repr(cfg.rho[0])
        aggregate = harness.run_experiment(cfg)["aggregate"]
        assert row == {"value": 0.22} | {
            key: entry[first] if isinstance(entry, dict) else entry for key, entry in aggregate.items()
        }

    def test_alpha0_and_scale_sweeps(self):
        cfg = small_alg2_config(horizon=20)
        assert len(harness.sweep(cfg, "alpha0", [0.001, 0.01])) == 2
        raw = harness.preset("paper-tracking-dogd").to_dict()
        raw["problem"]["horizon"] = 20
        dogd = ExperimentConfig.from_dict(raw)
        assert len(harness.sweep(dogd, "alpha_schedule_scale", [1.0])) == 1

    def test_mismatched_sweep_parameter_rejected(self):
        cfg = small_alg2_config(horizon=20)
        with pytest.raises(ConstraintViolation):
            harness.sweep(cfg, "delta", [0.01])
        with pytest.raises(ConstraintViolation):
            harness.sweep(cfg, "alpha_schedule_scale", [1.0])


class TestStrictJson:
    def test_finite_data_keeps_its_bytes(self):
        value = {"b": [1.5, None, "x", 2**64], "a": {"0.9": 5e-324, "0.5": -0.0}}
        assert harness.strict_json(value, "a value") == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value, where",
        [
            *[({"per_seed": [{"final_dffr": {"0.5": 1.0, "0.9": bad}, "final_gap": -bad}]},
               f"per_seed[0].final_dffr['0.9'] is {bad!r}") for bad in (math.inf, -math.inf, math.nan)],
            ({"z": math.inf, "b": {"gaps": [1.0, 0.5, math.nan]}, "a": [1.0]}, "b.gaps[2] is nan"),
        ],
        ids=["inf", "-inf", "nan", "nan-in-a-list"],
    )
    def test_a_non_finite_value_is_refused_naming_what_was_written(self, value, where):
        """The first non-finite number in sorted-key order is named by its path."""
        with pytest.raises(DffrError) as refused:
            harness.strict_json(value, "the summary x.json")
        assert str(refused.value) == f"cannot write the summary x.json as strict JSON: {where}"

    def test_a_non_finite_sidecar_leaves_no_trace_files(self, tmp_path):
        trace = Trace.from_gap_sequence([1.0, 0.5])
        trace.config["scale"] = math.inf
        with pytest.raises(DffrError, match=r"^cannot write the sidecar .*hand\.meta\.json as strict JSON"):
            harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_run_preset(self, capsys):
        assert cli.main(["run", "--preset", "remark1-synthetic"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["per_seed"][0]["final_dffr"]["0.9"] == pytest.approx(1.0)

    def test_run_with_out_and_metrics(self, tmp_path, capsys):
        cfg = small_alg2_config(horizon=30)
        cfg_path = tmp_path / "cfg.json"
        harness.serialize_config(cfg, cfg_path)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        trace = tmp_path / "paper-tracking-alg2-seed0.csv"
        assert cli.main(["metrics", "--trace", str(trace), "--rho", "0.9875"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stored_dffr_max_delta"]["0.9875"] <= 1e-9

    @pytest.mark.parametrize("suffix", ["", ".csv", ".meta.json", ".body"])
    def test_metrics_reads_a_trace_by_its_base_or_any_of_its_files(self, tmp_path, capsys, suffix):
        raw = small_alg2_config(horizon=20).to_dict()
        raw["name"] = "exp.v2"  # a dot in the name is not a suffix
        harness.run_experiment(ExperimentConfig.from_dict(raw), out_dir=tmp_path)
        summary = json.loads((tmp_path / "exp.v2-summary.json").read_text())
        assert cli.main(["metrics", "--trace", str(tmp_path / f"exp.v2-seed0{suffix}"), "--rho", "0.9875"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.pop("stored_dffr_max_delta") == {"0.9875": 0.0}
        assert out == summary["per_seed"][0]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_stream_constants_are_refused(self, tmp_path, capsys, command):
        raw = {
            "problem": {"stream": "quadratic", "horizon": 20, "box": [[-1e300, 1e300]],
                        "scales": [1, 2], "target": "0.5"},
            "topology": {"generator": "ring", "params": {"n": 2, "weight": 0.3}, "lambda_override": 0.5},
            "algorithm": {"kind": "projection_free", "alpha0": 0.1},
            "rho": [0.9],
        }
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg_path)] + (["--out", str(out)] if command == "run" else [])
        for bounds in (True, False):
            cfg_path.write_text(json.dumps({**raw, "bounds": bounds}))
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                "error: the run needs finite stream constants; "
                "the 'quadratic' stream has L = inf, L_1 = inf\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, name, spoil, why",
        [
            ("validate", "cfg.json", "directory", "Is a directory"),
            ("validate", "cfg.json", lambda data: b"\xff\xfe{}", f"{NOT_UTF8} 0: invalid start byte"),
            ("run", "cfg.json", lambda data: b"\xff\xfe{}", f"{NOT_UTF8} 0: invalid start byte"),
            ("metrics", "run-seed0.meta.json", "directory", "Is a directory"),
            ("metrics", "run-seed0.meta.json", lambda data: b"\xff" + data, f"{NOT_UTF8} 0: invalid start byte"),
            ("metrics", "run-seed0.body", "directory", "Is a directory"),
            ("metrics", "run-seed0.body", "missing", "No such file or directory"),
            # T = 40, n = 4, d = 1 and one rho: 8 * 40 * (4 * 6 + 4) bytes
            ("metrics", "run-seed0.body", lambda data: data + b"\0",
             "8961 bytes, the sidecar's T, n, d and rhos imply 8960"),
        ],
        ids=["config-directory", "config-not-utf8", "run-config-not-utf8", "sidecar-directory",
             "sidecar-not-utf8", "body-directory", "body-missing", "body-one-byte-longer"],
    )
    def test_an_unreadable_input_file_is_an_error_naming_it(self, tmp_path, capsys, command, name, spoil, why):
        cfg = small_alg2_config(horizon=40, name="run")
        harness.serialize_config(cfg, tmp_path / "cfg.json")
        harness.run_experiment(cfg, out_dir=tmp_path)
        path = tmp_path / name
        if spoil in ("directory", "missing"):
            path.unlink()
            if spoil == "directory":
                path.mkdir()
        else:
            path.write_bytes(spoil(path.read_bytes()))
        where = ["--trace", str(tmp_path / "run-seed0"), "--rho", "0.9"] if command == "metrics" else ["--config", str(path)]
        assert cli.main([command, *where]) == 1
        assert capsys.readouterr().err == f"error: {path}: {why}\n"

    @pytest.mark.parametrize(
        "argv",
        [["run", "--preset", "remark1-synthetic"],
         ["sweep", "--preset", "paper-tracking-alg2", "--param", "alpha0", "--values", "0.01"]],
        ids=["run", "sweep"],
    )
    @pytest.mark.parametrize("below, why", [("", "File exists"), ("sub", "Not a directory")], ids=["file", "under-a-file"])
    def test_an_output_path_through_a_file_is_an_error_naming_it(self, tmp_path, capsys, argv, below, why):
        (tmp_path / "F").write_text("kept")
        out = tmp_path / "F" / below if below else tmp_path / "F"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot make the output directory {out}: {why}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["F"]
        assert (tmp_path / "F").read_text() == "kept"

    def test_validate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        harness.serialize_config(harness.preset("paper-tracking-alg2"), cfg_path)
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_step_past_the_floats_ends_in_one_error_line(self, tmp_path, command):
        """In a fresh process, so that an exact 1000**(10**30) would hang the
        subprocess until its timeout, not the suite."""
        raw = harness.preset("paper-tracking-alg1").to_dict()
        raw["algorithm"]["step"] = {"c": 2.0, "p": 10**30}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "dffr.cli", command, "--config", str(cfg_path)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"error: algorithm.step {{'c': 2.0, 'p': {10**30}}} leaves the positive floats by round 1000\n"
        )

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("validate", "huge-box", "the run needs finite stream constants; the 'quadratic' stream has L = inf, L_1 = inf"),
            ("run", "huge-box", "the run needs finite stream constants; the 'quadratic' stream has L = inf, L_1 = inf"),
            ("run", "huge-step", "seed 0, round 1: agent 0 step [inf] is not finite"),
        ],
        ids=["validate-huge-box", "run-huge-box", "run-huge-step"],
    )
    def test_an_overflow_ends_in_one_error_line_and_leaves_no_directory(self, tmp_path, command, config, message):
        """NumPy warns on an overflow to standard error unless told not to; the
        refusal that follows is the one line printed.  A fresh process, so that
        no warnings filter of the suite hides a warning."""
        if config == "huge-box":
            raw = {
                "problem": {"stream": "quadratic", "horizon": 20, "box": [[-1e300, 1e300]],
                            "scales": [1, 2], "target": "0.5"},
                "topology": {"generator": "ring", "params": {"n": 2, "weight": 0.3}, "lambda_override": 0.5},
                "algorithm": {"kind": "projection_free", "alpha0": 0.1},
                "rho": [0.9],
                "bounds": True,
            }
        else:
            raw = _unstable_dogd().to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path / "new" / "deeper")] if command == "run" else []
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "dffr.cli", command, "--config", str(cfg_path), *out],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", ["out", "problem.custom_name"])
    def test_a_field_a_run_does_not_read_is_refused(self, tmp_path, capsys, command, key):
        raw = harness.preset("remark1-synthetic").to_dict()
        _set_field(raw, key, "elsewhere")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == ("", f"error: field '{key}' is not a known field\n")

    def test_a_rho_sweep_is_refused_naming_the_sweep_parameters(self, capsys):
        """A rho sweep is one run whose config lists the values in rho."""
        argv = ["sweep", "--preset", "paper-tracking-dogd", "--param", "rho", "--values", "0.96,0.97"]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: unknown sweep parameter 'rho'; known: delta, alpha0, alpha_schedule_scale, omega\n"
        )

    def test_validate_refuses_a_run_past_the_byte_budget(self, tmp_path, capsys, monkeypatch):
        """T = 10**6, 1,000 agents, d = 100 and two seeds: the gradient-free run's
        arrays would take 8 * 10**6 * (2 * 1000 * 204 + 101) bytes, and its
        draw and estimate buffers 16 * 125,000 * 2 * 1000 * 100 more."""
        raw = _quadratic_ring(n=harness.MAX_AGENTS, d=harness.MAX_DIMENSION)
        raw["problem"]["horizon"] = harness.MAX_HORIZON
        raw["algorithm"] = {"kind": "gradient_free", "step": {"c": 0.02, "p": 0.5}, "delta": 0.01}
        raw["seeds"] = [0, 1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        monkeypatch.setattr(algorithms, "run", None)  # validate runs nothing
        assert cli.main(["validate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: the run's arrays would take about 3.66e+12 bytes for T = 1000000, S = 2 seeds, "
            "n = 1000 agents and d = 100, above the budget of 4294967296 bytes\n"
        )

    def test_validate_accepts_the_alg1_preset_at_the_longest_horizon(self, tmp_path, capsys, monkeypatch):
        """The 20-seed gradient-free preset at T = 10**6 keeps
        8 * 10**6 * (20 * 4 * 6 + 2) + 16 * 125,000 * 80 = 4.02e9 bytes, inside
        the budget: its sphere draws and estimates take blocks of T/8 rounds."""
        raw = harness.preset("paper-tracking-alg1").to_dict()
        raw["problem"]["horizon"] = harness.MAX_HORIZON
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        monkeypatch.setattr(algorithms, "run", None)  # validate runs nothing
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == "OK\n"

    @pytest.mark.parametrize("T, S, n, d, expected", [
        # the history, then the two (rounds, S, n, d) buffers of one block
        (1000, 20, 4, 1, 8 * 1000 * (20 * 4 * 6 + 2) + 16 * 204 * 80),  # the gradient-free alg1 preset
        (400, 1, 32, 10, 8 * 400 * (32 * 24 + 11) + 16 * 51 * 320),  # the scale workload's projection-free run
        (729, 1, 1, 1, 8 * 729 * 8 + 16 * 729),  # remark1: a block is at most T rounds
    ])
    def test_run_bytes_counts_the_rules_arrays(self, T, S, n, d, expected):
        assert harness.run_bytes(T, S, n, d) == expected

    def test_every_preset_and_benchmark_config_is_within_the_byte_budget(self, monkeypatch):
        raws = _benchmark_configs(monkeypatch)
        assert len(raws) == 7
        for raw in raws + [harness.PRESETS[name]() for name in harness.PRESET_NAMES]:
            ExperimentConfig.from_dict(raw)  # validate refuses a run past the budget

    @pytest.mark.parametrize(
        "step, warning",
        [
            # alpha_t * L_s = 144 / sqrt(t) >= 4.55 up to the horizon
            (None, "alpha_1*L_s = 144, and alpha_t*L_s >= 2 up to round t = 1000 of 1000"),
            ({"c": 0.5, "p": 1.0}, "alpha_1*L_s = 36, and alpha_t*L_s >= 2 up to round t = 18 of 1000"),
            ({"c": 0.02, "p": 0.5}, None),  # alpha_1 * L_s = 1.44
        ],
    )
    def test_validate_warns_about_an_unstable_step(self, tmp_path, capsys, step, warning):
        raw = harness.preset("paper-tracking-alg1").to_dict()
        if step is not None:
            raw["algorithm"]["step"] = step
        cfg_path = tmp_path / "cfg.json"
        harness.serialize_config(ExperimentConfig.from_dict(raw), cfg_path)
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        out, err = capsys.readouterr()
        assert out == "OK\n"
        if warning is None:
            assert err == ""
        else:
            assert err == (
                f"warning: the step reaches the stability limit 2/L_s = 0.02778: {warning}\n"
            )

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            (
                "topology",
                {"generator": "ring", "params": {"n": 3, "weight": 0.3}},
                "the topology has 3 agents, the 'quadratic' stream has 4",
            ),
        ],
        ids=["agents"],
    )
    def test_config_at_odds_with_its_stream(self, tmp_path, capsys, command, key, value, message):
        raw = small_alg2_config(horizon=5).to_dict()
        _set_field(raw, key, value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    def test_run_and_sweep_share_the_config_options(self, capsys):
        for command in ("run", "sweep"):
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            for option in ("--config", "--preset", "--seeds", "--out"):
                assert option in text, (command, option)
            assert "--seed SEED" not in text  # a config's run is all its seeds
            assert "--seeds SEEDS seed list" in text
        assert "one of delta, alpha0, alpha_schedule_scale, omega" in text

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--preset", "nope"], "error: unknown preset 'nope'; known: "),
            (["run"], "error: need --config PATH or --preset NAME\n"),
        ],
        ids=["unknown-preset", "no-config"],
    )
    def test_error_exit_code(self, capsys, argv, message):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(  # argparse reads --seed as an abbreviation of --seeds
        "option, seeds", [(["--seeds", "0..2"], [0, 1, 2]), (["--seed", "5"], [5])], ids=["seeds", "seed"]
    )
    def test_seed_range_override(self, capsys, option, seeds):
        assert cli.main(["run", "--preset", "remark1-synthetic", *option]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["seeds"] == seeds
        assert len(out["per_seed"]) == len(seeds)

    @pytest.mark.parametrize("spec", ["0..100000000000", "0..131072"])
    def test_a_seed_range_past_the_limit_is_refused_before_it_is_built(self, capsys, spec):
        assert cli.main(["run", "--preset", "remark1-synthetic", "--seeds", spec]) == 1
        assert capsys.readouterr() == ("", f"error: bad --seeds {spec!r}: more than 131072 seeds\n")

    def test_a_seed_range_at_the_limit_is_built(self):
        seeds = cli._parse_seeds(argparse.Namespace(seeds=f"5..{harness.MAX_SEEDS + 4}"))
        assert seeds == list(range(5, harness.MAX_SEEDS + 5))

    def test_remark1_run_labels_its_entry_and_files_with_the_seed(self, tmp_path, capsys):
        assert cli.main(["run", "--preset", "remark1-synthetic", "--seeds", "3", "--out", str(tmp_path)]) == 0
        assert [entry["seed"] for entry in json.loads(capsys.readouterr().out)["per_seed"]] == [3]
        assert json.loads((tmp_path / "remark1-synthetic-seed3.meta.json").read_text())["seed"] == 3
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "remark1-synthetic-seed3.body", "remark1-synthetic-seed3.csv",
            "remark1-synthetic-seed3.meta.json", "remark1-synthetic-summary.json",
        ]

    @pytest.mark.parametrize("spec", ["abc", "1..x", "0,1,z"])
    def test_bad_seed_spec_is_an_error(self, spec, capsys):
        assert cli.main(["run", "--preset", "remark1-synthetic", "--seeds", spec]) == 1
        assert f"error: bad --seeds {spec!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["abc", "1,x", "0.5,,z"])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["sweep", "--preset", "paper-tracking-alg2", "--param", "alpha0", "--values"], "--values"),
            (["metrics", "--trace", "no-such-trace", "--rho"], "--rho"),
        ],
        ids=["sweep", "metrics"],
    )
    def test_bad_number_list_is_an_error(self, argv, option, spec, capsys):
        assert cli.main([*argv, spec]) == 1
        assert capsys.readouterr().err == f"error: bad {option} {spec!r}: expected comma-separated numbers\n"

    def test_sweep_command(self, tmp_path, capsys):
        cfg = small_alg2_config(horizon=20)
        cfg_path = tmp_path / "cfg.json"
        harness.serialize_config(cfg, cfg_path)
        assert (
            cli.main(
                ["sweep", "--config", str(cfg_path), "--param", "alpha0",
                 "--values", "0.001,0.005"]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
