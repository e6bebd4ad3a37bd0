import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dffr import algorithms, cli, harness, metrics, network
from dffr.errors import (
    ConstraintViolation,
    DffrError,
    MalformedTrace,
    ParseError,
    SchemaVersionMismatch,
    UnknownParameter,
)
from dffr.harness import ExperimentConfig
from dffr.network import MixingConstants, ring_matrix
from dffr.objectives import ObjectiveStream
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


def _quadratic_ring(n: int, d: int) -> dict:
    """A short quadratic-stream config on a ring of n agents in d dimensions."""
    return {
        "problem": {"stream": "quadratic", "horizon": 5, "box": [[-10.0, 10.0]] * d,
                    "scales": [1.0 + i / n for i in range(n)], "target": "8.0/t^0.5"},
        "topology": {"generator": "ring", "params": {"n": n, "weight": 0.3}},
        "algorithm": {"kind": "projection_free", "alpha0": 0.5},
    }


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position"


def _non_utf8_field(data: bytes, line: int, k: int) -> bytes:
    """``data`` with field ``k`` of its (1-based) line ``line`` replaced by the byte 0xff."""
    lines = data.split(b"\n")
    fields = lines[line - 1].split(b",")
    fields[k] = b"\xff"
    lines[line - 1] = b",".join(fields)
    return b"\n".join(lines)


def _with_field(line: str, k: int, value: str) -> str:
    fields = line.split(",")
    fields[k] = value
    return ",".join(fields)


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
        ],
        ids=["projected-gd", "projection-free-without-alpha0", "gradient-free-without-step",
             "gradient-free-without-delta", "projected-gd-without-step", "fixed-alpha0-without-alpha0"],
    )
    def test_refused_config_gives_its_message(self, name, edit, message):
        raw = harness.preset(name).to_dict()
        edit(raw)
        with pytest.raises(ConstraintViolation) as caught:
            ExperimentConfig.from_dict(raw)
        assert str(caught.value) == message

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
            ("topology", {"generator": "paper4", "params": {"n": 4}}),
            ("topology", {"generator": "ring"}),
            ("topology.params.n", "4"),
            ("topology.params", [4, 0.22]),
            ("topology.matrix", [[0.5, 0.5], [0.5]]),
            ("topology.generator", "torus"),
            ("problem.target", [1, "x"]),
            ("algorithm.clamp_to_feasible", "no"),
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
             "generator-unknown", "target-pair-str", "clamp-str", "step-c-str", "lambda-str",
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
         "a list of 1 to 100 [lower, upper] pairs, got [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], "
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
        inputs = metrics.BoundInputs.from_traces([trace], paper_stream, mc, 0.9875)
        curve = summary["bounds"]["0.9875"]
        assert curve["bound"] == list(metrics.projection_free_regret_bound(inputs, 0.002))
        assert curve["mean_dffr"] == list(metrics.dffr_series(trace, 0.9875))

    def test_matrix_topology_runs_as_its_generator(self, tmp_path):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["topology"].update(generator=None, matrix=ring_matrix(4, 0.22).tolist())
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
        assert list(tmp_path.iterdir()) == []  # seed 0's CSV, sidecar and binary copy

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
        assert harness.run_single(cfg, 0).T == 20
        # the run reads the box from the stream and never builds one
        assert sorted(builds) == ["build_stream", "build_weight_matrix"]

    def test_hand_set_gap_trace_roundtrip(self, tmp_path):
        trace = Trace.from_gap_sequence([1.0, 1.0, 1.0])
        harness.write_trace(trace, [0.5], tmp_path / "hand")
        result = harness.recompute_metrics(tmp_path / "hand", [0.5])
        assert result["final_dffr"]["0.5"] == pytest.approx(1.75)
        assert result["stored_dffr_max_delta"]["0.5"] == 0.0

    def test_truncated_file_rejected(self, tmp_path):
        cfg = small_alg2_config()
        harness.run_experiment(cfg, out_dir=tmp_path)
        csv_path = tmp_path / "paper-tracking-alg2-seed0.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(SchemaVersionMismatch):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    @pytest.mark.parametrize(
        "corrupt, line",
        [
            (lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]], 161),
            (lambda lines: lines[:9] + [_with_field(lines[9], 4, "abc")] + lines[10:], 10),
            (lambda lines: lines[:4] + [lines[4] + ",0.5"] + lines[5:], 5),
            (lambda lines: lines[:1] + [line + ",0.5" for line in lines[1:]], 2),
        ],
        ids=["truncated-row", "non-numeric", "wrong-width", "every-row-wider"],
    )
    def test_malformed_body_names_file_and_line(self, tmp_path, corrupt, line):
        cfg = small_alg2_config()
        harness.run_experiment(cfg, out_dir=tmp_path)
        csv_path = tmp_path / "paper-tracking-alg2-seed0.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(corrupt(lines)) + "\n")
        with pytest.raises(MalformedTrace, match=f"seed0.csv: line {line}: "):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda lines: lines[:5] + [lines[9]] + lines[6:9] + [lines[5]] + lines[10:],
             "line 6: expected round 2, agent 0; rows run round-major over \\(t, agent\\)$"),
            (lambda lines: lines[:10] + [_with_field(lines[10], 10, "1.5")] + lines[11:],
             "line 11: gap differs from line 10, the first row of round 3$"),
        ],
        ids=["rows-swapped", "gap-differs"],
    )
    def test_rows_off_the_grid_or_at_odds_name_the_line(self, tmp_path, corrupt, message):
        harness.run_experiment(small_alg2_config(), out_dir=tmp_path)
        csv_path = tmp_path / "paper-tracking-alg2-seed0.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0].split(",")[10] == "gap"
        csv_path.write_text("\n".join(corrupt(lines)) + "\n")
        with pytest.raises(MalformedTrace, match=f"seed0.csv: {message}"):
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
            ("d", 2, "sidecar fields 'd' and 'rhos' imply 15 columns, the header has 12$"),
            ("d", 10**9, "sidecar fields 'd' and 'rhos' imply 3000000009 columns, the header has 12$"),
            ("rhos", [0.5], "sidecar fields 'd' and 'rhos' imply the column dffr_0.5, "
             "the header has dffr_0.9875$"),
            ("columns", harness.trace_columns(1, [0.9875])[:-1], "sidecar fields 'd' and 'rhos' "
             "imply the column dffr_0.9875, sidecar field 'columns' has none$"),
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
        # A sidecar of no rounds (or no agents) over a header-only body.
        harness.write_trace(Trace.from_gap_sequence([1.0, 1.0]), [0.5], tmp_path / "hand")
        meta_path, csv_path = tmp_path / "hand.meta.json", tmp_path / "hand.csv"
        meta = json.loads(meta_path.read_text())
        meta[key] = 0
        meta_path.write_text(json.dumps(meta))
        csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")
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

    def test_custom_stream_registration(self):
        class Tiny(ObjectiveStream):
            def __init__(self, box):
                super().__init__(2, 1, 10, box, 2.0, 2.0, 30.0)

            def _value(self, i, t, x):
                return float(x[0] ** 2)

            def _gradient(self, i, t, x):
                return 2.0 * x

        harness.register_stream("tiny-test", lambda p: Tiny(harness.BoxSet.symmetric(5.0)))
        raw = {
            "name": "custom-run",
            "problem": {
                "stream": "custom",
                "custom_name": "tiny-test",
                "horizon": 5,
                "box": [[-5.0, 5.0]],
            },
            "topology": {"generator": "complete", "params": {"n": 2}},
            "algorithm": {"kind": "projected_gd", "step": {"c": 0.1}},
            "rho": [0.9],
        }
        summary = harness.run_experiment(ExperimentConfig.from_dict(raw))
        assert summary["per_seed"][0]["final_dffr"]["0.9"] >= -1e-9


class TestSweep:
    def test_empty_values_warns(self):
        cfg = small_alg2_config()
        with pytest.warns(UserWarning):
            rows = harness.sweep(cfg, "rho", [])
        assert rows == []

    def test_unknown_parameter(self):
        cfg = small_alg2_config()
        with pytest.raises(UnknownParameter):
            harness.sweep(cfg, "temperature", [1.0])

    def test_unknown_parameter_lists_the_names(self):
        known = "rho, delta, alpha0, alpha_schedule_scale, omega"
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

    def test_rho_sweep_rows(self):
        raw = harness.preset("paper-tracking-dogd").to_dict()
        raw["problem"]["horizon"] = 120
        cfg = ExperimentConfig.from_dict(raw)
        rows = harness.sweep(cfg, "rho", [0.9, 0.95])
        assert [r["value"] for r in rows] == [0.9, 0.95]
        assert all("median_regret_first_below" in r for r in rows)

    def test_rho_sweep_writes_one_trace_per_value_and_seed(self, tmp_path):
        # Each value's name has a dot ("paper-tracking-dogd-rho0.96"), which
        # must stay in the trace files' names so that no run overwrites another.
        raw = harness.preset("paper-tracking-dogd").to_dict()
        raw["problem"]["horizon"] = 30
        raw["seeds"] = [0, 1]
        harness.sweep(ExperimentConfig.from_dict(raw), "rho", [0.96, 0.97], out_dir=tmp_path)
        names = {f"paper-tracking-dogd-rho{value}" for value in (0.96, 0.97)}
        bases = {f"{name}-seed{seed}" for name in names for seed in (0, 1)}
        assert {p.name for p in tmp_path.iterdir()} == {
            base + suffix for base in bases for suffix in (".csv", ".meta.json", ".body")
        } | {f"{name}-summary.json" for name in names}
        for name in names:
            summary = json.loads((tmp_path / f"{name}-summary.json").read_text())
            rho = summary["config"]["rho"]
            for entry in summary["per_seed"]:
                result = harness.recompute_metrics(tmp_path / f"{name}-seed{entry['seed']}", rho)
                assert result.pop("stored_dffr_max_delta") == {repr(rho[0]): 0.0}
                assert result == entry

    def test_omega_sweep_rebuilds_topology(self):
        cfg = small_alg2_config(horizon=20)
        rows = harness.sweep(cfg, "omega", [0.2, 0.25])
        assert len(rows) == 2

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_value_is_refused_naming_what_was_written(self, bad):
        with pytest.raises(DffrError, match="^cannot write the summary x.json as strict JSON: "):
            harness.strict_json({"mean_final_dffr": {"0.9": bad}}, "the summary x.json")

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
        with np.errstate(over="ignore"):
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
            ("metrics", "run-seed0.csv", "directory", "Is a directory"),
            ("metrics", "run-seed0.csv", lambda data: _non_utf8_field(data, 1, 2), f"{NOT_UTF8} 8: invalid start byte"),
            # past the reader's first 8 KiB: the parse fails, and the line is named
            ("metrics", "run-seed0.csv", lambda data: _non_utf8_field(data, 161, 4),
             "line 161: eps_norm is not a number: '\ufffd'"),
        ],
        ids=["config-directory", "config-not-utf8", "run-config-not-utf8", "sidecar-directory",
             "sidecar-not-utf8", "csv-directory", "csv-header-not-utf8", "csv-body-not-utf8"],
    )
    def test_an_unreadable_input_file_is_an_error_naming_it(self, tmp_path, capsys, command, name, spoil, why):
        cfg = small_alg2_config(horizon=40, name="run")
        harness.serialize_config(cfg, tmp_path / "cfg.json")
        harness.run_experiment(cfg, out_dir=tmp_path)
        path = tmp_path / name
        if spoil == "directory":
            path.unlink()
            path.mkdir()
        else:
            path.write_bytes(spoil(path.read_bytes()))
        where = ["--trace", str(tmp_path / "run-seed0"), "--rho", "0.9"] if command == "metrics" else ["--config", str(path)]
        assert cli.main([command, *where]) == 1
        assert capsys.readouterr().err == f"error: {path}: {why}\n"

    def test_validate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        harness.serialize_config(harness.preset("paper-tracking-alg2"), cfg_path)
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_refuses_a_run_past_the_byte_budget(self, tmp_path, capsys, monkeypatch):
        """T = 10**6, 1,000 agents, d = 100 and two seeds: the gradient-free run's
        arrays would take 8 * 2 * 10**6 * (1000 * 404 + 101) bytes."""
        raw = _quadratic_ring(n=harness.MAX_AGENTS, d=harness.MAX_DIMENSION)
        raw["problem"]["horizon"] = harness.MAX_HORIZON
        raw["algorithm"] = {"kind": "gradient_free", "step": {"c": 0.02, "p": 0.5}, "delta": 0.01}
        raw["seeds"] = [0, 1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        monkeypatch.setattr(algorithms, "run", None)  # validate runs nothing
        assert cli.main(["validate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: the run's arrays would take about 6.47e+12 bytes for T = 1000000, S = 2 seeds, "
            "n = 1000 agents and d = 100, above the budget of 4294967296 bytes\n"
        )

    @pytest.mark.parametrize("kind, T, S, n, d, expected", [
        ("gradient_free", 1000, 20, 4, 1, 8 * 20 * 1000 * (4 * 8 + 2)),
        ("projection_free", 400, 1, 32, 10, 8 * 400 * (32 * 24 + 11)),
        ("remark1", 729, 1, 1, 1, 8 * 729 * 8),
    ])
    def test_run_bytes_counts_the_rules_arrays(self, kind, T, S, n, d, expected):
        assert harness.run_bytes(kind, T, S, n, d) == expected

    def test_every_preset_and_benchmark_config_is_within_the_byte_budget(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        raws = [case.raw for name in workloads.WORKLOADS for case in workloads.cases(name, 0, harness.PRESETS)]
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
                "the topology has 3 agents, the 'paper_tracking' stream has 4",
            ),
            (
                "problem.box",
                [[-10.0, 10.0], [-10.0, 10.0]],
                "problem.box [[-10.0, 10.0], [-10.0, 10.0]] is not the box of the "
                "'paper_tracking' stream, [[-10.0, 10.0]]",
            ),
            (
                "problem.box",
                [[-5.0, 5.0]],
                "problem.box [[-5.0, 5.0]] is not the box of the 'paper_tracking' stream",
            ),
        ],
        ids=["agents", "box-2d", "box-narrow"],
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
            for option in ("--config", "--preset", "--seed SEED", "--seeds", "--out"):
                assert option in text, (command, option)
            assert "--seeds SEEDS seed list" in text
        assert "one of rho, delta, alpha0, alpha_schedule_scale, omega" in text

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

    @pytest.mark.parametrize(
        "option, seeds", [(["--seeds", "0..2"], [0, 1, 2]), (["--seed", "5"], [5])], ids=["seeds", "seed"]
    )
    def test_seed_range_override(self, capsys, option, seeds):
        assert cli.main(["run", "--preset", "remark1-synthetic", *option]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["seeds"] == seeds
        assert len(out["per_seed"]) == len(seeds)

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
            (["sweep", "--preset", "remark1-synthetic", "--param", "rho", "--values"], "--values"),
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
