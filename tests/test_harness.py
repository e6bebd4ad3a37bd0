import json
from pathlib import Path

import numpy as np
import pytest

from dffr import cli, harness, metrics
from dffr.errors import (
    ConstraintViolation,
    MalformedTrace,
    ParseError,
    SchemaVersionMismatch,
    UnknownParameter,
)
from dffr.harness import ExperimentConfig
from dffr.objectives import ObjectiveStream
from dffr.trace import Trace


def small_alg2_config(horizon=40, **overrides) -> ExperimentConfig:
    raw = harness.preset("paper-tracking-alg2").to_dict()
    raw["problem"]["horizon"] = horizon
    raw["bounds"] = False
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def _set_field(raw: dict, key: str, value) -> None:
    """Set a config field given by its dotted path, e.g. 'problem.horizon'."""
    *sections, name = key.split(".")
    for part in sections:
        raw = raw[part]
    raw[name] = value


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

    def test_missing_topology(self):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["topology"] = None
        with pytest.raises(ParseError):
            ExperimentConfig.from_dict(raw)

    def test_zero_horizon_rejected(self):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        raw["problem"]["horizon"] = 0
        with pytest.raises(ConstraintViolation):
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
            ("bounds", "no"),
            ("bounds", 1),
            ("bounds", None),
            ("problem.horizon", "100"),
            ("problem.horizon", 100.0),
            ("problem.horizon", True),
            ("rho", ["0.99"]),
            ("rho", 0.99),
        ],
        ids=["seeds-str", "seeds-int", "seed-float", "seed-negative", "seed-bool",
             "seed-str", "bounds-str", "bounds-int", "bounds-null", "horizon-str",
             "horizon-float", "horizon-bool", "rho-str", "rho-number"],
    )
    def test_bad_seeds_or_bounds_name_the_field(self, key, value):
        raw = harness.preset("paper-tracking-alg2").to_dict()
        _set_field(raw, key, value)
        with pytest.raises(ParseError, match=f"^field '{key}' "):
            ExperimentConfig.from_dict(raw)

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
        real = harness.run_single

        def flaky(config, seed):
            if seed == 1:
                raise RuntimeError("injected failure")
            return real(config, seed)

        monkeypatch.setattr(harness, "run_single", flaky)
        with pytest.raises(RuntimeError):
            harness.run_experiment(cfg, out_dir=tmp_path)
        assert list(tmp_path.glob("*.csv")) == []
        assert list(tmp_path.glob("*.json")) == []

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
        ],
        ids=["truncated-row", "non-numeric", "wrong-width"],
    )
    def test_malformed_body_names_file_and_line(self, tmp_path, corrupt, line):
        cfg = small_alg2_config()
        harness.run_experiment(cfg, out_dir=tmp_path)
        csv_path = tmp_path / "paper-tracking-alg2-seed0.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(corrupt(lines)) + "\n")
        with pytest.raises(MalformedTrace, match=f"seed0.csv: line {line}: "):
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
        with pytest.raises(MalformedTrace, match=f"seed0.meta.json: the sidecar lacks {key}$"):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("T", "20", "sidecar field 'T' must be a non-negative integer, got '20'"),
            ("T", 20.5, "sidecar field 'T' must be a non-negative integer, got 20.5"),
            ("T", True, "sidecar field 'T' must be a non-negative integer, got True"),
            ("n", None, "sidecar field 'n' must be a non-negative integer, got None"),
            ("d", -1, "sidecar field 'd' must be a non-negative integer, got -1"),
            ("rhos", 0.9875, "sidecar field 'rhos' must be a list of numbers, got 0.9875"),
            ("rhos", [True], "sidecar field 'rhos' must be a list of numbers, got \\[True\\]"),
            ("final_eps_norm", "abc", "sidecar field 'final_eps_norm' must be a list of numbers"),
            ("final_eps_norm", [0.1], "sidecar field 'final_eps_norm' has 1 entries, n is 4"),
            ("d", 2, "sidecar field 'd' implies 14 or more columns, the header has 12$"),
            ("d", 10**9, "sidecar field 'd' implies 3000000008 or more columns, the header has 12$"),
            ("rhos", [0.5], "sidecar field 'rhos' implies columns the header lacks: dffr_0.5$"),
        ],
        ids=["T-str", "T-float", "T-bool", "n-null", "d-negative", "rhos-number",
             "rhos-bool", "eps-str", "eps-length", "d-columns", "d-huge", "rhos-columns"],
    )
    def test_bad_sidecar_field_names_file_and_field(self, tmp_path, key, value, message):
        harness.run_experiment(small_alg2_config(), out_dir=tmp_path)
        meta_path = tmp_path / "paper-tracking-alg2-seed0.meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(MalformedTrace, match=f"seed0.meta.json: {message}"):
            harness.recompute_metrics(tmp_path / "paper-tracking-alg2-seed0", [0.9875])

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

    def test_rho_sweep_rows(self):
        raw = harness.preset("paper-tracking-dogd").to_dict()
        raw["problem"]["horizon"] = 120
        cfg = ExperimentConfig.from_dict(raw)
        rows = harness.sweep(cfg, "rho", [0.9, 0.95])
        assert [r["value"] for r in rows] == [0.9, 0.95]
        assert all("median_regret_first_below" in r for r in rows)

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

    def test_validate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        harness.serialize_config(harness.preset("paper-tracking-alg2"), cfg_path)
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        assert "OK" in capsys.readouterr().out

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

    def test_error_exit_code(self, capsys):
        assert cli.main(["run", "--preset", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_range_override(self, capsys):
        assert cli.main(["run", "--preset", "remark1-synthetic", "--seeds", "0..2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["per_seed"]) == 3

    @pytest.mark.parametrize("spec", ["abc", "1..x", "0,1,z"])
    def test_bad_seed_spec_is_an_error(self, spec, capsys):
        assert cli.main(["run", "--preset", "remark1-synthetic", "--seeds", spec]) == 1
        assert f"error: bad --seeds {spec!r}" in capsys.readouterr().err

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
