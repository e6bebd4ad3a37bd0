"""Golden digests of the CSV trace body of every preset and seed at T = 1000,
and of every preset's summary JSON.

The CSV body is a pure function of (config, seed).  These SHA-256 digests
pin it, so an engine change has to keep every trace byte-identical or
change a digest on purpose (with a note in CHANGES.md saying why).
``SUMMARY_GOLDEN`` pins each preset's summary JSON, bound curves included:
the gradient-free bound reads the optimum path over the shrunk box, which
no CSV holds.  ``python scripts/trace_digest.py`` prints the same digests.

The runs come from the session fixtures in conftest.py; those configs differ
from the presets only in ``bounds``, which does not enter the CSV body.

The presets are all one-dimensional, so ``SCALE_GOLDEN`` also pins short
runs of both paper rules at n = 32, d = 10 with two forgetting factors (the
problem of the benchmark's ``scale-ring-n32-d10`` workload at T = 40).
``python scripts/trace_digest.py --config <file> --seeds 0,1`` prints them
for ``scale_config(<rule>)`` saved as JSON.

A run's written files alone (a sidecar's config and each seed's trace)
rebuild its summary through ``harness.score`` byte for byte, so the
rescored summary of every preset hashes to its ``SUMMARY_GOLDEN`` digest.

Each bound preset has one forgetting factor, so ``MULTI_RHO_GOLDEN`` pins
the written and the rescored summary of short runs of the three bound
presets with two or three values of rho: every rho's bound curve is read
from one set of measured inputs.
"""

import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from dffr import harness
from dffr.errors import ConstraintViolation
from dffr.harness import ExperimentConfig
from conftest import seed_alone

GOLDEN = {
    "paper-tracking-alg1": {
        0: "1281c00212f39de406be9a6d323ddd4b38b74945db129b137ebf120ed3b4ebfe",
        1: "b346541545ccf4a496e8bce70f6cc1f62b5e8b0e89cf4e365b231eaffe808448",
        2: "dc4dc47751f60b4a56cee8cad3db90d0d1e326b4d046f03adc5020be83f5e628",
        3: "70b74806e7e59853dfa64b91dfa543791174eee112c1c3cf3201349a235b0b57",
        4: "fa1b4ab83580502271b7e55427e17ffb374fb222ba4471609a1e007e09846f74",
        5: "bd8a8e8d69e5d82bf0fadcd02dbeb375759fb32359ca8598086fbf6197f81d08",
        6: "d3efe0e0d664515a10c2c56c47bb372d0a63e6a960e596612cd26a85aa18cf94",
        7: "5cc0349325f750d8c2f7a0f744e4fa528a08693d658b5f136856d84924687f19",
        8: "99db90ab9d26ba61db0a683f7eec9d92f49e19e98ac5dd1cdb0078f8d9c2ce66",
        9: "52f2788aa288bce05db6c4c18d132b85210870665499891478ff9eb6f5f3f950",
        10: "1800620c8af43d60871847c6b1dd5b22def08d1ba49e9b15fe7ebec08d9b0f09",
        11: "5cb933cf4a38b8ab119127f68c5e03389ffaeb1c9f69b33a67d6dbdcd324211e",
        12: "b0cf2d583d03df1a85cfb5e32b9270fc3f2cc36d86cd1b1b231cb3555213e7a9",
        13: "6b5e96289a8e3b01ddc07baf9d1618c0bdbdc0b6ffda788bc549c062375ef02a",
        14: "fb7862feffb557cb1268e8a787514b3ebffb9d4649d763bd0b0351891c3af886",
        15: "8e5e6b083f8d9a9d33cd00abc6426c3b46b3ca7350de32bb5016cb36d85ba893",
        16: "f13018b8a5520c40bd60fd44544d373c049284777eaea4f3801188f2eb42e8ce",
        17: "52acbdd9b92b8d885d457bb313953a416ce5507ae775c7a3e4c31d8461bb1c0c",
        18: "4e22aab680c086e86d9ee00f79f57113779a629e3ad6a1a971ce87de5d1f3c60",
        19: "89f4d1c5ab685ca1c31a1a27721a8edcc0914a97142014acd43bbe61f91b4747",
    },
    "paper-tracking-alg2": {
        0: "bd82d6d031a4de9ec18c7c4f07a9a5a7dc7c4b683241f52713bae35452abfdcb",
    },
    "paper-tracking-alg2-linesearch": {
        0: "18ec6a79df275e7787e1ee8c4427876b3d58cbfd80097ef712695001fc29ccf8",
    },
    "paper-tracking-dogd": {
        0: "a79fc28bebc4f7b2bf451c420e36134760b1f016da834638dc556be404262eb7",
    },
    "remark1-synthetic": {
        0: "61ecdce7cf310439a10b09ff24ab9d5c127d55f6dc14a6a458332fb83ccc4c43",
    },
}

SUMMARY_GOLDEN = {
    "paper-tracking-alg1": "8182543b618ddc8e5f386a774713dff3482a57c5093ae8386695cfbf48e3c52d",
    "paper-tracking-alg2": "c18f423f02c97000bdfd5e525dcc998f4696c18ef09665076c54c483e68e77b0",
    "paper-tracking-alg2-linesearch": "91709e442ab0abf958c0b34feded73c1356d8182fcb0ed4b8775c2140de6ec61",
    "paper-tracking-dogd": "b168e8e93c6c664b394d710ac8bbe9292b15848545f5514e5ec67b9cb2d5da64",
    "remark1-synthetic": "4a0887e62f8ed764829aa4c70f27f8dfac729a1a5e0946f2286ee2538d6b0eba",
}

SCALE_GOLDEN = {
    "scale-gradient-free": {
        0: "a4eb972d9445a3411e34cba92f7fa08c3f2e5843500ecc28d16b1935e3298f67",
        1: "e101368338e9f56fe234eed161ce4e9d822a4b3968f7035ba1a3a9c535fa9c79",
    },
    "scale-projection-free": {
        0: "dd6029af7bcd8d05213bb975266d707338df961d6daea537efd900a3f049dd73",
    },
}

SCALE_RULES = {
    "scale-gradient-free": {"kind": "gradient_free", "step": {"c": 0.02, "p": 0.5}, "delta": 0.01},
    "scale-projection-free": {"kind": "projection_free", "line_search": "exact_1d"},
}


def scale_config(name: str) -> dict:
    """32 agents on a ring (edge weight 0.3), d = 10, T = 40, rho 0.95 and 0.99."""
    n, d = 32, 10
    return {
        "name": name,
        "problem": {
            "stream": "quadratic",
            "horizon": 40,
            "box": [[-10.0, 10.0]] * d,
            "scales": [1.0 + 5.0 * i / (n - 1) for i in range(n)],
            "target": "8.0/t^0.5",
        },
        "topology": {"generator": "ring", "params": {"n": n, "weight": 0.3}, "B": 1},
        "algorithm": SCALE_RULES[name],
        "rho": [0.95, 0.99],
        "seeds": sorted(SCALE_GOLDEN[name]),
        "bounds": False,
    }


MULTI_RHO_GOLDEN = {
    "paper-tracking-alg1": "2680845b79d0b4c95b9ef63b9e0e0e111b313a46edd48f6e5bdc74bb809d9658",
    "paper-tracking-alg2": "98d750f8c6637d4000d512ee536fd5fc0f5ca5499470e55751d2b48419cac1b2",
    "paper-tracking-alg2-linesearch": "6196de68390d1f7e9e41b4d6afa4c4628209ab207401bac554b170aaeb99e54c",
}

MULTI_RHO = {
    "paper-tracking-alg1": {"seeds": [0, 1, 2], "rho": [0.987, 0.9875, 0.99]},
    "paper-tracking-alg2": {"rho": [0.9875, 0.995]},
    "paper-tracking-alg2-linesearch": {"rho": [0.987, 0.999]},
}


def multi_rho_config(name: str) -> ExperimentConfig:
    """A bound preset at T = 200 with the forgetting factors of ``MULTI_RHO``."""
    raw = harness.PRESETS[name]() | MULTI_RHO[name]
    raw["problem"]["horizon"] = 200
    return ExperimentConfig.from_dict(raw)


FIXTURES = {
    "paper-tracking-alg1": "alg1_traces",
    "paper-tracking-alg2": "alg2_fixed_trace",
    "paper-tracking-alg2-linesearch": "alg2_exact_trace",
    "paper-tracking-dogd": "dogd_trace",
}


def test_every_preset_is_pinned():
    assert sorted(GOLDEN) == sorted(SUMMARY_GOLDEN) == sorted(harness.PRESET_NAMES)


@pytest.mark.parametrize("name", harness.PRESET_NAMES)
def test_csv_body_matches_golden_digest(name, request, tmp_path):
    cfg = harness.preset(name)
    if name in FIXTURES:
        traces = request.getfixturevalue(FIXTURES[name])
        traces = traces if isinstance(traces, list) else [traces]
    else:
        traces = [seed_alone(cfg, seed) for seed in cfg.seeds]
    digests = {}
    for seed, trace in zip(cfg.seeds, traces):
        csv_path, *_ = harness.write_trace(trace, cfg.rho, tmp_path / f"seed{seed}")
        digests[seed] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digests == GOLDEN[name]


@pytest.fixture(scope="module")
def trace_digest():
    spec = importlib.util.spec_from_file_location(
        "trace_digest", Path(__file__).resolve().parents[1] / "scripts" / "trace_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def preset_run(tmp_path_factory):
    """The directory of a preset's written run, each preset run once per module."""
    runs = {}

    def run(name: str) -> Path:
        if name not in runs:
            runs[name] = tmp_path_factory.mktemp(name)
            harness.run_experiment(harness.preset(name), runs[name])
        return runs[name]

    return run


@pytest.mark.parametrize("name", harness.PRESET_NAMES)
def test_summary_matches_golden_digest(name, preset_run):
    summary = preset_run(name) / f"{name}-summary.json"
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == SUMMARY_GOLDEN[name]


@pytest.mark.parametrize("name", harness.PRESET_NAMES)
def test_summary_rescored_from_the_files_matches_golden_digest(name, preset_run, trace_digest):
    seed = harness.preset(name).seeds[0]
    rescored = trace_digest.rescore(preset_run(name) / f"{name}-seed{seed}")
    text = harness.strict_json(rescored, "the rescored summary")
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_GOLDEN[name]


@pytest.mark.parametrize("name", harness.PRESET_NAMES)
def test_every_sidecar_config_loads_as_the_runs_config(name, preset_run):
    cfg = harness.preset(name)
    for seed in cfg.seeds:
        config = json.loads((preset_run(name) / f"{name}-seed{seed}.meta.json").read_text())["config"]
        assert config == cfg.to_dict()
        assert ExperimentConfig.from_dict(config).to_dict() == cfg.to_dict()


@pytest.mark.parametrize("name", harness.PRESET_NAMES)
def test_every_per_seed_entry_and_sidecar_holds_its_seed(name, preset_run):
    cfg = harness.preset(name)
    summary = json.loads((preset_run(name) / f"{name}-summary.json").read_text())
    assert [entry["seed"] for entry in summary["per_seed"]] == cfg.seeds
    for seed in cfg.seeds:
        assert json.loads((preset_run(name) / f"{name}-seed{seed}.meta.json").read_text())["seed"] == seed


def test_a_saved_run_scored_at_an_unstored_rho_is_that_rhos_run(preset_run):
    name, rho = "paper-tracking-dogd", 0.95
    raw = harness.preset(name).to_dict()
    assert rho not in raw["rho"]
    raw["rho"] = [rho]
    cfg = ExperimentConfig.from_dict(raw)
    traces = [harness.read_trace(preset_run(name) / f"{name}-seed{seed}")[1] for seed in cfg.seeds]
    expected = harness.run_experiment(cfg)
    del expected["traces"]
    rescored = harness.score(cfg, traces)
    assert harness.strict_json(rescored, "the rescored summary") == harness.strict_json(expected, "the summary")


@pytest.mark.parametrize("name", sorted(MULTI_RHO_GOLDEN))
def test_multi_rho_summary_matches_golden_digest(name, trace_digest):
    cfg = multi_rho_config(name)
    assert cfg.bounds and len(cfg.rho) > 1
    found = dict(trace_digest.digests(cfg))
    assert (found["summary"], found["rescored"]) == (MULTI_RHO_GOLDEN[name],) * 2


@pytest.mark.parametrize("raw", [harness.PRESETS["remark1-synthetic"](), scale_config("scale-gradient-free")])
def test_trace_digest_prints_the_rescored_digest_of_the_summary(raw, trace_digest):
    found = dict(trace_digest.digests(ExperimentConfig.from_dict(raw)))
    assert found["rescored"] == found["summary"]


@pytest.mark.parametrize(
    "seeds, got",
    [([0], [0, 0]), ([0, 1], [1, 0]), ([0], [1]), ([0], [None])],
    ids=["one-seed-twice", "other-order", "wrong-seed", "no-seed"],
)
def test_score_needs_one_trace_per_seed(preset_run, seeds, got):
    cfg = harness.preset("paper-tracking-dogd")
    cfg.seeds = seeds
    trace = harness.read_trace(preset_run(cfg.name) / f"{cfg.name}-seed0")[1]
    traces = [dataclasses.replace(trace, seed=seed) for seed in got]
    with pytest.raises(ConstraintViolation) as refused:
        harness.score(cfg, traces)
    assert str(refused.value) == (
        "paper-tracking-dogd: score needs one trace per configured seed, in order: "
        f"the config has seeds {seeds}, the traces have seeds {got}"
    )


@pytest.mark.parametrize("name", sorted(SCALE_GOLDEN))
def test_wide_csv_body_matches_golden_digest(name, tmp_path):
    cfg = ExperimentConfig.from_dict(scale_config(name))
    digests = {}
    for seed in cfg.seeds:
        trace = seed_alone(cfg, seed)
        csv_path, *_ = harness.write_trace(trace, cfg.rho, tmp_path / f"seed{seed}")
        digests[seed] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digests == SCALE_GOLDEN[name]


@pytest.mark.parametrize(
    "name, horizon",
    [(name, None) for name in harness.PRESET_NAMES if name != "remark1-synthetic"]
    + [(name, horizon) for name in sorted(SCALE_GOLDEN) for horizon in (40, 400)],
)
def test_stream_constants_are_the_tabled_maximum(name, horizon, tabled_constants):
    """L, L_s and L_1 from two rows of c(t), on every preset and on the scale
    problem at the golden horizon and the benchmark's, have the table's bits."""
    if horizon is None:
        raw = harness.preset(name).to_dict()
    else:
        raw = scale_config(name)
        raw["problem"]["horizon"] = horizon
    stream, _ = ExperimentConfig.from_dict(raw).built()
    assert (stream.L, stream.L_s, stream.L_1) == tabled_constants(stream)


@pytest.mark.parametrize(
    "name", [name for name in harness.PRESET_NAMES if name != "remark1-synthetic"] + sorted(SCALE_GOLDEN)
)
def test_a_run_leaves_its_stream_as_it_found_it(name):
    """A stream holds no per-round state: a run, with its bounds where the
    preset has them, neither adds nor replaces any of the stream's attributes."""
    cfg = ExperimentConfig.from_dict(scale_config(name) if name in SCALE_GOLDEN else harness.preset(name).to_dict())
    stream, _ = cfg.built()
    before = dict(vars(stream))
    harness.run_experiment(cfg)
    assert cfg.built()[0] is stream
    after = vars(stream)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
