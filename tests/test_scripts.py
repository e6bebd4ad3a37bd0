"""A runnable script given a config that ``dffr`` refuses ends with
``error: <message>`` on standard error and exit status 1, as ``dffr.cli.main``
does, not with a traceback.  ``rho_sweep.py`` scores one run."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dffr import harness
from test_golden_traces import GOLDEN, SUMMARY_GOLDEN

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("trace_digest.py", ["--preset", "nope"], f"unknown preset 'nope'; known: {', '.join(harness.PRESET_NAMES)}"),
        ("tracking_benchmark.py", ["--horizon", "0"],
         "field 'problem.horizon' must be a positive integer at most 1000000, got 0"),
        ("rho_sweep.py", ["--values", "2"], "field 'rho' must be a list of distinct numbers in (0, 1), got [2.0]"),
        ("rho_sweep.py", ["--values", "0.96,0.96"],
         "field 'rho' must be a list of distinct numbers in (0, 1), got [0.96, 0.96]"),
        ("trace_digest.py", ["--seeds", "0..100000000000"], "bad --seeds '0..100000000000': more than 131072 seeds"),
    ],
    ids=["trace_digest", "tracking_benchmark", "rho_sweep", "rho_sweep-repeated", "trace_digest-seeds"],
)
def test_a_refused_config_ends_in_one_error_line(script, args, message):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stderr) == (1, f"error: {message}\n")


# What rho_sweep.py printed when it ran the engine once per value and once more
# for the cumulative regret.
SWEEP_TABLE = {
    "0.96": "  0.96             440              9.309e-10\n",
    "0.97": "  0.97             564              1.793e-08\n",
    "0.98": "  0.98             815              0.0002357\n",
}
SWEEP_HEADER = "   rho  regret<0.01 at  final weighted regret\n"
SWEEP_FOOTER = (
    "\nunweighted cumulative regret at T=1000: 4.9e+04 "
    "(non-decreasing; never crosses a decay threshold)\n"
)


@pytest.fixture(scope="module")
def rho_sweep():
    spec = importlib.util.spec_from_file_location("rho_sweep", ROOT / "scripts" / "rho_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("values", [None, "0.98,0.96"], ids=["default", "reversed"])
def test_rho_sweep_prints_its_table_from_one_run(rho_sweep, monkeypatch, capsys, values):
    runs = []
    run_seeds = harness.run_seeds
    monkeypatch.setattr(harness, "run_seeds", lambda cfg: runs.append(cfg.rho) or run_seeds(cfg))
    rho_sweep.main([] if values is None else ["--values", values])
    order = (values or "0.96,0.97,0.98").split(",")
    assert capsys.readouterr().out == SWEEP_HEADER + "".join(SWEEP_TABLE[v] for v in order) + SWEEP_FOOTER
    assert runs == [[float(v) for v in order]]


def test_rho_sweep_out_writes_the_dogd_presets_files(rho_sweep, tmp_path, capsys):
    """The default values are the dogd preset's rho, so the run is the preset's."""
    rho_sweep.main(["--out", str(tmp_path)])
    name = "paper-tracking-dogd"
    digest = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digest[f"{name}-seed0.csv"] == GOLDEN[name][0]
    assert digest[f"{name}-summary.json"] == SUMMARY_GOLDEN[name]
    assert sorted(digest) == [f"{name}-seed0.{ext}" for ext in ("body", "csv", "meta.json")] + [f"{name}-summary.json"]
