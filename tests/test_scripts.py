"""A runnable script given a config that ``dffr`` refuses ends with
``error: <message>`` on standard error and exit status 1, as ``dffr.cli.main``
does, not with a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dffr import harness

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("trace_digest.py", ["--preset", "nope"], f"unknown preset 'nope'; known: {', '.join(harness.PRESET_NAMES)}"),
        ("tracking_benchmark.py", ["--horizon", "0"],
         "field 'problem.horizon' must be a positive integer at most 1000000, got 0"),
        ("rho_sweep.py", ["--values", "2"], "field 'rho' must be a list of distinct numbers in (0, 1), got [2.0]"),
    ],
    ids=["trace_digest", "tracking_benchmark", "rho_sweep"],
)
def test_a_refused_config_ends_in_one_error_line(script, args, message):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stderr) == (1, f"error: {message}\n")
