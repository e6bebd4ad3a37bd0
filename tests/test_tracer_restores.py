"""The benchmark's span tracer leaves the package as it found it.

``perfbench/tracer.py`` rebinds every public function of each layer, under
every module name that holds it, and the methods listed in ``METHODS``.
A name it expects that the package no longer has makes ``--trace 1`` runs
crash, and a rebinding it fails to undo leaks wrappers into later code.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import dffr.harness  # noqa: F401  (loads every layer module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(tracer):
    """Every namespace the tracer may rebind: the dffr modules and the METHODS classes."""
    owners = [m for k, m in sys.modules.items() if k == "dffr" or k.startswith("dffr.")]
    for spec in tracer.METHODS:
        layer, cls_name, _ = spec.split(".")
        owners.append(getattr(sys.modules[f"dffr.{layer}"], cls_name))
    return owners


def test_instrument_rebinds_and_restores_every_attribute():
    tracer = load_tracer()
    owners = namespaces(tracer)
    before = [dict(vars(owner)) for owner in owners]
    with tracer.instrument(tracer.SpanRecorder()):
        changed = {
            (id(owner), attr)
            for owner, snap in zip(owners, before)
            for attr, value in vars(owner).items()
            if snap.get(attr) is not value
        }
        for spec in tracer.METHODS:
            layer, cls_name, attr = spec.split(".")
            cls = getattr(sys.modules[f"dffr.{layer}"], cls_name)
            assert (id(cls), attr) in changed, spec
    after = [dict(vars(owner)) for owner in owners]
    for owner, snap, now in zip(owners, before, after):
        assert now.keys() == snap.keys(), owner
        for attr, value in snap.items():
            assert now[attr] is value, f"{owner}.{attr} not restored"


# Each rule's step function, as the tracer names its spans.
STEP_OF_PRESET = {
    "paper-tracking-alg1": "algorithms.gradient_free_step",
    "paper-tracking-alg2": "algorithms.projection_free_step",
    "paper-tracking-dogd": "algorithms.projected_gradient_step",
}


@pytest.mark.parametrize("name", sorted(STEP_OF_PRESET))
def test_each_rule_records_its_step_spans(name):
    # The engine must call the step functions by name, so a rebound wrapper
    # sees every round: the benchmark's per-layer step counts rely on it.
    tracer = load_tracer()
    raw = dffr.harness.PRESETS[name]()
    raw["problem"]["horizon"] = 3
    raw["bounds"] = False
    cfg = dffr.harness.ExperimentConfig.from_dict(raw)
    recorder = tracer.SpanRecorder()
    with tracer.instrument(recorder):
        dffr.harness.run_single(cfg, 0)
    step = STEP_OF_PRESET[name]
    assert step in tracer.STEP_SPANS
    assert recorder.totals(0, len(recorder)).get(step, (0, 0.0))[0] == 3
