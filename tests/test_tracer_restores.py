"""The benchmark's span tracer leaves the package as it found it.

``perfbench/tracer.py`` rebinds every public function of each layer, under
every module name that holds it, and the methods listed in ``METHODS``.
A name it expects that the package no longer has makes ``--trace 1`` runs
crash, and a rebinding it fails to undo leaks wrappers into later code.
"""

import importlib.util
import sys
from pathlib import Path

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
