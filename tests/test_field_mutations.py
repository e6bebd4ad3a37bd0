"""Mutation tests of the config and sidecar field tables.

Each example replaces one leaf of a valid document, or the whole document,
with a drawn JSON value: a preset's config or a small quadratic config on a
ring, or one field of a written trace sidecar.  Parsing the config, or
re-scoring the trace and parsing its sidecar's config (as
scripts/trace_digest.py does), must either succeed or raise a DffrError,
never a bare exception.  Integers are drawn from -3..64, so no mutant asks
for a horizon or a network large enough that parsing alone would allocate or
loop over it.
"""

import copy
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr import harness
from dffr.errors import DffrError
from conftest import seed_alone

QUADRATIC = {
    "name": "quadratic-ring",
    "problem": {
        "stream": "quadratic",
        "horizon": 6,
        "box": [[-10.0, 10.0], [-4.0, 8.0]],
        "scales": [1.0, 2.0, 3.0],
        "target": "8.0/t^0.5",
    },
    "topology": {"generator": "ring", "params": {"n": 3, "weight": 0.3}, "B": 1},
    "algorithm": {"kind": "gradient_free", "step": {"c": 0.02, "p": 0.5}, "delta": 0.01},
    "rho": [0.95, 0.99],
    "seeds": [0],
    "bounds": False,
}

CONFIGS = [harness.preset(name).to_dict() for name in harness.PRESET_NAMES] + [QUADRATIC]

# Strings a field may take, so that a mutant also reaches the checks past the types.
WORDS = (
    "gradient_free", "projection_free", "projected_gd", "exact_1d", "fixed_alpha0",
    "paper_tracking", "quadratic", "remark1", "paper4", "ring", "complete",
    "60/t^2", "1/t^400", "1e999",
)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 64),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(WORDS),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def leaf_paths(value, path=()):
    """The path of every leaf of a JSON document: a scalar, or an empty list or object."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from leaf_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from leaf_paths(item, path + (i,))
    else:
        yield path


def mutation_paths(doc, path=()):
    """The path of the document itself, then of each of its leaves."""
    return list(dict.fromkeys([path, *leaf_paths(doc, path)]))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *head, last = path
    owner = doc
    for key in head:
        owner = owner[key]
    owner[last] = value
    return doc


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_config_mutant_parses_or_raises_a_dffr_error(data):
    raw = data.draw(st.sampled_from(CONFIGS))
    path = data.draw(st.sampled_from(mutation_paths(raw)))
    mutant = replaced(raw, path, data.draw(json_values))
    try:
        harness.ExperimentConfig.from_dict(mutant)
    except DffrError:
        pass


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A two-dimensional trace of three agents, written once: (directory, rhos)."""
    cfg = harness.ExperimentConfig.from_dict(QUADRATIC)
    out = tmp_path_factory.mktemp("written")
    harness.write_trace(seed_alone(cfg, 0), cfg.rho, out / "trace")
    return out, cfg.rho


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sidecar_mutant_rescores_or_raises_a_dffr_error(written, tmp_path_factory, data):
    source, rhos = written
    meta = json.loads((source / "trace.meta.json").read_text())
    key = data.draw(st.sampled_from(sorted(meta)))
    path = data.draw(st.sampled_from(mutation_paths(meta[key], (key,))))
    mutant = replaced(meta, path, data.draw(json_values))
    out = tmp_path_factory.mktemp("mutant")
    shutil.copy(source / "trace.body", out / "trace.body")
    (out / "trace.meta.json").write_text(json.dumps(mutant))
    try:
        harness.recompute_metrics(out / "trace", rhos)
    except DffrError:
        pass
    try:
        harness.ExperimentConfig.from_dict(mutant["config"])
    except DffrError:
        pass
