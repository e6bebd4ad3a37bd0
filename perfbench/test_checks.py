"""Each correctness check of the benchmark accepts a genuine output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

The genuine outputs come from short runs of the program (T = 60); each
corruption changes one thing the check is there to catch.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from dffr import harness  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HORIZON = 60


def _run(raw: dict) -> dict:
    raw["problem"]["horizon"] = HORIZON
    return harness.run_experiment(harness.ExperimentConfig.from_dict(raw))


@pytest.fixture(scope="module")
def alg1():
    case = workloads.paper_presets(harness.PRESETS, seed=7)[0]
    raw = dict(case.raw, seeds=[7, 8])
    return case, _run(raw)


@pytest.fixture(scope="module")
def scale_gf():
    case = workloads.scale_ring(seed=3)[0]
    return case, _run(dict(case.raw))


def _with(trace, **changes):
    """A copy of the trace with some fields replaced."""
    fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
    fields = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in fields.items()}
    fields.update(changes)
    return type(trace)(**fields)


def _trace_checks(case, trace):
    delta = case.algorithm["delta"]
    return {
        "losses": checks.own_and_global_losses(case.problem, trace),
        "optimum": checks.round_optimum(case.problem, trace),
        "gaps": checks.gaps_nonnegative(trace),
        "gossip": checks.gossip(case.problem, trace),
        "shrunk box": checks.shrunk_box(case.problem, trace, delta),
        "estimator norms": checks.estimator_norms(case.problem, trace),
    }


@pytest.mark.parametrize("which", ["alg1", "scale_gf"])
def test_genuine_traces_pass(which, request):
    case, summary = request.getfixturevalue(which)
    for trace in summary["traces"]:
        for name, (ok, detail) in _trace_checks(case, trace).items():
            assert ok, f"{name}: {detail}"


def test_perturbed_decision_breaks_losses_and_gossip(scale_gf):
    case, summary = scale_gf
    trace = summary["traces"][0]
    x = trace.x.copy()
    x[10, 2, 4] += 1e-6
    bad = _with(trace, x=x)
    assert not checks.own_and_global_losses(case.problem, bad)[0]
    assert not checks.gossip(case.problem, bad)[0]


def test_wrong_optimum_is_rejected(alg1):
    case, summary = alg1
    trace = summary["traces"][0]
    x_star = trace.x_star.copy()
    x_star[5] += 1e-9
    assert not checks.round_optimum(case.problem, _with(trace, x_star=x_star))[0]
    f_star = trace.f_star.copy()
    f_star[30] *= 1.0 + 1e-9
    assert not checks.round_optimum(case.problem, _with(trace, f_star=f_star))[0]


def test_shifted_gossip_row_is_rejected(scale_gf):
    case, summary = scale_gf
    trace = summary["traces"][0]
    z = trace.z.copy()
    z[20] = np.roll(z[20], 1, axis=0)
    assert not checks.gossip(case.problem, _with(trace, z=z))[0]


def test_gossip_with_another_matrix_is_rejected(alg1):
    case, summary = alg1
    other = dataclasses.replace(case.problem, weights=workloads.ring_weights(4, 0.25))
    assert not checks.gossip(other, summary["traces"][0])[0]


def test_negative_gap_is_rejected(alg1):
    _, summary = alg1
    trace = summary["traces"][0]
    f_star = trace.f_star.copy()
    f_star[12] = trace.loss_global[12].mean() + 1e-9
    assert not checks.gaps_nonnegative(_with(trace, f_star=f_star))[0]


def test_final_dffr_off_by_a_little_is_rejected(alg1):
    _, summary = alg1
    trace = summary["traces"][0]
    rho = 0.9875
    reported = summary["per_seed"][0]["final_dffr"][repr(rho)]
    assert checks.final_dffr(trace, rho, reported)[0]
    assert not checks.final_dffr(trace, rho, reported * (1.0 + 1e-7))[0]


def test_bound_dominance(alg1):
    _, summary = alg1
    curve = summary["bounds"][repr(0.9875)]
    finals = [
        checks.explicit_dffr(tr.loss_global.mean(axis=1) - tr.f_star, 0.9875)
        for tr in summary["traces"]
    ]
    assert checks.bound_dominance(curve["mean_dffr"], curve["bound"], finals)[0]
    low_bound = np.array(curve["bound"])
    low_bound[17] = curve["mean_dffr"][17] * 0.5
    assert not checks.bound_dominance(curve["mean_dffr"], low_bound, finals)[0]
    assert not checks.bound_dominance(curve["mean_dffr"], curve["bound"], finals[:1])[0]


def test_decision_outside_shrunk_box_is_rejected(alg1):
    case, summary = alg1
    trace = summary["traces"][0]
    x = trace.x.copy()
    x[40, 3, 0] = 9.995  # inside the box, outside its shrunk copy (9.99)
    assert not checks.shrunk_box(case.problem, _with(trace, x=x), 0.01)[0]


def test_estimator_norm_above_dL_is_rejected(scale_gf):
    case, summary = scale_gf
    trace = summary["traces"][0]
    limit = case.problem.lower.size * checks.lipschitz_constant(case.problem, trace.T)
    g_norm = trace.g_norm.copy()
    g_norm[9, 5] = limit * 1.001
    assert not checks.estimator_norms(case.problem, _with(trace, g_norm=g_norm))[0]


def test_step_past_stability_limit_is_rejected(scale_gf):
    case, _ = scale_gf
    assert checks.step_below_stability(case.problem, 0.02, 0.5, HORIZON)[0]
    assert not checks.step_below_stability(case.problem, 0.03, 0.5, HORIZON)[0]


def test_remark1_spikes():
    summary = harness.run_experiment(harness.ExperimentConfig.from_dict(harness.PRESETS["remark1-synthetic"]()))
    trace = summary["traces"][0]
    gaps = trace.loss_global.mean(axis=1) - trace.f_star
    assert checks.remark1_spikes(gaps, 0.9)[0]
    missing = gaps.copy()
    missing[80] = 0.0  # round 81 is a spike
    assert not checks.remark1_spikes(missing, 0.9)[0]
    smeared = gaps.copy()
    smeared[9] = 1.0
    assert not checks.remark1_spikes(smeared, 0.9)[0]


def test_rescore_mismatch_is_rejected():
    in_memory = {"0.9": 1.25}
    assert checks.rescore_matches({"final_dffr": {"0.9": 1.25}, "stored_dffr_max_delta": {"0.9": 0.0}}, in_memory)[0]
    assert not checks.rescore_matches(
        {"final_dffr": {"0.9": 1.25}, "stored_dffr_max_delta": {"0.9": 2e-16}}, in_memory
    )[0]
    assert not checks.rescore_matches(
        {"final_dffr": {"0.9": 1.2500000000000002}, "stored_dffr_max_delta": {"0.9": 0.0}}, in_memory
    )[0]


def test_csv_bodies_must_match_byte_for_byte():
    assert checks.identical_bytes(b"t,agent\n1,0\n", b"t,agent\n1,0\n")[0]
    assert not checks.identical_bytes(b"t,agent\n1,0\n", b"t,agent\n1,1\n")[0]
