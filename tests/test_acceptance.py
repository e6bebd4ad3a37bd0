"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines and timings.

Every run starts all agents at one shared decision, so criteria 06 and 07
measure the algorithm, not that start: consensus is timed from when the
decision diameter stays below 1e-3, and the regret is judged by its horizon
limit at the late gap level rather than by a value at T=1000 that still
carries the round-1 gap.

Criterion 06 encodes reference tracking bands for the 4-agent benchmark that
the preset parameters do not meet, for two causes; its measured values are
printed so the gap is visible:

* the gradient-free step 2/sqrt(t) is past the stability limit of the
  steepest agent in every round: alpha_t * L_s = 144/sqrt(t) >= 4.55 for
  t <= 1000, and agent 4 sits on a face of the shrunk box (|x| = 9.99) from
  round 101 on, on every seed;
* the fixed projection-free step has a step-quantum floor: the update
  x_new - z_new = alpha0 * (v - x_old) keeps every agent at least 0.0195
  from its gossip point after round 1, so the final diameter stays near
  0.036 and the tracking error never drops below 0.0189.
"""

import math
import time

import numpy as np
import pytest

from dffr import harness, metrics
from dffr.algorithms import gradient_estimate, smoothed_value
from dffr.geometry import (
    BoxSet,
    ShrunkSet,
    minkowski_containment_check,
    projection_inequality_gap,
    sphere_batch,
)
from dffr.harness import ExperimentConfig
from dffr.metrics import (
    BoundInputs,
    consensus_diameter_series,
    consensus_time,
    constant_step_asymptote,
    cumulative_regret,
    dffr,
    dffr_series,
    final_round_gap,
    first_time_below,
    forgetting_sum_limit,
    gradient_free_regret_bound,
    power_spike_gaps,
    projection_free_regret_bound,
    tracking_error_series,
)
from dffr.network import MixingConstants, mixing_bound_check
from dffr.objectives import round_optimum, round_optimum_grid
from dffr.trace import Trace

CONSENSUS_EPS = 1e-3
TRACKING_EPS = 1e-3


def report(criterion: str, passed: bool, details: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({details})" if details else ""
    print(f"\n[acceptance] {criterion}: {status}{suffix}")


def median_time(times) -> float:
    vals = sorted(math.inf if t is None else t for t in times)
    mid = len(vals) // 2
    if len(vals) % 2:
        return vals[mid]
    return 0.5 * (vals[mid - 1] + vals[mid])


def test_criterion_01_mixing_bound(paper_wm, paper_mc):
    t0 = time.perf_counter()
    base = 1.0 - 0.22 / 64.0
    assert paper_mc.gamma == pytest.approx(base**-2, abs=1e-12)
    assert paper_mc.lam == pytest.approx(base, abs=1e-12)
    check = mixing_bound_check(paper_wm, paper_mc, horizon=200)
    ok = check.passed
    report(
        "01 doubly-stochastic mixing bound",
        ok,
        f"max excess {check.max_excess:.3e}, {time.perf_counter() - t0:.2f}s",
    )
    assert ok


def test_criterion_02_estimator_unbiasedness(paper_stream, rng):
    t0 = time.perf_counter()
    agent, t, x, delta = 1, 5, np.array([1.0]), 0.01  # scale-2 agent
    n_draws = 100_000
    bound = paper_stream.d * paper_stream.L
    # Every draw's estimate in one array expression.  sphere_batch gives the
    # bits of n_draws sequential sample_unit_sphere calls and leaves rng where
    # they would, and the loss is agent 1's closed form.
    u = sphere_batch(rng, n_draws, paper_stream.d)
    a, c = paper_stream.scales[agent], paper_stream.target(t)
    loss = lambda p: ((a * p - c) ** 2).sum(axis=-1)
    g = ((paper_stream.d / delta) * (loss(x + delta * u) - loss(x)))[:, None] * u
    for k in range(100):  # the bits of the library estimator
        assert np.array_equal(g[k], gradient_estimate(paper_stream, agent, t, x, delta, u[k]))
    draws = g[:, 0]
    worst = float(np.abs(draws).max())
    mean_g = draws.mean()
    se_g = draws.std(ddof=1) / np.sqrt(n_draws)

    h = 0.01
    plus = smoothed_value(paper_stream, agent, t, x + h, delta, rng, n_draws)
    minus = smoothed_value(paper_stream, agent, t, x - h, delta, rng, n_draws)
    fd = (plus.value - minus.value) / (2.0 * h)
    se_fd = np.hypot(plus.stderr, minus.stderr) / (2.0 * h)

    combined = np.hypot(se_g, se_fd)
    bias = abs(mean_g - fd)
    ok = bias <= 4.0 * combined and worst <= bound + 1e-9
    report(
        "02 gradient-estimator unbiasedness",
        ok,
        f"mean {mean_g:.4f} vs fd {fd:.4f}, |diff| {bias:.2e} <= 4se {4*combined:.2e}, "
        f"max|g| {worst:.1f} <= dL {bound:.0f}, {time.perf_counter() - t0:.1f}s",
    )
    assert bias <= 4.0 * combined
    assert worst <= bound + 1e-9


def test_criterion_03_projection_inequality_suite(rng):
    t0 = time.perf_counter()
    worst = np.inf
    count = 0
    for d in (1, 2, 5):
        for _ in range(3334):
            box = BoxSet(-rng.uniform(0.5, 5.0, d), rng.uniform(0.5, 5.0, d))
            m = rng.standard_normal(d) * 3.0
            nvec = rng.standard_normal(d) * 3.0
            z = box.sample(rng)
            gap = projection_inequality_gap(box, m, nvec, z)
            worst = min(worst, gap)
            count += 1
    ok = worst >= -1e-9
    report(
        "03 projection inequality suite",
        ok,
        f"{count} instances, worst gap {worst:.3e}, {time.perf_counter() - t0:.1f}s",
    )
    assert ok


def test_criterion_04_shrunk_set_containment(rng):
    t0 = time.perf_counter()
    shrunk = ShrunkSet(BoxSet.symmetric(10.0), delta=0.01)
    check = minkowski_containment_check(shrunk, 10_000, rng)
    ok = check.passed
    report(
        "04 shrunk-set containment",
        ok,
        f"worst violation {check.worst_violation:.3e}, {time.perf_counter() - t0:.2f}s",
    )
    assert ok


def test_criterion_05_optimum_oracle_equivalence(paper_stream):
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(1, 101):
        closed = round_optimum(paper_stream, t)
        grid = round_optimum_grid(paper_stream, t, pitch=0.001)
        worst = max(worst, abs(closed.f_star - grid.f_star))
    t1 = round_optimum(paper_stream, 1)
    t2 = round_optimum(paper_stream, 2)
    ok = worst <= 1e-5 and t1.x_star[0] == 10.0 and abs(t2.x_star[0] - 3.6) < 1e-12
    report(
        "05 optimum oracle equivalence",
        ok,
        f"worst |df*| {worst:.2e}, x*(1)={t1.x_star[0]}, x*(2)={t2.x_star[0]}, "
        f"{time.perf_counter() - t0:.1f}s",
    )
    assert worst <= 1e-5
    assert t1.x_star[0] == pytest.approx(10.0, abs=1e-12)
    assert t2.x_star[0] == pytest.approx(3.6, abs=1e-12)


def test_criterion_06_tracking_benchmark_bands(alg2_fixed_trace, alg1_traces):
    t0 = time.perf_counter()
    failures = []

    # Every run starts all agents at one shared decision, so the diameter is 0
    # in round 1; consensus is timed from when the diameter stays below 1e-3.
    a2_c = consensus_time(alg2_fixed_trace, CONSENSUS_EPS)
    track2 = tracking_error_series(alg2_fixed_trace)
    if a2_c is None or not 5 <= a2_c <= 50:
        failures.append(
            f"fixed-step persistent consensus time {a2_c} outside [5, 50] "
            f"(final diameter {consensus_diameter_series(alg2_fixed_trace)[-1]:.4f})"
        )
    if not np.any(track2[29:200] < TRACKING_EPS):
        failures.append(
            f"fixed-step tracking never < 1e-3 within [30, 200] "
            f"(min {track2[29:200].min():.4f})"
        )

    cons_times = [consensus_time(tr, CONSENSUS_EPS) for tr in alg1_traces]
    track_times = [
        first_time_below(tracking_error_series(tr), TRACKING_EPS)
        for tr in alg1_traces
    ]
    med_c = median_time(cons_times)
    med_t = median_time(track_times)
    if not 5 <= med_c <= 80:
        failures.append(
            f"gradient-free median persistent consensus time {med_c} outside [5, 80]"
        )
    if not 150 <= med_t <= 800:
        failures.append(f"gradient-free median tracking time {med_t} outside [150, 800]")

    a2_c = a2_c or math.inf
    a2_t = first_time_below(track2, TRACKING_EPS) or math.inf
    if not (a2_c < med_c and a2_t < med_t):
        failures.append(
            f"projection-free not earlier on both thresholds "
            f"({a2_c} vs {med_c}; {a2_t} vs {med_t})"
        )

    ok = not failures
    report(
        "06 tracking benchmark bands",
        ok,
        "; ".join(failures) + f", {time.perf_counter() - t0:.1f}s"
        if failures
        else f"{time.perf_counter() - t0:.1f}s",
    )
    assert ok, failures


def test_criterion_07_regret_convergence_behavior(
    paper_stream, paper_mc, alg2_exact_trace, alg2_fixed_trace,
    alg1_constant_step_traces,
):
    t0 = time.perf_counter()
    failures = []
    rho = 0.9875

    # projection-free: the horizon limit of the regret at the late gap level.
    # The regret at T=1000 itself is dominated by the start of the run: the
    # round-1 gap m_1 = 2350 comes from the shared initial decision, before
    # any update, and still weighs rho^999 * m_1 = 8.2e-3.
    d_exact = dffr(alg2_exact_trace, rho)
    startup = rho ** (alg2_exact_trace.T - 1) * alg2_exact_trace.gaps[0]
    memory = round(1.0 / (1.0 - rho))  # 80 rounds, the metric's effective window
    limit_exact = forgetting_sum_limit(alg2_exact_trace.gaps[-memory:].max(), rho)
    limit_fixed = forgetting_sum_limit(alg2_fixed_trace.gaps[-memory:].max(), rho)
    if not limit_exact < 1e-3:
        failures.append(
            f"projection-free regret limit is {limit_exact:.3e} (fixed-step run: "
            f"{limit_fixed:.4f}), not < 1e-3"
        )

    # gradient-free: late-window flatness of the seed-mean regret curve
    mean_series = np.mean(
        [dffr_series(tr, rho) for tr in alg1_constant_step_traces], axis=0
    )
    window = mean_series[800:1000]
    variation = (window.max() - window.min()) / window.mean()
    if not variation < 0.10:
        failures.append(f"late-window variation {variation:.1%} not < 10%")

    # gradient-free: stays below the constant-step asymptote
    shrunk = ShrunkSet(paper_stream.box, 0.01)
    inputs = BoundInputs.from_traces(
        alg1_constant_step_traces, paper_stream,
        MixingConstants(gamma=paper_mc.gamma, lam=0.98625),
        delta=0.01, path_set=shrunk,
    )
    alpha_T = 2.0 / np.sqrt(1000.0)
    asymptote = constant_step_asymptote(inputs, rho, alpha_T)
    if not np.all(window < asymptote):
        failures.append(f"window max {window.max():.3e} above asymptote {asymptote:.3e}")

    ok = not failures
    measured = (
        f"exact-mode regret {d_exact:.2e} of which start-up {startup:.2e}, "
        f"exact-mode limit {limit_exact:.2e}, fixed-step limit {limit_fixed:.3f}, "
        f"variation {variation:.3%}, {time.perf_counter() - t0:.1f}s"
    )
    report(
        "07 regret convergence behavior",
        ok,
        "; ".join(failures + [measured]),
    )
    assert ok, failures


def test_criterion_08_bound_dominance(
    paper_stream, paper_mc, alg2_fixed_trace, alg1_traces
):
    t0 = time.perf_counter()

    inputs2 = BoundInputs.from_traces(
        [alg2_fixed_trace], paper_stream, MixingConstants(gamma=paper_mc.gamma, lam=0.98625)
    )
    bound2 = projection_free_regret_bound(inputs2, 0.9875, 0.002)
    measured2 = dffr_series(alg2_fixed_trace, 0.9875)
    ok2 = bool(np.all(bound2 >= measured2))

    shrunk = ShrunkSet(paper_stream.box, 0.01)
    inputs1 = BoundInputs.from_traces(
        alg1_traces, paper_stream, MixingConstants(gamma=paper_mc.gamma, lam=0.98625),
        delta=0.01, path_set=shrunk,
    )
    schedule = lambda t: 2.0 / np.sqrt(t)
    bound1 = gradient_free_regret_bound(inputs1, 0.9875, schedule)
    per_seed = np.stack([dffr_series(tr, 0.9875) for tr in alg1_traces])
    mean1 = per_seed.mean(axis=0)
    se1 = per_seed.std(axis=0, ddof=1) / np.sqrt(len(alg1_traces))
    ok1 = bool(np.all(mean1 - 3.0 * se1 <= bound1))

    ok = ok2 and ok1
    report(
        "08 bound dominance",
        ok,
        f"projection-free min margin {float((bound2 - measured2).min()):.3e}; "
        f"gradient-free min margin {float((bound1 - mean1).min()):.3e}, "
        f"{time.perf_counter() - t0:.1f}s",
    )
    assert ok2
    assert ok1


def test_criterion_09_spike_sequence_discrimination():
    t0 = time.perf_counter()
    T, rho = 729, 0.9
    gaps = power_spike_gaps(T)
    trace = Trace.from_gap_sequence(gaps)

    avg_regret = float(cumulative_regret(trace)[-1]) / T
    value = dffr(trace, rho)
    oracle = sum(rho ** (T - 3**m) for m in range(1, 7))  # direct summation
    gap_T = final_round_gap(trace)

    ok = (
        avg_regret <= 6.0 / 729.0 + 1e-15
        and value == pytest.approx(oracle, rel=1e-9)
        and value >= 1.0 - 1e-12
        and gap_T == 1.0
        and gap_T <= value + 1e-9
    )
    report(
        "09 spike-sequence discrimination",
        ok,
        f"avg regret {avg_regret:.6f}, weighted regret {value:.12f}, "
        f"{time.perf_counter() - t0:.2f}s",
    )
    assert ok


def test_criterion_10_rho_monotonicity():
    t0 = time.perf_counter()
    cfg = harness.preset("paper-tracking-dogd")
    assert cfg.rho == [0.96, 0.97, 0.98]
    crossings = harness.run_experiment(cfg)["aggregate"]["median_regret_first_below"]
    times = [crossings[repr(rho)] for rho in cfg.rho]
    finite = all(t is not None for t in times)
    monotone = all(
        (a or math.inf) <= (b or math.inf) for a, b in zip(times, times[1:])
    )
    ok = finite and monotone
    report(
        "10 forgetting-factor monotonicity",
        ok,
        f"crossing times {times}, {time.perf_counter() - t0:.1f}s",
    )
    assert finite, times
    assert monotone, times


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    raw = harness.preset("paper-tracking-alg2").to_dict()
    raw["bounds"] = False
    cfg = ExperimentConfig.from_dict(raw)

    summary_a = harness.run_experiment(cfg, out_dir=tmp_path / "a")
    harness.run_experiment(cfg, out_dir=tmp_path / "b")
    body_a = (tmp_path / "a" / "paper-tracking-alg2-seed0.csv").read_bytes()
    body_b = (tmp_path / "b" / "paper-tracking-alg2-seed0.csv").read_bytes()
    identical = body_a == body_b

    recomputed = harness.recompute_metrics(
        tmp_path / "a" / "paper-tracking-alg2-seed0", [0.9875]
    )
    stored_delta = recomputed["stored_dffr_max_delta"]["0.9875"]
    in_run = summary_a["per_seed"][0]["final_dffr"]["0.9875"]
    agree = abs(recomputed["final_dffr"]["0.9875"] - in_run) <= 1e-9

    ok = identical and stored_delta <= 1e-9 and agree
    report(
        "11 determinism and recomputation",
        ok,
        f"bodies identical: {identical}, stored delta {stored_delta:.2e}, "
        f"{time.perf_counter() - t0:.1f}s",
    )
    assert identical
    assert stored_delta <= 1e-9
    assert agree
