"""Correctness checks on the program's outputs, computed apart from the program.

Every check takes plain arrays (a trace's fields, summary numbers, file
bytes) and the benchmark's own ``Problem`` statement, and returns
``(ok, detail)``.  Nothing here calls into ``dffr``: losses, optima, gossip
and discounted sums are recomputed from closed forms, and the remaining
checks test properties the method must have (gaps >= 0, iterates in the
shrunk box, estimator norms <= d*L, bound dominance, the remark-1 spikes).

Tolerances are relative to the size of the compared quantity and only cover
summation order (numpy reductions against Python loops), never a
difference in method.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-12    # recomputed losses, optima, gossip: same formula, other summation order
SUM_REL_TOL = 1e-9  # discounted sums over up to 1000 rounds
BOX_TOL = 1e-9      # the program's own membership tolerance


def _worst_relative(a, b, scale) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.maximum(scale, 1e-300)))


def _losses(problem, x, t):
    """f_j^t at points x (T, m, d) for every agent j: shape (T, n, m).

    One agent at a time, so the temporaries stay at the size of x.
    """
    c = problem.target(t)[:, None, None]                # (T, 1, 1)
    out = np.empty((x.shape[0], problem.scales.size, x.shape[1]))
    for j, a in enumerate(problem.scales):
        residual = a * x - c
        out[:, j, :] = np.sum(residual * residual, axis=-1)
    return out


def own_and_global_losses(problem, trace) -> tuple[bool, str]:
    """loss_self = ||a_i x_i - c(t)||^2 and loss_global = mean_j ||a_j x_i - c(t)||^2."""
    t = np.arange(1, trace.T + 1)
    table = _losses(problem, trace.x, t)                # (T, n_losses, n_agents)
    own = np.einsum("tii->ti", table)
    avg = table.mean(axis=1)
    scale = 1.0 + np.abs(avg)
    worst_own = _worst_relative(trace.loss_self, own, 1.0 + np.abs(own))
    worst_avg = _worst_relative(trace.loss_global, avg, scale)
    ok = worst_own <= REL_TOL and worst_avg <= REL_TOL
    return ok, f"worst relative error own {worst_own:.2e}, average {worst_avg:.2e}"


def round_optimum(problem, trace) -> tuple[bool, str]:
    """x*(t) = clamp((sum a / sum a^2) c(t)) and f*(t) the average loss there."""
    t = np.arange(1, trace.T + 1)
    a = problem.scales
    c = problem.target(t)
    x_star = np.clip(
        (a.sum() / np.sum(a * a)) * c[:, None] * np.ones(problem.lower.size),
        problem.lower,
        problem.upper,
    )
    f_star = _losses(problem, x_star[:, None, :], t)[:, :, 0].mean(axis=1)
    worst_x = _worst_relative(trace.x_star, x_star, 1.0 + np.abs(x_star))
    worst_f = _worst_relative(trace.f_star, f_star, 1.0 + np.abs(f_star))
    ok = worst_x <= REL_TOL and worst_f <= REL_TOL
    return ok, f"worst relative error x* {worst_x:.2e}, f* {worst_f:.2e}"


def gaps_nonnegative(trace) -> tuple[bool, str]:
    """m_t = mean_i f_t(x_i^t) - f_t(x*_t) >= 0: x*_t minimizes f_t over the box."""
    gaps = trace.loss_global.mean(axis=1) - trace.f_star
    low = float(np.min(gaps))
    return low >= 0.0, f"smallest gap {low:.3e}"


def gossip(problem, trace) -> tuple[bool, str]:
    """z[t+1] = W x[t] for t = 1..T-1, with W built by the benchmark."""
    if trace.T < 2:
        return True, "single round"
    expected = np.einsum("ij,tjd->tid", problem.weights, trace.x[:-1])
    worst = _worst_relative(trace.z[1:], expected, 1.0 + np.abs(expected))
    return worst <= REL_TOL, f"worst relative error {worst:.2e}"


def explicit_dffr(gaps, rho: float) -> float:
    """sum_t rho^(T-t) m_t by explicit powers (the program uses a recurrence)."""
    gaps = np.asarray(gaps, dtype=float)
    powers = rho ** np.arange(gaps.size - 1, -1, -1, dtype=float)
    return float(np.sum(powers * gaps))


def final_dffr(trace, rho: float, reported: float) -> tuple[bool, str]:
    """The summary's final DFFR against explicit powers over the recorded gaps."""
    gaps = trace.loss_global.mean(axis=1) - trace.f_star
    expected = explicit_dffr(gaps, rho)
    scale = explicit_dffr(np.abs(gaps), rho) + 1e-300
    err = abs(reported - expected) / scale
    return err <= SUM_REL_TOL, f"rho {rho}: reported {reported!r}, explicit {expected!r}"


def bound_dominance(mean_dffr, bound, finals) -> tuple[bool, str]:
    """Mean DFFR at or below its bound curve at every horizon; its last value is the seed mean."""
    mean_dffr = np.asarray(mean_dffr, dtype=float)
    bound = np.asarray(bound, dtype=float)
    expected_last = float(np.mean(finals))
    last_ok = abs(mean_dffr[-1] - expected_last) <= SUM_REL_TOL * (abs(expected_last) + 1e-300)
    margin = float(np.min(bound - mean_dffr))
    ok = bool(mean_dffr.shape == bound.shape and margin >= 0.0 and last_ok)
    return ok, f"smallest margin {margin:.3e}, last mean {float(mean_dffr[-1])!r} vs {expected_last!r}"


def shrunk_box(problem, trace, delta: float) -> tuple[bool, str]:
    """Gradient-free decisions stay in the box scaled by 1 - delta/r."""
    r = float(np.min(np.minimum(-problem.lower, problem.upper)))
    factor = 1.0 - delta / r
    lo, hi = factor * problem.lower, factor * problem.upper
    excess = float(np.max(np.maximum(lo - trace.x, trace.x - hi)))
    return excess <= BOX_TOL, f"largest excess over the shrunk box {excess:.3e}"


def lipschitz_constant(problem, horizon: int) -> float:
    """L = max_i max_t max over the box of ||grad f_i^t||, reached at a corner."""
    c = problem.target(np.arange(1, horizon + 1))[:, None, None]     # (T, 1, 1)
    a = problem.scales[None, :, None]                                # (1, n, 1)
    dev = np.maximum(np.abs(a * problem.lower - c), np.abs(a * problem.upper - c))
    worst = np.sqrt(np.sum(dev * dev, axis=2)).max(axis=0)           # (n,)
    return float(np.max(2.0 * problem.scales * worst))


def estimator_norms(problem, trace) -> tuple[bool, str]:
    """||g|| <= d * L for the two-point sphere estimator."""
    d = problem.lower.size
    limit = d * lipschitz_constant(problem, trace.T)
    top = float(np.max(trace.g_norm))
    ok = top <= limit * (1.0 + REL_TOL) and top > 0.0
    return ok, f"largest norm {top:.4g} against d*L = {limit:.4g}"


def step_below_stability(problem, step_c: float, step_p: float, horizon: int) -> tuple[bool, str]:
    """alpha_t = c/t^p < 2/L_s with L_s = 2 max a_i^2, in every round."""
    limit = 2.0 / (2.0 * float(np.max(problem.scales)) ** 2)
    alphas = step_c / np.arange(1, horizon + 1, dtype=float) ** step_p
    top = float(np.max(alphas))
    return top < limit, f"largest step {top:.4g} against 2/L_s = {limit:.4g}"


def spike_rounds(horizon: int, base: int = 3) -> list[int]:
    rounds, s = [], base
    while s <= horizon:
        rounds.append(s)
        s *= base
    return rounds


def remark1_spikes(gaps, rho: float) -> tuple[bool, str]:
    """Gaps are 1 exactly at 3, 9, 27, ...; DFFR >= 1 at each spike while the
    average regret (cumulative regret over t) falls along them."""
    gaps = np.asarray(gaps, dtype=float)
    spikes = spike_rounds(gaps.size)
    expected = np.zeros(gaps.size)
    expected[np.array(spikes) - 1] = 1.0
    pattern_ok = bool(np.array_equal(gaps, expected)) and len(spikes) >= 2
    at_spike = [explicit_dffr(gaps[:s], rho) for s in spikes]
    average = [float(np.sum(gaps[:s])) / s for s in spikes]
    falling = all(b < a for a, b in zip(average, average[1:]))
    ok = pattern_ok and min(at_spike) >= 1.0 and falling
    return ok, (
        f"{len(spikes)} spikes, smallest DFFR at a spike {min(at_spike):.4f}, "
        f"average regret {average[0]:.4f} -> {average[-1]:.4f}"
    )


def rescore_matches(rescored: dict, in_memory: dict) -> tuple[bool, str]:
    """recompute_metrics gives the in-memory final DFFR exactly, stored delta 0."""
    ok = bool(in_memory) and rescored.get("final_dffr") == in_memory
    deltas = rescored.get("stored_dffr_max_delta", {})
    ok = ok and set(deltas) == set(in_memory) and all(v == 0.0 for v in deltas.values())
    return ok, f"final {rescored.get('final_dffr')} vs {in_memory}, deltas {deltas}"


def identical_bytes(first: bytes, second: bytes) -> tuple[bool, str]:
    """Two CSV bodies of the same (config, seed) are byte-identical."""
    return first == second and len(first) > 0, f"{len(first)} and {len(second)} bytes"
