"""Forgetting-factor regret, consensus diagnostics, and regret-bound evaluators.

The central metric discounts each round's average optimality gap by
rho^(T-t), so late rounds dominate:

    R_T = sum_t rho^(T-t) * mean_i [f_t(x_i^t) - f_t(x_*^t)].

All horizon-indexed sums are evaluated with the stable recurrence
S_t = rho*S_{t-1} + a_t instead of explicit powers, which avoids underflow
for long horizons and yields the whole running sequence in one pass.

The bound evaluators assemble, term by term, the theoretical upper bounds for
the gradient-free algorithm (any step schedule; a constant step is the
schedule with p = 0) and the projection-free algorithm, given measured input
sequences and the problem constants.  The inputs do not depend on the
forgetting factor, so one ``BoundInputs`` serves every rho of a run; each
evaluator takes rho and refuses one outside (0, 1) or not above the network
mixing rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RhoNotGreaterThanLambda, RhoOutOfRange
from .network import MixingConstants
from .objectives import RESIDUAL_CHUNK, ObjectiveStream
from .trace import Trace


def _check_rho(rho: float, lam: float | None = None) -> float:
    """rho as a float; refused outside (0, 1), and at or below ``lam`` where a bound needs rho > lam."""
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise RhoOutOfRange(f"forgetting factor must lie in (0, 1), got {rho}")
    if lam is not None and rho <= lam:
        raise RhoNotGreaterThanLambda(f"need rho > lambda, got rho={rho}, lambda={lam}")
    return rho


def forgetting_weighted_series(values, rho: float) -> np.ndarray:
    """Running discounted sums S_t = sum_{s<=t} rho^(t-s) * values_s, shape (T,).

    The recurrence runs on Python floats, which round as float64 does.
    """
    rho = float(rho)
    out = []
    acc = 0.0
    for value in np.asarray(values, dtype=float).tolist():
        acc = rho * acc + value
        out.append(acc)
    return np.array(out)


def forgetting_sum_limit(level: float, rho: float) -> float:
    """Horizon limit of sum_t rho^(T-t) a_t when a_t converges to ``level``."""
    return level / (1.0 - _check_rho(rho))


def dffr_series(trace: Trace, rho: float) -> np.ndarray:
    """Running forgetting-factor regret at every horizon 1..T."""
    rho = _check_rho(rho)
    return forgetting_weighted_series(trace.gaps, rho)


def dffr(trace: Trace, rho: float) -> float:
    """Forgetting-factor regret of the full trace."""
    return float(dffr_series(trace, rho)[-1])


def final_round_gap(trace: Trace) -> float:
    """Average optimality gap of the last round; never exceeds the regret."""
    return float(trace.gaps[-1])


def cumulative_regret(trace: Trace) -> np.ndarray:
    """Unweighted running regret sum_t m_t (the classical comparator)."""
    return np.cumsum(trace.gaps)


def consensus_diameter_series(trace: Trace) -> np.ndarray:
    """Per-round max over coordinates of (max_i - min_i) of the decisions,
    formed in round chunks of at most ``RESIDUAL_CHUNK`` elements of x."""
    out = np.empty(trace.T)
    rounds = max(1, RESIDUAL_CHUNK // max(1, trace.n * trace.d))
    for first in range(0, trace.T, rounds):
        x = trace.x[first:first + rounds]
        out[first:first + rounds] = (x.max(axis=1) - x.min(axis=1)).max(axis=1, initial=0.0)
    return out


def tracking_error_series(trace: Trace) -> np.ndarray:
    """Per-round worst agent distance to the round optimum."""
    return trace.optimum_distances().max(axis=1)


def first_time_below(series, threshold: float) -> int | None:
    """First 1-based round where the series dips below the threshold."""
    idx = np.flatnonzero(np.asarray(series) < threshold)
    return int(idx[0]) + 1 if idx.size else None


def persistent_time_below(series, threshold: float) -> int | None:
    """First 1-based round from which the series stays below the threshold."""
    series = np.asarray(series)
    above = np.flatnonzero(series >= threshold)
    if above.size == 0:
        return 1
    last = int(above[-1])
    if last == series.size - 1:
        return None
    return last + 2


def consensus_time(trace: Trace, threshold: float) -> int | None:
    """First round after which the decision diameter stays below the threshold."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    return persistent_time_below(consensus_diameter_series(trace), threshold)


def tracking_time(trace: Trace, threshold: float) -> int | None:
    """First round after which every agent stays within the threshold of the optimum."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    return persistent_time_below(tracking_error_series(trace), threshold)


def power_spike_gaps(T: int, base: int = 3) -> np.ndarray:
    """Gap sequence that is 1 exactly at rounds base, base^2, ... and 0 elsewhere.

    Its average regret vanishes like log(T)/T while the forgetting-weighted
    regret stays pinned near 1 along the spike subsequence, which is the
    discrimination the weighted metric exists for.
    """
    gaps = np.zeros(T)
    spike = base
    while spike <= T:
        gaps[spike - 1] = 1.0
        spike *= base
    return gaps


def optimum_path_lengths(stream: ObjectiveStream, set_, T: int) -> np.ndarray:
    """theta_t = ||x*_{t} - x*_{t+1}|| over the given set, for t = 1..T."""
    optima, _ = stream.optimum_path(T + 1, set_)
    return np.linalg.norm(np.diff(optima, axis=0), axis=1)


def _mixing_term(coeff: float, lam: float, rho: float) -> float:
    """coeff * rho^-2 / (1 - lam/rho), in that order: the mixing factor of sigma and of the
    projection-free eps term, which hold only for rho in (0, 1) above lam."""
    rho = _check_rho(rho, lam)
    return coeff * rho**-2 / (1.0 - lam / rho)


@dataclass(frozen=True)
class BoundInputs:
    """Measured sequences and constants consumed by the bound evaluators.

    ``F`` holds |change of consensus-error norm| per round/agent, ``theta``
    the optimum path increments over the evaluation set, ``nu`` the average
    distance to the optimum, ``eps`` the consensus-error norms produced by
    each round's update.  None of them depends on the forgetting factor, so
    one measurement serves every rho; the evaluators take rho.
    """

    F: np.ndarray
    theta: np.ndarray
    nu: np.ndarray
    eps: np.ndarray
    init_norms: np.ndarray
    d: int
    L: float
    L_s: float
    L_1: float
    M: float
    r: float
    gamma: float
    lam: float
    delta: float

    @property
    def T(self) -> int:
        return self.F.shape[0]

    @property
    def n(self) -> int:
        return self.F.shape[1]

    def sigma(self, rho: float) -> float:
        """sigma = (4 + 5 d) L + 2 L (1 + d) rho^-2 / (1 - lam/rho); needs rho > lam."""
        return (4.0 + 5.0 * self.d) * self.L + _mixing_term(2.0 * self.L * (1.0 + self.d), self.lam, rho)

    @classmethod
    def from_traces(
        cls,
        traces: list[Trace],
        stream: ObjectiveStream,
        mixing: MixingConstants,
        delta: float = 0.0,
        path_set=None,
    ) -> "BoundInputs":
        """Average the measured sequences over traces (expectation estimate).

        ``path_set`` is the set the optimum path is measured over (the shrunk
        box for the gradient-free bound); it defaults to the stream's box.
        """
        if not traces:
            raise ValueError("need at least one trace")
        F = np.mean([tr.eps_increments() for tr in traces], axis=0)
        eps = np.mean([tr.eps_seq() for tr in traces], axis=0)
        nu = np.mean([tr.nu for tr in traces], axis=0)
        init_norms = np.mean([tr.initial_norms() for tr in traces], axis=0)
        T = traces[0].T
        theta = optimum_path_lengths(stream, path_set or stream.box, T)
        return cls(
            F=F,
            theta=theta,
            nu=nu,
            eps=eps,
            init_norms=init_norms,
            d=stream.d,
            L=stream.L,
            L_s=stream.L_s,
            L_1=stream.L_1,
            M=stream.box.R,
            r=stream.box.r,
            gamma=mixing.gamma,
            lam=mixing.lam,
            delta=delta,
        )


def _lam_powers(inputs: BoundInputs) -> np.ndarray:
    """lam^(t-2) for t = 1..T (t=1 gives lam^-1, exactly as the bounds read)."""
    t = np.arange(1, inputs.T + 1, dtype=float)
    return inputs.lam ** (t - 2.0)


def _gradient_free_coefficients(inputs: BoundInputs, rho: float) -> tuple[float, float, float]:
    """The step, smoothing and terminal coefficients n sigma^2 / 2, delta L_1 / r and 2 M^2."""
    return inputs.n * inputs.sigma(rho) ** 2 / 2.0, (inputs.delta / inputs.r) * inputs.L_1, 2.0 * inputs.M**2


def gradient_free_regret_bound(inputs: BoundInputs, rho: float, schedule) -> np.ndarray:
    """Upper bound on the expected regret of the gradient-free algorithm, per horizon.

    Six terms: initial-condition mixing, the F increments, the sigma^2 step
    term, the smoothing-bias term delta/r * L_1, the optimum-path term with
    theta_t / alpha_t, and the terminal 2 M^2 / alpha_T.
    """
    step, smoothing, terminal = _gradient_free_coefficients(inputs, rho)
    T = inputs.T
    alphas = np.array([schedule(t) for t in range(1, T + 1)], dtype=float)
    rec = lambda a: forgetting_weighted_series(a, rho)
    x1 = float(np.sum(inputs.init_norms))
    term1 = 2.0 * inputs.L * (1.0 + inputs.d) * inputs.gamma * x1 * rec(_lam_powers(inputs))
    term2 = (4.0 * inputs.L * (1.0 + inputs.d) / inputs.n) * rec(inputs.F.sum(axis=1))
    term3 = step * rec(alphas)
    term4 = smoothing * rec(np.ones(T))
    term5 = 2.0 * inputs.M * rec(inputs.theta / alphas)
    term6 = terminal / alphas
    return term1 + term2 + term3 + term4 + term5 + term6


def constant_step_asymptote(inputs: BoundInputs, rho: float, alpha: float) -> float:
    """Horizon limit of the constant-step bound when the F and theta terms vanish."""
    step, smoothing, terminal = _gradient_free_coefficients(inputs, rho)
    return forgetting_sum_limit(step * alpha + smoothing, rho) + terminal / alpha


def optimal_constant_step(inputs: BoundInputs, rho: float) -> float:
    """Minimizer of the two-term step tradeoff in the constant-step asymptote."""
    step, _, terminal = _gradient_free_coefficients(inputs, rho)
    return (terminal / forgetting_sum_limit(step, rho)) ** 0.5


def _projection_free_level(inputs: BoundInputs, alpha0: float) -> float:
    """The per-round step level 2 L alpha0 M + 2 L_s alpha0^2 M^2."""
    if not 0.0 < alpha0 < 1.0:
        raise ValueError("alpha0 must lie in (0, 1)")
    return 2.0 * inputs.L * alpha0 * inputs.M + 2.0 * inputs.L_s * alpha0**2 * inputs.M**2


def projection_free_regret_bound(inputs: BoundInputs, rho: float, alpha0: float) -> np.ndarray:
    """Upper bound on the regret of the projection-free algorithm, per horizon.

    The F term enters as a per-agent average (the tighter rendering of the
    two equivalent groupings).
    """
    level = _projection_free_level(inputs, alpha0)
    L, n = inputs.L, inputs.n
    coeff5 = 9.0 * L / n + _mixing_term(4.0 * L / n, inputs.lam, rho)
    rec = lambda a: forgetting_weighted_series(a, rho)
    x1 = float(np.sum(inputs.init_norms))
    term1 = L * rec(inputs.nu)
    term2 = level * rec(np.ones(inputs.T))
    term3 = (8.0 * L / n) * rec(inputs.F.sum(axis=1))
    term4 = 4.0 * L * inputs.gamma * x1 * rec(_lam_powers(inputs))
    term5 = coeff5 * rec(inputs.eps.sum(axis=1))
    return term1 + term2 + term3 + term4 + term5


def projection_free_asymptote(inputs: BoundInputs, rho: float, alpha0: float) -> float:
    """Horizon limit of the projection-free bound when nu, F, eps all vanish."""
    return forgetting_sum_limit(_projection_free_level(inputs, alpha0), _check_rho(rho, inputs.lam))


@dataclass(frozen=True)
class DecompositionReport:
    max_excess: float
    worst_round: int
    worst_agent: int
    passed: bool


def consensus_error_decomposition_check(
    trace: Trace, mc: MixingConstants, tol: float = 1e-9
) -> DecompositionReport:
    """Check the per-agent deviation-from-mean decomposition on a trace.

    For every agent and round, the distance to the network mean must be
    covered by the mixing decay of the initial conditions plus three
    consensus-error sums.  Reports the worst slack (negative when the
    inequality holds everywhere with margin).
    """
    gamma, lam = mc.gamma, mc.lam
    x1_sum = float(np.sum(trace.initial_norms()))
    eps_prev = trace.eps_norm          # row t: ||eps_{i,t-1}||
    eps_by_round = trace.eps_seq()     # row t: ||eps_{i,t}||
    S = eps_by_round.sum(axis=1)       # S_s = sum_j ||eps_{j,s}||
    max_excess = -np.inf
    worst = (0, 0)
    G = 0.0  # running sum_{s<=t-2} lam^(t-s-2) * S_s
    for t in range(1, trace.T + 1):
        row = t - 1
        if t >= 3:
            G = lam * G + S[t - 3]
        xbar = trace.x[row].mean(axis=0)
        lhs = np.linalg.norm(trace.x[row] - xbar, axis=1)
        base = (
            gamma * lam ** (t - 2.0) * x1_sum
            + eps_prev[row].mean()
            + gamma * G
        )
        rhs = base + eps_prev[row]
        excess = lhs - rhs
        i = int(np.argmax(excess))
        if excess[i] > max_excess:
            max_excess = float(excess[i])
            worst = (t, i)
    return DecompositionReport(
        max_excess=max_excess,
        worst_round=worst[0],
        worst_agent=worst[1],
        passed=max_excess <= tol,
    )
