"""Time-varying per-agent convex loss streams.

A stream is a pure function of (agent, round, point): ``value`` and
``gradient`` evaluators plus the constants that the regret bounds consume:

    L    bound on the gradient norm over the feasible box
    L_s  smoothness (curvature) constant
    L_1  bound on the absolute loss value over the box

Agents are indexed 0..n-1; rounds are 1-based because the round index enters
the loss formulas directly.  Evaluators stay defined for every round >= 1
(``horizon`` is the nominal experiment length, not a hard domain bound), which
lets optimum-path diagnostics look one round past the end of a run.

The round engine reads a stream through its batched evaluators (``values``,
``gradients``, ``average_values``, ``line_search_coefficients``), which take
every agent's point of a round at once, for any number of leading axes (one
per seed of a batched run).  Each stream quantity has one closed form that
every other evaluator reads.  The losses' are ``values_over_rounds`` and
``average_values_over_rounds``, which add a rounds axis; ``values`` and
``average_values`` are their one-round slices.  The quadratic family's closed
forms give the bits of its scalar evaluators, which stay as the reference they
are tested against: its average loss adds the agents' contiguous (..., R, m)
blocks one by one, in the order of ``average_value``.  The optimum path's f*_t
is ``average_values_over_rounds`` at x*_t (``_optimum_points``).  A stream
keeps nothing per round: the quadratic family's c(t) is one scalar, computed
where it is read, and the optimum path is computed on each request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, OracleDisagreement, OutOfFeasibleSet
from .geometry import BoxSet

ORACLE_TOL = 1e-5

# Elements of a (..., rounds, rows, d) stack that a round-chunked computation
# reads at once, 128 KiB of float64 per temporary: the optimum path's f* here,
# and in ``algorithms.run`` the sphere-draw and estimate blocks and the
# after-loop columns.  2^14 and 2^15 ran n = 32, d = 10 equally fast; the
# smaller keeps the paper presets' peak lower.
RESIDUAL_CHUNK = 1 << 14


def _row_dots(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """<a[..., k, :], b[..., k, :]> for every row, shape a.shape[:-1].

    A stack of (1, d) @ (d, 1) products runs the same dot kernel as
    ``np.dot`` on one vector, so each entry has the bits of the scalar
    evaluators; ``np.linalg.norm(axis=-1)``, ``einsum`` and ``(a*a).sum(-1)``
    sum in other orders.
    """
    b = a if b is None else b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class ObjectiveStream:
    """Base class of the loss streams.

    A subclass supplies the scalar ``_value`` and ``_gradient`` and five
    batched forms:

    - ``values_over_rounds(first, X)``: agent i's loss at X[..., k, i, :] in
      round first + k, for an (..., R, n, d) array, shape (..., R, n);
    - ``average_values_over_rounds(first, X)``: the all-agent average loss in
      round first + k at each row of an (..., R, m, d) array, shape (..., R, m);
    - ``gradients(t, X)``: agent i's gradient at X[..., i, :], shape (..., n, d);
    - ``line_search_coefficients(t, base, direction)``: the minimizer of
      alpha -> f_i^t(base[i] + alpha * direction[i]) over [0, 1] for every
      agent, 0 where direction[i] is the zero vector, shape (..., n);
    - ``_optimum_points(first, last, set_)``: x*_t over the set for rounds
      first..last, shape (R, d).

    The public scalar evaluators validate indices and (optionally)
    feasibility, then delegate.  ``check=False`` skips the membership test for
    callers that own feasibility semantics, e.g. the round engine recording a
    step rule that can leave the box by design.
    """

    def __init__(self, n, d, horizon, box: BoxSet, L, L_s, L_1):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.n = int(n)
        self.d = int(d)
        self.horizon = int(horizon)
        self.box = box
        self.L = float(L)
        self.L_s = float(L_s)
        self.L_1 = float(L_1)

    def _check(self, i: int, t: int, x: np.ndarray, check: bool) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"agent {i} not in range(0, {self.n})")
        if t < 1:
            raise IndexOutOfRange(f"round {t} must be >= 1")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.d,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.d},)")
        if check and not self.box.contains(x):
            raise OutOfFeasibleSet(f"point {x} outside the feasible box")
        return x

    def value(self, i: int, t: int, x, check: bool = True) -> float:
        x = self._check(i, t, x, check)
        return float(self._value(i, t, x))

    def gradient(self, i: int, t: int, x, check: bool = True) -> np.ndarray:
        x = self._check(i, t, x, check)
        return np.asarray(self._gradient(i, t, x), dtype=float)

    def average_value(self, t: int, x, check: bool = True) -> float:
        """Average of all agents' losses at a single point."""
        return sum(self.value(i, t, x, check=check) for i in range(self.n)) / self.n

    # --- batched evaluators: no membership checks --------------------------
    # Each takes (..., rows, d) arrays, for any number of leading axes.

    def _points(self, t: int, X, rows: int | None = None, lead: int = 0) -> np.ndarray:
        """X as floats, checked to be (..., rows, d) with at least ``lead`` leading axes."""
        if t < 1:
            raise IndexOutOfRange(f"round {t} must be >= 1")
        X = np.asarray(X, dtype=float)
        if X.ndim < 2 + lead or X.shape[-1] != self.d or (rows is not None and X.shape[-2] != rows):
            expected = f"(..., {'R, ' * lead}{'m' if rows is None else rows}, {self.d})"
            raise ValueError(f"points have shape {X.shape}, expected {expected}")
        return X

    def values(self, t: int, X) -> np.ndarray:
        """Agent i's loss at X[..., i, :] for every agent, shape (..., n)."""
        X = self._points(t, X, self.n)
        return self.values_over_rounds(t, X[..., None, :, :])[..., 0, :]

    def average_values(self, t: int, X) -> np.ndarray:
        """The all-agent average loss at each row of an (..., m, d) array, shape (..., m)."""
        X = self._points(t, X)
        return self.average_values_over_rounds(t, X[..., None, :, :])[..., 0, :]

    def batch_average_value(self, t: int, points: np.ndarray) -> np.ndarray:
        """Same as ``average_values``."""
        return self.average_values(t, points)

    def optimum_path(self, T: int, set_=None) -> tuple[np.ndarray, np.ndarray]:
        """x*_t, shape (T, d), and f*_t, shape (T,), for rounds 1..T over the set
        (default: the stream's box), computed on each call.  f* is taken in
        round chunks of at most ``RESIDUAL_CHUNK`` elements of x*."""
        x_star = self._optimum_points(1, T, self.box if set_ is None else set_)
        f_star = np.empty(T)
        rounds = max(1, RESIDUAL_CHUNK // self.d)
        for first in range(0, T, rounds):
            chunk = slice(first, first + rounds)
            f_star[chunk] = self.average_values_over_rounds(first + 1, x_star[chunk, None, :])[:, 0]
        return x_star, f_star


class QuadraticTrackingFamily(ObjectiveStream):
    """Losses f_i^t(x) = ||a_i * x - c(t)||^2 with per-agent scale a_i > 0.

    ``target`` is an (A, p) pair: the path c(t) = A / t**p, broadcast to every
    coordinate.  Closed forms: the gradient is 2 a_i (a_i x - c(t)); the
    unconstrained minimizer of the average loss is (sum a_i) c(t) / (sum a_i^2)
    per coordinate, and the box-constrained optimum is its clamp because the
    average loss is separable.

    Every evaluator reads c(t) from Python's scalar ``A / t**p``, one round at
    a time, because NumPy's ``t**p`` can differ from Python's in the last bit.
    """

    def __init__(self, scales, target: tuple[float, float], box: BoxSet, horizon: int):
        scales = np.atleast_1d(np.asarray(scales, dtype=float))
        if np.any(scales <= 0.0):
            raise ValueError("agent scales must be positive")
        amplitude, power = map(float, target)
        self._target = lambda t: amplitude / t**power
        self.scales = scales
        self._optimum_factor = float(np.sum(scales)) / float(np.sum(scales**2))
        # L, L_s and L_1: the worst case over box corners (exact for a fixed round,
        # as each coordinate's deviation peaks at a corner) and rounds 1..horizon,
        # at least round 1 so that the base class refuses horizon < 1.  It is convex
        # in c, so a power path, monotone in t, peaks at round 1 or the last.  These
        # two rounds give the maximum's bits with one box row, and at most a relative
        # (d + 4) * 2**-50 less where mixed rows make the sum nearly flat.  Each
        # agent's (2, d) block is summed over its contiguous last axis.
        # A constant that overflows is inf, which ``ExperimentConfig.validate`` refuses by name.
        c = np.array([self._target(1), self._target(max(horizon, 1))])[:, None]
        a = scales[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            worst_sq = np.max(np.sum(np.maximum(np.abs(a * box.lower - c), np.abs(a * box.upper - c))**2, axis=2), axis=1)
            L, L_s, L_1 = np.max(2.0 * scales * np.sqrt(worst_sq)), np.max(2.0 * scales**2), np.max(worst_sq)
        super().__init__(scales.size, box.d, horizon, box, L, L_s, L_1)

    def targets(self, first: int, last: int) -> np.ndarray:
        """c(first..last), shape (R,): one scalar per round, any round >= 1."""
        return np.array([self._target(t) for t in range(first, last + 1)])

    def target(self, t: int) -> np.ndarray:
        """c(t) in every coordinate, shape (d,), for the scalar evaluators."""
        return np.full(self.d, self._target(t))

    def _value(self, i, t, x):
        residual = self.scales[i] * x - self.target(t)
        return float(np.dot(residual, residual))

    def _gradient(self, i, t, x):
        return 2.0 * self.scales[i] * (self.scales[i] * x - self.target(t))

    def unconstrained_optimum(self, t: int) -> np.ndarray:
        """Stationary point of the average loss, before box clamping."""
        return self._optimum_factor * self.target(t)

    def values_over_rounds(self, first: int, X) -> np.ndarray:
        X = self._points(first, X, self.n, lead=1)
        c = self.targets(first, first + X.shape[-3] - 1)[:, None, None]  # (R, 1, 1)
        return _row_dots(self.scales[:, None] * X - c)

    def gradients(self, t: int, X) -> np.ndarray:
        X = self._points(t, X, self.n)
        a = self.scales[:, None]
        return 2.0 * a * (a * X - self._target(t))

    def average_values_over_rounds(self, first: int, X) -> np.ndarray:
        X = self._points(first, X, lead=1)
        c = self.targets(first, first + X.shape[-3] - 1)[:, None, None]
        c = np.broadcast_to(c, X.shape[-3:]).copy()  # (R, m, d), so each subtraction is contiguous
        # Mean of ||a_j x - c||^2 over agents j, adding their blocks to 0.0 in the
        # order of Python's ``sum``; ``np.sum`` can go pairwise and move the last bit.
        total = 0.0
        for a in self.scales:
            residual = a * X
            residual -= c
            total += _row_dots(residual)
        return total / self.n

    batch_average_value = ObjectiveStream.batch_average_value  # traced by name (perfbench/tracer.py)

    def line_search_coefficients(self, t: int, base, direction) -> np.ndarray:
        base = self._points(t, base, self.n)
        direction = self._points(t, direction, self.n)
        a = self.scales
        denom = a * _row_dots(direction)
        numer = _row_dots(self._target(t) - a[:, None] * base, direction)
        raw = np.divide(numer, denom, out=np.zeros(denom.shape), where=denom != 0.0)
        # The clamp keeps Python's min(1, max(0, raw)) semantics, NaN and -0.0 included.
        coeff = np.where(raw > 0.0, raw, 0.0)
        return np.where(coeff < 1.0, coeff, 1.0)

    def line_minimum_coefficient(self, i: int, t: int, base, direction) -> float:
        """Unclamped minimizer of alpha -> f_i^t(base + alpha * direction)."""
        base = np.atleast_1d(np.asarray(base, dtype=float))
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        a = self.scales[i]
        denom = a * float(np.dot(direction, direction))
        if denom == 0.0:
            return 0.0
        return float(np.dot(self.target(t) - a * base, direction)) / denom

    def _optimum_points(self, first: int, last: int, set_) -> np.ndarray:
        c = self._optimum_factor * self.targets(first, last)[:, None]  # (R, 1)
        return set_.project(np.broadcast_to(c, (c.shape[0], self.d)))


@dataclass(frozen=True)
class RoundOptimum:
    t: int
    x_star: np.ndarray
    f_star: float


def round_optimum_grid(stream: ObjectiveStream, t: int, set_=None, pitch: float | None = None) -> RoundOptimum:
    """Brute-force uniform-grid minimizer of the average loss (oracle path).

    Grid pitch defaults to 1e-3 of the box width per coordinate.  Supported
    for d <= 2; higher dimensions would need infeasibly many grid points.
    """
    set_ = stream.box if set_ is None else set_
    if stream.d > 2:
        raise ValueError("grid oracle supported for d <= 2 only")
    lower, upper = np.asarray(set_.lower), np.asarray(set_.upper)
    axes = []
    for k in range(stream.d):
        width = upper[k] - lower[k]
        step = pitch if pitch is not None else 1e-3 * width
        count = int(np.floor(width / step)) + 1
        axis = lower[k] + step * np.arange(count)
        if axis[-1] < upper[k] - 1e-15:
            axis = np.append(axis, upper[k])
        axes.append(axis)
    if stream.d == 1:
        points = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([g0.ravel(), g1.ravel()])
    values = stream.batch_average_value(t, points)
    best = int(np.argmin(values))
    return RoundOptimum(t=t, x_star=points[best].copy(), f_star=float(values[best]))


def round_optimum(
    stream: ObjectiveStream,
    t: int,
    set_=None,
    cross_check: bool = False,
    pitch: float | None = None,
) -> RoundOptimum:
    """Per-round minimizer of the average loss over the set (default: the stream's box).

    Round t of ``stream.optimum_path``, computed alone: the stream's
    ``_optimum_points``, the clamped closed form for quadratic families.  With
    ``cross_check`` the result is compared against the grid oracle and a
    disagreement in optimal value beyond 1e-5 raises.
    """
    if t < 1:
        raise IndexOutOfRange(f"round {t} must be >= 1")
    x_star = stream._optimum_points(t, t, stream.box if set_ is None else set_)
    f_star = stream.average_values_over_rounds(t, x_star[:, None, :])[0, 0]
    result = RoundOptimum(t=t, x_star=x_star[0], f_star=float(f_star))
    if cross_check:
        oracle = round_optimum_grid(stream, t, set_, pitch=pitch)
        if abs(oracle.f_star - result.f_star) > ORACLE_TOL:
            raise OracleDisagreement(
                f"round {t}: closed-form value {result.f_star} vs grid {oracle.f_star}"
            )
    return result


@dataclass(frozen=True)
class AssumptionReport:
    samples: int
    convexity_violation: float
    smoothness_violation: float
    value_excess: float
    gradient_excess: float
    passed: bool


def verify_assumptions(
    stream: ObjectiveStream,
    set_,
    sample_count: int,
    rng: np.random.Generator,
    probe_horizon: int | None = None,
    L: float | None = None,
    L_s: float | None = None,
    L_1: float | None = None,
    tol: float = 1e-9,
) -> AssumptionReport:
    """Monte Carlo audit of convexity, smoothness, and the stream's constants.

    Violations are the worst observed amounts by which an inequality failed
    (0 when it held everywhere).  Constants can be overridden to probe a
    deliberately wrong bound.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    L = stream.L if L is None else L
    L_s = stream.L_s if L_s is None else L_s
    L_1 = stream.L_1 if L_1 is None else L_1
    probe = min(stream.horizon, 64) if probe_horizon is None else probe_horizon
    conv_bad = smooth_bad = value_bad = grad_bad = 0.0
    for _ in range(sample_count):
        x = set_.sample(rng)
        y = set_.sample(rng)
        i = int(rng.integers(stream.n))
        t = int(rng.integers(1, probe + 1))
        fx = stream.value(i, t, x)
        fy = stream.value(i, t, y)
        gx = stream.gradient(i, t, x)
        inner = float(np.dot(gx, y - x))
        conv_bad = max(conv_bad, fx + inner - fy)
        smooth_bad = max(
            smooth_bad, (fy - fx) - inner - 0.5 * L_s * float(np.dot(y - x, y - x))
        )
        value_bad = max(value_bad, abs(fx) - L_1)
        grad_bad = max(grad_bad, float(np.linalg.norm(gx)) - L)
    return AssumptionReport(
        samples=sample_count,
        convexity_violation=conv_bad,
        smoothness_violation=smooth_bad,
        value_excess=value_bad,
        gradient_excess=grad_bad,
        passed=max(conv_bad, smooth_bad, value_bad, grad_bad) <= tol,
    )
