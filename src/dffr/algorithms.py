"""Round-synchronous update rules and the simulation engine.

Three update rules share one protocol (decide, observe the revealed loss,
gossip, update):

* gradient-free: two zeroth-order queries per agent build the sphere-sampling
  gradient estimate (dim/delta) * (f(x + delta*u) - f(x)) * u, the gossip
  intermediate takes a step against it, and the result is projected onto the
  shrunk box so every query point stays feasible;
* projection-free: a linear minimization oracle picks a box vertex against
  the exact gradient and the new decision is the gossip intermediate plus a
  line-search (or fixed) multiple of the vertex direction -- no projection;
* projected gradient descent: the classical baseline, gossip then a projected
  exact-gradient step.

Within a round every agent reads only the previous round's global state and
its own RNG stream, so per-agent updates are order-independent; the round
boundary is a hard barrier.  Each step therefore updates all agents with
array operations (``network.gossip_average``, the stream's batched evaluators,
the set's ``project``) and refuses a non-finite update or an out-of-box query
by naming the round and the agent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .errors import DimensionMismatch, EvaluationOutsideBaseSet, NonFiniteInput, OutOfFeasibleSet
from .geometry import BoxSet, ShrunkSet, ball_batch, lmo, sphere_batch
from .objectives import ObjectiveStream
from .trace import Trace


def splitmix64(value: int) -> int:
    """One step of the splitmix64 mixer; maps any 64-bit value to a well-mixed one."""
    z = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def agent_rngs(master_seed: int, n: int) -> list[np.random.Generator]:
    """One independent generator per agent: seed XOR agent index, mixed."""
    master = int(master_seed) & 0xFFFFFFFFFFFFFFFF
    return [
        np.random.default_rng(splitmix64(master ^ (i + 1)))
        for i in range(n)
    ]


def sphere_draws(rngs: list[np.random.Generator], T: int, d: int) -> np.ndarray:
    """Each agent's sphere draws for rounds 1..T, shape (T, n, d).

    Row t-1 holds the draws of round t: agent i's block is what T calls of
    ``sample_unit_sphere`` on its own generator would return.
    """
    return np.stack([sphere_batch(rng, T, d) for rng in rngs], axis=1)


@dataclass(frozen=True)
class StepSchedule:
    """alpha_t = c / t**p; constant when p = 0."""

    c: float
    p: float = 0.0

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError("step scale must be positive")
        if self.p < 0.0:
            raise ValueError("step exponent must be >= 0 (non-increasing schedule)")

    def __call__(self, t: int) -> float:
        return self.c / t**self.p


ALGORITHM_KINDS = ("gradient_free", "projection_free", "projected_gd")
LINE_SEARCH_MODES = ("exact_1d", "fixed_alpha0")


@dataclass(frozen=True)
class AlgorithmConfig:
    kind: str
    step: StepSchedule | None = None
    delta: float | None = None
    line_search: str = "fixed_alpha0"
    alpha0: float | None = None
    clamp_to_feasible: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ALGORITHM_KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if self.kind in ("gradient_free", "projected_gd") and self.step is None:
            raise ValueError(f"{self.kind} requires a step schedule")
        if self.kind == "gradient_free":
            if self.delta is None or self.delta <= 0.0:
                raise ValueError("gradient_free requires a positive smoothing delta")
        if self.kind == "projection_free":
            if self.line_search not in LINE_SEARCH_MODES:
                raise ValueError(f"unknown line-search mode {self.line_search!r}")
            if self.line_search == "fixed_alpha0":
                if self.alpha0 is None or not 0.0 < self.alpha0 < 1.0:
                    raise ValueError("fixed_alpha0 mode requires alpha0 in (0, 1)")


def gradient_estimate(
    stream: ObjectiveStream, i: int, t: int, x: np.ndarray, delta: float, u: np.ndarray
) -> np.ndarray:
    """Two-point sphere-sampling gradient estimate at x with draw u.

    Uses only zeroth-order queries.  Raises if the perturbed point x + delta*u
    leaves the base box, which would indicate a broken shrunk set.
    """
    probe = x + delta * u
    if not stream.box.contains(probe, tol=1e-9):
        raise EvaluationOutsideBaseSet(
            f"agent {i} round {t}: perturbed query {probe} outside the box"
        )
    diff = stream.value(i, t, probe, check=False) - stream.value(i, t, x, check=False)
    return (stream.d / delta) * diff * u


@dataclass(frozen=True)
class SmoothedValue:
    value: float
    stderr: float


def smoothed_value(
    stream: ObjectiveStream,
    i: int,
    t: int,
    x,
    delta: float,
    rng: np.random.Generator,
    mc_samples: int,
) -> SmoothedValue:
    """Monte Carlo estimate of the delta-smoothed loss: mean of f(x + delta*v) over ball draws."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shrunk = ShrunkSet(stream.box, delta)
    if not shrunk.contains(x):
        raise OutOfFeasibleSet("smoothing point must lie in the shrunk set")
    draws = ball_batch(rng, mc_samples, stream.d)
    vals = np.array(
        [stream.value(i, t, x + delta * v, check=False) for v in draws]
    )
    return SmoothedValue(
        value=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / np.sqrt(mc_samples)) if mc_samples > 1 else np.inf,
    )


def _first_failing_agent(ok: np.ndarray) -> int | None:
    """First agent (row) with a False entry in an (n, d) mask, or None."""
    if ok.all():
        return None
    return int(np.argmin(ok.all(axis=1)))


def _require_finite(rows: np.ndarray, t: int, what: str) -> np.ndarray:
    i = _first_failing_agent(np.isfinite(rows))
    if i is not None:
        raise NonFiniteInput(f"round {t}: agent {i} {what} {rows[i]} is not finite")
    return rows


def _projected(set_, rows: np.ndarray, t: int) -> np.ndarray:
    """Row-wise projection onto a box; a non-finite step is refused by naming its agent."""
    try:
        return set_.project(rows)
    except NonFiniteInput:
        _require_finite(rows, t, "step")
        raise


def gradient_free_step(stream, shrunk: ShrunkSet, t: int, x, z, fx, alpha_t: float, u):
    """One bandit-feedback update: estimate, step from z, project onto the shrunk box.

    ``fx`` holds the agents' own losses at their decisions ``x`` and ``u``
    their sphere draws of the round.  Per agent the estimate is
    ``gradient_estimate``: only zeroth-order queries.  Returns the new
    decisions and the (n, d) gradient estimates.
    """
    delta = shrunk.delta
    probe = x + delta * u
    box = stream.box
    i = _first_failing_agent((probe >= box.lower - 1e-9) & (probe <= box.upper + 1e-9))
    if i is not None:
        raise EvaluationOutsideBaseSet(
            f"round {t}: agent {i} perturbed query {probe[i]} outside the box"
        )
    g = ((stream.d / delta) * (stream.values(t, probe) - fx))[:, None] * u
    return _projected(shrunk, z - alpha_t * g, t), g


def projection_free_step(stream, box: BoxSet, t: int, x, z, line_search, alpha0, clamp_to_feasible):
    """One projection-free update: vertex oracle at x, then z plus a multiple of v - x.

    The update is applied verbatim; it is not guaranteed to stay in the box
    when z != x, so an optional clamp is available.
    """
    h = lmo(box, _require_finite(stream.gradients(t, x), t, "gradient")) - x
    if line_search == "fixed_alpha0":
        x_new = z + alpha0 * h
    else:
        x_new = z + stream.line_search_coefficients(t, z, h)[:, None] * h
    if clamp_to_feasible:
        return _projected(box, x_new, t)
    return _require_finite(x_new, t, "step")


def projected_gradient_step(stream, box: BoxSet, t: int, x, z, alpha_t: float):
    """One baseline update: exact-gradient step from z, projected onto the box."""
    return _projected(box, z - alpha_t * stream.gradients(t, x), t)


def run(
    stream: ObjectiveStream,
    wm,
    cfg: AlgorithmConfig,
    T: int,
    x0: np.ndarray | None = None,
    config_snapshot: dict | None = None,
) -> Trace:
    """Advance all agents through rounds 1..T and record a complete trace.

    The feasible set is the stream's box, shrunk by delta for the
    gradient-free rule.  Each round records the state, gossips z = W x and
    applies the rule's hook (t, x, z, own losses) -> (x_new, g or None).
    Rounds are recorded before their update (decision-then-reveal order), so
    the final update contributes only the epilogue consensus errors.
    Identical (config, seed) pairs produce bit-identical traces.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if wm.n != stream.n:
        raise DimensionMismatch(f"network has {wm.n} agents, stream has {stream.n}")
    n, d = stream.n, stream.d
    box = stream.box
    feasible = ShrunkSet(box, cfg.delta) if cfg.kind == "gradient_free" else box

    if x0 is None:
        x = np.tile(feasible.project(np.zeros(d)), (n, 1))
    else:
        x = np.asarray(x0, dtype=float).reshape(n, d).copy()
        for i in range(n):
            if not feasible.contains(x[i]):
                raise OutOfFeasibleSet(f"initial decision of agent {i} is infeasible")
    # Before any gossip has happened, z := x so the consensus error starts at zero.
    z, eps = x, np.zeros(n)

    # The hooks name the step functions, so a wrapper rebound over one later
    # (a profiler, a test) still sees every call.
    if cfg.kind == "gradient_free":
        u = sphere_draws(agent_rngs(cfg.seed, n), T, d)

        def step(t, x, z, fx):
            return gradient_free_step(stream, feasible, t, x, z, fx, cfg.step(t), u[t - 1])
    elif cfg.kind == "projection_free":
        def step(t, x, z, fx):
            args = cfg.line_search, cfg.alpha0, cfg.clamp_to_feasible
            return projection_free_step(stream, box, t, x, z, *args), None
    else:
        def step(t, x, z, fx):
            return projected_gradient_step(stream, box, t, x, z, cfg.step(t)), None

    x_hist = np.empty((T, n, d))
    z_hist = np.empty((T, n, d))
    eps_hist = np.empty((T, n))
    loss_self = np.empty((T, n))
    loss_global = np.empty((T, n))
    x_path, f_path = stream.optimum_path(T, box)
    g_norm = np.zeros((T, n))

    for t in range(1, T + 1):
        row = t - 1
        x_hist[row] = x
        z_hist[row] = z
        eps_hist[row] = eps
        loss_self[row] = stream.values(t, x)
        loss_global[row] = stream.average_values(t, x)
        z = network.gossip_average(wm, x)
        x, g = step(t, x, z, loss_self[row])
        eps = np.linalg.norm(x - z, axis=1)
        if g is not None:
            g_norm[row] = np.linalg.norm(g, axis=1)

    snapshot = {
        "algorithm": cfg.kind,
        "seed": cfg.seed,
        "n": n,
        "d": d,
        "T": T,
    }
    if config_snapshot:
        snapshot.update(config_snapshot)
    return Trace(
        algorithm=cfg.kind,
        seed=cfg.seed,
        config=snapshot,
        x=x_hist,
        z=z_hist,
        eps_norm=eps_hist,
        loss_self=loss_self,
        loss_global=loss_global,
        x_star=x_path.copy(),
        f_star=f_path.copy(),
        g_norm=g_norm,
        final_eps_norm=eps,
    )
