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

Seeds only change the sphere draws, so the engine advances every seed of a
config in one round loop over (S, n, d) state; the steps take such stacks as
they take one (n, d) state.  The loop keeps only what the recurrence needs:
the decisions and the gossip points, and for the bandit rule the sphere draws
and the estimates of one block of rounds at a time.  The columns a trace
merely records, the own losses among them, are computed from the history
after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .errors import (
    DffrError,
    DimensionMismatch,
    EvaluationOutsideBaseSet,
    NonFiniteInput,
    OutOfFeasibleSet,
)
from .geometry import BoxSet, ShrunkSet, ball_batch, lmo, sphere_batch
from .objectives import RESIDUAL_CHUNK, ObjectiveStream
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


def block_rounds(T: int, S: int, n: int, d: int) -> int:
    """Rounds per block of ``run``'s sphere draws and estimates: as many as
    ``RESIDUAL_CHUNK`` elements (S·rounds·n·d) hold, but at least ⌈T/8⌉, so
    each agent's generator is called at most 8 times a run; at most T."""
    return min(T, max(RESIDUAL_CHUNK // (S * n * d), -(-T // 8)))


def sphere_draws(rngs: list[np.random.Generator], T: int, d: int) -> np.ndarray:
    """Each agent's sphere draws for the next T rounds, shape (T, n, d).

    Row k holds the draws of the k-th of those rounds: agent i's block is
    what T calls of ``sample_unit_sphere`` on its own generator would return.
    The generators keep their state, so consecutive calls continue each
    agent's stream: per-block calls give the rows of one call over all their
    rounds, since in both forms a row too short to normalize is skipped in
    favour of the next row drawn.
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
    if not stream.box.contains(probe):
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
    """Monte Carlo estimate of the delta-smoothed loss: mean of f(x + delta*v) over ball draws.

    Every draw is evaluated in one ``values`` call, as if every agent stood at
    it; agent i's column is kept.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shrunk = ShrunkSet(stream.box, delta)
    if not shrunk.contains(x):
        raise OutOfFeasibleSet("smoothing point must lie in the shrunk set")
    points = x + delta * ball_batch(rng, mc_samples, stream.d)
    shared = np.broadcast_to(points[:, None, :], (mc_samples, stream.n, stream.d))
    vals = stream.values(t, shared)[:, i]
    return SmoothedValue(
        value=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / np.sqrt(mc_samples)) if mc_samples > 1 else np.inf,
    )


def _first_failing_row(ok: np.ndarray) -> tuple | None:
    """Index (..., agent) of the first row with a False entry in a (..., n, d) mask, or None."""
    if ok.all():
        return None
    rows = ok.all(axis=-1)
    return tuple(int(k) for k in np.unravel_index(np.argmin(rows), rows.shape))


def _first_outside(set_, points: np.ndarray) -> tuple | None:
    """Index (..., agent) of the first point outside the set's ``padded_bounds``, or None."""
    lower, upper = set_.padded_bounds
    return _first_failing_row((points >= lower) & (points <= upper))


def _refusal(error: type, t: int, where: tuple, what: str) -> DffrError:
    """``error`` naming the round and the agent of a (..., agent) index.

    The leading index is kept as ``batch_index``; ``run`` names its seed.
    """
    exc = error(f"round {t}: agent {where[-1]} {what}")
    exc.batch_index = where[:-1]
    return exc


def _require_finite(rows: np.ndarray, t: int, what: str) -> np.ndarray:
    where = _first_failing_row(np.isfinite(rows))
    if where is not None:
        raise _refusal(NonFiniteInput, t, where, f"{what} {rows[where]} is not finite")
    return rows


def _naming_agent(op, rows: np.ndarray, t: int, what: str) -> np.ndarray:
    """``op(rows)``; when ``op`` refuses a non-finite input, the refusal names its agent."""
    try:
        return op(rows)
    except NonFiniteInput:
        _require_finite(rows, t, what)
        raise


def gradient_free_step(stream, shrunk: ShrunkSet, t: int, x, z, alpha_t: float, u):
    """One bandit-feedback update: estimate, step from z, project onto the shrunk box.

    ``u`` holds the agents' sphere draws of the round.  Per agent the estimate
    is ``gradient_estimate``: only zeroth-order queries, the own loss at the
    decision and at its probe, both asked in one ``values`` call.  Returns the
    new decisions and the (..., n, d) gradient estimates.
    """
    delta = shrunk.delta
    probe = x + delta * u
    where = _first_outside(stream.box, probe)
    if where is not None:
        what = f"perturbed query {probe[where]} outside the box"
        raise _refusal(EvaluationOutsideBaseSet, t, where, what)
    fx, f_probe = stream.values(t, np.stack((x, probe)))
    g = ((stream.d / delta) * (f_probe - fx))[..., None] * u
    return _naming_agent(shrunk.project, z - alpha_t * g, t, "step"), g


def projection_free_step(stream, box: BoxSet, t: int, x, z, line_search, alpha0):
    """One projection-free update: vertex oracle at x, then z plus a multiple of v - x.

    The update is applied verbatim, never projected: it is not guaranteed to
    stay in the box when z != x.
    """
    h = _naming_agent(lambda g: lmo(box, g), stream.gradients(t, x), t, "gradient") - x
    if line_search == "fixed_alpha0":
        x_new = z + alpha0 * h
    else:
        x_new = z + stream.line_search_coefficients(t, z, h)[..., None] * h
    return _require_finite(x_new, t, "update")


def projected_gradient_step(stream, box: BoxSet, t: int, x, z, alpha_t: float):
    """One baseline update: exact-gradient step from z, projected onto the box."""
    return _naming_agent(box.project, z - alpha_t * stream.gradients(t, x), t, "step")


def run(
    stream: ObjectiveStream,
    wm,
    cfg: AlgorithmConfig,
    T: int,
    seeds,
    x0: np.ndarray | None = None,
) -> list[Trace]:
    """Advance all agents of every seed through rounds 1..T; one trace per seed.

    Each seed draws from its own agent generators, and all seeds advance in
    one round loop over (S, n, d) state, so a seed's trace has the bits of
    its run alone.  ``x0`` is the n·d start of every seed or an (S, n, d)
    stack; by default every agent starts at the projection of the origin.
    The feasible set is the stream's box, shrunk by delta for the
    gradient-free rule.

    Each round records the state, gossips z = W x and applies the rule's hook
    (t, x, z, u) -> (x_new, g or None), where u is the round's (S, n, d)
    sphere draws (None for the rules that draw none).  Rounds are recorded
    before their update (decision-then-reveal order), so the final update
    contributes only the epilogue consensus errors.  The loop runs in blocks
    of ``block_rounds`` rounds: each block draws its rounds' sphere
    directions from every seed's generators and keeps its rounds' estimates,
    whose norms it records when it ends, so no draw or estimate outlives its
    block.  The own and average losses and the consensus errors are computed
    from the history after the loop, in round chunks of at most
    ``RESIDUAL_CHUNK`` elements (one round when a round is larger); then the first
    non-finite own or global loss, in seed, round and agent order, is
    refused.  A refusal names the seed, the round and the agent.  Each trace
    holds its seed and an empty config, which ``harness.run_seeds`` fills in.
    Every trace holds the same read-only optimum path ``x_star``/``f_star``.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if wm.n != stream.n:
        raise DimensionMismatch(f"network has {wm.n} agents, stream has {stream.n}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    S, n, d = len(seeds), stream.n, stream.d
    box = stream.box
    feasible = ShrunkSet(box, cfg.delta) if cfg.kind == "gradient_free" else box

    if x0 is None:
        x = np.tile(feasible.project(np.zeros(d)), (S, n, 1))
    else:
        x = np.broadcast_to(np.asarray(x0, dtype=float).reshape(-1, n, d), (S, n, d)).copy()
        where = _first_outside(feasible, x)
        if where is not None:
            s, i = where
            raise OutOfFeasibleSet(
                f"seed {seeds[s]}, round 1: agent {i} initial decision {x[s, i]} is infeasible"
            )
    # Before any gossip has happened, z := x so the consensus error starts at zero.
    z = x

    # The hooks name the step functions, so a wrapper rebound over one later
    # (a profiler, a test) still sees every call.
    gradient_free = cfg.kind == "gradient_free"
    if gradient_free:
        rngs = [agent_rngs(seed, n) for seed in seeds]

        def step(t, x, z, u):
            return gradient_free_step(stream, feasible, t, x, z, cfg.step(t), u)
    elif cfg.kind == "projection_free":
        rule = cfg.line_search, cfg.alpha0

        def step(t, x, z, u):
            return projection_free_step(stream, box, t, x, z, *rule), None
    else:
        def step(t, x, z, u):
            return projected_gradient_step(stream, box, t, x, z, cfg.step(t)), None

    # Seed-major history: each seed's trace fields are contiguous views.
    x_hist = np.empty((S, T, n, d))
    z_hist = np.empty((S, T, n, d))
    g_norm = np.zeros((S, T, n))
    # One block of rounds: its sphere draws (the other rules draw none) and
    # its estimates, round-major.
    rounds = block_rounds(T, S, n, d)
    u = [None] * rounds
    g_block = np.empty((rounds, S, n, d)) if gradient_free else None

    # An overflow or invalid value is refused by name below (a step in the loop,
    # a loss after it), so NumPy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, T, rounds):
            count = min(rounds, T - first)
            if gradient_free:
                u = np.stack([sphere_draws(agents, count, d) for agents in rngs], axis=1)
            for k in range(count):
                row = first + k
                x_hist[:, row] = x
                z_hist[:, row] = z
                z = network.gossip_average(wm, x)
                try:
                    x, g = step(row + 1, x, z, u[k])
                except DffrError as exc:
                    if not getattr(exc, "batch_index", None):
                        raise
                    raise type(exc)(f"seed {seeds[exc.batch_index[0]]}, {exc}") from None
                if g is not None:
                    g_block[k] = g
            if gradient_free:
                g_norm[:, first:first + count] = np.linalg.norm(g_block[:count], axis=-1).swapaxes(0, 1)

        # The recorded-only columns, in round chunks that bound the temporaries.
        # Row 0 of the consensus errors is x - x = 0.
        eps_norm = np.empty((S, T, n))
        loss_self = np.empty((S, T, n))
        loss_global = np.empty((S, T, n))
        rounds = max(1, RESIDUAL_CHUNK // (S * n * d))
        for first in range(0, T, rounds):
            chunk = slice(first, first + rounds)
            x_chunk = x_hist[:, chunk]
            eps_norm[:, chunk] = np.linalg.norm(x_chunk - z_hist[:, chunk], axis=-1)
            loss_self[:, chunk] = stream.values_over_rounds(first + 1, x_chunk)
            loss_global[:, chunk] = stream.average_values_over_rounds(first + 1, x_chunk)
    finite = np.isfinite(loss_self) & np.isfinite(loss_global)
    if not finite.all():
        s, row, i = np.unravel_index(np.argmin(finite), finite.shape)
        name, losses = ("own", loss_self) if not np.isfinite(loss_self[s, row, i]) else ("global", loss_global)
        raise NonFiniteInput(
            f"seed {seeds[s]}, round {row + 1}: agent {i} {name} loss {float(losses[s, row, i])} is not finite"
        )
    final_eps_norm = np.linalg.norm(x - z, axis=-1)
    x_path, f_path = stream.optimum_path(T, box)
    x_path.flags.writeable = f_path.flags.writeable = False

    traces = []
    for k, seed in enumerate(seeds):
        traces.append(Trace(
            algorithm=cfg.kind,
            seed=seed,
            config={},
            x=x_hist[k],
            z=z_hist[k],
            eps_norm=eps_norm[k],
            loss_self=loss_self[k],
            loss_global=loss_global[k],
            x_star=x_path,
            f_star=f_path,
            g_norm=g_norm[k],
            final_eps_norm=final_eps_norm[k],
        ))
    return traces
