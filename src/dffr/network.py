"""Communication topologies: validated gossip weight matrices and mixing rates.

A valid weight matrix is symmetric, doubly stochastic, connected through its
positive off-diagonal entries, and has a positive floor omega under all its
positive weights.  Powers of such a matrix approach the uniform averaging
matrix geometrically; the constants (gamma, lambda) quantify that rate:

    |[W^k]_ij - 1/n| <= gamma * lambda^k,
    gamma = (1 - omega/(4 n^2))^(-2),   lambda = 1 - omega/(4 n^2),

the rate of one fixed matrix; the engine has no time-varying W_t schedule.

All types are immutable after construction; ``gossip_average`` is pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    NonPositiveWeightFloor,
    NotDoublyStochastic,
    NotSymmetric,
)

STOCHASTICITY_TOL = 1e-9
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """Validated n x n gossip weight matrix.

    ``omega`` is the minimum over strictly positive entries.
    """

    w: np.ndarray
    n: int = field(init=False)
    omega: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).copy()
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        n = w.shape[0]
        if n < 1:
            raise ValueError("need at least one agent")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix entries must be finite")
        if np.max(np.abs(w - w.T)) > SYMMETRY_TOL:
            raise NotSymmetric("weight matrix is not symmetric")
        if np.min(w) < -STOCHASTICITY_TOL:
            raise NotDoublyStochastic("weight matrix has negative entries")
        row_err = np.max(np.abs(w.sum(axis=1) - 1.0))
        col_err = np.max(np.abs(w.sum(axis=0) - 1.0))
        if row_err > STOCHASTICITY_TOL or col_err > STOCHASTICITY_TOL:
            raise NotDoublyStochastic(
                f"row/column sums deviate from 1 by {max(row_err, col_err):.3e}"
            )
        positive = w[w > 0.0]
        if positive.size == 0:
            raise NotDoublyStochastic("weight matrix has no positive entries")
        omega = float(np.min(positive))
        if omega < np.finfo(float).tiny:
            raise NonPositiveWeightFloor(
                "smallest positive weight is below the representable floor"
            )
        _check_connected(w)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "omega", omega)


def _check_connected(w: np.ndarray) -> None:
    """Breadth-first reachability over positive off-diagonal entries."""
    n = w.shape[0]
    if n == 1:
        return
    rows, cols = np.nonzero((w > 0.0) & ~np.eye(n, dtype=bool))
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in cols[starts[i]:starts[i + 1]]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    if len(seen) != n:
        raise Disconnected(
            f"graph of positive off-diagonal weights reaches {len(seen)} of {n} agents"
        )


def validate_weight_matrix(w) -> WeightMatrix:
    """Validate a raw matrix and wrap it (see WeightMatrix for the checks)."""
    return WeightMatrix(w=np.asarray(w, dtype=float))


@dataclass(frozen=True)
class MixingConstants:
    gamma: float
    lam: float


def mixing_constants(wm: WeightMatrix) -> MixingConstants:
    """Geometric mixing constants of the validated matrix."""
    lam = 1.0 - wm.omega / (4.0 * wm.n**2)
    return MixingConstants(gamma=lam**-2, lam=lam)


def second_eigenvalue_modulus(wm: WeightMatrix) -> float:
    """The largest |eigenvalue| of W other than its eigenvalue 1 (0 for one
    agent): the rate at which W^k approaches 1/n, so no mixing bound with a
    smaller lambda holds for every power k."""
    eigenvalues = np.linalg.eigvalsh(wm.w)  # ascending; the largest is 1
    return float(max(abs(eigenvalues[0]), abs(eigenvalues[-2]))) if wm.n > 1 else 0.0


@dataclass(frozen=True)
class MixingReport:
    horizon: int
    max_excess: float
    worst_power: int
    passed: bool


def mixing_bound_check(
    wm: WeightMatrix, mc: MixingConstants, horizon: int
) -> MixingReport:
    """Check |[W^k]_ij - 1/n| <= gamma * lambda^k + k*n*eps for all powers k = 0..horizon.

    W^k is computed as k float products, and each entry of a product is a
    sum of n terms no larger than 1, so the computed power is off the exact
    one by about k*n*eps at most (eps the float64 machine epsilon).  That
    much is allowed, so round-off alone does not fail the check once
    gamma * lambda^k has fallen below it.  A failing check is reported, not
    raised; ``max_excess`` is the largest amount by which any entry exceeded
    that allowed bound (negative when all pass).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = wm.n
    eps = float(np.finfo(float).eps)
    power = np.eye(n)
    max_excess = -np.inf
    worst_power = 0
    for k in range(horizon + 1):
        deviation = float(np.max(np.abs(power - 1.0 / n)))
        excess = deviation - (mc.gamma * mc.lam**k + k * n * eps)
        if excess > max_excess:
            max_excess = excess
            worst_power = k
        power = power @ wm.w
    return MixingReport(
        horizon=horizon,
        max_excess=max_excess,
        worst_power=worst_power,
        passed=max_excess <= 0.0,
    )


def gossip_average(wm: WeightMatrix, states) -> np.ndarray:
    """One synchronous gossip round: z_i = sum_j w_ij x_j.

    ``states`` is an (n, d) array, a list of n equal-length vectors, or a
    (..., n, d) stack of such states, each gossiped on its own.
    """
    try:
        x = np.asarray(states, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch("agent states must share one dimension") from exc
    if x.ndim < 2 or x.shape[-2] != wm.n:
        raise DimensionMismatch(f"states must be (..., {wm.n}, d), got shape {x.shape}")
    return wm.w @ x


# --- built-in generators ----------------------------------------------------

def ring_matrix(n: int, weight: float) -> np.ndarray:
    """Symmetric ring with self-loops: each edge gets ``weight``, diagonal absorbs the rest."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return np.ones((1, 1))
    if n == 2:
        if not 0.0 < weight <= 0.5:
            raise ValueError("two-agent ring needs weight in (0, 0.5]")
        return np.array([[1.0 - weight, weight], [weight, 1.0 - weight]])
    if not 0.0 < weight <= 0.5:
        raise ValueError("ring edge weight must lie in (0, 0.5]")
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = weight
        w[i, (i - 1) % n] = weight
        w[i, i] = 1.0 - 2.0 * weight
    return w


def complete_matrix(n: int) -> np.ndarray:
    """Uniform averaging over the complete graph."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.full((n, n), 1.0 / n)


GENERATORS = {
    "ring": ring_matrix,
    "complete": complete_matrix,
}


def generator_matrix(name: str, **params) -> np.ndarray:
    """Build a raw weight matrix from a named generator."""
    try:
        gen = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown topology generator {name!r}; known: {sorted(GENERATORS)}"
        ) from None
    return gen(**params)
