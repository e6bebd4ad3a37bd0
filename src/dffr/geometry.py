"""Feasible sets and their primitive oracles.

Feasible regions are axis-aligned boxes with the origin strictly inside, so
Euclidean projection (coordinate clamp), the linear minimization oracle
(vertex by gradient signs), the inradius r and circumradius R all have closed
forms.  A shrunk copy of a box, scaled by (1 - delta/r), keeps every
delta-radius ball around its points inside the original box; zeroth-order
methods evaluate at such perturbed points.

All operations are pure; random sampling takes an explicit generator so
callers own their RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInput, PointNotInSet


def _vector(x, name: str = "input") -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def _require_finite(x: np.ndarray, name: str = "input") -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{name} contains non-finite entries")


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Axis-aligned box {x : lower <= x <= upper} containing the origin strictly.

    Derived fields:
      r  largest radius whose origin-centered ball fits inside the box
      R  smallest radius whose origin-centered ball covers the box, which
         is also the sup of the Euclidean norm over the box

    Boxes (and shrunk boxes) compare and hash by identity.
    """

    lower: np.ndarray
    upper: np.ndarray
    d: int = field(init=False)
    r: float = field(init=False)
    R: float = field(init=False)

    def __post_init__(self):
        lower = _vector(self.lower, "lower").copy()
        upper = _vector(self.upper, "upper").copy()
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same dimension")
        _require_finite(lower, "lower")
        _require_finite(upper, "upper")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        if not (np.all(lower < 0.0) and np.all(upper > 0.0)):
            raise ValueError("box must contain the origin in its interior")
        lower.flags.writeable = False
        upper.flags.writeable = False
        corner = np.maximum(np.abs(lower), np.abs(upper))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "d", int(lower.size))
        object.__setattr__(self, "r", float(np.min(np.minimum(np.abs(lower), upper))))
        object.__setattr__(self, "R", float(np.linalg.norm(corner)))

    @classmethod
    def symmetric(cls, half_width: float, d: int = 1) -> "BoxSet":
        """[-half_width, half_width]^d."""
        hw = float(half_width) * np.ones(d)
        return cls(-hw, hw)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _vector(x)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def project(self, y) -> np.ndarray:
        """Nearest point of the box to a vector, or to each row of an (m, d) array."""
        y = np.asarray(y, dtype=float)
        if not 1 <= y.ndim <= 2 or y.shape[-1] != self.d:
            raise ValueError(f"points have shape {y.shape}, box has dimension {self.d}")
        if not np.isfinite(y).all():
            raise NonFiniteInput("input contains non-finite entries")
        return np.clip(y, self.lower, self.upper)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class ShrunkSet:
    """The base box scaled by factor = 1 - delta/r.

    Every point of the shrunk set keeps a delta-radius ball inside the base
    box (Minkowski containment), which makes delta-perturbed function
    evaluations feasible.  Requires 0 < delta < r.
    """

    base: BoxSet
    delta: float
    factor: float = field(init=False)
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)

    def __post_init__(self):
        delta = float(self.delta)
        if not (0.0 < delta < self.base.r):
            raise ValueError(
                f"delta must lie in (0, r)=(0, {self.base.r}), got {delta}"
            )
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "factor", 1.0 - delta / self.base.r)
        for name in ("lower", "upper"):
            bound = self.factor * getattr(self.base, name)
            bound.flags.writeable = False
            object.__setattr__(self, name, bound)

    @property
    def d(self) -> int:
        return self.base.d

    # The box operations read only lower and upper; bound here, they are
    # still traced by name (perfbench/tracer.py).
    contains = BoxSet.contains
    project = BoxSet.project
    sample = BoxSet.sample


def lmo(box: BoxSet, g) -> np.ndarray:
    """Vertex of the box minimizing the linear form <g, v>.

    An (n, d) array of gradients gives one vertex per row.  Tie-break: a
    zero gradient coordinate selects the lower bound, so the output is
    deterministic.
    """
    g = np.atleast_1d(np.asarray(g, dtype=float))
    _require_finite(g, "gradient")
    if g.ndim > 2 or g.shape[-1] != box.d:
        raise ValueError(f"gradient has shape {g.shape}, box has dimension {box.d}")
    return np.where(g < 0.0, box.upper, box.lower)


def projection_inequality_gap(set_, m, nvec, z) -> float:
    """Slack of the projection inequality at x = P(nvec - m).

    Returns (||z-nvec||^2 - ||z-x||^2 - ||x-nvec||^2) - 2<x-z, m>, which is
    nonnegative (up to roundoff) for any z in the set.
    """
    m = _vector(m, "m")
    nvec = _vector(nvec, "nvec")
    z = _vector(z, "z")
    _require_finite(m, "m")
    _require_finite(nvec, "nvec")
    _require_finite(z, "z")
    if not set_.contains(z):
        raise PointNotInSet("z must lie in the set")
    x = set_.project(nvec - m)
    lhs = 2.0 * float(np.dot(x - z, m))
    rhs = (
        float(np.dot(z - nvec, z - nvec))
        - float(np.dot(z - x, z - x))
        - float(np.dot(x - nvec, x - nvec))
    )
    return rhs - lhs


def sample_unit_sphere(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform draw from the unit sphere (normalized isotropic Gaussian)."""
    while True:
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def sample_unit_ball(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform draw from the unit ball (sphere draw scaled by U^(1/d))."""
    return sample_unit_sphere(rng, d) * rng.random() ** (1.0 / d)


def sphere_batch(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """(count, d) array of independent uniform sphere draws.

    Equal, bit for bit, to ``count`` calls of ``sample_unit_sphere``: one
    (count, d) Gaussian block is the same stream as ``count`` calls of
    ``standard_normal(d)``, each row norm runs the same dot kernel as
    ``np.linalg.norm`` of one vector, and a row too short to normalize is
    skipped in favour of the next one drawn, as the scalar loop redraws.
    """
    rows = [np.empty((0, d))]
    while count > 0:
        v = rng.standard_normal((count, d))
        norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        keep = norms > 1e-12
        rows.append(v[keep] / norms[keep, None])
        count -= int(keep.sum())
    return np.concatenate(rows)


def ball_batch(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """(count, d) array of independent uniform ball draws."""
    u = sphere_batch(rng, count, d)
    radii = rng.random(count) ** (1.0 / d)
    return u * radii[:, None]


@dataclass(frozen=True)
class ContainmentReport:
    samples: int
    worst_violation: float
    passed: bool


def minkowski_containment_check(
    shrunk: ShrunkSet, samples: int, rng: np.random.Generator, tol: float = 1e-12
) -> ContainmentReport:
    """Sample x in the shrunk set and v in the unit ball; check x + delta*v stays in the base box.

    The worst violation is the largest distance by which any perturbed point
    left the base box (0 when containment holds exactly).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    base = shrunk.base
    xs = rng.uniform(shrunk.lower, shrunk.upper, size=(samples, shrunk.d))
    vs = ball_batch(rng, samples, shrunk.d)
    pts = xs + shrunk.delta * vs
    below = np.maximum(base.lower - pts, 0.0)
    above = np.maximum(pts - base.upper, 0.0)
    worst = float(np.max(np.maximum(below, above)))
    return ContainmentReport(samples=samples, worst_violation=worst, passed=worst <= tol)
