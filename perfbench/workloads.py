"""The benchmark's two workloads: the configs they run and the problem behind each.

A workload is a list of ``Case`` objects.  Each case pairs the raw config
dict handed to ``ExperimentConfig.from_dict`` with the benchmark's own
statement of the problem (loss scales, target path, box, gossip matrix).
The correctness checks use that statement, never the program's objects.

paper-presets
    The five presets of ``harness.PRESETS``, unchanged except that every
    preset seed is offset by the workload seed.  Many scalar calls on a
    4-agent, 1-dimensional problem, 24 seeds in all, plus bound curves.
scale-ring-n32-d10
    One seed (the workload seed) of each paper rule on a 32-agent,
    10-dimensional quadratic stream over a ring.  No bound curves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("paper-presets", "scale-ring-n32-d10")

PAPER_PRESETS = (
    "paper-tracking-alg1",
    "paper-tracking-alg2",
    "paper-tracking-alg2-linesearch",
    "paper-tracking-dogd",
    "remark1-synthetic",
)

# The paper's tracking problem, stated apart from objectives.paper_tracking_stream
# and network.paper4_matrix: f_i^t(x) = (a_i x - 60/t^2)^2 on [-10, 10], a ring
# of 4 agents with edge weight 0.22.
PAPER_SCALES = (1.0, 2.0, 3.0, 6.0)
PAPER_TARGET = (60.0, 2.0)
PAPER_HALF_WIDTH = 10.0
PAPER_EDGE_WEIGHT = 0.22

# scale-ring-n32-d10.  Steps stay below the stability limit 2/L_s = 2/(2*6^2)
# = 0.0278 in every round: the largest gradient-free step is alpha_1 = 0.02.
SCALE_AGENTS = 32
SCALE_DIM = 10
SCALE_HORIZON = 400
SCALE_SCALES = tuple(1.0 + 5.0 * i / (SCALE_AGENTS - 1) for i in range(SCALE_AGENTS))
SCALE_TARGET = (8.0, 0.5)
SCALE_HALF_WIDTH = 10.0
SCALE_EDGE_WEIGHT = 0.3
SCALE_STEP = (0.02, 0.5)
SCALE_DELTA = 0.01
SCALE_RHOS = (0.95, 0.99)


def ring_weights(n: int, weight: float) -> np.ndarray:
    """Ring gossip matrix: `weight` on each edge, the rest on the diagonal."""
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = weight
    w[idx, (idx - 1) % n] = weight
    w[idx, idx] = 1.0 - 2.0 * weight
    return w


@dataclass(frozen=True)
class Problem:
    """Quadratic tracking problem f_i^t(x) = ||a_i x - A/t^p||^2 on a box."""

    scales: np.ndarray
    amplitude: float
    power: float
    lower: np.ndarray
    upper: np.ndarray
    weights: np.ndarray

    def target(self, t) -> np.ndarray:
        """A / t^p for an array of rounds, shape (len(t),)."""
        return self.amplitude / np.asarray(t, dtype=float) ** self.power


@dataclass(frozen=True)
class Case:
    raw: dict
    problem: Problem | None  # None for the synthetic remark-1 stream
    stable_steps: bool = False  # the step schedule must stay below 2/L_s

    @property
    def name(self) -> str:
        return self.raw["name"]

    @property
    def algorithm(self) -> dict:
        return self.raw.get("algorithm") or {}


def _paper_problem() -> Problem:
    hw = np.array([PAPER_HALF_WIDTH])
    return Problem(
        scales=np.array(PAPER_SCALES),
        amplitude=PAPER_TARGET[0],
        power=PAPER_TARGET[1],
        lower=-hw,
        upper=hw,
        weights=ring_weights(len(PAPER_SCALES), PAPER_EDGE_WEIGHT),
    )


def _scale_problem() -> Problem:
    hw = np.full(SCALE_DIM, SCALE_HALF_WIDTH)
    return Problem(
        scales=np.array(SCALE_SCALES),
        amplitude=SCALE_TARGET[0],
        power=SCALE_TARGET[1],
        lower=-hw,
        upper=hw,
        weights=ring_weights(SCALE_AGENTS, SCALE_EDGE_WEIGHT),
    )


def paper_presets(presets: dict, seed: int) -> list[Case]:
    """The shipped presets with their seeds offset by `seed`."""
    cases = []
    for name in PAPER_PRESETS:
        raw = presets[name]()
        raw["seeds"] = [int(s) + seed for s in raw.get("seeds", [0])]
        problem = None if raw["problem"]["stream"] == "remark1" else _paper_problem()
        cases.append(Case(raw=raw, problem=problem))
    return cases


def scale_ring(seed: int) -> list[Case]:
    """One seed of each paper rule at n = 32, d = 10."""
    base = {
        "problem": {
            "stream": "quadratic",
            "horizon": SCALE_HORIZON,
            "box": [[-SCALE_HALF_WIDTH, SCALE_HALF_WIDTH]] * SCALE_DIM,
            "scales": list(SCALE_SCALES),
            "target": f"{SCALE_TARGET[0]!r}/t^{SCALE_TARGET[1]!r}",
        },
        "topology": {
            "generator": "ring",
            "params": {"n": SCALE_AGENTS, "weight": SCALE_EDGE_WEIGHT},
            "B": 1,
        },
        "rho": list(SCALE_RHOS),
        "seeds": [seed],
        "bounds": False,
    }
    rules = {
        "scale-gradient-free": {
            "kind": "gradient_free",
            "step": {"c": SCALE_STEP[0], "p": SCALE_STEP[1]},
            "delta": SCALE_DELTA,
        },
        "scale-projection-free": {"kind": "projection_free", "line_search": "exact_1d"},
    }
    problem = _scale_problem()
    return [
        Case(
            raw=dict(copy.deepcopy(base), name=name, algorithm=algorithm),
            problem=problem,
            stable_steps="step" in algorithm,
        )
        for name, algorithm in rules.items()
    ]


def cases(workload: str, seed: int, presets: dict) -> list[Case]:
    if workload == "paper-presets":
        return paper_presets(presets, seed)
    if workload == "scale-ring-n32-d10":
        return scale_ring(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def determinism_case(workload: str) -> str:
    """The config whose CSV body is compared between passes: a seeded bandit run."""
    return "paper-tracking-alg1" if workload == "paper-presets" else "scale-gradient-free"
