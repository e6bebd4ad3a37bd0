import numpy as np
import pytest

from dffr import harness, network
from dffr.harness import ExperimentConfig


@pytest.fixture(scope="session")
def paper_stream():
    """The paper presets' stream: scales (1, 2, 3, 6), target 60/t^2 on [-10, 10], T = 1000."""
    return harness.preset("paper-tracking-alg2").built()[0]


@pytest.fixture(scope="session")
def paper_wm():
    """The paper presets' weight matrix: the ring of 4 agents with edge weight 0.22."""
    return harness.preset("paper-tracking-alg2").built()[1]


@pytest.fixture(scope="session")
def paper_mc(paper_wm):
    return network.mixing_constants(paper_wm)


def _preset_without_bounds(name: str, **algorithm) -> ExperimentConfig:
    raw = harness.preset(name).to_dict()
    raw["bounds"] = False
    raw["algorithm"].update(algorithm)
    return ExperimentConfig.from_dict(raw)


def seed_alone(cfg: ExperimentConfig, seed: int):
    """The trace of ``seed`` run alone: a run of ``cfg`` with that one seed."""
    [trace] = harness.run_seeds(ExperimentConfig.from_dict(cfg.to_dict() | {"seeds": [seed]}))
    return trace


@pytest.fixture(scope="session")
def alg1_traces():
    """The 20-seed gradient-free benchmark runs (shared across acceptance tests)."""
    cfg = _preset_without_bounds("paper-tracking-alg1")
    return harness.run_seeds(cfg)


@pytest.fixture(scope="session")
def alg1_constant_step_traces():
    """The same 20 gradient-free seeds with the constant step 2/sqrt(1000).

    The constant-step bound and its horizon asymptote describe these runs,
    not the diminishing-step preset.
    """
    step = {"c": 2.0 / np.sqrt(1000.0), "p": 0.0}
    cfg = _preset_without_bounds("paper-tracking-alg1", step=step)
    return harness.run_seeds(cfg)


@pytest.fixture(scope="session")
def alg2_fixed_trace():
    """The deterministic projection-free benchmark run, fixed step 0.002."""
    cfg = _preset_without_bounds("paper-tracking-alg2")
    return seed_alone(cfg, 0)


@pytest.fixture(scope="session")
def alg2_exact_trace():
    """The projection-free run with the exact per-round line search."""
    cfg = _preset_without_bounds("paper-tracking-alg2-linesearch")
    return seed_alone(cfg, 0)


@pytest.fixture(scope="session")
def dogd_trace():
    """The projected-gradient baseline run."""
    cfg = _preset_without_bounds("paper-tracking-dogd")
    return seed_alone(cfg, 0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def tabled_constants():
    """L, L_s and L_1 of a quadratic stream over its whole c(t) table, or over
    its first and last rows only (``ends``).  On a power path whose box has one
    row, the construction that reads those two rows must give the table's bits."""

    def constants(stream, ends: bool = False):
        c = np.broadcast_to(stream.targets(1, stream.horizon)[:, None], (stream.horizon, stream.d))
        c = c[[0, -1]] if ends else c
        lower, upper = stream.box.lower, stream.box.upper
        worst_sq = np.array([
            np.max(np.sum(np.maximum(np.abs(a * lower - c), np.abs(a * upper - c))**2, axis=1))
            for a in stream.scales
        ])
        scales = stream.scales
        return float(np.max(2.0 * scales * np.sqrt(worst_sq))), float(np.max(2.0 * scales**2)), float(np.max(worst_sq))

    return constants
