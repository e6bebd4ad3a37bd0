import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr import algorithms, harness, network
from dffr.algorithms import (
    AlgorithmConfig,
    StepSchedule,
    agent_rngs,
    gradient_estimate,
    gradient_free_step,
    projected_gradient_step,
    projection_free_step,
    run,
    smoothed_value,
    sphere_draws,
    splitmix64,
)
from dffr.errors import (
    DimensionMismatch,
    EvaluationOutsideBaseSet,
    NonFiniteInput,
    OutOfFeasibleSet,
)
from dffr.geometry import BoxSet, ShrunkSet, lmo, sample_unit_sphere
from dffr.linesearch import golden_section
from dffr.network import generator_matrix, validate_weight_matrix
from dffr.objectives import ObjectiveStream, QuadraticTrackingFamily, paper_tracking_stream
from dffr.trace import Trace


class ConstStream(ObjectiveStream):
    def __init__(self, level=7.0, box=None, n=4):
        box = box or BoxSet.symmetric(10.0)
        super().__init__(n, box.d, 100, box, 0.0, 0.0, abs(level))
        self.level = level

    def _value(self, i, t, x):
        return self.level

    def _gradient(self, i, t, x):
        return np.zeros(self.d)


@pytest.fixture()
def wm4():
    return validate_weight_matrix(
        [[0.56, 0.22, 0.0, 0.22],
         [0.22, 0.56, 0.22, 0.0],
         [0.0, 0.22, 0.56, 0.22],
         [0.22, 0.0, 0.22, 0.56]]
    )


class TestRngSplit:
    def test_splitmix_is_deterministic(self):
        assert splitmix64(42) == splitmix64(42)
        assert splitmix64(42) != splitmix64(43)

    def test_agent_streams_differ(self):
        rngs = agent_rngs(7, 4)
        draws = [r.random() for r in rngs]
        assert len(set(draws)) == 4

    def test_same_seed_same_streams(self):
        a = [r.random() for r in agent_rngs(7, 4)]
        b = [r.random() for r in agent_rngs(7, 4)]
        assert a == b


class TestStepSchedule:
    def test_values(self):
        sched = StepSchedule(c=2.0, p=0.5)
        assert sched(1) == 2.0
        assert sched(4) == pytest.approx(1.0)
        assert sched.p != 0.0
        assert StepSchedule(c=0.1).p == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StepSchedule(c=0.0)
        with pytest.raises(ValueError):
            StepSchedule(c=1.0, p=-1.0)


class TestGradientEstimate:
    def test_forward_difference_in_1d(self, paper_stream):
        x = np.array([1.5])
        delta = 0.01
        u = np.array([1.0])
        g = gradient_estimate(paper_stream, 2, 4, x, delta, u)
        fd = (
            paper_stream.value(2, 4, x + delta) - paper_stream.value(2, 4, x)
        ) / delta
        assert g == pytest.approx([fd])

    def test_probe_outside_box_raises(self, paper_stream):
        with pytest.raises(EvaluationOutsideBaseSet):
            gradient_estimate(paper_stream, 0, 1, np.array([9.995]), 0.01, np.array([1.0]))

    def test_norm_bounded_by_dim_times_L(self, paper_stream, rng):
        shrunk = ShrunkSet(paper_stream.box, 0.01)
        bound = paper_stream.d * paper_stream.L
        for _ in range(2000):
            x = shrunk.sample(rng)
            u = np.array([1.0]) if rng.random() < 0.5 else np.array([-1.0])
            i = int(rng.integers(4))
            t = int(rng.integers(1, 50))
            g = gradient_estimate(paper_stream, i, t, x, 0.01, u)
            assert np.linalg.norm(g) <= bound + 1e-9

    def test_never_calls_gradient_oracle(self, paper_stream, wm4, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("zeroth-order contract violated")

        monkeypatch.setattr(paper_stream, "gradient", boom)
        monkeypatch.setattr(paper_stream, "gradients", boom)
        shrunk = ShrunkSet(paper_stream.box, 0.01)
        x = np.zeros((4, 1))
        u = sphere_draws(agent_rngs(0, 4), 1, 1)[0]
        gradient_free_step(paper_stream, shrunk, 1, x, wm4.w @ x, 0.5, u)


class TestGradientFreeStep:
    def test_constant_loss_reduces_to_consensus(self, wm4):
        stream = ConstStream()
        shrunk = ShrunkSet(stream.box, 0.01)
        x0 = np.array([[1.0], [2.0], [3.0], [4.0]])
        z = wm4.w @ x0
        u = sphere_draws(agent_rngs(3, 4), 1, 1)[0]
        x, g = gradient_free_step(stream, shrunk, 1, x0, z, 0.7, u)
        assert g == pytest.approx(np.zeros((4, 1)), abs=1e-12)
        assert x == pytest.approx(wm4.w @ x0)
        assert z == pytest.approx(wm4.w @ x0)

    def test_iterates_stay_in_shrunk_set(self, paper_stream, wm4):
        shrunk = ShrunkSet(paper_stream.box, 0.01)
        x = np.zeros((4, 1))
        u = sphere_draws(agent_rngs(11, 4), 59, 1)
        for t in range(1, 60):
            z = wm4.w @ x
            x, _ = gradient_free_step(paper_stream, shrunk, t, x, z, 2.0 / np.sqrt(t), u[t - 1])
            assert np.all(np.abs(x) <= 9.99 + 1e-12)


class TestSmoothedValue:
    def test_linear_loss_unbiased(self, rng):
        box = BoxSet.symmetric(5.0)

        class Linear(ObjectiveStream):
            def __init__(self):
                super().__init__(1, 1, 10, box, 3.0, 0.0, 15.0)

            def _value(self, i, t, x):
                return 3.0 * x[0] + 1.0

            def _gradient(self, i, t, x):
                return np.array([3.0])

        stream = Linear()
        est = smoothed_value(stream, 0, 1, [0.7], 0.1, rng, 40_000)
        assert abs(est.value - stream.value(0, 1, [0.7])) <= 3.0 * est.stderr

    def test_quadratic_bias_is_delta_sq_third(self, rng):
        # f(x) = x^2 smoothed over radius-0.1 ball in 1-D: bias delta^2/3
        box = BoxSet.symmetric(5.0)
        stream = QuadraticTrackingFamily(
            scales=(1.0,), target=lambda t: 0.0, box=box, horizon=10
        )
        x = 0.5
        est = smoothed_value(stream, 0, 1, [x], 0.1, rng, 60_000)
        expected = x**2 + 0.1**2 / 3.0
        assert abs(est.value - expected) <= 4.0 * est.stderr

    def test_smoothing_gap_bounded(self, paper_stream, rng):
        delta = 0.01
        bound = paper_stream.L * delta
        for _ in range(10):
            x = rng.uniform(-9.9, 9.9)
            i = int(rng.integers(4))
            t = int(rng.integers(1, 30))
            est = smoothed_value(paper_stream, i, t, [x], delta, rng, 2000)
            gap = abs(est.value - paper_stream.value(i, t, [x]))
            assert gap <= bound + 4.0 * est.stderr

    def test_point_outside_shrunk_set_rejected(self, paper_stream, rng):
        with pytest.raises(OutOfFeasibleSet):
            smoothed_value(paper_stream, 0, 1, [9.995], 0.01, rng, 10)


class TestProjectionFreeStep:
    def test_vertex_choice_example(self, paper_stream, wm4):
        # scale-1 agent at x=0, t=2: gradient 2(0-15) < 0 selects +10
        x = np.zeros((4, 1))
        new = projection_free_step(
            paper_stream, paper_stream.box, 2, x, wm4.w @ x,
            line_search="fixed_alpha0", alpha0=0.5, clamp_to_feasible=False,
        )
        assert new[0] == pytest.approx([5.0])  # 0 + 0.5 * (10 - 0)

    def test_consensus_case_is_convex_combination(self, paper_stream, wm4):
        x0 = np.full((4, 1), 2.0)
        new = projection_free_step(
            paper_stream, paper_stream.box, 3, x0, wm4.w @ x0,
            line_search="fixed_alpha0", alpha0=0.25, clamp_to_feasible=False,
        )
        # z = x at consensus, so the step is (1-a) x + a v with v in the box
        assert np.all(np.abs(new) <= 10.0 + 1e-12)

    def test_exact_search_beats_grid(self, paper_stream, wm4, rng):
        x = rng.uniform(-5, 5, size=(4, 1))
        z_all = wm4.w @ x
        t = 4
        new = projection_free_step(
            paper_stream, paper_stream.box, t, x, z_all,
            line_search="exact_1d", alpha0=None, clamp_to_feasible=False,
        )
        for i in range(4):
            h = lmo(paper_stream.box, paper_stream.gradient(i, t, x[i])) - x[i]
            z = z_all[i]
            f = lambda a: paper_stream.value(i, t, z + a * h, check=False)
            achieved = paper_stream.value(i, t, new[i], check=False)
            assert achieved <= min(f(0.0), f(1.0)) + 1e-9

    def test_closed_form_matches_golden_section(self, paper_stream, rng):
        for _ in range(30):
            i = int(rng.integers(4))
            t = int(rng.integers(1, 40))
            z = rng.uniform(-5, 5, size=1)
            h = rng.uniform(0.5, 10.0, size=1) * (1 if rng.random() < 0.5 else -1)
            closed = min(1.0, max(0.0, paper_stream.line_minimum_coefficient(i, t, z, h)))
            searched = golden_section(
                lambda a: paper_stream.value(i, t, z + a * h, check=False), 0.0, 1.0
            )
            assert closed == pytest.approx(searched, abs=1e-7)

    def test_single_agent_fixed_quadratic_converges(self):
        # classical vertex-stepping anchor: time-invariant quadratic, exact search
        box = BoxSet.symmetric(10.0)
        stream = QuadraticTrackingFamily(
            scales=(1.0,), target=lambda t: 3.0, box=box, horizon=300
        )
        wm = validate_weight_matrix([[1.0]])
        cfg = AlgorithmConfig(kind="projection_free", line_search="exact_1d")
        [trace] = run(stream, wm, cfg, T=200, seeds=[0])
        final_gap = stream.value(0, 200, trace.x[-1, 0], check=False) - 0.0
        assert final_gap <= 1e-6


class TestProjectedGradientStep:
    def test_zero_gradient_is_pure_consensus(self, wm4):
        stream = ConstStream()
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        for t in range(1, 40):
            x = projected_gradient_step(stream, stream.box, t, x, wm4.w @ x, 0.5)
        assert x == pytest.approx(np.full((4, 1), 2.5), abs=1e-6)

    def test_single_agent_matches_classical_pgd(self):
        box = BoxSet.symmetric(10.0)
        stream = QuadraticTrackingFamily(
            scales=(2.0,), target=(8.0, 1.0), box=box, horizon=50
        )
        wm = validate_weight_matrix([[1.0]])
        cfg = AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.1))
        [trace] = run(stream, wm, cfg, T=20, seeds=[0])
        x = 0.0
        for t in range(1, 20):
            grad = 2.0 * 2.0 * (2.0 * x - 8.0 / t)
            x = float(np.clip(x - 0.1 * grad, -10.0, 10.0))
            assert trace.x[t, 0, 0] == pytest.approx(x, abs=1e-12)


class TestRunEngine:
    def test_horizon_one_records_initial_state(self, paper_stream, wm4):
        cfg = AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.1))
        [trace] = run(paper_stream, wm4, cfg, T=1, seeds=[0])
        assert trace.T == 1
        assert trace.x[0] == pytest.approx(np.zeros((4, 1)))
        assert trace.x_star[0] == pytest.approx([10.0])

    def test_same_seed_bit_identical(self, paper_stream, wm4):
        cfg = AlgorithmConfig(
            kind="gradient_free", step=StepSchedule(c=2.0, p=0.5), delta=0.01
        )
        [a] = run(paper_stream, wm4, cfg, T=40, seeds=[5])
        [b] = run(paper_stream, wm4, cfg, T=40, seeds=[5])
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.g_norm, b.g_norm)
        assert np.array_equal(a.final_eps_norm, b.final_eps_norm)

    def test_different_seeds_differ(self, paper_stream, wm4):
        base = dict(kind="gradient_free", step=StepSchedule(c=2.0, p=0.5), delta=0.01)
        [a] = run(paper_stream, wm4, AlgorithmConfig(**base), T=40, seeds=[1])
        [b] = run(paper_stream, wm4, AlgorithmConfig(**base), T=40, seeds=[2])
        assert not np.array_equal(a.x, b.x)

    def test_gradient_free_respects_shrunk_set(self, paper_stream, wm4):
        cfg = AlgorithmConfig(
            kind="gradient_free", step=StepSchedule(c=2.0, p=0.5), delta=0.01
        )
        [trace] = run(paper_stream, wm4, cfg, T=80, seeds=[0])
        assert np.max(np.abs(trace.x)) <= 9.99 + 1e-12

    def test_eps_norm_consistent_with_states(self, paper_stream, wm4):
        cfg = AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.05))
        [trace] = run(paper_stream, wm4, cfg, T=30, seeds=[0])
        derived = np.linalg.norm(trace.x - trace.z, axis=2)
        assert trace.eps_norm == pytest.approx(derived, abs=1e-12)

    @pytest.mark.parametrize("kind", ["gradient_free", "exact_1d", "projected_gd"])
    def test_records_eps_and_g_norms(self, kind, paper_stream, wm4):
        [trace] = run(paper_stream, wm4, RULES[kind], T=30, seeds=[0])
        derived = np.linalg.norm(trace.x[1:] - trace.z[1:], axis=2)
        assert np.array_equal(trace.eps_norm[1:], derived)
        assert np.all(trace.eps_norm[0] == 0.0)
        if kind == "gradient_free":
            assert np.all(trace.g_norm <= paper_stream.d * paper_stream.L + 1e-9)
            assert np.any(trace.g_norm > 0.0)
        else:
            assert np.all(trace.g_norm == 0.0)

    def test_agent_count_mismatch_raises(self, paper_stream):
        wm3 = validate_weight_matrix(generator_matrix("ring", n=3, weight=0.3))
        cfg = AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.1))
        with pytest.raises(DimensionMismatch, match="network has 3 agents, stream has 4"):
            run(paper_stream, wm3, cfg, T=3, seeds=[0])

    def test_empty_seed_list_rejected(self, paper_stream, wm4):
        with pytest.raises(ValueError, match="need at least one seed"):
            run(paper_stream, wm4, RULES["projected_gd"], T=3, seeds=[])

    def test_infeasible_initialization_rejected(self, paper_stream, wm4):
        cfg = AlgorithmConfig(
            kind="gradient_free", step=StepSchedule(c=1.0), delta=0.01
        )
        with pytest.raises(OutOfFeasibleSet):
            run(
                paper_stream, wm4, cfg, T=5, seeds=[0],
                x0=np.full((4, 1), 9.995),
            )

    def test_deterministic_kinds_identical_across_runs(self, paper_stream, wm4):
        for kind, extra in (
            ("projection_free", dict(line_search="fixed_alpha0", alpha0=0.002)),
            ("projected_gd", dict(step=StepSchedule(c=2.0, p=1.0))),
        ):
            cfg = AlgorithmConfig(kind=kind, **extra)
            [a] = run(paper_stream, wm4, cfg, T=50, seeds=[0])
            [b] = run(paper_stream, wm4, cfg, T=50, seeds=[0])
            assert np.array_equal(a.x, b.x)


class TestAlgorithmConfig:
    def test_requires_alpha0_in_unit_interval(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(kind="projection_free", line_search="fixed_alpha0", alpha0=1.5)

    def test_requires_delta_for_gradient_free(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(kind="gradient_free", step=StepSchedule(c=1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(kind="mirror_descent")


# --- the per-agent loops the batched steps replaced, kept as references ---------

def reference_gradient_free_step(x, stream, wm, shrunk, t, alpha_t, u):
    n, d = x.shape
    g = np.empty((n, d))
    for i in range(n):
        g[i] = gradient_estimate(stream, i, t, x[i], shrunk.delta, u[i])
    z_new = wm.w @ x
    x_new = np.empty_like(x)
    for i in range(n):
        x_new[i] = shrunk.project(z_new[i] - alpha_t * g[i])
    return x_new, z_new, g


def reference_projection_free_step(x, stream, wm, box, t, line_search, alpha0, clamp):
    n, _ = x.shape
    v = np.empty_like(x)
    for i in range(n):
        v[i] = lmo(box, stream.gradient(i, t, x[i], check=False))
    z_new = wm.w @ x
    x_new = np.empty_like(x)
    for i in range(n):
        h = v[i] - x[i]
        if line_search == "fixed_alpha0":
            coeff = alpha0
        elif float(np.dot(h, h)) == 0.0:
            coeff = 0.0
        else:
            raw = stream.line_minimum_coefficient(i, t, z_new[i], h)
            coeff = float(min(1.0, max(0.0, raw)))
        x_new[i] = z_new[i] + coeff * h
        if clamp:
            x_new[i] = box.project(x_new[i])
    return x_new, z_new


def reference_projected_gradient_step(x, stream, wm, box, t, alpha_t):
    z_new = wm.w @ x
    x_new = np.empty_like(x)
    for i in range(x.shape[0]):
        grad = stream.gradient(i, t, x[i], check=False)
        x_new[i] = box.project(z_new[i] - alpha_t * grad)
    return x_new, z_new


def ring_case(n, d, seed):
    rng = np.random.default_rng(seed)
    box = BoxSet.symmetric(10.0, d=d)
    stream = QuadraticTrackingFamily(
        scales=rng.uniform(0.5, 6.0, n), target=(8.0, 0.5), box=box, horizon=100
    )
    w = [[1.0]] if n == 1 else generator_matrix("ring", n=n, weight=0.3)
    return stream, validate_weight_matrix(w), rng


class TestBatchedSteps:
    """Each batched step gives the bits of the per-agent loop it replaced."""

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 1), (4, 3), (32, 10)])
    def test_gradient_free_matches_loop(self, n, d):
        stream, wm, rng = ring_case(n, d, 1)
        shrunk = ShrunkSet(stream.box, 0.01)
        u = sphere_draws(agent_rngs(5, n), 20, d)
        x = np.tile(shrunk.project(np.zeros(d)), (n, 1))
        for t in range(1, 21):
            x_ref, z_ref, g_ref = reference_gradient_free_step(
                x, stream, wm, shrunk, t, 0.02 / np.sqrt(t), u[t - 1]
            )
            z = network.gossip_average(wm, x)
            x, g = gradient_free_step(stream, shrunk, t, x, z, 0.02 / np.sqrt(t), u[t - 1])
            assert np.array_equal(g, g_ref)
            assert np.array_equal(x, x_ref) and np.array_equal(z, z_ref)

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 1), (4, 3), (32, 10)])
    @pytest.mark.parametrize(
        "line_search, alpha0, clamp",
        [("exact_1d", None, False), ("fixed_alpha0", 0.05, False), ("exact_1d", None, True)],
    )
    def test_projection_free_matches_loop(self, n, d, line_search, alpha0, clamp):
        stream, wm, rng = ring_case(n, d, 2)
        x = rng.uniform(-9.0, 9.0, size=(n, d))
        for t in range(1, 21):
            x_ref, z_ref = reference_projection_free_step(
                x, stream, wm, stream.box, t, line_search, alpha0, clamp
            )
            z = network.gossip_average(wm, x)
            x = projection_free_step(
                stream, stream.box, t, x, z,
                line_search=line_search, alpha0=alpha0, clamp_to_feasible=clamp,
            )
            assert np.array_equal(x, x_ref) and np.array_equal(z, z_ref)

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 3), (32, 10)])
    def test_projected_gradient_matches_loop(self, n, d):
        stream, wm, rng = ring_case(n, d, 3)
        x = rng.uniform(-9.0, 9.0, size=(n, d))
        for t in range(1, 21):
            x_ref, z_ref = reference_projected_gradient_step(
                x, stream, wm, stream.box, t, 0.02
            )
            z = network.gossip_average(wm, x)
            x = projected_gradient_step(stream, stream.box, t, x, z, 0.02)
            assert np.array_equal(x, x_ref) and np.array_equal(z, z_ref)

    def test_sphere_draws_are_each_agents_scalar_draws(self):
        u = sphere_draws(agent_rngs(9, 4), 30, 3)
        for i, rng in enumerate(agent_rngs(9, 4)):
            assert np.array_equal(u[:, i], [sample_unit_sphere(rng, 3) for _ in range(30)])


class NaNAtOneAgent(ObjectiveStream):
    """Zero losses, except NaN value and gradient for agent 2 at round 3."""

    def __init__(self):
        box = BoxSet.symmetric(10.0)
        super().__init__(4, 1, 10, box, 1.0, 1.0, 1.0)

    def _value(self, i, t, x):
        return float("nan") if (i, t) == (2, 3) else float(x[0] ** 2)

    def _gradient(self, i, t, x):
        return np.array([float("nan")]) if (i, t) == (2, 3) else 2.0 * x


class TestRefusals:
    @pytest.mark.parametrize(
        "cfg",
        [
            AlgorithmConfig(kind="gradient_free", step=StepSchedule(c=0.1), delta=0.01),
            AlgorithmConfig(kind="projection_free", line_search="exact_1d"),
            AlgorithmConfig(kind="projection_free", line_search="fixed_alpha0", alpha0=0.1),
            AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.1)),
        ],
        ids=["gradient_free", "exact_1d", "fixed_alpha0", "projected_gd"],
    )
    def test_nonfinite_loss_names_round_and_agent(self, cfg, wm4):
        stream = NaNAtOneAgent()
        with pytest.raises(NonFiniteInput, match="round 3: agent 2 "):
            run(stream, wm4, cfg, T=6, seeds=[0])

    def test_probe_outside_box_names_round_and_agent(self, paper_stream, wm4):
        shrunk = ShrunkSet(paper_stream.box, 0.01)
        x = np.array([[0.0], [9.995], [0.0], [0.0]])
        with pytest.raises(EvaluationOutsideBaseSet, match="round 7: agent 1 "):
            gradient_free_step(paper_stream, shrunk, 7, x, wm4.w @ x, 0.1, np.ones((4, 1)))


class Bypassed(Exception):
    """Raised by a patched primitive: the engine reached it."""


def bypassed(*args, **kwargs):
    raise Bypassed


RULES = {
    "gradient_free": AlgorithmConfig(kind="gradient_free", step=StepSchedule(c=0.1), delta=0.01),
    "exact_1d": AlgorithmConfig(kind="projection_free", line_search="exact_1d"),
    "clamped": AlgorithmConfig(
        kind="projection_free", line_search="exact_1d", clamp_to_feasible=True
    ),
    "projected_gd": AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.1)),
}


class TestSinglePaths:
    """The engine gossips and projects through the primitives tested on their own."""

    @pytest.mark.parametrize("kind", sorted(RULES))
    def test_gossip_goes_through_network(self, kind, paper_stream, wm4, monkeypatch):
        monkeypatch.setattr(network, "gossip_average", bypassed)
        with pytest.raises(Bypassed):
            run(paper_stream, wm4, RULES[kind], T=3, seeds=[0], x0=np.zeros((4, 1)))

    @pytest.mark.parametrize("kind", ["gradient_free", "clamped", "projected_gd"])
    def test_projection_goes_through_the_set(self, kind, paper_stream, wm4, monkeypatch):
        # x0 is given, so the engine needs no projection before round 1
        monkeypatch.setattr(BoxSet, "project", bypassed)
        monkeypatch.setattr(ShrunkSet, "project", bypassed)
        with pytest.raises(Bypassed):
            run(paper_stream, wm4, RULES[kind], T=3, seeds=[0], x0=np.zeros((4, 1)))

    def test_unclamped_projection_free_never_projects(self, paper_stream, wm4, monkeypatch):
        monkeypatch.setattr(BoxSet, "project", bypassed)
        run(paper_stream, wm4, RULES["exact_1d"], T=3, seeds=[0], x0=np.zeros((4, 1)))


class TestLoopContract:
    """The round loop asks the stream only what the recurrence needs.

    Projection-free and projected GD ask no losses in the loop; gradient-free
    asks one stacked query (own loss and probe) per round, which ``values``
    answers as a one-round ``values_over_rounds`` slice.  The own losses come
    after the loop, one ``values_over_rounds`` call per round chunk.
    """

    @pytest.mark.parametrize("kind", sorted(RULES))
    def test_stream_queries_per_round_and_per_chunk(self, kind, monkeypatch):
        T, seeds = 30, [3, 5, 9]
        stream, wm = paper_tracking_stream(T), network_of(4)
        events = []

        def logged(name, fn):
            def call(*args):
                first = args[0] if isinstance(args[0], int) else None
                events.append((name, first, np.shape(args[-1])))
                return fn(*args)
            return call

        monkeypatch.setattr(network, "gossip_average", logged("gossip", network.gossip_average))
        monkeypatch.setattr(stream, "values", logged("values", stream.values))
        monkeypatch.setattr(
            stream, "values_over_rounds", logged("values_over_rounds", stream.values_over_rounds)
        )
        monkeypatch.setattr(algorithms, "RESIDUAL_CHUNK", 7 * len(seeds) * 4)  # 7 rounds
        run(stream, wm, RULES[kind], T, seeds=seeds)

        state = (3, 4, 1)
        expected = []
        for t in range(1, T + 1):
            expected.append(("gossip", None, state))
            if kind == "gradient_free":
                expected.append(("values", t, (2,) + state))
                expected.append(("values_over_rounds", t, (2, 3, 1, 4, 1)))
        for first, rounds in ((1, 7), (8, 7), (15, 7), (22, 7), (29, 2)):
            expected.append(("values_over_rounds", first, (3, rounds, 4, 1)))
        assert events == expected


class FaultWherePositive(ObjectiveStream):
    """x^2 losses on [-10, 10], 4 agents, except that agent 2 faults at round 1
    where its decision is positive: its loss and gradient are NaN ("loss") or
    its exact line-search coefficient is infinite ("search")."""

    def __init__(self, fault="loss"):
        super().__init__(4, 1, 10, BoxSet.symmetric(10.0), 20.0, 2.0, 100.0)
        self.fault = fault

    def _faults(self, i, t, x):
        return self.fault == "loss" and (i, t) == (2, 1) and x[0] > 0.0

    def _value(self, i, t, x):
        return float("nan") if self._faults(i, t, x) else float(x[0] ** 2)

    def _gradient(self, i, t, x):
        return np.array([float("nan")]) if self._faults(i, t, x) else 2.0 * x

    def line_search_coefficients(self, t, base, direction):
        coeff = super().line_search_coefficients(t, base, direction)
        if self.fault == "search" and t == 1:
            coeff[..., 2] = np.where(base[..., 2, 0] > 0.0, np.inf, coeff[..., 2])
        return coeff


class InfiniteLossWherePositive(FaultWherePositive):
    """x^2 losses with finite gradients, except that agent ``faulty``'s loss is
    infinite where the decision is positive."""

    def __init__(self, faulty):
        super().__init__(fault=None)
        self.faulty = faulty

    def _value(self, i, t, x):
        return float("inf") if i == self.faulty and x[0] > 0.0 else float(x[0] ** 2)


class Unshrunk(ShrunkSet):
    """A broken shrunk set: the probe radius delta, but the base box's bounds."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "lower", self.base.lower)
        object.__setattr__(self, "upper", self.base.upper)


class TestSeedRefusals:
    """In a batch, a refusal names the seed as well as the round and the agent.

    The non-finite cases start seeds 3 and 5 at -9 and seed 9 at +9, so only
    the third seed of the batch faults; the other cases move one agent of
    seed 9 alone.
    """

    seeds = [3, 5, 9]
    x0 = np.concatenate([np.full((2, 4, 1), -9.0), np.full((1, 4, 1), 9.0)])

    @pytest.mark.parametrize("kind", ["gradient_free", "projected_gd"])
    def test_nonfinite_step(self, kind):
        with pytest.raises(NonFiniteInput, match="^seed 9, round 1: agent 2 step "):
            run(FaultWherePositive(), network_of(4), RULES[kind], T=4, seeds=self.seeds, x0=self.x0)

    @pytest.mark.parametrize("kind", ["exact_1d", "clamped"])
    def test_nonfinite_gradient(self, kind):
        with pytest.raises(NonFiniteInput, match="^seed 9, round 1: agent 2 gradient "):
            run(FaultWherePositive(), network_of(4), RULES[kind], T=4, seeds=self.seeds, x0=self.x0)

    def test_nonfinite_update(self):
        stream = FaultWherePositive("search")
        with pytest.raises(NonFiniteInput, match="^seed 9, round 1: agent 2 update "):
            run(stream, network_of(4), RULES["exact_1d"], T=4, seeds=self.seeds, x0=self.x0)

    @pytest.mark.parametrize("faulty, which", [(2, "own"), (0, "global")], ids=["own", "global"])
    def test_nonfinite_loss_is_refused_after_the_loop(self, faulty, which):
        """projected_gd asks no loss in its loop, so the after-loop check refuses
        the first infinite loss: agent 2 of seed 9 starts at +9, all others at -9,
        and either its own loss or one term of its average loss is infinite there."""
        x0 = np.full((3, 4, 1), -9.0)
        x0[2, 2, 0] = 9.0
        with pytest.raises(NonFiniteInput, match=f"^seed 9, round 1: agent 2 {which} loss inf is not finite$"):
            run(InfiniteLossWherePositive(faulty), network_of(4), RULES["projected_gd"], T=4,
                seeds=self.seeds, x0=x0)

    def test_probe_outside_box(self, monkeypatch):
        # Agent 2 of seed 9 sits on the box face its round-1 draw points out of.
        u = sphere_draws(agent_rngs(9, 4), 1, 1)[0, 2, 0]
        x0 = np.zeros((3, 4, 1))
        x0[2, 2, 0] = 10.0 * np.sign(u)
        monkeypatch.setattr(algorithms, "ShrunkSet", Unshrunk)
        with pytest.raises(EvaluationOutsideBaseSet, match="^seed 9, round 1: agent 2 perturbed "):
            run(FaultWherePositive(), network_of(4), RULES["gradient_free"], T=4,
                seeds=self.seeds, x0=x0)

    def test_infeasible_start(self):
        x0 = np.zeros((3, 4, 1))
        x0[2, 2, 0] = 9.995  # outside the shrunk box [-9.99, 9.99]
        with pytest.raises(OutOfFeasibleSet, match="^seed 9, round 1: agent 2 initial "):
            run(FaultWherePositive(), network_of(4), RULES["gradient_free"], T=4,
                seeds=self.seeds, x0=x0)


def network_of(n):
    return validate_weight_matrix(generator_matrix("ring", n=n, weight=0.3))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_traces(batch, singles):
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        for field in dataclasses.fields(Trace):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert same_bits(a, b), field.name
            else:
                assert a == b, field.name


# The rules' config sections, for configs built by the batched-engine tests.
RULE_SECTIONS = {
    "gradient_free": {"kind": "gradient_free", "step": {"c": 0.05, "p": 0.5}, "delta": 0.01},
    "exact_1d": {"kind": "projection_free", "line_search": "exact_1d"},
    "fixed_alpha0": {"kind": "projection_free", "line_search": "fixed_alpha0", "alpha0": 0.05},
    "clamped": {"kind": "projection_free", "line_search": "exact_1d", "clamp_to_feasible": True},
    "projected_gd": {"kind": "projected_gd", "step": {"c": 0.02, "p": 0.5}},
}
SEED_LISTS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5, unique=True)


class TestBatchedEngine:
    """A batch of seeds gives each seed the bits of its run alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        rule=st.sampled_from(sorted(RULE_SECTIONS)),
        n=st.integers(1, 5),
        d=st.integers(1, 3),
        T=st.integers(1, 30),
        topology=st.sampled_from(["ring", "complete"]),
        scales=st.lists(st.floats(0.5, 6.0), min_size=5, max_size=5),
        target=st.tuples(st.floats(-30.0, 30.0), st.sampled_from([0.0, 0.5, 2.0])),
        seeds=SEED_LISTS,
    )
    def test_quadratic_batch_is_each_seed_alone(self, rule, n, d, T, topology, scales, target, seeds):
        params = {"n": n, "weight": 0.3} if topology == "ring" else {"n": n}
        cfg = harness.ExperimentConfig.from_dict({
            "problem": {
                "stream": "quadratic", "horizon": T, "box": [[-10.0, 10.0]] * d,
                "scales": scales[:n], "target": list(target),
            },
            "topology": {"generator": topology, "params": params},
            "algorithm": RULE_SECTIONS[rule],
            "seeds": seeds,
        })
        batch = harness.run_seeds(cfg, seeds)
        assert_same_traces(batch, [harness.run_single(cfg, seed) for seed in seeds])

    @settings(max_examples=10, deadline=None)
    @given(
        rule=st.sampled_from(sorted(RULES)),
        n=st.integers(1, 5),
        T=st.integers(1, 20),
        level=st.floats(-50.0, 50.0),
        seeds=SEED_LISTS,
    )
    def test_base_class_batch_is_each_seed_alone(self, rule, n, T, level, seeds):
        stream, wm = ConstStream(level, n=n), network_of(n)
        x0 = np.linspace(-9.0, 9.0, n)[:, None]
        batch = run(stream, wm, RULES[rule], T, seeds=seeds, x0=x0)
        singles = [
            run(stream, wm, RULES[rule], T, seeds=[seed], x0=x0)[0]
            for seed in seeds
        ]
        assert_same_traces(batch, singles)
