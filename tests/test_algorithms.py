import numpy as np
import pytest

from dffr import network
from dffr.algorithms import (
    AgentStates,
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
from dffr.errors import EvaluationOutsideBaseSet, NonFiniteInput, OutOfFeasibleSet
from dffr.geometry import BoxSet, ShrunkSet, lmo, sample_unit_sphere
from dffr.linesearch import golden_section
from dffr.network import generator_matrix, validate_weight_matrix
from dffr.objectives import ObjectiveStream, QuadraticTrackingFamily, paper_tracking_stream


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
        states = AgentStates.initial(np.zeros((4, 1)))
        u = sphere_draws(agent_rngs(0, 4), 1, 1)[0]
        gradient_free_step(states, paper_stream, wm4, shrunk, 1, 0.5, u)


class TestGradientFreeStep:
    def test_constant_loss_reduces_to_consensus(self, wm4):
        stream = ConstStream()
        shrunk = ShrunkSet(stream.box, 0.01)
        x0 = np.array([[1.0], [2.0], [3.0], [4.0]])
        states = AgentStates.initial(x0)
        new, g = gradient_free_step(
            states, stream, wm4, shrunk, 1, 0.7, sphere_draws(agent_rngs(3, 4), 1, 1)[0]
        )
        assert g == pytest.approx(np.zeros((4, 1)), abs=1e-12)
        assert new.x == pytest.approx(wm4.w @ x0)
        assert new.z == pytest.approx(wm4.w @ x0)

    def test_iterates_stay_in_shrunk_set(self, paper_stream, wm4):
        shrunk = ShrunkSet(paper_stream.box, 0.01)
        states = AgentStates.initial(np.zeros((4, 1)))
        u = sphere_draws(agent_rngs(11, 4), 59, 1)
        for t in range(1, 60):
            states, _ = gradient_free_step(
                states, paper_stream, wm4, shrunk, t, 2.0 / np.sqrt(t), u[t - 1]
            )
            assert np.all(np.abs(states.x) <= 9.99 + 1e-12)
            assert states.eps_norm == pytest.approx(
                np.linalg.norm(states.x - states.z, axis=1), abs=1e-12
            )


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
        states = AgentStates.initial(np.zeros((4, 1)))
        new = projection_free_step(
            states, paper_stream, wm4, paper_stream.box, 2,
            line_search="fixed_alpha0", alpha0=0.5,
        )
        assert new.x[0] == pytest.approx([5.0])  # 0 + 0.5 * (10 - 0)

    def test_consensus_case_is_convex_combination(self, paper_stream, wm4):
        x0 = np.full((4, 1), 2.0)
        states = AgentStates.initial(x0)
        new = projection_free_step(
            states, paper_stream, wm4, paper_stream.box, 3,
            line_search="fixed_alpha0", alpha0=0.25,
        )
        # z = x at consensus, so the step is (1-a) x + a v with v in the box
        assert np.all(np.abs(new.x) <= 10.0 + 1e-12)

    def test_exact_search_beats_grid(self, paper_stream, wm4, rng):
        states = AgentStates.initial(rng.uniform(-5, 5, size=(4, 1)))
        t = 4
        new = projection_free_step(
            states, paper_stream, wm4, paper_stream.box, t, line_search="exact_1d"
        )
        from dffr.geometry import lmo

        for i in range(4):
            h = lmo(paper_stream.box, paper_stream.gradient(i, t, states.x[i])) - states.x[i]
            z = new.z[i]
            f = lambda a: paper_stream.value(i, t, z + a * h, check=False)
            achieved = paper_stream.value(i, t, new.x[i], check=False)
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
        trace = run(stream, wm, box, cfg, T=200)
        final_gap = stream.value(0, 200, trace.x[-1, 0], check=False) - 0.0
        assert final_gap <= 1e-6


class TestProjectedGradientStep:
    def test_zero_gradient_is_pure_consensus(self, wm4):
        stream = ConstStream()
        x0 = np.array([[1.0], [2.0], [3.0], [4.0]])
        states = AgentStates.initial(x0)
        for t in range(1, 40):
            states = projected_gradient_step(states, stream, wm4, stream.box, t, 0.5)
        assert states.x == pytest.approx(np.full((4, 1), 2.5), abs=1e-6)

    def test_single_agent_matches_classical_pgd(self):
        box = BoxSet.symmetric(10.0)
        stream = QuadraticTrackingFamily(
            scales=(2.0,), target=(8.0, 1.0), box=box, horizon=50
        )
        wm = validate_weight_matrix([[1.0]])
        cfg = AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.1), seed=0)
        trace = run(stream, wm, box, cfg, T=20)
        x = 0.0
        for t in range(1, 20):
            grad = 2.0 * 2.0 * (2.0 * x - 8.0 / t)
            x = float(np.clip(x - 0.1 * grad, -10.0, 10.0))
            assert trace.x[t, 0, 0] == pytest.approx(x, abs=1e-12)


class TestRunEngine:
    def test_horizon_one_records_initial_state(self, paper_stream, wm4):
        cfg = AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.1))
        trace = run(paper_stream, wm4, paper_stream.box, cfg, T=1)
        assert trace.T == 1
        assert trace.x[0] == pytest.approx(np.zeros((4, 1)))
        assert trace.x_star[0] == pytest.approx([10.0])

    def test_same_seed_bit_identical(self, paper_stream, wm4):
        cfg = AlgorithmConfig(
            kind="gradient_free", step=StepSchedule(c=2.0, p=0.5), delta=0.01, seed=5
        )
        a = run(paper_stream, wm4, paper_stream.box, cfg, T=40)
        b = run(paper_stream, wm4, paper_stream.box, cfg, T=40)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.g_norm, b.g_norm)
        assert np.array_equal(a.final_eps_norm, b.final_eps_norm)

    def test_different_seeds_differ(self, paper_stream, wm4):
        base = dict(kind="gradient_free", step=StepSchedule(c=2.0, p=0.5), delta=0.01)
        a = run(paper_stream, wm4, paper_stream.box, AlgorithmConfig(seed=1, **base), T=40)
        b = run(paper_stream, wm4, paper_stream.box, AlgorithmConfig(seed=2, **base), T=40)
        assert not np.array_equal(a.x, b.x)

    def test_gradient_free_respects_shrunk_set(self, paper_stream, wm4):
        cfg = AlgorithmConfig(
            kind="gradient_free", step=StepSchedule(c=2.0, p=0.5), delta=0.01, seed=0
        )
        trace = run(paper_stream, wm4, paper_stream.box, cfg, T=80)
        assert np.max(np.abs(trace.x)) <= 9.99 + 1e-12

    def test_eps_norm_consistent_with_states(self, paper_stream, wm4):
        cfg = AlgorithmConfig(kind="projected_gd", step=StepSchedule(c=0.05), seed=0)
        trace = run(paper_stream, wm4, paper_stream.box, cfg, T=30)
        derived = np.linalg.norm(trace.x - trace.z, axis=2)
        assert trace.eps_norm == pytest.approx(derived, abs=1e-12)

    def test_infeasible_initialization_rejected(self, paper_stream, wm4):
        cfg = AlgorithmConfig(
            kind="gradient_free", step=StepSchedule(c=1.0), delta=0.01, seed=0
        )
        with pytest.raises(OutOfFeasibleSet):
            run(
                paper_stream, wm4, paper_stream.box, cfg, T=5,
                x0=np.full((4, 1), 9.995),
            )

    def test_deterministic_kinds_identical_across_runs(self, paper_stream, wm4):
        for kind, extra in (
            ("projection_free", dict(line_search="fixed_alpha0", alpha0=0.002)),
            ("projected_gd", dict(step=StepSchedule(c=2.0, p=1.0))),
        ):
            cfg = AlgorithmConfig(kind=kind, seed=0, **extra)
            a = run(paper_stream, wm4, paper_stream.box, cfg, T=50)
            b = run(paper_stream, wm4, paper_stream.box, cfg, T=50)
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

def reference_gradient_free_step(states, stream, wm, shrunk, t, alpha_t, u):
    n, d = states.x.shape
    g = np.empty((n, d))
    for i in range(n):
        g[i] = gradient_estimate(stream, i, t, states.x[i], shrunk.delta, u[i])
    z_new = wm.w @ states.x
    x_new = np.empty_like(states.x)
    for i in range(n):
        x_new[i] = shrunk.project(z_new[i] - alpha_t * g[i])
    return x_new, z_new, g


def reference_projection_free_step(states, stream, wm, box, t, line_search, alpha0, clamp):
    n, _ = states.x.shape
    v = np.empty_like(states.x)
    for i in range(n):
        v[i] = lmo(box, stream.gradient(i, t, states.x[i], check=False))
    z_new = wm.w @ states.x
    x_new = np.empty_like(states.x)
    for i in range(n):
        h = v[i] - states.x[i]
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


def reference_projected_gradient_step(states, stream, wm, box, t, alpha_t):
    z_new = wm.w @ states.x
    x_new = np.empty_like(states.x)
    for i in range(states.x.shape[0]):
        grad = stream.gradient(i, t, states.x[i], check=False)
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
        states = AgentStates.initial(np.tile(shrunk.project(np.zeros(d)), (n, 1)))
        for t in range(1, 21):
            x_ref, z_ref, g_ref = reference_gradient_free_step(
                states, stream, wm, shrunk, t, 0.02 / np.sqrt(t), u[t - 1]
            )
            states, g = gradient_free_step(
                states, stream, wm, shrunk, t, 0.02 / np.sqrt(t), u[t - 1]
            )
            assert np.array_equal(g, g_ref)
            assert np.array_equal(states.x, x_ref) and np.array_equal(states.z, z_ref)

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 1), (4, 3), (32, 10)])
    @pytest.mark.parametrize(
        "line_search, alpha0, clamp",
        [("exact_1d", None, False), ("fixed_alpha0", 0.05, False), ("exact_1d", None, True)],
    )
    def test_projection_free_matches_loop(self, n, d, line_search, alpha0, clamp):
        stream, wm, rng = ring_case(n, d, 2)
        states = AgentStates.initial(rng.uniform(-9.0, 9.0, size=(n, d)))
        for t in range(1, 21):
            x_ref, z_ref = reference_projection_free_step(
                states, stream, wm, stream.box, t, line_search, alpha0, clamp
            )
            states = projection_free_step(
                states, stream, wm, stream.box, t,
                line_search=line_search, alpha0=alpha0, clamp_to_feasible=clamp,
            )
            assert np.array_equal(states.x, x_ref) and np.array_equal(states.z, z_ref)

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 3), (32, 10)])
    def test_projected_gradient_matches_loop(self, n, d):
        stream, wm, rng = ring_case(n, d, 3)
        states = AgentStates.initial(rng.uniform(-9.0, 9.0, size=(n, d)))
        for t in range(1, 21):
            x_ref, z_ref = reference_projected_gradient_step(
                states, stream, wm, stream.box, t, 0.02
            )
            states = projected_gradient_step(states, stream, wm, stream.box, t, 0.02)
            assert np.array_equal(states.x, x_ref) and np.array_equal(states.z, z_ref)

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
            run(stream, wm4, stream.box, cfg, T=6)

    def test_probe_outside_box_names_round_and_agent(self, paper_stream, wm4):
        shrunk = ShrunkSet(paper_stream.box, 0.01)
        states = AgentStates.initial(np.array([[0.0], [9.995], [0.0], [0.0]]))
        with pytest.raises(EvaluationOutsideBaseSet, match="round 7: agent 1 "):
            gradient_free_step(
                states, paper_stream, wm4, shrunk, 7, 0.1, np.ones((4, 1))
            )


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
            run(paper_stream, wm4, paper_stream.box, RULES[kind], T=3, x0=np.zeros((4, 1)))

    @pytest.mark.parametrize("kind", ["gradient_free", "clamped", "projected_gd"])
    def test_projection_goes_through_the_set(self, kind, paper_stream, wm4, monkeypatch):
        # x0 is given, so the engine needs no projection before round 1
        monkeypatch.setattr(BoxSet, "project", bypassed)
        monkeypatch.setattr(ShrunkSet, "project", bypassed)
        with pytest.raises(Bypassed):
            run(paper_stream, wm4, paper_stream.box, RULES[kind], T=3, x0=np.zeros((4, 1)))

    def test_unclamped_projection_free_never_projects(self, paper_stream, wm4, monkeypatch):
        monkeypatch.setattr(BoxSet, "project", bypassed)
        run(paper_stream, wm4, paper_stream.box, RULES["exact_1d"], T=3, x0=np.zeros((4, 1)))
