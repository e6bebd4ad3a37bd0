import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr import metrics
from dffr.algorithms import StepSchedule
from dffr.errors import RhoNotGreaterThanLambda, RhoOutOfRange
from dffr.geometry import ShrunkSet
from dffr.metrics import (
    BoundInputs,
    consensus_error_decomposition_check,
    consensus_time,
    cumulative_regret,
    dffr,
    dffr_series,
    final_round_gap,
    first_time_below,
    forgetting_weighted_series,
    gradient_free_regret_bound,
    optimum_path_lengths,
    persistent_time_below,
    power_spike_gaps,
    projection_free_asymptote,
    projection_free_regret_bound,
    tracking_time,
)
from dffr.network import MixingConstants, mixing_constants, validate_weight_matrix
from dffr.trace import Trace


def direct_weighted_sum(values, rho):
    """Independent oracle: explicit powers, evaluated with exact exponents."""
    T = len(values)
    return sum(rho ** (T - t) * values[t - 1] for t in range(1, T + 1))


def reference_forgetting_series(values, rho):
    """The recurrence over NumPy scalars that the float loop replaced, kept as its reference."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    acc = 0.0
    with np.errstate(all="ignore"):
        for t in range(values.size):
            acc = rho * acc + values[t]
            out[t] = acc
    return out


# Any finite float (subnormals included), and the edges drawn on purpose.
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)


class TestDffr:
    def test_geometric_sum_example(self):
        trace = Trace.from_gap_sequence([1.0, 1.0, 1.0])
        assert dffr(trace, 0.5) == pytest.approx(1.75)

    def test_zero_gaps(self):
        trace = Trace.from_gap_sequence(np.zeros(10))
        assert dffr(trace, 0.9) == 0.0

    def test_rho_validation(self):
        trace = Trace.from_gap_sequence([1.0])
        for rho in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(RhoOutOfRange):
                dffr(trace, rho)

    def test_recurrence_matches_direct_sum(self, rng):
        values = rng.uniform(0.0, 5.0, size=10_000)
        series = forgetting_weighted_series(values, 0.97)
        direct = direct_weighted_sum(values, 0.97)
        assert series[-1] == pytest.approx(direct, rel=1e-9)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
        st.floats(0.05, 0.95),
    )
    def test_recurrence_property(self, gaps, rho):
        series = forgetting_weighted_series(np.array(gaps), rho)
        assert series[-1] == pytest.approx(direct_weighted_sum(gaps, rho), rel=1e-9, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(EDGE_FLOATS, max_size=40), st.floats(0.01, 0.99))
    def test_float_recurrence_has_the_scalar_loops_bits(self, values, rho):
        got = forgetting_weighted_series(values, rho)
        want = reference_forgetting_series(values, rho)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_final_gap_never_exceeds_regret(self, rng):
        for _ in range(20):
            gaps = rng.uniform(0.0, 3.0, size=rng.integers(2, 50))
            trace = Trace.from_gap_sequence(gaps)
            for rho in (0.1, 0.5, 0.9, 0.99):
                assert final_round_gap(trace) <= dffr(trace, rho) + 1e-9

    def test_gaps_nonnegative_on_benchmark_runs(
        self, alg2_fixed_trace, dogd_trace, alg1_traces
    ):
        # the per-round optimum really minimizes: every instantaneous term >= -1e-9
        for trace in (alg2_fixed_trace, dogd_trace, alg1_traces[0]):
            assert float(trace.gaps.min()) >= -1e-9

    def test_running_series_is_truncated_regret(self, rng):
        gaps = rng.uniform(0.0, 2.0, size=40)
        series = dffr_series(Trace.from_gap_sequence(gaps), 0.8)
        for T in (1, 7, 40):
            assert series[T - 1] == pytest.approx(
                dffr(Trace.from_gap_sequence(gaps[:T]), 0.8), rel=1e-12
            )


class TestGeometricLimit:
    def test_constant_gaps_approach_limit(self):
        m, rho = 2.0, 0.9
        limit = metrics.forgetting_sum_limit(m, rho)
        assert limit == pytest.approx(20.0)
        T = int(np.ceil(np.log(0.001 * (1 - rho) / m) / np.log(rho)))
        series = forgetting_weighted_series(np.full(T, m), rho)
        assert abs(series[-1] - limit) <= 0.001 * max(1.0, limit)

    def test_limit_validates_rho(self):
        with pytest.raises(RhoOutOfRange):
            metrics.forgetting_sum_limit(1.0, 1.0)


class TestSpikeSequence:
    def test_spike_positions(self):
        gaps = power_spike_gaps(81)
        assert list(np.flatnonzero(gaps) + 1) == [3, 9, 27, 81]
        assert gaps[0] == 0.0  # round 1 is not a spike

    def test_discriminates_from_average_regret(self):
        T = 81
        trace = Trace.from_gap_sequence(power_spike_gaps(T))
        avg = float(cumulative_regret(trace)[-1]) / T
        assert avg <= np.log(T) / np.log(3) / T
        assert dffr(trace, 0.9) >= 1.0

    def test_weighted_metric_pinned_along_spikes(self):
        for m in (2, 3, 4):
            T = 3**m
            trace = Trace.from_gap_sequence(power_spike_gaps(T))
            assert dffr(trace, 0.9) >= 0.9 ** (T - 3**m)  # = 1 at spike horizons


class TestTimesAndDiameters:
    def test_identical_states(self):
        trace = Trace.from_gap_sequence(np.zeros(5))
        assert consensus_time(trace, 0.001) == 1
        assert metrics.consensus_diameter_series(trace)[2] == 0.0

    def test_two_point_diameter(self):
        trace = Trace.from_gap_sequence(np.zeros(3))
        trace.x = np.zeros((3, 2, 1))
        trace.x[:, 0, 0] = -1.0
        trace.x[:, 1, 0] = 1.0
        assert metrics.consensus_diameter_series(trace)[0] == 2.0
        assert consensus_time(trace, 0.001) is None

    @pytest.mark.parametrize("n, d", [(3, 7000), (2, 100), (4, 0)], ids=["round-per-chunk", "many-chunks", "no-coordinates"])
    def test_chunked_diameter_is_the_whole_arrays(self, n, d):
        """The diameter over round chunks has the bits of the one over the
        whole (T, n, d) array, NaNs and infinities included."""
        rng = np.random.default_rng(4)
        T = 200
        trace = Trace.from_gap_sequence(np.zeros(T))
        trace.x = rng.standard_normal((T, n, d))
        if d:
            trace.x[5, 1, 0], trace.x[150, 0, d - 1], trace.x[99, 2 % n, 0] = np.nan, np.inf, -np.inf
        whole = (trace.x.max(axis=1) - trace.x.min(axis=1)).max(axis=1, initial=0.0)
        got = metrics.consensus_diameter_series(trace)
        assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))

    def test_persistence_semantics(self):
        series = np.array([0.5, 0.0005, 0.5, 0.0005, 0.0004, 0.0003])
        assert first_time_below(series, 0.001) == 2
        assert persistent_time_below(series, 0.001) == 4

    def test_tracking_time_pinned_at_optimum(self):
        trace = Trace.from_gap_sequence(np.zeros(4))
        assert tracking_time(trace, 0.001) == 1

    def test_threshold_validation(self):
        trace = Trace.from_gap_sequence(np.zeros(4))
        with pytest.raises(ValueError):
            consensus_time(trace, 0.0)


def make_inputs(T=50, n=4, lam=0.5, **overrides):
    fields = dict(
        F=np.zeros((T, n)),
        theta=np.zeros(T),
        nu=np.zeros(T),
        eps=np.zeros((T, n)),
        init_norms=np.zeros(n),
        d=1,
        L=10.0,
        L_s=2.0,
        L_1=100.0,
        M=10.0,
        r=10.0,
        gamma=1.1,
        lam=lam,
        delta=0.01,
    )
    fields.update(overrides)
    return BoundInputs(**fields)


# Each evaluator of a rho-dependent quantity, called at rho on make_inputs().
AT_RHO = {
    "sigma": lambda inputs, rho: inputs.sigma(rho),
    "gradient_free": lambda inputs, rho: gradient_free_regret_bound(inputs, rho, StepSchedule(c=0.1)),
    "projection_free": lambda inputs, rho: projection_free_regret_bound(inputs, rho, 0.002),
    "constant_step_asymptote": lambda inputs, rho: metrics.constant_step_asymptote(inputs, rho, 0.1),
    "optimal_constant_step": lambda inputs, rho: metrics.optimal_constant_step(inputs, rho),
    "projection_free_asymptote": lambda inputs, rho: projection_free_asymptote(inputs, rho, 0.002),
}


class TestBoundEvaluators:
    @pytest.mark.parametrize("rho", [0.4, 0.5])
    @pytest.mark.parametrize("name", sorted(AT_RHO))
    def test_rho_must_exceed_lambda(self, name, rho):
        with pytest.raises(RhoNotGreaterThanLambda):
            AT_RHO[name](make_inputs(lam=0.5), rho)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
    @pytest.mark.parametrize("name", sorted(AT_RHO))
    def test_rho_must_lie_in_the_unit_interval(self, name, rho):
        # lambda = -1 lies below every rho drawn, so only the range refuses
        with pytest.raises(RhoOutOfRange):
            AT_RHO[name](make_inputs(lam=-1.0), rho)

    def test_sigma_formula(self):
        inputs = make_inputs(lam=0.5, L=10.0, d=1)
        expected = 9.0 * 10.0 + (2.0 * 10.0 * 2.0 * 0.9**-2) / (1.0 - 0.5 / 0.9)
        assert inputs.sigma(0.9) == pytest.approx(expected, abs=1e-12)

    def test_sigma_blows_up_near_lambda(self):
        inputs = make_inputs(lam=0.5)
        assert inputs.sigma(0.5000001) > 100.0 * inputs.sigma(0.9)

    def test_zero_trace_surviving_terms(self):
        # F = theta = init = 0: only the sigma, smoothing, and terminal terms remain
        T, n, rho = 30, 4, 0.9
        inputs = make_inputs(T=T, n=n)
        sched = lambda t: 2.0 / np.sqrt(t)
        bound = gradient_free_regret_bound(inputs, rho, sched)
        alphas = np.array([sched(t) for t in range(1, T + 1)])
        expected = (
            (n * inputs.sigma(rho)**2 / 2.0) * forgetting_weighted_series(alphas, rho)
            + (inputs.delta / inputs.r) * inputs.L_1 * forgetting_weighted_series(np.ones(T), rho)
            + 2.0 * inputs.M**2 / alphas
        )
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_constant_step_approaches_asymptote(self):
        T = 4000
        inputs = make_inputs(T=T, lam=0.5)
        alpha = 0.05
        bound = gradient_free_regret_bound(inputs, 0.99, StepSchedule(c=alpha))
        asymptote = metrics.constant_step_asymptote(inputs, 0.99, alpha)
        assert bound[-1] == pytest.approx(asymptote, rel=0.01)

    def test_optimal_constant_step_first_order_condition(self):
        inputs, rho = make_inputs(), 0.9
        alpha = metrics.optimal_constant_step(inputs, rho)
        h = lambda a: a * inputs.sigma(rho)**2 * inputs.n / (2 * (1 - rho)) + 2 * inputs.M**2 / a
        assert h(alpha) <= min(h(alpha * 1.01), h(alpha * 0.99))

    def test_projection_free_zero_case_asymptote(self):
        T = 3000
        inputs = make_inputs(T=T, lam=0.5)
        alpha0 = 0.002
        bound = projection_free_regret_bound(inputs, 0.99, alpha0)
        expected_limit = projection_free_asymptote(inputs, 0.99, alpha0)
        assert bound[-1] == pytest.approx(expected_limit, rel=0.01)

    def test_projection_free_alpha0_validated(self):
        inputs = make_inputs()
        with pytest.raises(ValueError):
            projection_free_regret_bound(inputs, 0.9, 1.0)

    def test_bound_inputs_from_traces(self, paper_stream, alg2_fixed_trace):
        wm = validate_weight_matrix(
            [[0.56, 0.22, 0.0, 0.22],
             [0.22, 0.56, 0.22, 0.0],
             [0.0, 0.22, 0.56, 0.22],
             [0.22, 0.0, 0.22, 0.56]]
        )
        mc = mixing_constants(wm)
        inputs = BoundInputs.from_traces(
            [alg2_fixed_trace], paper_stream, MixingConstants(gamma=mc.gamma, lam=0.98625)
        )
        assert inputs.T == alg2_fixed_trace.T
        assert inputs.F.shape == (1000, 4)
        # increments recompute: |eps_t - eps_{t-1}| row-wise
        manual = np.abs(alg2_fixed_trace.eps_seq() - alg2_fixed_trace.eps_norm)
        assert inputs.F == pytest.approx(manual)


class TestOptimumPath:
    def test_path_lengths_on_shrunk_set(self, paper_stream):
        shrunk = ShrunkSet(paper_stream.box, 0.01)
        theta = optimum_path_lengths(paper_stream, shrunk, 10)
        assert theta.shape == (10,)
        # t=1: optimum clamps to 9.99; t=2: 3.6; t=3: 1.6
        assert theta[0] == pytest.approx(9.99 - 3.6)
        assert theta[1] == pytest.approx(3.6 - 1.6)
        assert np.all(theta >= 0.0)


class TestDecomposition:
    def test_consensus_initial_zero_steps(self):
        trace = Trace.from_gap_sequence(np.zeros(5))
        mc = mixing_constants(validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]]))
        report = consensus_error_decomposition_check(trace, mc)
        assert report.passed
        assert report.max_excess <= 0.0

    def test_holds_on_benchmark_runs(self, alg2_fixed_trace, dogd_trace, paper_mc):
        for trace in (alg2_fixed_trace, dogd_trace):
            report = consensus_error_decomposition_check(trace, paper_mc)
            assert report.passed, report

    def test_holds_on_gradient_free_run(self, alg1_traces, paper_mc):
        report = consensus_error_decomposition_check(alg1_traces[0], paper_mc)
        assert report.passed, report

    def test_inflated_errors_keep_inequality(self, alg2_fixed_trace, paper_mc):
        import copy

        trace = copy.deepcopy(alg2_fixed_trace)
        trace.eps_norm = trace.eps_norm * 10.0 + 0.1
        trace.final_eps_norm = trace.final_eps_norm * 10.0 + 0.1
        report = consensus_error_decomposition_check(trace, paper_mc)
        assert report.passed
