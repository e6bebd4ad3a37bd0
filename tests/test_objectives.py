import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr.errors import IndexOutOfRange, OracleDisagreement, OutOfFeasibleSet
from dffr.geometry import BoxSet, ShrunkSet
from dffr.linesearch import golden_section
from dffr.objectives import (
    ObjectiveStream,
    QuadraticTrackingFamily,
    round_optimum,
    round_optimum_grid,
    verify_assumptions,
)


class ZeroStream(ObjectiveStream):
    """Constant-zero losses; degenerate bounds L = L_s = L_1 = 0 are legitimate."""

    def __init__(self, n=2, box=None, horizon=10):
        super().__init__(n, (box or BoxSet.symmetric(1.0)).d, horizon,
                         box or BoxSet.symmetric(1.0), 0.0, 0.0, 0.0)

    def _value(self, i, t, x):
        return 0.0

    def _gradient(self, i, t, x):
        return np.zeros(self.d)


def row_dots(a, b=None):
    """<a[..., k, :], b[..., k, :]> per row, in the matmul form the quadratic family uses."""
    b = a if b is None else b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class OwnTargets(ObjectiveStream):
    """Losses f_i^t(x) = ||x - c_i / t||^2, each agent with its own target c_i in
    R^d: a stream outside the quadratic family, with closed forms of its own."""

    def __init__(self, n, d, seed):
        rng = np.random.default_rng(seed)
        box = BoxSet(-rng.uniform(1.0, 20.0, d), rng.uniform(1.0, 20.0, d))
        self.offsets = rng.uniform(-30.0, 30.0, size=(n, d))
        super().__init__(n, d, 50, box, 0.0, 2.0, 0.0)
        self.rng = rng

    def _targets(self, first, rows):
        """c_i / t for rounds first..first + rows - 1, shape (R, n, d)."""
        return self.offsets / np.arange(first, first + rows)[:, None, None]

    def _value(self, i, t, x):
        residual = x - self.offsets[i] / t
        return float(np.dot(residual, residual))

    def _gradient(self, i, t, x):
        return 2.0 * (x - self.offsets[i] / t)

    def values_over_rounds(self, first, X):
        X = self._points(first, X, self.n, lead=1)
        return row_dots(X - self._targets(first, X.shape[-3]))

    def average_values_over_rounds(self, first, X):
        X = self._points(first, X, lead=1)
        c = self._targets(first, X.shape[-3])
        total = 0.0
        for j in range(self.n):
            total += row_dots(X - c[:, j, None, :])
        return total / self.n

    def gradients(self, t, X):
        X = self._points(t, X, self.n)
        return 2.0 * (X - self.offsets / t)

    def line_search_coefficients(self, t, base, direction):
        base = self._points(t, base, self.n)
        direction = self._points(t, direction, self.n)
        denom = row_dots(direction)
        numer = row_dots(self.offsets / t - base, direction)
        raw = np.divide(numer, denom, out=np.zeros(denom.shape), where=denom != 0.0)
        return np.clip(raw, 0.0, 1.0)

    def _optimum_points(self, first, last, set_):
        # the average loss is separable, so its box minimizer is the clamped mean target
        return set_.project(self._targets(first, last - first + 1).mean(axis=1))


class TestEvaluators:
    def test_benchmark_value(self, paper_stream):
        # scale-1 agent, t=2: target 60/4 = 15, so f(3.6) = (3.6-15)^2
        assert paper_stream.value(0, 2, [3.6]) == pytest.approx(129.96)

    def test_zero_at_own_target(self, paper_stream):
        for t in (1, 3, 17):
            target = 60.0 / t**2 / 6.0
            if abs(target) <= 10.0:
                assert paper_stream.value(3, t, [target]) == pytest.approx(0.0, abs=1e-20)

    def test_gradient_chain_rule(self, paper_stream):
        # scale-2 agent: gradient is 2*2*(2x - 60/t^2)
        for t, x in ((2, 0.3), (5, -1.2)):
            expected = 4.0 * (2.0 * x - 60.0 / t**2)
            assert paper_stream.gradient(1, t, [x]) == pytest.approx([expected])

    def test_membership_enforced(self, paper_stream):
        with pytest.raises(OutOfFeasibleSet):
            paper_stream.value(0, 1, [10.5])
        assert paper_stream.value(0, 1, [10.5], check=False) > 0

    def test_index_checks(self, paper_stream):
        with pytest.raises(IndexOutOfRange):
            paper_stream.value(4, 1, [0.0])
        with pytest.raises(IndexOutOfRange):
            paper_stream.value(0, 0, [0.0])

    def test_target_path_values(self, paper_stream):
        assert paper_stream.target(1) == pytest.approx([60.0])
        assert paper_stream.target(2) == pytest.approx([15.0])
        assert paper_stream.target(10) == pytest.approx([0.6])

    def test_gradient_matches_finite_differences(self, paper_stream, rng):
        h = 1e-6 * 20.0
        worst = 0.0
        for _ in range(1000):
            i = int(rng.integers(4))
            t = int(rng.integers(1, 100))
            x = rng.uniform(-9.9, 9.9)
            fd = (
                paper_stream.value(i, t, [x + h], check=False)
                - paper_stream.value(i, t, [x - h], check=False)
            ) / (2.0 * h)
            grad = paper_stream.gradient(i, t, [x])[0]
            scale = max(1.0, abs(grad))
            worst = max(worst, abs(fd - grad) / scale)
        assert worst < 1e-5


class TestConstants:
    def test_benchmark_constants(self, paper_stream):
        assert paper_stream.L == pytest.approx(1440.0)
        assert paper_stream.L_s == pytest.approx(72.0)
        assert paper_stream.L_1 == pytest.approx(14400.0)

    def test_constants_bound_samples(self, paper_stream, rng):
        for _ in range(500):
            i = int(rng.integers(4))
            t = int(rng.integers(1, 50))
            x = np.array([rng.uniform(-10, 10)])
            assert abs(paper_stream.value(i, t, x)) <= paper_stream.L_1 + 1e-9
            assert np.linalg.norm(paper_stream.gradient(i, t, x)) <= paper_stream.L + 1e-9


box_rows = st.tuples(st.integers(-10, -1), st.integers(1, 10)).map(lambda row: [float(v) for v in row])


@st.composite
def power_streams(draw):
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(box_rows, min_size=1, max_size=d))
    rows = (rows * d)[:d]  # one shared row, or rows that differ
    box = BoxSet(*np.array(rows).T)
    scales = draw(st.lists(st.floats(0.25, 8.0), min_size=1, max_size=3))
    # Targets near an agent's box midpoints, where the worst case is nearly flat in c.
    midpoints = [[scale * (lower + upper) / 2 for lower, upper in rows] for scale in scales]
    near = [(u + v) / 2 for agent in midpoints for u in agent for v in agent]
    amplitude = draw(st.one_of(st.floats(-100.0, 100.0), st.sampled_from(near)))
    power = draw(st.one_of(st.sampled_from([0.0, 1e-14, 1e-12, 0.5, 2.0, -0.5]), st.floats(-3.0, 3.0)))
    horizon = draw(st.integers(1, 300))
    return QuadraticTrackingFamily(scales, (amplitude, power), box, horizon)


@st.composite
def mixed_power_streams(draw):
    """Power paths over boxes whose rows differ, so that a path can run between
    box midpoints; targets near the midpoints make the worst case nearly flat."""
    d = draw(st.integers(2, 6))
    tenths = st.tuples(st.integers(-100, -5), st.integers(5, 100)).map(lambda row: [v / 10 for v in row])
    rows = draw(st.lists(tenths, min_size=2, max_size=d).filter(lambda rows: rows[0] != rows[1]))
    box = BoxSet(*np.array((rows * d)[:d]).T)
    scales = draw(st.lists(st.floats(0.25, 8.0), min_size=1, max_size=3))
    midpoints = [scale * (lower + upper) / 2 for scale in scales for lower, upper in rows]
    near = [(u + v) / 2 for u in midpoints for v in midpoints]
    amplitude = draw(st.one_of(st.floats(-100.0, 100.0), st.sampled_from(near)))
    power = draw(st.one_of(st.sampled_from([1e-14, 1e-12, 1e-9, 0.5, 2.0, -0.5]), st.floats(-3.0, 3.0)))
    horizon = draw(st.integers(2, 2000))
    return QuadraticTrackingFamily(scales, (amplitude, power), box, horizon)


def worst_per_agent(stream, c) -> list[float]:
    lower, upper = stream.box.lower, stream.box.upper
    return [
        float(np.max(np.sum(np.maximum(np.abs(a * lower - c), np.abs(a * upper - c))**2, axis=1)))
        for a in stream.scales
    ]


def assert_two_end_constants(stream, tabled_constants):
    """L, L_s and L_1 are the bits of c(1) and c(horizon) alone: the whole
    table's with one box row, else at most a relative (d + 4) * 2**-50 below
    them, the rounding an interior round can add where the worst case is
    nearly flat."""
    ends, table = tabled_constants(stream, ends=True), tabled_constants(stream)
    assert (stream.L, stream.L_s, stream.L_1) == ends
    box = stream.box
    if np.all(box.lower == box.lower[0]) and np.all(box.upper == box.upper[0]):
        assert ends == table
    else:
        slack = 1.0 - (stream.d + 4) * 2.0**-50
        for got, want in zip(ends, table):
            assert want * slack <= got <= want


class TestTwoRowConstants:
    """A power path's L, L_s and L_1 read c(1) and c(horizon) only: each
    agent's worst case is convex in c, so on a monotone path it peaks at an
    end.  They are the table's bits unless rounding lifts an interior round,
    which it can only over mixed box rows where the worst case is nearly
    flat.  The table itself fills on demand."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_power_streams())
    def test_rows_read_hold_each_agents_tabled_maximum(self, tabled_constants, stream):
        assert_two_end_constants(stream, tabled_constants)

    def test_a_nearly_flat_path_reads_the_rows_next_to_its_ends(self, tabled_constants):
        # c(t) = -0.93 / t**1e-12 moves by ulps; agent 3.35's midpoints -0.5025
        # and -5.1925 lie on either side of it, and both agents' tabled worst
        # cases sit inside the range, at rounds 179 and 182: the ends' constants
        # are within the rounding tolerance below the table's.
        box = BoxSet(np.array([-6.1, -9.2]), np.array([5.8, 6.1]))
        stream = QuadraticTrackingFamily((0.6, 3.35), (-0.9299999999999998, 1e-12), box, 183)
        table = np.broadcast_to(stream.targets(1, 183)[:, None], (183, 2))
        assert worst_per_agent(stream, table[[0, -1]]) != worst_per_agent(stream, table)
        assert_two_end_constants(stream, tabled_constants)

    def test_a_path_between_midpoints_reads_two_rows(self, tabled_constants):
        # Box midpoints 2.5*a and 0 alternate; c(t) = 8/sqrt(t) crosses every
        # 2.5*a, so terms move both ways over rounds 5..1000, but the sum is far
        # from flat and its worst case sits at round 1, with the table's bits.
        box = BoxSet(np.array([-5.0, -10.0] * 5), np.array([10.0, 10.0] * 5))
        stream = QuadraticTrackingFamily(np.linspace(0.5, 1.5, 50), (8.0, 0.5), box, 1000)
        assert_two_end_constants(stream, tabled_constants)
        assert (stream.L, stream.L_s, stream.L_1) == tabled_constants(stream)

    @settings(max_examples=300, deadline=None)
    @given(power_streams())
    def test_constants_are_the_tabled_maximum(self, tabled_constants, stream):
        assert_two_end_constants(stream, tabled_constants)

    @pytest.mark.parametrize("scales", [(1.0,), (0.1, 1.0)])
    def test_a_path_across_different_midpoints_reads_the_table(self, tabled_constants, scales):
        # Agent 1.0 has midpoints 1 and -2.5; c(t) = -0.75 / t**1e-14 moves by
        # ulps between them, and its tabled worst case lies inside rounds 1..10.
        # Agent 0.1's midpoints are both above c, so its worst case is at round 10.
        box = BoxSet(np.array([-4.0, -8.0]), np.array([6.0, 3.0]))
        stream = QuadraticTrackingFamily(scales, (-0.75, 1e-14), box, 10)
        c = np.array([[-0.75 / t**1e-14] for t in range(1, 11)])
        ends = np.sum(np.maximum(np.abs(box.lower - c), np.abs(box.upper - c))**2, axis=1)
        assert np.max(ends) > max(ends[0], ends[-1])
        assert_two_end_constants(stream, tabled_constants)

    def test_power_path_builds_no_table(self):
        stream = QuadraticTrackingFamily((1.0, 2.0), (60.0, 2.0), BoxSet.symmetric(10.0), 1000)
        assert (stream.L, stream.L_s, stream.L_1) == (320.0, 8.0, 6400.0)
        assert stream.targets(1, 3).tolist() == [60.0, 15.0, 60.0 / 9]
        # One shared box row: the path crosses the midpoint 1.
        shared = BoxSet(np.array([-4.0, -4.0]), np.array([6.0, 6.0]))
        stream = QuadraticTrackingFamily((1.0,), (60.0, 2.0), shared, 10**6)
        assert stream.L_1 == 2 * 64.0**2  # c(1) = 60 against the corner -4


class TestRoundOptimum:
    def test_round_one_clamps(self, paper_stream):
        # unconstrained (1+2+3+6)*60 / (1+4+9+36) = 14.4, clamped to 10
        opt = round_optimum(paper_stream, 1)
        assert opt.x_star == pytest.approx([10.0])

    def test_round_two_interior(self, paper_stream):
        assert round_optimum(paper_stream, 2).x_star == pytest.approx([3.6])

    def test_large_round_approaches_zero(self, paper_stream):
        assert abs(round_optimum(paper_stream, 500).x_star[0]) < 1e-3

    def test_agrees_with_grid(self, paper_stream):
        for t in (1, 2, 3, 10, 50):
            closed = round_optimum(paper_stream, t, cross_check=True, pitch=0.001)
            grid = round_optimum_grid(paper_stream, t, pitch=0.001)
            assert abs(closed.f_star - grid.f_star) <= 1e-5

    def test_disagreement_raises(self, paper_stream):
        class LyingFamily(QuadraticTrackingFamily):
            def _optimum_points(self, first, last, set_):
                return super()._optimum_points(first, last, set_) + 1.0

        liar = LyingFamily(
            scales=(1.0, 2.0, 3.0, 6.0),
            target=(60.0, 2.0),
            box=BoxSet.symmetric(10.0),
            horizon=100,
        )
        with pytest.raises(OracleDisagreement):
            round_optimum(liar, 5, cross_check=True, pitch=0.001)

    def test_shrunk_set_path(self, paper_stream):
        shrunk = ShrunkSet(paper_stream.box, delta=0.01)
        opt = round_optimum(paper_stream, 1, shrunk)
        assert opt.x_star == pytest.approx([9.99])


class TestAssumptionChecks:
    def test_benchmark_passes(self, paper_stream, rng):
        report = verify_assumptions(paper_stream, paper_stream.box, 2000, rng)
        assert report.passed
        assert report.convexity_violation <= 1e-9

    def test_halved_gradient_bound_flagged(self, paper_stream, rng):
        report = verify_assumptions(
            paper_stream, paper_stream.box, 2000, rng, L=paper_stream.L / 2.0
        )
        assert not report.passed
        assert report.gradient_excess > 0.0

    def test_zero_stream_degenerate_bounds(self, rng):
        stream = ZeroStream()
        report = verify_assumptions(stream, stream.box, 200, rng)
        assert report.passed


class TestQuadraticFamily:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            QuadraticTrackingFamily(
                scales=(1.0, 0.0), target=(1.0, 1.0),
                box=BoxSet.symmetric(1.0), horizon=5,
            )

    def test_target_past_the_table_is_the_scalar_path(self):
        # At p = 1.3, NumPy's t**p differs from Python's in the last bit at
        # t = 5, 56, 64, ...; every round, past the horizon too, is the scalar path's.
        stream = QuadraticTrackingFamily(
            scales=(1.0, 2.0), target=(7.0, 1.3), box=BoxSet.symmetric(5.0, d=3), horizon=10,
        )
        path = lambda t: 7.0 / t**1.3
        assert stream.targets(1, 300).tolist() == [path(t) for t in range(1, 301)]
        assert stream.targets(56, 64).tolist() == [path(t) for t in range(56, 65)]
        for t in (64, 5, 11, 300, 56):
            assert stream.target(t).tolist() == [path(t)] * 3

    def test_batch_average_matches_scalar(self, paper_stream, rng):
        points = rng.uniform(-10, 10, size=(50, 1))
        batch = paper_stream.batch_average_value(3, points)
        scalar = [paper_stream.average_value(3, p, check=False) for p in points]
        assert batch == pytest.approx(scalar)

    def test_line_minimum_coefficient(self, paper_stream, rng):
        # vertex of the 1-D quadratic along the segment
        for _ in range(50):
            i = int(rng.integers(4))
            t = int(rng.integers(1, 30))
            base = rng.uniform(-5, 5, size=1)
            direction = rng.uniform(-10, 10, size=1)
            if abs(direction[0]) < 1e-6:
                continue
            alpha = paper_stream.line_minimum_coefficient(i, t, base, direction)
            f = lambda a: paper_stream.value(i, t, base + a * direction, check=False)
            assert f(alpha) <= min(f(alpha - 1e-4), f(alpha + 1e-4)) + 1e-12


def quadratic_case(n, d, seed):
    """A random quadratic stream with n agents in d dimensions, and an RNG for points."""
    rng = np.random.default_rng(seed)
    box = BoxSet(-rng.uniform(1.0, 20.0, d), rng.uniform(1.0, 20.0, d))
    power = float(rng.choice([0.0, 0.5, 1.3, 2.0]))
    stream = QuadraticTrackingFamily(
        scales=rng.uniform(0.5, 6.0, n),
        target=(float(rng.uniform(-30.0, 30.0)), power),
        box=box,
        horizon=50,
    )
    return stream, rng


CASES = st.tuples(
    st.sampled_from([1, 4, 32]), st.sampled_from([1, 3, 10]), st.integers(0, 2**32 - 1)
)


class TestBatchedEvaluators:
    """The batched evaluators give the scalar evaluators' bits (==, not approx)."""

    @staticmethod
    def check_against_scalar(stream, rng):
        n, d = stream.n, stream.d
        for t in (1, 2, int(rng.integers(3, 80))):
            X = rng.uniform(-25.0, 25.0, size=(n, d))
            points = rng.uniform(-25.0, 25.0, size=(5, d))
            assert np.array_equal(
                stream.values(t, X),
                [stream.value(i, t, X[i], check=False) for i in range(n)],
            )
            assert np.array_equal(
                stream.gradients(t, X),
                np.stack([stream.gradient(i, t, X[i], check=False) for i in range(n)]),
            )
            assert np.array_equal(
                stream.average_values(t, points),
                [stream.average_value(t, p, check=False) for p in points],
            )

    @settings(max_examples=40, deadline=None)
    @given(CASES)
    def test_quadratic_matches_scalar(self, case):
        self.check_against_scalar(*quadratic_case(*case))

    @staticmethod
    def check_leading_axes(stream, rng):
        """Each evaluator of a (2, 3, rows, d) stack gives the bits of a loop over its slices."""
        n, d = stream.n, stream.d
        t = int(rng.integers(1, 80))
        X = rng.uniform(-25.0, 25.0, size=(2, 3, n, d))
        H = rng.uniform(-25.0, 25.0, size=(2, 3, n, d))
        H[1, 2, 0] = 0.0  # a zero direction
        for got, per_slice in (
            (stream.values(t, X), [stream.values(t, x) for x in X.reshape(-1, n, d)]),
            (stream.gradients(t, X), [stream.gradients(t, x) for x in X.reshape(-1, n, d)]),
            (stream.average_values(t, X), [stream.average_values(t, x) for x in X.reshape(-1, n, d)]),
            (
                stream.line_search_coefficients(t, X, H),
                [stream.line_search_coefficients(t, x, h)
                 for x, h in zip(X.reshape(-1, n, d), H.reshape(-1, n, d))],
            ),
        ):
            assert got.shape == (2, 3) + per_slice[0].shape
            assert np.array_equal(got.reshape((6,) + per_slice[0].shape), per_slice)
        # the middle axis as rounds t, t + 1, t + 2
        rounds = stream.average_values_over_rounds(t, X)
        own = stream.values_over_rounds(t, X)
        assert rounds.shape == own.shape == (2, 3, n)
        for k in range(3):
            assert np.array_equal(rounds[:, k], stream.average_values(t + k, X[:, k]))
            assert np.array_equal(own[:, k], stream.values(t + k, X[:, k]))

    @settings(max_examples=30, deadline=None)
    @given(CASES)
    def test_quadratic_leading_axes_are_slices(self, case):
        self.check_leading_axes(*quadratic_case(*case))

    def test_average_loss_adds_agents_in_order(self):
        """At n = 32, d = 10 the rounds-axis average loss has the bits of the scalar
        loop, on an (S, R, m, d) stack with m != n and on the optimum path's
        (R, 1, d) shape, for points where a pairwise agent sum (``np.sum``) differs."""
        stream, rng = quadratic_case(32, 10, 11)
        first = 4
        for X in (
            rng.uniform(-15.0, 15.0, size=(2, 3, 5, 10)),
            rng.uniform(-15.0, 15.0, size=(6, 1, 10)),
            rng.uniform(-15.0, 15.0, size=(1, 1, 10)),
        ):
            got = stream.average_values_over_rounds(first, X)
            assert got.shape == X.shape[:-1]
            pairwise = []
            for index in np.ndindex(X.shape[:-1]):
                t, x = first + index[-2], X[index]
                assert got[index] == stream.average_value(t, x, check=False)
                each = [stream.value(i, t, x, check=False) for i in range(32)]
                pairwise.append(float(np.sum(each)) != sum(each))
            # the points tell the sequential order from numpy's pairwise one
            assert any(pairwise)

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 1), (4, 3), (32, 10)])
    def test_line_search_matches_scalar(self, n, d):
        stream, rng = quadratic_case(n, d, 7)
        for t in (1, 3, 40):
            base = rng.uniform(-10.0, 10.0, size=(n, d))
            direction = rng.uniform(-20.0, 20.0, size=(n, d))
            direction[0] = 0.0  # a zero direction gives 0
            closed = stream.line_search_coefficients(t, base, direction)
            expected = [0.0] + [
                min(1.0, max(0.0, stream.line_minimum_coefficient(i, t, base[i], direction[i])))
                for i in range(1, n)
            ]
            assert np.array_equal(closed, expected)
            # reference: golden-section search over each agent's own losses
            searched = [0.0] + [
                golden_section(
                    lambda a: stream.value(i, t, base[i] + a * direction[i], check=False),
                    0.0, 1.0, tol=1e-10,
                )
                for i in range(1, n)
            ]
            assert searched == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 3), (32, 10)])
    def test_optimum_path_matches_round_optimum(self, n, d):
        stream, _ = quadratic_case(n, d, 3)
        shrunk = ShrunkSet(stream.box, delta=0.01)
        for set_ in (None, shrunk):
            x_star, f_star = stream.optimum_path(60, set_)
            assert x_star.shape == (60, d) and f_star.shape == (60,)
            bounds = stream.box if set_ is None else set_
            for t in range(1, 61):
                # reference: the per-round clamped closed form the path replaced
                x_ref = np.clip(stream.unconstrained_optimum(t), bounds.lower, bounds.upper)
                f_ref = stream.average_value(t, x_ref, check=False)
                opt = round_optimum(stream, t, set_)
                assert np.array_equal(x_star[t - 1], x_ref) and f_star[t - 1] == f_ref
                assert np.array_equal(opt.x_star, x_ref) and opt.f_star == f_ref
            # a shorter request gives the same rounds; a repeated one, new arrays of the same bits
            assert np.array_equal(stream.optimum_path(10, set_)[1], f_star[:10])
            for again, first in zip(stream.optimum_path(60, set_), (x_star, f_star)):
                assert np.array_equal(again, first) and not np.shares_memory(again, first)

    @settings(max_examples=15, deadline=None)
    @given(CASES)
    def test_own_stream_matches_scalar(self, case):
        """The base class's one-round slices give a non-family stream's scalar bits."""
        stream = OwnTargets(*case)
        self.check_against_scalar(stream, stream.rng)

    @settings(max_examples=5, deadline=None)
    @given(st.sampled_from([1, 4]), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
    def test_own_stream_leading_axes_are_slices(self, n, d, seed):
        stream = OwnTargets(n, d, seed)
        self.check_leading_axes(stream, stream.rng)

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 1), (3, 2)])
    def test_optimum_path_reads_the_streams_optimum_points(self, n, d):
        """For a non-family stream, ``optimum_path`` and ``round_optimum`` give the
        clamped mean target and its scalar average loss, round by round."""
        stream = OwnTargets(n, d, 5)
        x_star, f_star = stream.optimum_path(12)
        assert x_star.shape == (12, d) and f_star.shape == (12,)
        for t in range(1, 13):
            x_ref = np.clip(stream.offsets.mean(axis=0) / t, stream.box.lower, stream.box.upper)
            f_ref = stream.average_value(t, x_ref, check=False)
            opt = round_optimum(stream, t, cross_check=d == 1, pitch=0.001)
            assert x_star[t - 1] == pytest.approx(x_ref, abs=1e-12)
            assert np.array_equal(opt.x_star, x_star[t - 1])
            assert f_star[t - 1] == opt.f_star == stream.average_value(t, opt.x_star, check=False)
            assert opt.f_star == pytest.approx(f_ref, rel=1e-12, abs=1e-12)

    def test_a_stream_without_the_batched_forms_has_no_fallback(self):
        """A stream that supplies only ``_value`` and ``_gradient`` has no batched
        evaluators: the base class loops over nothing on its behalf."""
        stream = ZeroStream(n=2)
        assert stream.value(1, 3, [0.5]) == 0.0
        for call in (
            lambda: stream.values(1, np.zeros((2, 1))),
            lambda: stream.average_values(1, np.zeros((3, 1))),
            lambda: stream.gradients(1, np.zeros((2, 1))),
            lambda: stream.optimum_path(4),
        ):
            with pytest.raises(AttributeError):
                call()

    def test_point_shapes_checked(self, paper_stream):
        with pytest.raises(ValueError):
            paper_stream.values(1, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            paper_stream.average_values(1, np.zeros(4))
        with pytest.raises(ValueError):  # no rounds axis
            paper_stream.average_values_over_rounds(1, np.zeros((4, 1)))
        with pytest.raises(IndexOutOfRange):
            paper_stream.gradients(0, np.zeros((4, 1)))
