import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr.errors import NonFiniteInput, PointNotInSet
from dffr.geometry import (
    BoxSet,
    ShrunkSet,
    ball_batch,
    lmo,
    minkowski_containment_check,
    projection_inequality_gap,
    sample_unit_ball,
    sample_unit_sphere,
    sphere_batch,
)


def boxes(d):
    """Random origin-containing boxes of dimension d."""
    bound = st.floats(min_value=0.1, max_value=50.0)
    return st.tuples(
        st.lists(bound, min_size=d, max_size=d),
        st.lists(bound, min_size=d, max_size=d),
    ).map(lambda lu: BoxSet(-np.array(lu[0]), np.array(lu[1])))


class TestBoxSet:
    def test_interval_fields(self):
        box = BoxSet.symmetric(10.0)
        assert box.d == 1
        assert box.r == box.R == 10.0

    def test_asymmetric_fields(self):
        box = BoxSet([-1.0, -3.0], [2.0, 1.0])
        assert box.r == 1.0
        assert box.R == pytest.approx(np.sqrt(13.0))
        assert 0 < box.r <= box.R

    def test_rejects_origin_on_boundary(self):
        with pytest.raises(ValueError):
            BoxSet([0.0], [1.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxSet([1.0], [-1.0])

    def test_boxes_compare_and_hash_by_identity(self):
        a, b = BoxSet.symmetric(1.0, d=2), BoxSet.symmetric(1.0, d=2)
        shrunk = ShrunkSet(a, 0.1)
        assert a == a and a != b
        assert shrunk == shrunk and shrunk != ShrunkSet(a, 0.1)
        assert len({a, b, a, shrunk, shrunk}) == 3


class TestProjection:
    def test_clamps_outside_point(self):
        box = BoxSet.symmetric(10.0)
        assert box.project([14.4]) == pytest.approx([10.0])

    def test_identity_inside(self):
        box = BoxSet.symmetric(10.0)
        assert box.project([3.7]) == pytest.approx([3.7])

    def test_shrunk_clamp(self):
        shrunk = ShrunkSet(BoxSet.symmetric(10.0), delta=0.01)
        assert shrunk.factor == pytest.approx(0.999)
        assert shrunk.project([14.4]) == pytest.approx([9.99])

    def test_nonfinite_rejected(self):
        box = BoxSet.symmetric(1.0)
        with pytest.raises(NonFiniteInput):
            box.project([np.nan])
        with pytest.raises(NonFiniteInput):
            box.project([[0.0], [np.inf]])

    @settings(max_examples=200)
    @given(boxes(3), st.lists(st.floats(-100, 100), min_size=3, max_size=3))
    def test_idempotent(self, box, y):
        once = box.project(y)
        assert np.array_equal(box.project(once), once)

    @settings(max_examples=200)
    @given(
        boxes(2),
        st.lists(st.floats(-100, 100), min_size=2, max_size=2),
        st.lists(st.floats(-100, 100), min_size=2, max_size=2),
    )
    def test_nonexpansive(self, box, a, b):
        pa, pb = box.project(a), box.project(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(np.array(a) - np.array(b)) + 1e-12

    @settings(max_examples=100)
    @given(
        boxes(3),
        st.floats(0.01, 0.09),
        st.lists(st.lists(st.floats(-100, 100), min_size=3, max_size=3), min_size=1, max_size=5),
    )
    def test_rows_are_projected_one_by_one(self, box, delta, rows):
        for set_ in (box, ShrunkSet(box, delta)):
            projected = set_.project(rows)
            assert np.array_equal(projected, [set_.project(row) for row in rows])

    @pytest.mark.parametrize("y", [1.0, [1.0], [[1.0]], np.zeros((1, 1, 2))])
    def test_wrong_shape_rejected(self, y):
        with pytest.raises(ValueError, match="box has dimension 2"):
            BoxSet.symmetric(1.0, d=2).project(y)


class TestLmo:
    box = BoxSet.symmetric(10.0)

    def test_positive_gradient_picks_lower(self):
        assert lmo(self.box, [3.0]) == pytest.approx([-10.0])

    def test_negative_gradient_picks_upper(self):
        assert lmo(self.box, [-3.0]) == pytest.approx([10.0])

    def test_zero_tie_breaks_to_lower(self):
        assert lmo(self.box, [0.0]) == pytest.approx([-10.0])

    def test_attains_vertex_minimum(self, rng):
        # brute-force vertex enumeration up to d = 10
        for d in (2, 4, 7, 10):
            box = BoxSet(-rng.uniform(0.5, 3.0, d), rng.uniform(0.5, 3.0, d))
            for _ in range(20):
                g = rng.standard_normal(d)
                v = lmo(box, g)
                best = min(
                    float(np.dot(g, corner))
                    for corner in itertools.product(*zip(box.lower, box.upper))
                )
                assert float(np.dot(g, v)) == pytest.approx(best, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            lmo(self.box, [np.inf])

    def test_rows_are_vertices(self, rng):
        box = BoxSet(-rng.uniform(0.5, 3.0, 3), rng.uniform(0.5, 3.0, 3))
        g = rng.standard_normal((5, 3))
        assert np.array_equal(lmo(box, g), np.stack([lmo(box, row) for row in g]))
        with pytest.raises(ValueError):
            lmo(box, np.zeros((5, 2)))


class TestProjectionInequality:
    def test_zero_shift_gap_is_nonnegative(self):
        box = BoxSet.symmetric(2.0)
        gap = projection_inequality_gap(box, [0.0], [1.5], [0.3])
        assert gap >= -1e-9

    def test_hand_example(self):
        # x = clamp(0 - 2) = -1; gap = 1 - 4 - 1 + 8 = 4
        box = BoxSet.symmetric(1.0)
        gap = projection_inequality_gap(box, [2.0], [0.0], [1.0])
        assert gap == pytest.approx(4.0)

    def test_z_outside_rejected(self):
        box = BoxSet.symmetric(1.0)
        with pytest.raises(PointNotInSet):
            projection_inequality_gap(box, [0.0], [0.0], [2.0])

    def test_randomized_nonnegativity(self, rng):
        for d in (1, 2, 5):
            box = BoxSet(-rng.uniform(0.5, 5.0, d), rng.uniform(0.5, 5.0, d))
            for _ in range(1000):
                m = rng.standard_normal(d) * 3.0
                nvec = rng.standard_normal(d) * 3.0
                z = box.sample(rng)
                assert projection_inequality_gap(box, m, nvec, z) >= -1e-9


class TestSampling:
    def test_sphere_1d_is_sign(self, rng):
        draws = np.array([sample_unit_sphere(rng, 1)[0] for _ in range(400)])
        assert set(np.unique(np.abs(draws))) == {1.0}
        assert 120 < np.sum(draws > 0) < 280  # both signs occur

    def test_sphere_norms_exact(self, rng):
        for d in (1, 2, 3, 8):
            u = sphere_batch(rng, 500, d)
            assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-12

    def test_sphere_symmetry(self, rng):
        n = 20000
        u = sphere_batch(rng, n, 3)
        assert np.max(np.abs(u.mean(axis=0))) < 3.0 / np.sqrt(n)
        # squared coordinates average 1/d
        sq = (u**2).mean(axis=0)
        se = (u**2).std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(sq - 1.0 / 3.0) < 3.0 * se)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 300),
        d=st.sampled_from([1, 3, 10]),
    )
    def test_sphere_batch_equals_scalar_draws(self, seed, count, d):
        block_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        block = sphere_batch(block_rng, count, d)
        scalar = np.stack([sample_unit_sphere(scalar_rng, d) for _ in range(count)])
        assert np.array_equal(block, scalar)
        assert block_rng.random() == scalar_rng.random()  # same draws consumed

    def test_sphere_batch_redraws_like_scalar_loop(self):
        # A row too short to normalize is replaced by the next row drawn.
        class Scripted:
            def __init__(self):
                self.normals = np.array([3.0, 4.0, 0.0, 1e-13, 0.0, -2.0, 6.0, 8.0])

            def standard_normal(self, size):
                k = int(np.prod(size))
                out, self.normals = self.normals[:k], self.normals[k:]
                return out.reshape(size)

        block = sphere_batch(Scripted(), 3, 2)
        rng = Scripted()
        scalar = np.stack([sample_unit_sphere(rng, 2) for _ in range(3)])
        assert np.array_equal(block, scalar)
        assert np.array_equal(block, [[0.6, 0.8], [0.0, -1.0], [0.6, 0.8]])
        assert sphere_batch(Scripted(), 0, 2).shape == (0, 2)

    def test_ball_inside(self, rng):
        v = ball_batch(rng, 2000, 4)
        assert np.all(np.linalg.norm(v, axis=1) <= 1.0 + 1e-12)
        assert sample_unit_ball(rng, 4).shape == (4,)


class TestShrunkSet:
    def test_delta_out_of_range_rejected(self):
        box = BoxSet.symmetric(10.0)
        with pytest.raises(ValueError):
            ShrunkSet(box, delta=10.0)
        with pytest.raises(ValueError):
            ShrunkSet(box, delta=0.0)

    def test_boundary_perturbation_stays_inside(self):
        shrunk = ShrunkSet(BoxSet.symmetric(10.0), delta=0.01)
        corner = shrunk.upper
        assert shrunk.base.contains(corner + 0.01 * np.ones(1))

    def test_containment_check_small_delta(self, rng):
        shrunk = ShrunkSet(BoxSet.symmetric(10.0), delta=0.01)
        report = minkowski_containment_check(shrunk, 2000, rng)
        assert report.passed
        assert report.worst_violation <= 1e-12

    def test_containment_check_half_inradius(self, rng):
        box = BoxSet([-2.0, -4.0], [3.0, 2.0])
        shrunk = ShrunkSet(box, delta=box.r / 2.0)
        assert shrunk.factor == pytest.approx(0.5)
        assert minkowski_containment_check(shrunk, 2000, rng).passed
