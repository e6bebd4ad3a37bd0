import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr.errors import (
    DimensionMismatch,
    Disconnected,
    NotDoublyStochastic,
    NotSymmetric,
)
from dffr.network import (
    MixingConstants,
    complete_matrix,
    generator_matrix,
    gossip_average,
    mixing_bound_check,
    mixing_constants,
    ring_matrix,
    validate_weight_matrix,
)


class TestValidation:
    def test_identity_disconnected(self):
        with pytest.raises(Disconnected):
            validate_weight_matrix(np.eye(2))

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [0, 3, 1, 4, 2, 5]], ids=["blocks", "interleaved"])
    def test_disconnected_names_the_agents_reached(self, order):
        two_rings = np.kron(np.eye(2), ring_matrix(3, 0.3))  # agents 0-2 and 3-5, apart
        with pytest.raises(Disconnected, match=r"^graph of positive off-diagonal weights reaches 3 of 6 agents$"):
            validate_weight_matrix(two_rings[np.ix_(order, order)])

    def test_half_half_valid(self):
        wm = validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert wm.omega == 0.5
        assert wm.n == 2

    def test_paper4_omega(self):
        wm = validate_weight_matrix(ring_matrix(4, 0.22))
        assert wm.omega == 0.22
        assert wm.n == 4

    def test_bad_row_sum(self):
        w = np.array([[0.6, 0.5], [0.5, 0.5]])
        with pytest.raises(NotDoublyStochastic):
            validate_weight_matrix(w)

    def test_asymmetric(self):
        w = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.25, 0.0, 0.75]])
        with pytest.raises(NotSymmetric):
            validate_weight_matrix(w)

    def test_negative_entry(self):
        w = np.array([[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(NotDoublyStochastic):
            validate_weight_matrix(w)


class TestMixingConstants:
    def test_paper4_formulas(self, paper_wm, paper_mc):
        base = 1.0 - 0.22 / 64.0
        assert paper_mc.lam == pytest.approx(0.9965625, abs=1e-12)
        assert paper_mc.lam == base
        assert paper_mc.gamma == base**-2

    def test_single_agent_boundary(self):
        wm = validate_weight_matrix([[1.0]])
        mc = mixing_constants(wm)
        assert mc.lam == pytest.approx(0.75)
        assert mc.gamma == pytest.approx(16.0 / 9.0)


class TestMixingBound:
    def test_rank_one_passes(self):
        wm = validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]])
        report = mixing_bound_check(wm, mixing_constants(wm), horizon=5)
        assert report.passed

    def test_paper4_passes(self, paper_wm, paper_mc):
        report = mixing_bound_check(paper_wm, paper_mc, horizon=50)
        assert report.passed
        assert report.max_excess <= 0.0

    def test_corpus_matrices_satisfy_bound(self):
        corpus = [
            validate_weight_matrix(ring_matrix(4, 0.22)),
            validate_weight_matrix(ring_matrix(6, 0.3)),
            validate_weight_matrix(complete_matrix(5)),
            validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]]),
        ]
        for wm in corpus:
            report = mixing_bound_check(wm, mixing_constants(wm), horizon=200)
            assert report.passed, (wm.n, report)

    @pytest.mark.parametrize("lam, passed", [(0.9, True), (0.6, True), (0.55, False), (0.5, False)])
    def test_round_off_passes_and_a_rate_below_the_modulus_fails(self, paper_wm, paper_mc, lam, passed):
        """The paper ring's second-largest eigenvalue modulus is 0.56.  Without the k*n*eps
        allowance for the float error of W^k, 0.9 failed by 8.3e-16 at k = 685
        and 0.6 by as much at k = 142.  At 0.55 an entry exceeds gamma * lambda^k
        by 9.0e-13 at k = 41, against an allowance of 3.6e-14, and at 0.5 by
        9.0e-4 at k = 8."""
        report = mixing_bound_check(paper_wm, MixingConstants(gamma=paper_mc.gamma, lam=lam), horizon=1000)
        assert report.passed is passed

    def test_powers_stay_doubly_stochastic(self, paper_wm):
        power = np.eye(4)
        for _ in range(100):
            power = power @ paper_wm.w
            assert np.max(np.abs(power.sum(axis=0) - 1.0)) <= 1e-9
            assert np.max(np.abs(power.sum(axis=1) - 1.0)) <= 1e-9


class TestGossip:
    def test_mean_pair(self):
        wm = validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]])
        z = gossip_average(wm, [[2.0], [4.0]])
        assert np.allclose(z, [[3.0], [3.0]], atol=1e-15)

    def test_matches_matvec_oracle(self, paper_wm, rng):
        states = np.array([[1.0], [2.0], [3.0], [4.0]])
        z = gossip_average(paper_wm, states)
        oracle = np.array(
            [sum(paper_wm.w[i, j] * states[j] for j in range(4)) for i in range(4)]
        )
        assert z == pytest.approx(oracle, abs=1e-15)

    def test_stack_gossips_each_slice(self, paper_wm, rng):
        stack = rng.uniform(-5.0, 5.0, size=(3, 4, 2))
        z = gossip_average(paper_wm, stack)
        assert np.array_equal(z, [gossip_average(paper_wm, states) for states in stack])

    def test_dimension_mismatch(self, paper_wm):
        with pytest.raises(DimensionMismatch):
            gossip_average(paper_wm, np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            gossip_average(paper_wm, [[1.0], [2.0, 3.0], [4.0], [5.0]])
        with pytest.raises(DimensionMismatch):
            gossip_average(paper_wm, np.zeros(4))  # one value per agent is not (n, d)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=2, max_size=2),
            min_size=4,
            max_size=4,
        )
    )
    def test_preserves_average(self, paper_wm, states):
        states = np.array(states)
        z = gossip_average(paper_wm, states)
        assert np.allclose(z.mean(axis=0), states.mean(axis=0), atol=1e-12)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=1, max_size=1),
            min_size=4,
            max_size=4,
        )
    )
    def test_diameter_nonexpansive(self, paper_wm, states):
        states = np.array(states)
        z = gossip_average(paper_wm, states)
        before = np.max(np.linalg.norm(states - states.mean(axis=0), axis=1))
        after = np.max(np.linalg.norm(z - z.mean(axis=0), axis=1))
        assert after <= before + 1e-12


class TestGenerators:
    def test_ring_min_weight(self):
        wm = validate_weight_matrix(ring_matrix(4, 0.22))
        assert wm.omega == 0.22

    def test_complete(self):
        wm = validate_weight_matrix(complete_matrix(5))
        assert wm.omega == pytest.approx(0.2)

    def test_generator_dispatch(self):
        w = generator_matrix("ring", n=6, weight=0.3)
        assert validate_weight_matrix(w).n == 6
        with pytest.raises(ValueError):
            generator_matrix("torus")
