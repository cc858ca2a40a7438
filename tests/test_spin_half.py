"""Tests for the spin-1/2 deterministic outcome models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab.distributions import PowerLawDistribution, _count_cells, mc_mean
from hvlab.oracle import PAULI, QuantumState, bloch_vector, build_basis, expectation, linear_observable, random_pure_state, variance
from hvlab.spin_half import (
    bell_original_mean_analytic,
    bell_outcome_modified,
    bell_outcome_original,
    homogeneity_split,
    hv_statistics,
    outcome_probabilities,
)

FLAT = PowerLawDistribution(0)
PAULI_BASIS = build_basis(PAULI)


def _random_direction(rng, scale=2.0):
    while True:
        beta = scale * rng.normal(size=3)
        if np.linalg.norm(beta) > 1e-6:
            return beta


def _outcomes(beta):
    # both rules take the values -|b| and +|b|
    return -np.linalg.norm(beta), np.linalg.norm(beta)


class TestOriginalRule:
    def test_outcomes_live_on_two_points(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            beta = _random_direction(rng)
            mag = np.linalg.norm(beta)
            outcomes = bell_outcome_original(beta, FLAT.sample(1000, rng))
            assert np.all(np.isin(outcomes, [mag, -mag]))

    def test_hand_evaluation(self):
        assert bell_outcome_original([0, 0, 1], 0.3) == 1.0

    def test_z_direction_average_is_one(self):
        assert bell_original_mean_analytic([0, 0, 1]) == pytest.approx(1.0, abs=1e-15)

    def test_x_direction_average_is_zero(self):
        assert bell_original_mean_analytic([1, 0, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_y_fallback_branch(self):
        assert bell_original_mean_analytic([0, -3, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            bell_outcome_original([0, 0, 0], 0.1)

    def test_mean_reproduces_up_state_for_random_directions(self):
        rng = np.random.default_rng(1)
        up = QuantumState.from_pure([1, 0])
        for _ in range(100):
            beta = _random_direction(rng)
            matrix = linear_observable(beta, PAULI_BASIS)
            assert bell_original_mean_analytic(beta) == pytest.approx(
                expectation(matrix, up), abs=1e-10
            )

    def test_mc_average_matches_z_component(self):
        beta = np.array([0.6, -0.8, 0.5])
        counts = mc_mean(lambda xs: bell_outcome_original(beta, xs), FLAT, 1_000_000, 42, _outcomes(beta))
        mean, stderr = _count_cells(counts)
        assert abs(mean - beta[2]) < 4 * stderr

    def test_variance_matches_up_state(self):
        rng = np.random.default_rng(2)
        up = QuantumState.from_pure([1, 0])
        for _ in range(50):
            beta = _random_direction(rng)
            mag = np.linalg.norm(beta)
            mean = bell_original_mean_analytic(beta)
            matrix = linear_observable(beta, PAULI_BASIS)
            assert mag * mag - mean * mean == pytest.approx(variance(matrix, up), abs=1e-10)


class TestModifiedRule:
    def test_outcomes_live_on_two_points(self):
        rng = np.random.default_rng(3)
        beta = np.array([1.0, 1.0, 0.0])
        bloch = np.array([1.0, 0.0, 0.0])
        outcomes = bell_outcome_modified(beta, bloch, FLAT.sample(1000, rng))
        mag = np.linalg.norm(beta)
        assert np.all(np.isin(outcomes, [mag, -mag]))

    def test_aligned_unit_bloch_is_deterministic(self):
        beta = np.array([0.0, 0.0, 2.0])
        bloch = np.array([0.0, 0.0, 1.0])
        xs = FLAT.sample(1000, np.random.default_rng(4))
        np.testing.assert_array_equal(bell_outcome_modified(beta, bloch, xs), 2.0)

    def test_threshold_hand_computation(self):
        # |beta| = 2 along (1,1,0)/sqrt(2), bloch (1,0,0): threshold -sqrt(2)/4
        beta = 2.0 * np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        bloch = np.array([1.0, 0.0, 0.0])
        threshold = -np.sqrt(2.0) / 4.0
        assert bell_outcome_modified(beta, bloch, threshold + 1e-12) == pytest.approx(2.0)
        assert bell_outcome_modified(beta, bloch, threshold - 1e-12) == pytest.approx(-2.0)

    def test_bloch_vector_length_validated(self):
        with pytest.raises(ValueError):
            bell_outcome_modified([0, 0, 1], [1.2, 0, 0], 0.0)

    def test_mc_mean_matches_overlap(self):
        beta = np.array([0.8, -0.2, 0.5])
        bloch = np.array([0.3, 0.4, -0.6])
        counts = mc_mean(lambda xs: bell_outcome_modified(beta, bloch, xs), FLAT, 1_000_000, 5, _outcomes(beta))
        mean, stderr = _count_cells(counts)
        assert abs(mean - float(np.dot(beta, bloch))) < 4 * stderr

    def test_negative_overlap_probabilities(self):
        beta = np.array([0.0, 0.0, 1.0])
        bloch = np.array([0.0, 0.0, -0.5])
        p_plus, p_minus = outcome_probabilities(beta, bloch)
        assert p_plus == pytest.approx(0.25, abs=1e-12)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)


class TestHvStatistics:
    def test_eigen_direction(self):
        stats = hv_statistics([0, 0, 2], [0, 0, 1])
        assert stats.mean == pytest.approx(2.0, abs=1e-15)
        assert stats.variance == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed(self):
        beta = np.array([1.0, 2.0, -2.0])
        stats = hv_statistics(beta, [0, 0, 0])
        assert stats.mean == 0.0
        assert stats.variance == pytest.approx(9.0, abs=1e-12)

    def test_oracle_equivalence_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            beta = _random_direction(rng)
            state = random_pure_state(2, rng)
            bloch = bloch_vector(state, PAULI_BASIS)
            matrix = linear_observable(beta, PAULI_BASIS)
            stats = hv_statistics(beta, bloch)
            assert stats.mean == pytest.approx(expectation(matrix, state), abs=1e-10)
            assert stats.variance == pytest.approx(variance(matrix, state), abs=1e-10)

    @pytest.mark.parametrize("bloch", [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    def test_variance_near_an_eigen_direction(self, bloch):
        # |b|^2 - (b.e)^2 cancels to 0 here; the truth is |b x e|^2 at |e| = 1
        beta = np.array([1e-4, 0.0, 1e4])
        expected = float(np.square(np.cross(beta, bloch)).sum())
        assert hv_statistics(beta, bloch).variance == pytest.approx(expected, rel=1e-12)

    def test_probability_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            beta = _random_direction(rng)
            state = random_pure_state(2, rng)
            bloch = bloch_vector(state, PAULI_BASIS)
            p_plus, p_minus = outcome_probabilities(beta, bloch)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
            assert p_plus - p_minus == pytest.approx(
                float(np.dot(beta, bloch)) / np.linalg.norm(beta), abs=1e-12
            )

    def test_original_and_modified_agree_on_up_state(self):
        rng = np.random.default_rng(8)
        bloch = np.array([0.0, 0.0, 1.0])
        for _ in range(100):
            beta = _random_direction(rng)
            assert hv_statistics(beta, bloch).mean == pytest.approx(
                bell_original_mean_analytic(beta), abs=1e-12
            )

    def test_mc_against_oracle(self):
        rng = np.random.default_rng(9)
        beta = _random_direction(rng)
        state = random_pure_state(2, rng)
        bloch = bloch_vector(state, PAULI_BASIS)
        counts = mc_mean(lambda xs: bell_outcome_modified(beta, bloch, xs), FLAT, 1_000_000, 10, _outcomes(beta))
        mean, stderr = _count_cells(counts)
        matrix = linear_observable(beta, PAULI_BASIS)
        assert abs(mean - expectation(matrix, state)) < 4 * stderr


class TestHomogeneitySplit:
    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_offset_rejected(self, offset):
        # nan once gave nan subensemble means
        with pytest.raises(ValueError, match="offset must be finite"):
            homogeneity_split(offset, [0, 0, 1], [0, 0, 0.5])

    def test_worked_example(self):
        split = homogeneity_split(0.0, [0, 0, 1], [0, 0, 0.5])
        assert split.mean_plus == pytest.approx(1.0, abs=1e-15)
        assert split.mean_minus == pytest.approx(-1.0, abs=1e-15)
        assert split.whole == pytest.approx(0.5, abs=1e-15)

    def test_offset_shifts_both_parts(self):
        split = homogeneity_split(3.0, [0.6, 0.0, 0.8], [0, 0, 0.25])
        assert split.mean_plus == pytest.approx(4.0, abs=1e-12)
        assert split.mean_minus == pytest.approx(2.0, abs=1e-12)
        assert split.whole == pytest.approx(3.2, abs=1e-12)

    def test_parts_always_differ(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            beta = _random_direction(rng)
            bloch = bloch_vector(random_pure_state(2, rng), PAULI_BASIS)
            split = homogeneity_split(0.7, beta, bloch)
            assert abs(split.mean_plus - split.mean_minus) == pytest.approx(
                2.0 * np.linalg.norm(beta), abs=1e-10
            )

    def test_weighted_recombination(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            beta = _random_direction(rng)
            bloch = bloch_vector(random_pure_state(2, rng), PAULI_BASIS)
            offset = float(rng.normal())
            split = homogeneity_split(offset, beta, bloch)
            recombined = split.weight_plus * split.mean_plus + split.weight_minus * split.mean_minus
            assert recombined == pytest.approx(split.whole, abs=1e-10)

    def test_negative_overlap_swaps_labels(self):
        split = homogeneity_split(0.0, [0, 0, 1], [0, 0, -0.5])
        assert split.mean_plus == pytest.approx(-1.0)
        assert split.mean_minus == pytest.approx(1.0)
        assert split.whole == pytest.approx(-0.5)

    def test_filtered_mc_reproduces_subensembles(self):
        offset, beta = 1.5, np.array([0.3, -0.4, 0.8])
        bloch = np.array([0.2, 0.5, 0.6])
        split = homogeneity_split(offset, beta, bloch)
        hidden = FLAT.sample(1_000_000, np.random.default_rng(13))
        outcomes = offset + bell_outcome_modified(beta, bloch, hidden)
        upper = hidden >= split.split_point
        for mask, target in ((upper, split.mean_plus), (~upper, split.mean_minus)):
            part = outcomes[mask]
            stderr = part.std(ddof=1) / np.sqrt(part.size)
            # constant on each side, so the band collapses to roundoff
            assert abs(part.mean() - target) <= max(4 * stderr, 1e-12)
        whole_err = outcomes.std(ddof=1) / np.sqrt(outcomes.size)
        assert abs(outcomes.mean() - split.whole) < 4 * whole_err

    @given(
        bz=st.floats(min_value=-1.0, max_value=1.0),
        ez=st.floats(min_value=-1.0, max_value=1.0),
        offset=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_recombination_property(self, bz, ez, offset):
        beta = np.array([0.1, 0.0, bz])
        bloch = np.array([0.0, 0.0, ez])
        split = homogeneity_split(offset, beta, bloch)
        recombined = split.weight_plus * split.mean_plus + split.weight_minus * split.mean_minus
        assert recombined == pytest.approx(split.whole, abs=1e-10)
