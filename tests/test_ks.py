"""Tests for the Kochen-Specker constraint dispersion analysis."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab.distributions import _count_cells, mc_mean, mc_mean_pair
from hvlab.ks import (
    SHARED_HIDDEN,
    DeformedKsModel,
    KsModel,
    _pair_sum,
    deformed_formula,
    deformed_outcomes,
    deformed_statistics,
    dispersion_scan,
    ks_cross_term,
    ks_model_from_state,
    ks_sign_specs,
    ks_square_outcomes,
    ks_statistics,
)
from hvlab.oracle import ANGULAR_MOMENTUM, QuantumState, build_basis, random_pure_state, variance
from hvlab.spin_one import SIGN_PATTERNS, CaseAssignment, hv_statistics, solve_coefficients

ANG = build_basis(ANGULAR_MOMENTUM)
KS_MATRIX = sum(op @ op for op in ANG.operators[:3])


def simplex_grid(step):
    count = int(1.0 / step + 1e-9)
    for i in range(count + 1):
        for j in range(count - i + 1):
            yield (i * step, j * step, 1.0 - i * step - j * step)


def shared_quadrature_cross(p_i, p_j):
    """Independent integral of the product of two squared outcomes over
    one shared flat hidden variable.

    The integrand is piecewise constant with jumps at the two sign
    thresholds, so splitting there makes the quadrature exact.
    """
    from hvlab.distributions import SignFunctionSpec

    spec_i = SignFunctionSpec(2 * p_i - 1, include_sign_prefactor=True)
    spec_j = SignFunctionSpec(2 * p_j - 1, include_sign_prefactor=True)
    cuts = sorted({-0.5, -min(spec_i.threshold, 0.5), -min(spec_j.threshold, 0.5), 0.5})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        piece = 0.25 * (1.0 - spec_i.evaluate(mid)) * (1.0 - spec_j.evaluate(mid))
        total += piece * (hi - lo)
    return total


def midpoint_cross(p_i, p_j, points=400_001):
    from hvlab.distributions import SignFunctionSpec

    spec_i = SignFunctionSpec(2 * p_i - 1, include_sign_prefactor=True)
    spec_j = SignFunctionSpec(2 * p_j - 1, include_sign_prefactor=True)
    xs = (np.arange(points) + 0.5) / points - 0.5
    vals = 0.25 * (1.0 - spec_i.evaluate(xs)) * (1.0 - spec_j.evaluate(xs))
    return float(vals.mean())


class TestSquareOutcomes:
    def test_certain_zero_slot(self):
        model = KsModel((1.0, 0.0, 0.0))
        for hidden in (-0.4, 0.0, 0.3):
            assert ks_square_outcomes(model, hidden) == (0.0, 1.0, 1.0)

    def test_hand_traced_violation(self):
        # equal slots, hidden 0.4: all three squares are 1, so the sum is 3
        model = KsModel((1 / 3, 1 / 3, 1 / 3))
        outcomes = ks_square_outcomes(model, 0.4)
        assert outcomes == (1.0, 1.0, 1.0)
        assert sum(outcomes) == 3.0 != 2.0

    def test_outcomes_are_binary(self):
        rng = np.random.default_rng(0)
        model = KsModel((0.2, 0.5, 0.3))
        xs = SHARED_HIDDEN.sample(2000, rng)
        for arr in ks_square_outcomes(model, xs):
            assert np.all(np.isin(arr, [0.0, 1.0]))

    def test_sum_averages_to_two_by_mc(self):
        model = KsModel((0.2, 0.5, 0.3))
        cuts = [spec.cut for spec in ks_sign_specs(model)]
        counts = mc_mean(lambda xs: sum(ks_square_outcomes(model, xs)), SHARED_HIDDEN, 1_000_000, 1, cuts)
        mean, stderr = _count_cells(counts)
        assert abs(mean - 2.0) < 4 * stderr

    def test_zero_probability_matches_component_means(self):
        model = KsModel((0.1, 0.6, 0.3))
        cuts = (ks_sign_specs(model)[1].cut,)
        counts = mc_mean(lambda xs: ks_square_outcomes(model, xs)[1], SHARED_HIDDEN, 500_000, 2, cuts)
        mean, stderr = _count_cells(counts)
        assert abs(mean - (1.0 - 0.6)) < 4 * stderr


class TestAverage:
    @pytest.mark.parametrize("probs", [(0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3), (0.2, 0.5, 0.3)])
    def test_named_points(self, probs):
        assert ks_statistics(KsModel(probs)).mean == pytest.approx(2.0, abs=1e-12)

    def test_identically_two_on_grid(self):
        for probs in simplex_grid(0.01):
            assert ks_statistics(KsModel(probs)).mean == pytest.approx(2.0, abs=1e-10)

    def test_from_state_slots(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = ks_model_from_state(random_pure_state(3, rng))
            assert ks_statistics(model).mean == pytest.approx(2.0, abs=1e-10)


class TestCrossTerm:
    def test_balanced_point(self):
        assert ks_cross_term(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_both_slots_certain_one(self):
        # zero-outcome probability 0 for both squares: both are always 1
        assert ks_cross_term(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_opposite_certain_outcomes(self):
        assert ks_cross_term(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("pair", [(0.0, 0.0), (0.5, 0.5), (0.2, 0.7), (0.9, 0.4), (1.0, 1.0)])
    def test_against_midpoint_quadrature(self, pair):
        assert ks_cross_term(*pair) == pytest.approx(midpoint_cross(*pair), abs=1e-5)

    def test_grid_against_exact_quadrature(self):
        edges = np.linspace(0.0, 1.0, 21)
        for p_i in edges:
            for p_j in edges:
                assert ks_cross_term(p_i, p_j) == pytest.approx(
                    shared_quadrature_cross(p_i, p_j), abs=1e-10
                )

    @given(
        p_i=st.floats(min_value=0.0, max_value=1.0),
        p_j=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, p_i, p_j):
        left = ks_cross_term(p_i, p_j)
        assert left == pytest.approx(ks_cross_term(p_j, p_i), abs=1e-15)
        assert -1e-12 <= left <= 1.0 + 1e-12


class TestSecondMoment:
    def test_minimum_point(self):
        assert ks_statistics(KsModel((0.0, 0.0, 1.0))).second_moment == pytest.approx(4.0, abs=1e-15)

    def test_maximum_point(self):
        assert ks_statistics(KsModel((1 / 3, 1 / 3, 1 / 3))).second_moment == pytest.approx(6.0, abs=1e-12)

    def test_closed_form_equals_moment_route(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            probs = tuple(rng.dirichlet(np.ones(3)))
            p1, p2, p3 = probs
            route = (
                (1 - p1)
                + (1 - p2)
                + (1 - p3)
                + 2.0 * (ks_cross_term(p1, p2) + ks_cross_term(p1, p3) + ks_cross_term(p2, p3))
            )
            assert ks_statistics(KsModel(probs)).second_moment == pytest.approx(route, abs=1e-12)

    def test_shared_hidden_mc(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            probs = tuple(rng.dirichlet(np.ones(3)))
            model = KsModel(probs)
            counts = mc_mean(
                lambda xs: sum(ks_square_outcomes(model, xs)) ** 2, SHARED_HIDDEN, 400_000, seed,
                [spec.cut for spec in ks_sign_specs(model)],
            )
            mean, stderr = _count_cells(counts)
            assert abs(mean - ks_statistics(model).second_moment) < 4 * stderr

    def test_independent_hiddens_change_second_moment_not_mean(self):
        probs = (0.2, 0.5, 0.3)
        model = KsModel(probs)
        rng = np.random.default_rng(6)
        shared = SHARED_HIDDEN.sample(2_000_000, rng)
        spec_x, spec_y, spec_z = ks_sign_specs(model)
        independent = [SHARED_HIDDEN.sample(2_000_000, rng) for _ in range(3)]
        total_ind = sum(
            0.5 * (1.0 - spec.evaluate(h)) for spec, h in zip((spec_x, spec_y, spec_z), independent)
        )
        total_shared = sum(ks_square_outcomes(model, shared))
        # means agree with 2 either way
        for total in (total_ind, total_shared):
            err = total.std(ddof=1) / np.sqrt(total.size)
            assert abs(total.mean() - 2.0) < 4 * err
        # second moments differ: independent hiddens factorise the cross terms
        p1, p2, p3 = probs
        independent_second = (
            (1 - p1)
            + (1 - p2)
            + (1 - p3)
            + 2.0 * ((1 - p1) * (1 - p2) + (1 - p1) * (1 - p3) + (1 - p2) * (1 - p3))
        )
        assert abs(independent_second - ks_statistics(model).second_moment) > 0.05
        sq = total_ind**2
        err = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - independent_second) < 4 * err


class TestDispersion:
    def test_variance_is_the_second_moment_less_four(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            stats = ks_statistics(KsModel(tuple(rng.dirichlet(np.ones(3)))))
            assert stats.variance == stats.second_moment - 4.0
            assert stats.variance == pytest.approx(stats.second_moment - stats.mean**2, abs=1e-12)

    def test_extremes(self):
        assert ks_statistics(KsModel((0.0, 0.0, 1.0))).variance == pytest.approx(0.0, abs=1e-15)
        assert ks_statistics(KsModel((1 / 3, 1 / 3, 1 / 3))).variance == pytest.approx(2.0, abs=1e-12)

    def test_grid_scan_range_and_extremes(self):
        table = dispersion_scan(0.01)
        values = table[:, 3]
        assert np.all(values >= -1e-12)
        assert np.all(values <= 2.0 + 1e-12)
        assert values.min() == pytest.approx(0.0, abs=1e-4)
        assert values.max() == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("step", [0.5, 0.3, 0.26, 0.15, 0.1, 1.0 / 3.0, 0.07, 0.01, 0.002])
    def test_scan_matches_the_double_loop(self, step):
        # the grid point by point in loop order, then the same closed form, bit for bit:
        # array_equal alone takes -0.0 for 0.0
        grid = np.array([*simplex_grid(step), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)])
        expected = np.column_stack([grid, 0.5 * (1.0 + _pair_sum(2.0 * grid - 1.0))])
        table = dispersion_scan(step)
        assert np.array_equal(table, expected)
        assert table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("step", [0.5, 0.3, 0.26, 0.15, 0.1, 1.0 / 3.0, 0.07, 0.01])
    def test_scan_points_lie_on_the_simplex(self, step):
        # a step that does not divide 1 stops at the last whole step, short of the far edge
        grid = dispersion_scan(step)[:, :3]
        assert np.all(grid >= -1e-12) and np.all(grid <= 1.0 + 1e-12)
        assert np.allclose(grid.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("step", [0.1, 0.07, 0.01])
    def test_scan_matches_pointwise_dispersion(self, step):
        # one ks_statistics call per point: independent of the scan's blocks
        table = dispersion_scan(step)
        for p1, p2, p3, value in table:
            assert value == pytest.approx(ks_statistics(KsModel((p1, p2, max(p3, 0.0)))).variance, abs=1e-12)

    def test_interior_points_have_violating_configurations(self):
        # positive dispersion forces some hidden value where the sum is not 2
        hiddens = np.linspace(-0.499, 0.499, 999)
        rng = np.random.default_rng(7)
        for _ in range(20):
            probs = tuple(rng.dirichlet(np.ones(3)))
            model = KsModel(probs)
            if ks_statistics(model).variance < 1e-6:
                continue
            totals = sum(ks_square_outcomes(model, hiddens))
            assert np.any(totals != 2.0)

    def test_quantum_side_is_dispersion_free(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = random_pure_state(3, rng)
            assert abs(variance(KS_MATRIX, state)) < 1e-12
        assert abs(variance(KS_MATRIX, QuantumState.maximally_mixed(3))) < 1e-12


class TestDeformedModel:
    @pytest.mark.parametrize("eps", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_eps_rejected(self, eps):
        # inf once gave Moments(nan, nan, inf)
        with pytest.raises(ValueError, match="eps must be finite"):
            DeformedKsModel(eps, (0.25, 0.5, 0.25))

    def test_outcome_values(self):
        model = DeformedKsModel(0.25, (0.3, 0.4, 0.3))
        assert deformed_outcomes(model) == (2.25, 2.0, 1.75)

    def test_all_mass_on_central_outcome(self):
        stats = deformed_statistics(DeformedKsModel(0.1, (0.0, 1.0, 0.0)))
        assert stats.mean == 2.0
        assert stats.variance == pytest.approx(0.0, abs=1e-18)

    def test_closed_forms_match_direct_three_outcome_computation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            eps = float(10.0 ** rng.uniform(-4, -1))
            probs = tuple(rng.dirichlet(np.ones(3)))
            model = DeformedKsModel(eps, probs)
            stats = deformed_statistics(model)
            outs = np.array(deformed_outcomes(model))
            weights = np.array(model.probabilities)
            direct_mean = float(outs @ weights)
            direct_second = float(np.square(outs) @ weights)
            assert stats.mean == pytest.approx(direct_mean, abs=1e-12)
            assert stats.second_moment == pytest.approx(direct_second, abs=1e-12)
            assert stats.variance == pytest.approx(direct_second - direct_mean**2, abs=1e-12)

    def test_variance_identity_holds(self):
        stats = deformed_statistics(DeformedKsModel(0.05, (0.25, 0.5, 0.25)))
        assert stats.variance == pytest.approx(stats.second_moment - stats.mean**2, abs=1e-12)

    def test_symmetric_slots_variance(self):
        # p_plus = p_minus = 1/4: variance is eps^2 * (1/2 - 0) = eps^2 / 2
        stats = deformed_statistics(DeformedKsModel(0.01, (0.25, 0.5, 0.25)))
        assert stats.variance == pytest.approx(1e-4 / 2, abs=1e-15)

    def test_one_sided_bernoulli_reduction(self):
        # with one side empty the variance reduces to eps^2 * s * (1 - s)
        for s in (0.1, 0.4, 0.9):
            stats = deformed_statistics(DeformedKsModel(0.02, (s, 1.0 - s, 0.0)))
            assert stats.variance == pytest.approx(0.02**2 * (s - s * s), abs=1e-15)
            stats = deformed_statistics(DeformedKsModel(0.02, (0.0, 1.0 - s, s)))
            assert stats.variance == pytest.approx(0.02**2 * (s - s * s), abs=1e-15)

    def test_bernoulli_form_gap_is_cross_mass(self):
        # the samesided form eps^2 (s - s^2) differs from the variance by
        # exactly 4 eps^2 p_plus p_minus
        rng = np.random.default_rng(10)
        for _ in range(50):
            eps = 0.05
            probs = tuple(rng.dirichlet(np.ones(3)))
            stats = deformed_statistics(DeformedKsModel(eps, probs))
            s = probs[0] + probs[2]
            gap = eps * eps * (s - s * s) - stats.variance
            assert gap == pytest.approx(-4.0 * eps * eps * probs[0] * probs[2], abs=1e-14)
            assert stats.variance <= eps * eps * (1.0 + 1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 0.05, 3.0])
    @pytest.mark.parametrize("probs", [(0.99999999, 5e-9, 5e-9), (5e-9, 5e-9, 0.99999999), (1 - 1e-15, 5e-16, 5e-16)])
    def test_variance_is_the_centred_sum_over_the_outcome_table(self, eps, probs):
        # s - d^2 cancelled as s nears 1: at the first probs, scaled to sum to 1 as --probs
        # is, and eps 0.05 it gave 6.249999907e-11 against the table's 6.249999944e-11;
        # the table takes the outcomes 2 +- eps exactly, as the closed form does
        model = DeformedKsModel(eps, tuple(p / sum(probs) for p in probs))
        weights, shift = [Fraction(p) for p in model.probabilities], Fraction(eps)
        table = list(zip(weights, (2 + shift, Fraction(2), 2 - shift)))
        mean = sum(w * v for w, v in table) / sum(weights)
        exact = float(sum(w * (v - mean) ** 2 for w, v in table) / sum(weights))
        assert abs(deformed_statistics(model).variance - exact) <= 4 * np.spacing(exact)

    def test_variance_scales_quadratically(self):
        eps_grid = np.logspace(-4, -1, 13)
        variances = [
            deformed_statistics(DeformedKsModel(float(e), (0.3, 0.5, 0.2))).variance for e in eps_grid
        ]
        slope = np.polyfit(np.log(eps_grid), np.log(variances), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.01)

    def test_variance_positive_whenever_sides_occupied(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            probs = tuple(rng.dirichlet(np.ones(3)))
            if probs[0] + probs[2] < 1e-6:
                continue
            stats = deformed_statistics(DeformedKsModel(1e-3, probs))
            assert stats.variance > 0.0

    def test_mc_three_outcome_sampling(self):
        # the outcomes come from the two-sign-function rule, not from the
        # three-outcome distribution whose moments are checked
        model = DeformedKsModel(0.2, (0.25, 0.5, 0.25))
        formula = deformed_formula(model)
        counts = mc_mean_pair(formula.evaluate, *formula.hidden_distributions, 1_000_000, 12, *formula.hidden_cuts)
        mean, stderr = _count_cells(counts)
        stats = deformed_statistics(model)
        assert abs(mean - stats.mean) < 4 * stderr
        second, second_stderr = _count_cells([(value * value, count) for value, count in counts])
        assert abs(second - stats.second_moment) < 4 * second_stderr

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            DeformedKsModel(0.0, (0.3, 0.4, 0.3))


class TestDeformedFormula:
    @pytest.mark.parametrize("probs", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.0, 0.5)])
    @pytest.mark.parametrize("eps", [1e-4, 0.05, 0.5])
    def test_exact_moments_at_corners(self, eps, probs):
        model = DeformedKsModel(eps, probs)
        exact = hv_statistics(deformed_formula(model))
        closed = deformed_statistics(model)
        assert exact.mean == pytest.approx(closed.mean, abs=1e-12)
        assert exact.second_moment == pytest.approx(closed.second_moment, abs=1e-12)
        assert exact.variance == pytest.approx(closed.variance, abs=1e-12)

    def test_exact_moments_over_the_simplex(self):
        rng = np.random.default_rng(31)
        for eps in np.logspace(-4, np.log10(0.5), 10):
            for _ in range(20):
                model = DeformedKsModel(float(eps), tuple(rng.dirichlet(np.ones(3))))
                exact = hv_statistics(deformed_formula(model))
                closed = deformed_statistics(model)
                assert exact.mean == pytest.approx(closed.mean, abs=1e-12)
                assert exact.second_moment == pytest.approx(closed.second_moment, abs=1e-12)
                assert exact.variance == pytest.approx(closed.variance, abs=1e-12)

    def test_rule_takes_the_deformed_outcomes(self):
        model = DeformedKsModel(0.25, (0.3, 0.4, 0.3))
        formula = deformed_formula(model)
        outs = {formula.evaluate_signs(s1, s2) for s1, s2 in SIGN_PATTERNS}
        assert outs == set(deformed_outcomes(model))


class TestDeformedSquareFormula:
    """The squared spin component of the deformed model: the four-pattern
    solve for the spectrum (1, 0, 1) under the assignment that puts the
    zero outcome at (+, -)."""

    ASSIGNMENT = CaseAssignment("I")
    VALUES = (1.0, 0.0, 1.0)

    def test_coefficients(self):
        assert solve_coefficients(self.ASSIGNMENT, self.VALUES) == (0.75, -0.25, 0.25, 0.25)

    def test_sign_patterns(self):
        assert self.ASSIGNMENT.outcomes(self.VALUES) == (1.0, 0.0, 1.0, 1.0)

    def test_outcome_set_is_binary(self):
        assert set(self.ASSIGNMENT.outcomes(self.VALUES)) == {0.0, 1.0}

    def test_cross_checked_against_solver(self):
        a, b, c, d = solve_coefficients(self.ASSIGNMENT, self.VALUES)
        outs = tuple(a + b * s1 + c * s2 + d * s1 * s2 for s1, s2 in SIGN_PATTERNS)
        assert outs == self.ASSIGNMENT.outcomes(self.VALUES)
