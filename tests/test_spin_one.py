"""Tests for the three-outcome deterministic constructor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab.distributions import _count_cells, mc_mean_pair
from hvlab.oracle import (
    ANGULAR_MOMENTUM,
    GELL_MANN,
    QuantumState,
    build_basis,
    expectation,
    linear_observable,
    random_pure_state,
    variance,
)
from hvlab.spin_one import (
    CASE_IDS,
    SIGN_PATTERNS,
    CaseAssignment,
    InfeasibleCaseError,
    OutcomeFormula,
    SpectralTriple,
    beable_from_operator,
    build_formula,
    hv_statistics,
    sign_targets,
    solve_coefficients,
)

ANG = build_basis(ANGULAR_MOMENTUM)
GM = build_basis(GELL_MANN)

# The six printed outcome assignments over the sign patterns
# (+,+), (+,-), (-,+), (-,-), as 0-based indices into the triple.
PRINTED_TABLE = {
    "I": (0, 1, 2, 0),
    "II": (1, 0, 0, 2),
    "III": (0, 1, 0, 2),
    "IV": (0, 0, 1, 2),
    "V": (1, 0, 2, 0),
    "VI": (1, 2, 0, 0),
}


def closed_form_coefficients(case_id, lam):
    """The printed per-case coefficient formulas."""
    l1, l2, l3 = lam
    half = l1 / 2 + (l2 + l3) / 4
    anti = l1 / 2 - (l2 + l3) / 4
    gap = (l2 - l3) / 4
    return {
        "I": (half, gap, -gap, anti),
        "II": (half, gap, gap, -anti),
        "III": (half, gap, anti, -gap),
        "IV": (half, anti, gap, -gap),
        "V": (half, gap, -anti, gap),
        "VI": (half, -anti, gap, gap),
    }[case_id]


def random_simplex(rng):
    raw = rng.dirichlet(np.ones(3))
    return tuple(float(p) for p in raw)


class TestCaseAssignment:
    def test_patterns_match_printed_table(self):
        for case_id, pattern in PRINTED_TABLE.items():
            assert CaseAssignment(case_id).pattern == pattern

    def test_each_pattern_repeats_first_outcome(self):
        for case_id in CASE_IDS:
            pattern = CaseAssignment(case_id).pattern
            assert pattern.count(0) == 2
            assert pattern.count(1) == 1
            assert pattern.count(2) == 1

    def test_swap_exchanges_second_and_third(self):
        for case_id in CASE_IDS:
            base = CaseAssignment(case_id).pattern
            swapped = CaseAssignment(case_id, swap=True).pattern
            assert swapped == tuple({0: 0, 1: 2, 2: 1}[k] for k in base)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            CaseAssignment("VII")


class TestSolveCoefficients:
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_matches_printed_closed_forms(self, case_id):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lam = tuple(rng.normal(size=3))
            solved = solve_coefficients(CaseAssignment(case_id), lam)
            np.testing.assert_allclose(solved, closed_form_coefficients(case_id, lam), atol=1e-12)

    def test_constant_triple(self):
        for case_id in CASE_IDS:
            solved = solve_coefficients(CaseAssignment(case_id), (4.0, 4.0, 4.0))
            np.testing.assert_allclose(solved, (4.0, 0.0, 0.0, 0.0), atol=1e-15)

    def test_squared_component_formula(self):
        # spectrum (1, 0, 1) under the assignment with zero at (+,-)
        solved = solve_coefficients(CaseAssignment("I"), (1.0, 0.0, 1.0))
        np.testing.assert_allclose(solved, (0.75, -0.25, 0.25, 0.25), atol=1e-15)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    @pytest.mark.parametrize("swap", [False, True])
    def test_reproduces_assigned_outcomes(self, case_id, swap):
        lam = (0.3, 1.7, -2.0)
        assignment = CaseAssignment(case_id, swap)
        a, b, c, d = solve_coefficients(assignment, lam)
        for (s1, s2), expected in zip(SIGN_PATTERNS, assignment.outcomes(lam)):
            assert a + b * s1 + c * s2 + d * s1 * s2 == pytest.approx(expected, abs=1e-12)


class TestSignTargets:
    def test_case_iii_example(self):
        t1, t2 = sign_targets("III", (0.25, 0.5, 0.25))
        assert t1 == pytest.approx(1 / 3, abs=1e-15)
        assert t2 == pytest.approx(-0.5, abs=1e-15)

    def test_certain_repeated_outcome_guard(self):
        t1, t2 = sign_targets("III", (1.0, 0.0, 0.0))
        assert (t1, t2) == (0.0, 1.0)

    @pytest.mark.parametrize("case_id", ["I", "II"])
    def test_rejection_at_even_split(self, case_id):
        with pytest.raises(InfeasibleCaseError, match="square root becomes imaginary"):
            sign_targets(case_id, (0.0, 0.5, 0.5))

    @pytest.mark.parametrize("case_id", ["I", "II"])
    def test_rejection_region(self, case_id):
        # any simplex point with (p2-p3)^2 + 2 p1 < 1 is rejected
        for probs in ((0.1, 0.45, 0.45), (0.2, 0.5, 0.3), (0.0, 0.6, 0.4)):
            assert (probs[1] - probs[2]) ** 2 + 2 * probs[0] - 1 < 0
            with pytest.raises(InfeasibleCaseError):
                sign_targets(case_id, probs)

    @pytest.mark.parametrize("case_id", ["I", "II"])
    def test_feasible_branch_when_discriminant_positive(self, case_id):
        t1, t2 = sign_targets(case_id, (0.6, 0.25, 0.15))
        assert abs(t1) <= 1.0 and abs(t2) <= 1.0
        gap = 0.25 - 0.15
        if case_id == "I":
            assert t1 * t2 == pytest.approx(2 * 0.6 - 1, abs=1e-12)
            assert t1 - t2 == pytest.approx(2 * gap, abs=1e-12)
        else:
            assert t1 * t2 == pytest.approx(1 - 2 * 0.6, abs=1e-12)
            assert t1 + t2 == pytest.approx(2 * gap, abs=1e-12)

    @pytest.mark.parametrize("case_id", ["III", "IV", "V", "VI"])
    def test_feasible_over_simplex_grid(self, case_id):
        edges = np.linspace(0.0, 1.0, 21)
        for p1 in edges:
            for p2 in edges:
                p3 = 1.0 - p1 - p2
                if p3 < -1e-12:
                    continue
                t1, t2 = sign_targets(case_id, (p1, p2, max(p3, 0.0)))
                assert abs(t1) <= 1.0 + 1e-12
                assert abs(t2) <= 1.0 + 1e-12

    def test_swap_exchanges_probability_roles(self):
        t_plain = sign_targets("III", (0.2, 0.7, 0.1))
        t_swapped = sign_targets("III", (0.2, 0.1, 0.7), swap=True)
        assert t_plain == t_swapped

    @given(
        p1=st.floats(min_value=0.0, max_value=1.0),
        split=st.floats(min_value=0.0, max_value=1.0),
        case_id=st.sampled_from(["III", "IV", "V", "VI"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_targets_always_bounded_for_feasible_cases(self, p1, split, case_id):
        p2 = (1.0 - p1) * split
        p3 = 1.0 - p1 - p2
        t1, t2 = sign_targets(case_id, (p1, p2, p3))
        assert abs(t1) <= 1.0
        assert abs(t2) <= 1.0


class TestSpectralTriple:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            SpectralTriple((0.0, 1.0, -1.0), (0.5, 0.6, -0.1))
        with pytest.raises(ValueError):
            SpectralTriple((0.0, 1.0, -1.0), (0.5, 0.4, 0.0))


class TestBuildFormulaAndEvaluate:
    def test_direction_observable_structure(self):
        # spectrum (0, |b|, -|b|) in case III collapses to coefficients
        # (0, |b|/2, 0, -|b|/2)
        mag = 1.8
        triple = SpectralTriple((0.0, mag, -mag), (0.3, 0.45, 0.25))
        formula = build_formula("III", triple)
        np.testing.assert_allclose(formula.coefficients, (0.0, mag / 2, 0.0, -mag / 2), atol=1e-12)

    def test_targets_recovered_as_sign_means(self):
        triple = SpectralTriple((0.0, 1.0, -1.0), (0.25, 0.5, 0.25))
        formula = build_formula("III", triple)
        assert formula.sign1.bias == pytest.approx(1 / 3, abs=1e-15)
        assert formula.sign2.bias == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    @pytest.mark.parametrize("swap", [False, True])
    def test_sign_patterns_reproduce_table(self, case_id, swap):
        lam = (0.5, 2.5, -1.0)
        assignment = CaseAssignment(case_id, swap)
        triple = SpectralTriple(lam, (0.6, 0.25, 0.15))
        formula = build_formula(case_id, triple, swap=swap)
        for (s1, s2), expected in zip(SIGN_PATTERNS, assignment.outcomes(lam)):
            assert formula.evaluate_signs(s1, s2) == expected

    def test_constant_triple_evaluates_to_constant(self):
        triple = SpectralTriple((2.0, 2.0, 2.0), (0.5, 0.3, 0.2))
        formula = build_formula("IV", triple)
        xs = np.linspace(-0.49, 0.49, 7)
        np.testing.assert_array_equal(formula.evaluate(xs, xs[::-1]), 2.0)

    def test_hand_traced_outcome(self):
        triple = SpectralTriple((0.0, 1.0, -1.0), (0.25, 0.5, 0.25))
        formula = build_formula("III", triple)
        # h1=0.4: sign(0.4 + 1/6) * sign(1/3) = +1
        # h2=0.4: sign(0.4 + 0.25) * sign(-1/2) = -1 -> outcome 1
        assert formula.evaluate(0.4, 0.4) == 1.0

    def test_outcomes_snap_exactly_to_spectrum(self):
        rng = np.random.default_rng(14)
        for case_id in ("III", "IV", "V", "VI"):
            lam = tuple(np.round(rng.normal(size=3), 6))
            triple = SpectralTriple(lam, random_simplex(rng))
            formula = build_formula(case_id, triple)
            d1, d2 = formula.hidden_distributions
            outs = formula.evaluate(d1.sample(2000, rng), d2.sample(2000, rng))
            assert np.all(np.isin(outs, lam))

    @pytest.mark.parametrize("bad", [0.5, 0.0, float("nan"), float("inf"), -float("inf")])
    def test_non_sign_arguments_rejected(self, bad):
        formula = build_formula("III", SpectralTriple((0.0, 1.0, -1.0), (0.25, 0.5, 0.25)))
        with pytest.raises(ValueError):
            formula.evaluate_signs(bad, 1.0)
        with pytest.raises(ValueError):
            formula.evaluate_signs(np.array([1.0, -1.0]), np.array([-1.0, bad]))

    def test_coefficients_missing_the_table_rejected(self):
        assignment = CaseAssignment("III")
        values = (0.0, 1.0, -1.0)
        a, b, c, d = solve_coefficients(assignment, values)
        with pytest.raises(RuntimeError):
            OutcomeFormula(values=values, coefficients=(a, b, c, d + 1e-6), assignment=assignment)

    def test_large_outcomes_build(self):
        # the quarter sums round at about 1e-16 of the outcome magnitude
        triple = SpectralTriple((1e8, 100000001.3, 99999999.7), (0.25, 0.5, 0.25))
        formula = build_formula("III", triple)
        assert formula.evaluate_signs(1.0, -1.0) == 100000001.3

    def test_infeasible_case_propagates(self):
        triple = SpectralTriple((0.0, 1.0, -1.0), (0.0, 0.5, 0.5))
        with pytest.raises(InfeasibleCaseError):
            build_formula("I", triple)

    def test_mc_mean_matches_probability_sum(self):
        triple = SpectralTriple((0.0, 1.0, -1.0), (0.25, 0.5, 0.25))
        formula = build_formula("III", triple)
        d1, d2 = formula.hidden_distributions
        mean, stderr = _count_cells(mc_mean_pair(formula.evaluate, d1, d2, 1_000_000, 15, formula._table))
        assert abs(mean - 0.25) < 4 * stderr

    def test_nonflat_distribution_keeps_the_mean(self):
        triple = SpectralTriple((0.0, 1.0, -1.0), (0.25, 0.5, 0.25))
        formula = build_formula("III", triple, n=2)
        d1, d2 = formula.hidden_distributions
        assert d1.n == 2
        mean, stderr = _count_cells(mc_mean_pair(formula.evaluate, d1, d2, 1_000_000, 16, formula._table))
        assert abs(mean - 0.25) < 4 * stderr

    def test_mean_law_over_random_feasible_instances(self):
        rng = np.random.default_rng(22)
        cases = ("III", "IV", "V", "VI")
        for trial in range(50):
            lam = tuple(rng.normal(size=3))
            probs = random_simplex(rng)
            formula = build_formula(cases[trial % 4], SpectralTriple(lam, probs))
            d1, d2 = formula.hidden_distributions
            mean, stderr = _count_cells(mc_mean_pair(formula.evaluate, d1, d2, 200_000, 500 + trial, formula._table))
            assert abs(mean - float(np.dot(probs, lam))) <= max(4 * stderr, 1e-12)


class TestHvStatistics:
    @pytest.mark.parametrize("case_id", ["III", "IV", "V", "VI"])
    def test_mean_and_quadratic_law(self, case_id):
        rng = np.random.default_rng(17)
        for _ in range(50):
            lam = tuple(rng.normal(size=3))
            probs = random_simplex(rng)
            stats = hv_statistics(build_formula(case_id, SpectralTriple(lam, probs)))
            assert stats.mean == pytest.approx(float(np.dot(probs, lam)), abs=1e-12)
            assert stats.second_moment == pytest.approx(
                float(np.dot(probs, np.square(lam))), abs=1e-12
            )

    def test_variance_is_centred_at_a_large_offset(self):
        lam = (1e8, 100000001.0, 99999999.0)
        stats = hv_statistics(build_formula("III", SpectralTriple(lam, (0.25, 0.5, 0.25))))
        assert stats.variance == pytest.approx(0.6875, abs=1e-9)

    def test_deterministic_probability_vector(self):
        stats = hv_statistics(build_formula("III", SpectralTriple((2.0, 1.0, -3.0), (1.0, 0.0, 0.0))))
        assert stats.mean == pytest.approx(2.0, abs=1e-12)
        assert stats.variance == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pair", [("V", "III"), ("VI", "IV")])
    def test_case_mappings_give_identical_statistics(self, pair):
        rng = np.random.default_rng(18)
        for _ in range(25):
            lam = tuple(rng.normal(size=3))
            probs = random_simplex(rng)
            left = hv_statistics(build_formula(pair[0], SpectralTriple(lam, probs)))
            right = hv_statistics(build_formula(pair[1], SpectralTriple(lam, probs)))
            assert left.mean == pytest.approx(right.mean, abs=1e-12)
            assert left.second_moment == pytest.approx(right.second_moment, abs=1e-12)

    def test_case_v_is_case_iii_with_flipped_second_sign(self):
        lam = (0.4, 1.9, -0.8)
        probs = (0.5, 0.2, 0.3)
        f3 = build_formula("III", SpectralTriple(lam, probs))
        f5 = build_formula("V", SpectralTriple(lam, probs))
        for s1, s2 in SIGN_PATTERNS:
            assert f5.evaluate_signs(s1, s2) == f3.evaluate_signs(s1, -s2)
        assert f5.sign2.bias == pytest.approx(-f3.sign2.bias, abs=1e-15)

    @given(
        p1=st.floats(min_value=0.0, max_value=1.0),
        split=st.floats(min_value=0.0, max_value=1.0),
        l2=st.floats(min_value=-3.0, max_value=3.0),
        l3=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_quadratic_law_property(self, p1, split, l2, l3):
        p2 = (1.0 - p1) * split
        p3 = 1.0 - p1 - p2
        lam = (-(l2 + l3), l2, l3)
        stats = hv_statistics(build_formula("IV", SpectralTriple(lam, (p1, p2, p3))))
        assert stats.second_moment == pytest.approx(
            p1 * lam[0] ** 2 + p2 * l2**2 + p3 * l3**2, abs=1e-10
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda **kw: build_formula("III", SpectralTriple((0.0, 1.0, -1.0), (0.25, 0.5, 0.25)), **kw),
        lambda **kw: beable_from_operator([0.0, 0.0, 1.0], ANG, QuantumState.from_pure([0.6, 0.0, 0.8]), **kw),
    ],
    ids=["build_formula", "beable_from_operator"],
)
def test_rule_norm_is_not_settable(build):
    # both sign factors run on the unit-norm density; scale independence
    # is a property of SignFunctionSpec and PowerLawDistribution
    formula = build()
    assert formula.sign1.norm == formula.sign2.norm == 1.0
    with pytest.raises(TypeError):
        build(norm=2.0)


class TestBeableFromOperator:
    def test_direction_pipeline_matches_named_spectrum(self):
        from hvlab.oracle import born_distribution

        beta = np.array([2.0, -1.0, 2.0]) / 3.0
        state = QuantumState.from_pure([0.6, 0.0, 0.8])
        formula = beable_from_operator(beta, ANG, state, case_id="III")
        np.testing.assert_allclose(formula.values, (0.0, 1.0, -1.0), atol=1e-10)
        born = born_distribution(linear_observable(beta, ANG), state)
        # the repeated slot carries the Born weight of the zero outcome
        assert formula.probabilities[0] == pytest.approx(born.probabilities[1], abs=1e-10)
        assert formula.probabilities[1] == pytest.approx(born.probabilities[0], abs=1e-10)
        assert formula.probabilities[2] == pytest.approx(born.probabilities[2], abs=1e-10)

    def test_eigenstate_statistics(self):
        coeffs = np.zeros(8)
        coeffs[2] = 1.0
        state = QuantumState.from_pure([1.0, 0.0, 0.0])
        stats = hv_statistics(beable_from_operator(coeffs, GM, state))
        assert stats.mean == pytest.approx(1.0, abs=1e-10)
        assert stats.variance == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("kind_coeffs", [("gm", 8), ("ang", 3)])
    def test_oracle_equivalence_random(self, kind_coeffs):
        kind, ncoeff = kind_coeffs
        basis = GM if kind == "gm" else ANG
        rng = np.random.default_rng(19)
        for _ in range(100):
            coeffs = rng.normal(size=ncoeff)
            state = random_pure_state(3, rng)
            formula = beable_from_operator(coeffs, basis, state, case_id="III")
            stats = hv_statistics(formula)
            matrix = linear_observable(coeffs, basis)
            assert stats.mean == pytest.approx(expectation(matrix, state), abs=1e-10)
            assert stats.variance == pytest.approx(variance(matrix, state), abs=1e-10)

    def test_repeated_index_is_not_settable(self):
        # the middle eigenvalue always plays the repeated role
        beta = np.array([0.0, 0.0, 1.0])
        state = QuantumState.from_pure([0.6, 0.8, 0.0])
        assert beable_from_operator(beta, ANG, state).values[0] == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(TypeError):
            beable_from_operator(beta, ANG, state, repeated_index=0)

    def test_mc_against_oracle(self):
        rng = np.random.default_rng(20)
        coeffs = rng.normal(size=8)
        state = random_pure_state(3, rng)
        formula = beable_from_operator(coeffs, GM, state, case_id="IV")
        d1, d2 = formula.hidden_distributions
        mean, stderr = _count_cells(mc_mean_pair(formula.evaluate, d1, d2, 1_000_000, 21, formula._table))
        matrix = linear_observable(coeffs, GM)
        assert abs(mean - expectation(matrix, state)) < 4 * stderr

    def test_two_by_two_rejected(self):
        pauli = build_basis("pauli")
        with pytest.raises(ValueError):
            beable_from_operator([0.0, 0.0, 1.0], pauli, QuantumState.from_pure([1, 0]))
