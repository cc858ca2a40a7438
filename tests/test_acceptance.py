"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on passing runs).  Expected values are computed here by independent
routes: midpoint-rule quadrature for the sign-function averages, the
trace-based quantum reference for means and variances, and direct
three-outcome arithmetic for the deformed constraint model.
"""

import functools
import math

import numpy as np
import pytest

from hvlab.distributions import PowerLawDistribution, SignFunctionSpec, _count_cells, mc_mean, sign_mean_analytic
from hvlab.ks import (
    SHARED_HIDDEN,
    DeformedKsModel,
    KsModel,
    deformed_outcomes,
    deformed_statistics,
    dispersion_scan,
    ks_model_from_state,
    ks_sign_specs,
    ks_square_outcomes,
    ks_statistics,
)
from hvlab.oracle import (
    ANGULAR_MOMENTUM,
    GELL_MANN,
    PAULI,
    QuantumState,
    bloch_vector,
    build_basis,
    expectation,
    linear_observable,
    random_pure_state,
    variance,
)
from hvlab.spin_half import (
    bell_outcome_modified,
    bell_outcome_original,
    homogeneity_split,
    hv_statistics as spin_half_statistics,
    original_sign_function,
    original_statistics,
)
from hvlab.spin_one import (
    CASE_IDS,
    SIGN_PATTERNS,
    CaseAssignment,
    InfeasibleCaseError,
    SpectralTriple,
    beable_from_operator,
    build_formula,
    hv_statistics,
    sign_targets,
    solve_coefficients,
)

PAULI_BASIS = build_basis(PAULI)
GM_BASIS = build_basis(GELL_MANN)
ANG_BASIS = build_basis(ANGULAR_MOMENTUM)

XI_GRID = [round(-1.0 + 0.1 * k, 10) for k in range(21)]


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


def midpoint_sign_mean(n, xi, points=1_000_000):
    """Independent quadrature of the sign-function average: midpoint
    rule against the density norm (2n+1) x^(2n), written out here with
    x^(2n) by repeated squaring, split at the sign change."""
    dist = PowerLawDistribution(n)
    edge = dist.support_edge
    cut = min((abs(xi) / 2.0) ** (1.0 / (2 * n + 1)), edge)
    total = 0.0
    for lo, hi, sign in ((-edge, -cut, -1.0), (-cut, edge, 1.0)):
        if hi <= lo:
            continue
        count = max(int(points * (hi - lo) / (2 * edge)), 8)
        weight = 0.0
        # the points lo + (k + 1/2) (hi - lo) / count, squared, in place and
        # in chunks that stay in cache
        for start in range(0, count, 1 << 14):
            square = np.arange(start, min(start + (1 << 14), count), dtype=float)
            square += 0.5
            square *= hi - lo
            square /= count
            square += lo
            np.square(square, out=square)
            power = np.ones(square.size)
            for bit in range(n.bit_length()):
                if n >> bit & 1:
                    power *= square
                np.square(square, out=square)
            weight += power.sum()
        total += sign * float(dist.norm * (2 * n + 1) * weight * (hi - lo) / count)
    return total


@criterion(1, "sign-average law")
def test_criterion_1_sign_average_law():
    for n in range(7):
        dist = PowerLawDistribution(n)
        batch = dist.sample(1_000_000, np.random.default_rng(1000 + n))
        for xi in XI_GRID:
            spec = SignFunctionSpec(xi, n=n)
            assert sign_mean_analytic(spec) == abs(xi)
            assert midpoint_sign_mean(n, xi) == pytest.approx(abs(xi), abs=1e-6)
            # the values are +1 at or above the cut and -1 below it: their mean
            # and ddof-1 standard error follow from the count at or above
            above = np.count_nonzero(batch >= spec.cut)
            mean = (2 * above - batch.size) / batch.size
            stderr = math.sqrt(4.0 * above * (batch.size - above) / (batch.size - 1)) / batch.size
            assert abs(mean - abs(xi)) <= max(4.0 * stderr, 1e-12)


@criterion(2, "spin-1/2 oracle equivalence")
def test_criterion_2_bell_spin_half():
    rng = np.random.default_rng(2)
    for _ in range(200):
        beta = 2.0 * rng.normal(size=3)
        state = random_pure_state(2, rng)
        bloch = bloch_vector(state, PAULI_BASIS)
        matrix = linear_observable(beta, PAULI_BASIS)
        stats = spin_half_statistics(beta, bloch)
        assert stats.mean == pytest.approx(expectation(matrix, state), abs=1e-10)
        assert stats.variance == pytest.approx(variance(matrix, state), abs=1e-10)

    up = QuantumState.from_pure([1.0, 0.0])
    for _ in range(200):
        beta = 2.0 * rng.normal(size=3)
        matrix = linear_observable(beta, PAULI_BASIS)
        assert original_statistics(beta).mean == pytest.approx(expectation(matrix, up), abs=1e-10)

    flat = PowerLawDistribution(0)
    for seed, beta in enumerate(([0.6, -0.8, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])):
        cuts = (original_sign_function(beta).cut,)
        counts = mc_mean(lambda xs: bell_outcome_original(beta, xs), flat, 1_000_000, 2000 + seed, cuts)
        mean, stderr = _count_cells(counts)
        assert abs(mean - beta[2]) <= max(4.0 * stderr, 1e-12)


@criterion(3, "homogeneity violation")
def test_criterion_3_homogeneity():
    offset, beta = 1.5, np.array([0.3, -0.4, 0.8])
    bloch = np.array([0.2, 0.5, 0.6])
    mag = float(np.linalg.norm(beta))
    assert float(np.dot(beta, bloch)) > 0
    split = homogeneity_split(offset, beta, bloch)
    assert split.mean_plus == pytest.approx(offset + mag, abs=1e-10)
    assert split.mean_minus == pytest.approx(offset - mag, abs=1e-10)

    hidden = PowerLawDistribution(0).sample(1_000_000, np.random.default_rng(3))
    outcomes = offset + bell_outcome_modified(beta, bloch, hidden)
    upper = hidden >= split.split_point
    for mask, target in ((upper, split.mean_plus), (~upper, split.mean_minus)):
        part = outcomes[mask]
        stderr = part.std(ddof=1) / np.sqrt(part.size)
        assert abs(part.mean() - target) <= max(4.0 * stderr, 1e-12)

    rng = np.random.default_rng(33)
    for _ in range(100):
        beta = 2.0 * rng.normal(size=3)
        bloch = bloch_vector(random_pure_state(2, rng), PAULI_BASIS)
        offset = float(rng.normal())
        split = homogeneity_split(offset, beta, bloch)
        mag = float(np.linalg.norm(beta))
        assert {round(split.mean_plus - offset, 9), round(split.mean_minus - offset, 9)} == {
            round(mag, 9),
            round(-mag, 9),
        }
        recombined = split.weight_plus * split.mean_plus + split.weight_minus * split.mean_minus
        assert recombined == pytest.approx(offset + float(np.dot(beta, bloch)), abs=1e-10)


@criterion(4, "spin-1 case tables and feasibility")
def test_criterion_4_case_tables():
    lam = (0.7, 2.1, -1.3)
    for case_id in CASE_IDS:
        for swap in (False, True):
            assignment = CaseAssignment(case_id, swap)
            coeffs = solve_coefficients(assignment, lam)
            a, b, c, d = coeffs
            for (s1, s2), expected in zip(SIGN_PATTERNS, assignment.outcomes(lam)):
                assert a + b * s1 + c * s2 + d * s1 * s2 == pytest.approx(expected, abs=1e-12)
            feasible_probs = (0.6, 0.25, 0.15)
            try:
                formula = build_formula(case_id, SpectralTriple(lam, feasible_probs), swap=swap)
            except InfeasibleCaseError:
                pytest.fail(f"case {case_id} unexpectedly infeasible at {feasible_probs}")
            for (s1, s2), expected in zip(SIGN_PATTERNS, assignment.outcomes(lam)):
                assert formula.evaluate_signs(s1, s2) == expected

    edges = np.linspace(0.0, 1.0, 21)
    for case_id in ("III", "IV", "V", "VI"):
        for p1 in edges:
            for p2 in edges:
                p3 = 1.0 - p1 - p2
                if p3 < -1e-12:
                    continue
                t1, t2 = sign_targets(case_id, (p1, p2, max(p3, 0.0)))
                assert abs(t1) <= 1.0 and abs(t2) <= 1.0

    for case_id in ("I", "II"):
        with pytest.raises(InfeasibleCaseError):
            sign_targets(case_id, (0.0, 0.5, 0.5))


@criterion(5, "quadratic consistency")
def test_criterion_5_quadratic_consistency():
    rng = np.random.default_rng(5)
    for case_id in ("III", "IV", "V", "VI"):
        for _ in range(50):
            lam = tuple(rng.normal(size=3))
            probs = tuple(rng.dirichlet(np.ones(3)))
            stats = hv_statistics(build_formula(case_id, SpectralTriple(lam, probs)))
            assert stats.second_moment == pytest.approx(
                float(np.dot(probs, np.square(lam))), abs=1e-12
            )

    for left, right in (("V", "III"), ("VI", "IV")):
        for _ in range(50):
            lam = tuple(rng.normal(size=3))
            probs = tuple(rng.dirichlet(np.ones(3)))
            a = hv_statistics(build_formula(left, SpectralTriple(lam, probs)))
            b = hv_statistics(build_formula(right, SpectralTriple(lam, probs)))
            assert a.mean == pytest.approx(b.mean, abs=1e-12)
            assert a.second_moment == pytest.approx(b.second_moment, abs=1e-12)
            assert a.variance == pytest.approx(b.variance, abs=1e-12)


@criterion(6, "spin-1 oracle equivalence")
def test_criterion_6_spin_one_oracle():
    rng = np.random.default_rng(6)
    for basis, size in ((GM_BASIS, 8), (ANG_BASIS, 3)):
        for _ in range(100):
            coeffs = rng.normal(size=size)
            state = random_pure_state(3, rng)
            formula = beable_from_operator(coeffs, basis, state, case_id="III")
            stats = hv_statistics(formula)
            matrix = linear_observable(coeffs, basis)
            assert stats.mean == pytest.approx(expectation(matrix, state), abs=1e-10)
            assert stats.variance == pytest.approx(variance(matrix, state), abs=1e-10)

    for _ in range(100):
        model = ks_model_from_state(random_pure_state(3, rng))
        assert ks_statistics(model).mean == pytest.approx(2.0, abs=1e-10)


@criterion(7, "constraint dispersion extremes")
def test_criterion_7_ks_dispersion():
    assert ks_statistics(KsModel((0.0, 0.0, 1.0))).second_moment == 4.0
    assert ks_statistics(KsModel((1 / 3, 1 / 3, 1 / 3))).second_moment == 6.0

    table = dispersion_scan(0.01)
    values = table[:, 3]
    assert np.all(values >= -1e-12)
    assert np.all(values <= 2.0 + 1e-12)
    assert abs(values.min() - 0.0) < 1e-4
    assert abs(values.max() - 2.0) < 1e-4

    rng = np.random.default_rng(7)
    for seed in range(10):
        probs = tuple(rng.dirichlet(np.ones(3)))
        model = KsModel(probs)
        counts = mc_mean(
            lambda xs: sum(ks_square_outcomes(model, xs)) ** 2,
            SHARED_HIDDEN,
            1_000_000,
            7000 + seed,
            [spec.cut for spec in ks_sign_specs(model)],
        )
        mean, stderr = _count_cells(counts)
        assert abs(mean - ks_statistics(model).second_moment) <= max(4.0 * stderr, 1e-12)


@criterion(8, "deformed-model statistics")
def test_criterion_8_deformed_model():
    rng = np.random.default_rng(8)

    def direct(model):
        outs = np.array(deformed_outcomes(model))
        weights = np.array(model.probabilities)
        mean = float(outs @ weights)
        return mean, float(np.square(outs) @ weights) - mean * mean

    # stated closed forms, on slot assignments where the one-sided
    # variance expression eps^2 (s - s^2) is the exact variance
    for eps, probs in ((0.05, (0.3, 0.7, 0.0)), (0.01, (0.0, 0.6, 0.4)), (0.5, (0.5, 0.5, 0.0))):
        model = DeformedKsModel(eps, probs)
        mean, var = direct(model)
        s = probs[0] + probs[2]
        assert 2.0 + eps * (probs[0] - probs[2]) == pytest.approx(mean, abs=1e-12)
        assert eps * eps * (s - s * s) == pytest.approx(var, abs=1e-12)

    # general slots: the implemented closed forms against the direct
    # three-outcome computation
    for _ in range(100):
        eps = float(10.0 ** rng.uniform(-4, -1))
        probs = tuple(rng.dirichlet(np.ones(3)))
        model = DeformedKsModel(eps, probs)
        stats = deformed_statistics(model)
        mean, var = direct(model)
        assert stats.mean == pytest.approx(mean, abs=1e-12)
        assert stats.variance == pytest.approx(var, abs=1e-12)
        assert stats.variance == pytest.approx(stats.second_moment - stats.mean**2, abs=1e-12)

    eps_grid = np.logspace(-4, -1, 16)
    for probs in ((0.25, 0.5, 0.25), (0.4, 0.6, 0.0)):
        variances = [deformed_statistics(DeformedKsModel(float(e), probs)).variance for e in eps_grid]
        slope = float(np.polyfit(np.log(eps_grid), np.log(variances), 1)[0])
        assert slope == pytest.approx(2.0, abs=0.01)


@criterion(9, "quantum-classical contradiction")
def test_criterion_9_contradiction():
    constraint = sum(op @ op for op in ANG_BASIS.operators[:3])
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = random_pure_state(3, rng)
        assert abs(variance(constraint, state)) < 1e-12
    assert ks_statistics(KsModel((1 / 3, 1 / 3, 1 / 3))).variance == pytest.approx(2.0, abs=1e-12)
