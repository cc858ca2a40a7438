"""Tests for the power-law densities, sign functions and MC estimator."""

import functools
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab import ks, spin_half, spin_one
from hvlab.distributions import (
    Moments,
    PowerLawDistribution,
    SignFunctionSpec,
    _count_cells,
    _lattice_cells,
    _lattice_thresholds,
    _outcome_counts,
    mc_mean,
    mc_mean_pair,
    sign_mean_analytic,
    sign_mean_quadrature,
    sign_pm,
    sign_product_mean_analytic,
    sign_product_mean_quadrature,
)

XI_GRID = [round(-1.0 + 0.1 * k, 10) for k in range(21)]


def _simpson(ys, xs):
    # composite Simpson on an odd-length uniform grid
    step = xs[1] - xs[0]
    return step / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def test_a_silent_nan_fails_the_suite():
    # pyproject.toml turns numpy's RuntimeWarning into an error under pytest
    with pytest.raises(RuntimeWarning):
        np.log(np.zeros(1))


def test_sign_pm_convention():
    assert sign_pm(0.0) == 1.0
    assert sign_pm(-0.0) == 1.0
    assert sign_pm(2.5) == 1.0
    assert sign_pm(-1e-300) == -1.0
    np.testing.assert_array_equal(sign_pm(np.array([-1.0, 0.0, 3.0])), [-1.0, 1.0, 1.0])


class TestPowerLawDistribution:
    def test_flat_case(self):
        dist = PowerLawDistribution(0, 1.0)
        assert dist.scale == 0.5
        assert dist.support_edge == 0.5
        assert dist.density(0.2) == 1.0
        assert dist.density(0.8) == 0.0

    def test_density_example_n1(self):
        dist = PowerLawDistribution(1, 1.0)
        assert dist.density(0.5) == pytest.approx(3 * 0.25, abs=1e-15)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("norm", [0.5, 1.0, 2.0])
    def test_normalisation_by_quadrature(self, n, norm):
        dist = PowerLawDistribution(n, norm)
        xs = np.linspace(-dist.support_edge, dist.support_edge, 200_001)
        total = _simpson(dist.density(xs), xs)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_cdf_matches_quadrature(self):
        dist = PowerLawDistribution(2, 1.0)
        edge = dist.support_edge
        for x in (-0.6, -0.1, 0.0, 0.3, 0.8):
            xs = np.linspace(-edge, min(x, edge), 100_001)
            expected = np.trapezoid(dist.density(xs), xs) if x > -edge else 0.0
            assert dist.cdf(x) == pytest.approx(expected, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PowerLawDistribution(-1)
        with pytest.raises(ValueError):
            PowerLawDistribution(0, 0.0)
        # 1/norm overflows: every draw would be +-inf
        with pytest.raises(ValueError):
            PowerLawDistribution(1, 4e-309)
        # 1/(2 norm) is 0: every draw would be 0
        for norm in (1e308, math.inf):
            with pytest.raises(ValueError):
                PowerLawDistribution(0, norm)
        for n in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                PowerLawDistribution(n)


class TestSampler:
    def test_flat_samples_are_uniform(self):
        dist = PowerLawDistribution(0)
        xs = dist.sample(1_000_000, np.random.default_rng(7))
        assert np.all(np.abs(xs) <= 0.5)
        grid = np.sort(xs)
        empirical = np.arange(1, grid.size + 1) / grid.size
        ks_stat = np.max(np.abs(empirical - dist.cdf(grid)))
        assert ks_stat < 0.01

    def test_second_moment_matches_quadrature(self):
        dist = PowerLawDistribution(2)
        xs = dist.sample(1_000_000, np.random.default_rng(11))
        grid = np.linspace(-dist.support_edge, dist.support_edge, 200_001)
        expected = np.trapezoid(grid**2 * dist.density(grid), grid)
        observed = float(np.mean(xs**2))
        stderr = float(np.std(xs**2, ddof=1) / np.sqrt(xs.size))
        assert abs(observed - expected) < 4 * stderr

    def test_mean_is_zero(self):
        dist = PowerLawDistribution(3)
        xs = dist.sample(1_000_000, np.random.default_rng(13))
        stderr = float(np.std(xs, ddof=1) / np.sqrt(xs.size))
        assert abs(float(np.mean(xs))) < 4 * stderr

    def test_determinism(self):
        dist = PowerLawDistribution(1)
        a = dist.sample(10_000, np.random.default_rng(99))
        b = dist.sample(10_000, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    @given(n=st.integers(min_value=0, max_value=6), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_samples_stay_in_support(self, n, seed):
        dist = PowerLawDistribution(n)
        xs = dist.sample(512, np.random.default_rng(seed))
        assert np.all(np.abs(xs) <= dist.support_edge + 1e-15)


class TestSignFunction:
    def test_saturated_bias_is_constant(self):
        spec = SignFunctionSpec(1.0)
        xs = PowerLawDistribution(0).sample(1000, np.random.default_rng(3))
        assert np.all(spec.evaluate(xs) == 1.0)

    def test_zero_bias_is_plain_sign(self):
        spec = SignFunctionSpec(0.0)
        assert spec.evaluate(-0.2) == -1.0
        assert spec.evaluate(0.2) == 1.0
        assert spec.evaluate(0.0) == 1.0

    def test_hand_evaluation(self):
        # n=0, bias 0.6: threshold 0.3, so -0.2 lands on the positive side
        spec = SignFunctionSpec(0.6, n=0)
        assert spec.threshold == pytest.approx(0.3, abs=1e-15)
        assert spec.evaluate(-0.2) == 1.0

    def test_bias_bound_enforced(self):
        with pytest.raises(ValueError):
            SignFunctionSpec(1.1)

    @pytest.mark.parametrize("bias", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bias_rejected(self, bias):
        with pytest.raises(ValueError):
            SignFunctionSpec(bias)

    @pytest.mark.parametrize(
        "n, norm", [(1, -1.0), (0, 0.0), (0, math.nan), (0, 4e-309), (0, math.inf), (0.5, 1.0), (-1, 1.0), (math.inf, 1.0)]
    )
    def test_invalid_n_or_norm_rejected(self, n, norm):
        # a negative norm gave a complex threshold and a mean of |bias|
        with pytest.raises(ValueError):
            SignFunctionSpec(0.5, n=n, norm=norm)

    def test_prefactor_flips_negative_bias(self):
        plain = SignFunctionSpec(-0.4)
        signed = SignFunctionSpec(-0.4, include_sign_prefactor=True)
        xs = np.linspace(-0.49, 0.49, 101)
        np.testing.assert_array_equal(signed.evaluate(xs), -plain.evaluate(xs))

    @given(
        bias=st.floats(min_value=-1.0, max_value=1.0),
        n=st.integers(min_value=0, max_value=6),
        x=st.floats(min_value=-0.99, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_values_are_plus_minus_one(self, bias, n, x):
        spec = SignFunctionSpec(bias, n=n, include_sign_prefactor=True)
        assert spec.evaluate(x) in (-1.0, 1.0)


class TestAnalyticMeans:
    @pytest.mark.parametrize("xi", XI_GRID)
    def test_mean_is_abs_bias(self, xi):
        assert sign_mean_analytic(SignFunctionSpec(xi)) == abs(xi)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("xi", XI_GRID)
    def test_mean_independent_of_n(self, n, xi):
        assert sign_mean_analytic(SignFunctionSpec(xi, n=n)) == abs(xi)

    @pytest.mark.parametrize("norm", [0.5, 1.0, 2.0])
    def test_mean_independent_of_norm(self, norm):
        assert sign_mean_analytic(SignFunctionSpec(0.7, n=2, norm=norm)) == 0.7

    def test_prefactored_mean_is_bias(self):
        assert sign_mean_analytic(SignFunctionSpec(-0.7, include_sign_prefactor=True)) == -0.7

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("xi", XI_GRID)
    def test_quadrature_oracle(self, n, xi):
        # Gauss-Legendre is exact here, so this lands far inside the 1e-6 band
        spec = SignFunctionSpec(xi, n=n)
        assert sign_mean_quadrature(spec) == pytest.approx(abs(xi), abs=1e-6)

    @pytest.mark.parametrize("norm", [0.5, 2.0])
    def test_quadrature_scale_independence(self, norm):
        spec = SignFunctionSpec(0.4, n=1, norm=norm)
        assert sign_mean_quadrature(spec) == pytest.approx(0.4, abs=1e-6)


class TestProductMean:
    def test_one_formula_for_scalars_and_arrays(self):
        # the scalar mean and the ks layer's vectorised pair sums share one helper
        import hvlab.distributions
        import hvlab.ks

        helper = hvlab.distributions._sign_product_mean
        assert hvlab.ks._sign_product_mean is helper
        edges = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]
        rng = np.random.default_rng(17)
        b1 = np.concatenate([np.repeat(edges, 6), rng.uniform(-1.0, 1.0, 40_000)])
        b2 = np.concatenate([np.tile(edges, 6), rng.uniform(-1.0, 1.0, 40_000)])
        vectorised = helper(b1, b2)
        scalar = [
            sign_product_mean_analytic(SignFunctionSpec(x, include_sign_prefactor=True), SignFunctionSpec(y, include_sign_prefactor=True))
            for x, y in zip(b1.tolist(), b2.tolist())
        ]
        assert all(type(value) is float for value in scalar[:36])
        # bit for bit, signed zeros included
        assert vectorised.tobytes() == np.array(scalar).tobytes()
        reference = np.array([sign_pm(x) * sign_pm(y) * (1.0 - abs(abs(x) - abs(y))) for x, y in zip(b1.tolist(), b2.tolist())])
        assert vectorised.tobytes() == reference.tobytes()

    def test_identical_functions_give_one(self):
        spec = SignFunctionSpec(0.3, include_sign_prefactor=True)
        assert sign_product_mean_analytic(spec, spec) == 1.0

    def test_printed_regime(self):
        # |b1| >= |b2|, both positive: 1 + |b2| - |b1|
        a = SignFunctionSpec(0.8, include_sign_prefactor=True)
        b = SignFunctionSpec(0.3, include_sign_prefactor=True)
        assert sign_product_mean_analytic(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_mixed_signs_against_quadrature(self):
        a = SignFunctionSpec(0.8, include_sign_prefactor=True)
        b = SignFunctionSpec(-0.3, include_sign_prefactor=True)
        analytic = sign_product_mean_analytic(a, b)
        assert analytic == pytest.approx(-0.5, abs=1e-15)
        assert analytic == pytest.approx(sign_product_mean_quadrature(a, b), abs=1e-6)

    def test_requires_prefactored_forms(self):
        with pytest.raises(ValueError):
            sign_product_mean_analytic(SignFunctionSpec(0.5), SignFunctionSpec(0.5, include_sign_prefactor=True))

    def test_requires_shared_distribution(self):
        a = SignFunctionSpec(0.5, n=0, include_sign_prefactor=True)
        b = SignFunctionSpec(0.5, n=1, include_sign_prefactor=True)
        with pytest.raises(ValueError):
            sign_product_mean_analytic(a, b)

    @given(
        b1=st.floats(min_value=-1.0, max_value=1.0),
        b2=st.floats(min_value=-1.0, max_value=1.0),
        n=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, b1, b2, n):
        a = SignFunctionSpec(b1, n=n, include_sign_prefactor=True)
        b = SignFunctionSpec(b2, n=n, include_sign_prefactor=True)
        forward = sign_product_mean_analytic(a, b)
        assert forward == sign_product_mean_analytic(b, a)
        assert abs(forward) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("pair", [(0.9, 0.2), (-0.6, 0.4), (0.0, 0.5), (-0.7, -0.7)])
    def test_general_form_against_quadrature(self, n, pair):
        a = SignFunctionSpec(pair[0], n=n, include_sign_prefactor=True)
        b = SignFunctionSpec(pair[1], n=n, include_sign_prefactor=True)
        assert sign_product_mean_analytic(a, b) == pytest.approx(
            sign_product_mean_quadrature(a, b), abs=1e-6
        )


class TestMcMean:
    def test_constant_function_is_exact(self):
        mean, stderr = _count_cells(mc_mean(lambda xs: np.ones_like(xs), PowerLawDistribution(0), 10_000, 42, ()))
        assert mean == 1.0
        assert stderr == 0.0

    def test_sign_mean_within_band(self):
        spec = SignFunctionSpec(0.5)
        mean, stderr = _count_cells(mc_mean(spec.evaluate, PowerLawDistribution(0), 1_000_000, 42, (spec.cut,)))
        assert abs(mean - 0.5) < 4 * stderr

    def test_product_within_band(self):
        a = SignFunctionSpec(0.8, include_sign_prefactor=True)
        b = SignFunctionSpec(0.3, include_sign_prefactor=True)
        counts = mc_mean(lambda xs: a.evaluate(xs) * b.evaluate(xs), PowerLawDistribution(0), 1_000_000, 7, (a.cut, b.cut))
        mean, stderr = _count_cells(counts)
        assert abs(mean - 0.5) < 4 * stderr

    def test_seed_determinism(self):
        spec = SignFunctionSpec(0.3)
        a = mc_mean(spec.evaluate, PowerLawDistribution(0), 300_000, 5, (spec.cut,))
        b = mc_mean(spec.evaluate, PowerLawDistribution(0), 300_000, 5, (spec.cut,))
        assert a == b

    def test_a_seed_past_64_bits_is_used_as_given(self):
        # 2**64 drew the stream of seed 0 while the seed was masked to 64 bits
        spec = SignFunctionSpec(0.3)
        zero, wide = (mc_mean(spec.evaluate, PowerLawDistribution(0), 20_000, seed, (spec.cut,)) for seed in (0, 2**64))
        assert zero != wide
        with pytest.raises(ValueError):
            mc_mean(spec.evaluate, PowerLawDistribution(0), 20_000, -5, (spec.cut,))

    def test_second_moment_is_the_squared_pass(self):
        spec = SignFunctionSpec(0.3, n=1)
        dist = PowerLawDistribution(1)

        def f(xs):
            return 2.0 * spec.evaluate(xs) + sign_pm(xs)

        cuts = (spec.cut, 0.0)
        counts = mc_mean(f, dist, 300_000, 9, cuts)
        squared = mc_mean(lambda xs: f(xs) ** 2, dist, 300_000, 9, cuts)
        assert _count_cells([(value * value, count) for value, count in counts]) == _count_cells(squared)

    @pytest.mark.parametrize("offset", [1e5, 1e7])
    def test_spread_survives_large_offset(self, offset):
        # the sum-of-squares form cancels here: stderr 0 at 1e5, 256x too large at 1e7
        counts = mc_mean(lambda xs: offset + 1e-3 * sign_pm(xs), PowerLawDistribution(0), 10**6, 1, (0.0,))
        mean, stderr = _count_cells(counts)
        assert stderr == pytest.approx(1e-6, rel=0.01)
        assert mean == pytest.approx(offset, abs=1e-5)

    def test_pair_streams_are_independent(self):
        dist = PowerLawDistribution(0)
        # np.sign is 0 at 0 alone: cuts at 0 and at the least float above it
        cuts = (0.0, math.nextafter(0.0, 1.0))
        counts = mc_mean_pair(lambda x, y: np.sign(x) * np.sign(y), dist, dist, 400_000, 3, cuts, cuts)
        mean, stderr = _count_cells(counts)
        assert abs(mean) < 5 * stderr

    def test_worker_count_is_not_settable(self):
        # the engine is serial: one generator draws every count
        dist = PowerLawDistribution(0)
        with pytest.raises(TypeError):
            mc_mean(sign_pm, dist, 1000, 1, (0.0,), workers=2)
        with pytest.raises(TypeError):
            mc_mean_pair(lambda x, y: sign_pm(x), dist, dist, 1000, 1, (0.0,), (), workers=2)

    def test_cuts_are_required(self):
        # no fallback to evaluating the rule on every draw
        dist = PowerLawDistribution(0)
        with pytest.raises(TypeError):
            mc_mean(sign_pm, dist, 1000, 1)
        with pytest.raises(TypeError):
            mc_mean_pair(lambda x, y: sign_pm(x), dist, dist, 1000, 1, (0.0,))

    @pytest.mark.parametrize("cut", [np.nan, np.inf])
    def test_rejects_non_finite_cuts(self, cut):
        with pytest.raises(ValueError, match="cuts must be finite"):
            mc_mean(sign_pm, PowerLawDistribution(0), 1000, 1, (0.0, cut))

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            mc_mean(sign_pm, PowerLawDistribution(0), 0, 1, (0.0,))

    @pytest.mark.parametrize("corner", ["lower", "upper"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_at_a_cell_corner_raises(self, bad, corner):
        # the lower corner 0.25 of the cell [0.25, inf), or the upper corner
        # inf of the last cell alone, takes the bad value: found before any draw
        dist = PowerLawDistribution(0)
        at = 0.25 if corner == "lower" else np.inf
        with pytest.raises(ValueError, match="non-finite"):
            mc_mean(lambda xs: np.where(xs == at, bad, sign_pm(xs)), dist, 1000, 1, (0.0, 0.25))
        with pytest.raises(ValueError, match="non-finite"):
            mc_mean_pair(lambda x1, x2: np.where(x2 == at, bad, sign_pm(x1)), dist, dist, 1000, 1, (0.0,), (0.25,))

    def test_pairs_come_in_ascending_value_order_one_per_value(self):
        # cell values 1, 5, -2, 1 in cut order: one pair per distinct value, ascending
        dist, samples, seed = PowerLawDistribution(0), 50_000, 3

        def rule(xs):
            return np.select([xs >= 0.3, xs >= 0.1, xs >= -0.2], [1.0, -2.0, 5.0], 1.0)

        counts = mc_mean(rule, dist, samples, seed, (-0.2, 0.1, 0.3))
        assert [value for value, _ in counts] == [-2.0, 1.0, 5.0]
        assert sum(count for _, count in counts) == samples

    @pytest.mark.parametrize("prefactor, expected", [(False, [(-1.0, 0), (1.0, 1000)]), (True, [(-1.0, 1000), (1.0, 0)])])
    def test_a_cell_no_draw_reaches_keeps_its_value_with_count_0(self, prefactor, expected):
        # at |xi| = 1 the cut is the support edge: no draw falls below it
        spec = SignFunctionSpec(-1.0, include_sign_prefactor=prefactor)
        assert mc_mean(spec.evaluate, spec.distribution, 1000, 1, (spec.cut,)) == expected
        assert _count_cells(expected) == (sign_mean_analytic(spec), 0.0)

    def test_minus_zero_and_zero_are_one_pair(self):
        counts = mc_mean(lambda xs: np.where(xs >= 0.0, 0.0, -0.0), PowerLawDistribution(0), 1000, 1, (0.0,))
        assert counts == [(0.0, 1000)]
        assert math.copysign(1.0, counts[0][0]) == 1.0

    @pytest.mark.parametrize(
        "cuts1, cuts2", [((), ()), ((0.1,), ()), ((0.0,), ()), ((0.0,), (0.1,)), ((-0.3, 0.2), (0.19,))]
    )
    def test_a_rule_that_changes_inside_a_cell_raises(self, cuts1, cuts2):
        # the rule steps at x1 = 0 and at x2 = 0.2: some declared cell holds a step
        dist = PowerLawDistribution(0)
        with pytest.raises(ValueError, match="changes value inside a cell"):
            mc_mean_pair(lambda x1, x2: sign_pm(x1) * sign_pm(x2 - 0.2), dist, dist, 1000, 1, cuts1, cuts2)
        with pytest.raises(ValueError, match="changes value inside a cell"):
            mc_mean(sign_pm, dist, 1000, 1, cuts1[1:] + cuts2)

    def test_the_rule_is_called_once_at_the_cell_ends(self):
        calls = []
        spec = SignFunctionSpec(0.3, include_sign_prefactor=True)

        def rule(xs):
            calls.append(np.array(xs))
            return spec.evaluate(xs)

        counts = mc_mean(rule, PowerLawDistribution(0), 1_000_000, 1, (spec.cut,))
        assert sum(count for _, count in counts) == 1_000_000
        (ends,) = calls
        np.testing.assert_array_equal(ends, [-np.inf, np.nextafter(spec.cut, -np.inf), spec.cut, np.inf])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scalar_outcome_is_broadcast_and_exact(self, seed):
        samples = 150_001
        assert mc_mean(lambda xs: 2.5, PowerLawDistribution(1), samples, seed, ()) == [(2.5, samples)]
        dist = PowerLawDistribution(0)
        pair = mc_mean_pair(lambda x, y: -0.75, dist, dist, samples, seed, (), ())
        assert pair == [(-0.75, samples)]
        assert _count_cells(pair) == (-0.75, 0.0)
        assert _count_cells([(value * value, count) for value, count in pair]) == (0.5625, 0.0)
        assert _outcome_counts(lambda x: 2.5, (dist,), (0,), samples, seed, ((),)) == [(2.5, samples)]

    @pytest.mark.parametrize("n", range(4))
    def test_mc_matches_analytic_mean(self, n):
        spec = SignFunctionSpec(-0.6, n=n, include_sign_prefactor=True)
        mean, stderr = _count_cells(mc_mean(spec.evaluate, PowerLawDistribution(n), 400_000, 21 + n, (spec.cut,)))
        assert abs(mean - (-0.6)) < 5 * stderr


# Reference forms of the sampler's and the sign function's arithmetic, one
# temporary per step: both must reproduce them bit for bit, and each
# reference draw must take the value of the engine's lattice cell it is in.


def _reference_sample(dist, size, rng):
    t = 2.0 * rng.random(size) - 1.0
    return np.sign(t) * (np.abs(t) * dist.scale) ** (1.0 / (2 * dist.n + 1))


def _reference_sign(spec, x):
    out = sign_pm(np.asarray(x, dtype=float) + spec.threshold)
    if spec.include_sign_prefactor:
        out = out * sign_pm(spec.bias)
    return float(out) if np.ndim(x) == 0 else out


def _raw_draws(seed, size):
    """The integers k of the ``size`` uniforms k * 2**-53 that
    ``Generator.random`` draws from ``seed``: PCG64 takes the top 53 bits
    of each 64-bit output."""
    return (np.random.default_rng(seed).bit_generator.random_raw(size) >> np.uint64(11)).astype(np.int64)


def _assert_cells_match_the_draws(f, reference_f, dists, cuts, draws, seed):
    """Each of ``draws`` reference draws of every variable, variable i
    from the generator seeded [seed, i], takes the value reference_f
    gives it in the engine's lattice cell of its integers k: the cell
    whose K_j <= k < K_{j+1} for each variable, K the running sums of
    the widths ``_lattice_cells`` gives."""
    values, value_of_cell, widths = _lattice_cells(f, dists, cuts)
    xs, cell = [], 0
    for var, (dist, lane) in enumerate(zip(dists, widths)):
        xs.append(_reference_sample(dist, draws, np.random.default_rng([seed, var])))
        lane_cell = np.searchsorted(np.cumsum(lane[:-1]), _raw_draws([seed, var], draws), side="right")
        cell = cell * lane.size + lane_cell
    expected = np.broadcast_to(np.asarray(reference_f(*xs), dtype=float), (draws,))
    np.testing.assert_array_equal(np.take(values, np.take(value_of_cell, cell)), expected)


def _value_probabilities(f, dists, cuts):
    """The rule's distinct values in ascending order and the exact rational
    probability of each: the summed products of the widths of the lattice
    cells that take it, over 2**53 per variable."""
    values, value_of_cell, widths = _lattice_cells(f, dists, cuts)
    probs = [Fraction(0)] * len(values)
    for index, cell in zip(value_of_cell, itertools.product(*(lane.tolist() for lane in widths))):
        probs[index] += Fraction(math.prod(cell), 1 << 53 * len(widths))
    return values, probs


def _mc_counts(f, dists, samples, seed, cuts):
    """``mc_mean`` or ``mc_mean_pair`` of f, by its number of variables."""
    return (mc_mean if len(dists) == 1 else mc_mean_pair)(f, *dists, samples, seed, *cuts)


def _lattice_draws(dist, ks):
    """The sampler's draws of the uniforms k * 2**-53."""
    return dist.sample(ks.size, SimpleNamespace(random=lambda size: np.ldexp(ks, -53)))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestBitsMatchTheReference:
    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    @pytest.mark.parametrize("norm", [1.0, 0.37, 5.0, 1e300])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_sample_matches_reference(self, n, norm, seed):
        dist = PowerLawDistribution(n, norm)
        drawn = dist.sample(50_000, np.random.default_rng(seed))
        np.testing.assert_array_equal(_bits(drawn), _bits(_reference_sample(dist, 50_000, np.random.default_rng(seed))))

    @pytest.mark.parametrize("bias", [0.0, -0.0, 0.3, -0.3, 1.0, -1.0])
    @pytest.mark.parametrize("prefactor", [False, True])
    @pytest.mark.parametrize("n", [0, 2])
    def test_sign_matches_reference(self, bias, prefactor, n):
        spec = SignFunctionSpec(bias, n=n, include_sign_prefactor=prefactor)
        edge = -spec.threshold
        xs = np.array(
            [edge, np.nextafter(edge, 1.0), np.nextafter(edge, -1.0), 0.0, -0.0, np.nan, np.inf, -np.inf, -0.7, 0.2]
        )
        np.testing.assert_array_equal(_bits(spec.evaluate(xs)), _bits(_reference_sign(spec, xs)))
        for x in xs:
            value = spec.evaluate(float(x))
            assert type(value) is float
            assert _bits(value) == _bits(_reference_sign(spec, float(x)))


# biases whose cuts sit at the support edge (+-1), at -0.0 and 0.0, far
# below any draw's spacing (1e-300), or anywhere
BIASES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]), st.floats(-1.0, 1.0))


@st.composite
def _lane(draw, max_specs):
    """One hidden variable: its distribution and the sign functions of it that the rule uses."""
    n, norm = draw(st.integers(0, 3)), draw(st.sampled_from([1.0, 0.37, 5.0, 1e-3]))
    spec = st.builds(lambda bias, prefactor: SignFunctionSpec(bias, n=n, norm=norm, include_sign_prefactor=prefactor),
                     BIASES, st.booleans())
    return PowerLawDistribution(n, norm), draw(st.lists(spec, min_size=1, max_size=max_specs))


_A, _B = SignFunctionSpec(0.4, include_sign_prefactor=True), SignFunctionSpec(-0.7, n=1, include_sign_prefactor=True)
_C = SignFunctionSpec(-0.45, n=3, norm=0.8, include_sign_prefactor=True)
#: a rule of two variables and one of one, each made from a sign rule, with its distributions and cuts
FIXED_RULES = {
    "pair": (lambda sign: lambda x, y: 1e3 + sign(_A, x) - 2.0 * sign(_B, y) * sign(_A, x), (_A.distribution, _B.distribution),
             ((_A.cut,), (_B.cut,))),
    "mean": (lambda sign: lambda x: 3.0 * sign(_C, x) - sign_pm(x), (_C.distribution,), ((_C.cut, 0.0),)),
}


class TestCellCountsMatchTheDraws:
    @staticmethod
    def assert_counts_match(rule, dists, cuts, samples, seed):
        """The engine's counts of rule(SignFunctionSpec.evaluate) sum to the samples,
        and its cells give each reference draw the value of rule(_reference_sign)."""
        counts = _mc_counts(rule(SignFunctionSpec.evaluate), dists, samples, seed, cuts)
        assert sum(count for _, count in counts) == samples
        _assert_cells_match_the_draws(rule(SignFunctionSpec.evaluate), rule(_reference_sign), dists, cuts, samples, seed)

    @pytest.mark.parametrize("samples", [1, 1_000_000])
    @pytest.mark.parametrize("rule, seed", [("pair", 1), ("pair", 2), ("mean", 1), ("mean", 4)])
    def test_fixed_rules(self, rule, seed, samples):
        self.assert_counts_match(*FIXED_RULES[rule], samples, seed)

    @given(
        lanes=st.one_of(st.tuples(_lane(3)), st.tuples(_lane(3), _lane(1))),
        samples=st.integers(1, 50_000),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_engine_counts_equal_the_reference_counts(self, lanes, samples, seed):
        # the rule sums its sign functions with weights 1, 2, 4, ...: one value per sign pattern
        specs = [(var, spec) for var, (_, lane_specs) in enumerate(lanes) for spec in lane_specs]
        weighted = [(var, spec, 2.0**k) for k, (var, spec) in enumerate(specs)]

        def rule(sign):
            return lambda *xs: sum(w * sign(spec, xs[var]) for var, spec, w in weighted)

        dists = tuple(dist for dist, _ in lanes)
        cuts = [[spec.cut for spec in specs] for _, specs in lanes]
        self.assert_counts_match(rule, dists, cuts, samples, seed)

    @pytest.mark.parametrize("n", [0, 2])
    def test_a_draw_at_a_cut_counts_at_or_above_it(self, n):
        # cuts exactly at drawn values: the lattice must compare x >= c, as the rule does
        dist, draws, seed = PowerLawDistribution(n), 20_000, 11
        drawn = dist.sample(draws, np.random.default_rng([seed, 0]))
        cuts = (float(drawn[0]), float(drawn[-1]))

        def rule(xs):
            return (np.asarray(xs) >= cuts[0]) + 2.0 * (np.asarray(xs) >= cuts[1])

        _assert_cells_match_the_draws(rule, rule, (dist,), (cuts,), draws, seed)


class TestLatticeThresholds:
    """A real draw x of the sampler is at or above a cut c exactly when
    its integer k is at or above the cut's lattice threshold K_c."""

    @staticmethod
    def assert_sides(dist, cuts, seed, draws=100_000):
        xs = dist.sample(draws, np.random.default_rng(seed))
        # cuts at two drawn values and just above one of them, and the given ones
        points = sorted({*cuts, float(xs[0]), float(xs[1]), math.nextafter(float(xs[0]), math.inf)})
        ks = _raw_draws(seed, draws)
        for cut, threshold in zip(points, _lattice_thresholds(dist, points).tolist()):
            np.testing.assert_array_equal(xs >= cut, ks >= threshold)

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    @pytest.mark.parametrize("norm", [1.0, 0.37, 5.0, 1e300])
    def test_each_draw_is_on_the_side_its_integer_gives(self, n, norm):
        biases = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 0.3, -0.77]
        dist = PowerLawDistribution(n, norm)
        # beyond the support, at the lattice ends K_c = 0 and K_c = 2**53
        beyond = [-1e300, -2.0 * dist.support_edge, 2.0 * dist.support_edge, 1e300]
        assert _lattice_thresholds(dist, beyond).tolist() == [0, 0, 1 << 53, 1 << 53]
        self.assert_sides(dist, [SignFunctionSpec(bias, n=n, norm=norm).cut for bias in biases] + beyond, seed=100 + n)

    @given(
        bias=BIASES,
        n=st.sampled_from([0, 1, 3, 6]),
        norm=st.sampled_from([1.0, 0.37, 5.0, 1e300]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_bias(self, bias, n, norm, seed):
        spec = SignFunctionSpec(bias, n=n, norm=norm)
        self.assert_sides(spec.distribution, [spec.cut], seed)

    def test_a_sampler_not_monotone_near_a_cut_raises(self):
        class Folded:
            """Uniform on (-1/2, 1/2), but the 99 lattice points below 0 mirrored above it."""

            n = 0

            def cdf(self, x):
                return x + 0.5

            def sample(self, size, rng):
                x = rng.random(size) - 0.5
                return np.where((x < 0.0) & (x > -100 * 2.0**-53), -x, x)

        with pytest.raises(ValueError, match="not monotone"):
            _lattice_thresholds(Folded(), [1e-20])

    @pytest.mark.parametrize("n", [0, 1, 10**6])
    def test_the_bracket_reaches_exactly_reach_points_each_way(self, n, monkeypatch):
        # reach = 1024 (2n + 1) lattice points each way from round(cdf(c) * 2**53); a guess
        # off by reach still finds K_c at the bracket's edge, one more point off raises
        reach, biases = 1024 * (2 * n + 1), [0.3, -0.77, 0.999, 1e-300]
        dist = PowerLawDistribution(n)
        cuts = [side * SignFunctionSpec(bias, n=n).cut for bias in biases for side in (1.0, -1.0)]
        for cut, k in zip(cuts, _lattice_thresholds(dist, cuts).tolist()):
            for miss in (-reach - 1, -reach, reach, reach + 1):
                monkeypatch.setattr(PowerLawDistribution, "cdf", lambda self, x: (k + miss) * 2.0**-53)
                if abs(miss) > reach:
                    with pytest.raises(ValueError, match="outside the bracket"):
                        _lattice_thresholds(dist, [cut])
                else:
                    assert _lattice_thresholds(dist, [cut]).tolist() == [k]

    def test_the_guess_misses_by_a_small_share_of_reach(self):
        # |round(cdf(c) * 2**53) - K_c| is at most about n: measured on 26,312 cuts over
        # n = 0..100, 10**3, 10**4 and 10**6, reach = 1024 (2n + 1) is 17.6 times the
        # largest miss at n = 1 (174 of 3,072), its smallest margin, and 1,024 times at n = 0
        n, biases = 1, np.random.default_rng(5).uniform(-1.0, 1.0, 200).tolist() + [0.0, 1.0, -1.0, 0.999, -0.999]
        for norm in (1.0, 0.37, 5.0, 1e-3, 1e300):
            dist = PowerLawDistribution(n, norm)
            cuts = [side * SignFunctionSpec(bias, n=n, norm=norm).cut for bias in biases for side in (1.0, -1.0)]
            misses = np.abs(np.round(dist.cdf(np.array(cuts)) * 2.0**53).astype(np.int64) - _lattice_thresholds(dist, cuts))
            assert 16 * int(misses.max()) < 1024 * (2 * n + 1)

    @pytest.mark.parametrize("n", [0, 3, 10**6])
    def test_one_call_peaks_below_64_kib(self, n):
        dist = PowerLawDistribution(n)
        cuts = sorted(SignFunctionSpec(bias, n=n).cut for bias in (0.3, -0.77, 0.999))
        _lattice_thresholds(dist, cuts)
        tracemalloc.start()
        try:
            _lattice_thresholds(dist, cuts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("n", [1000, 10**4, 10**6])
    def test_thresholds_are_exact_at_large_n(self, n):
        # the root in the sampler maps a run of about n lattice points to one draw, so
        # round(cdf(c) * 2**53) strays from K_c by up to about n (997,144 at n = 10^6):
        # a search in a fixed window around it misses K_c
        top, biases = 1 << 53, [0.0, -0.0, 1.0, -1.0, 1e-300, 0.3, -0.77, 0.999, -0.999]
        for norm in (1.0, 1e-3, 1e300):
            dist = PowerLawDistribution(n, norm)
            cuts = np.array([side * SignFunctionSpec(bias, n=n, norm=norm).cut for bias in biases for side in (1.0, -1.0)])
            ks = _lattice_thresholds(dist, cuts.tolist())
            below, at = (_lattice_draws(dist, np.clip(k, 0, top - 1)) for k in (ks - 1, ks))
            assert np.all((below < cuts) | (ks == 0))
            assert np.all((at >= cuts) | (ks == top))


def _chi_square_band(dof, z=4.0):
    """The chi-square(dof) statistic's band z standard normal deviates
    wide on each side, by the Wilson-Hilferty approximation."""
    spread = math.sqrt(2.0 / (9.0 * dof))
    return tuple(dof * (1.0 - 2.0 / (9.0 * dof) + side * z * spread) ** 3 for side in (-1.0, 1.0))


class TestCountsAreMultinomial:
    SAMPLES = 1_000_000

    def assert_fit(self, rule, dists, cuts, seeds=40):
        values, probs = _value_probabilities(rule, dists, cuts)
        expected = self.SAMPLES * np.array([float(prob) for prob in probs])
        statistic = 0.0
        for seed in range(seeds):
            counts = _mc_counts(rule, dists, self.SAMPLES, seed, cuts)
            assert [value for value, _ in counts] == values
            statistic += float(np.sum((np.array([count for _, count in counts]) - expected) ** 2 / expected))
        low, high = _chi_square_band(seeds * (len(values) - 1))
        assert low < statistic < high

    def test_one_variable_fits_the_cell_probabilities(self):
        dist, cuts = PowerLawDistribution(2, 0.37), (-0.8, -0.1, 0.05, 0.6)

        def rule(xs):
            return sum(np.asarray(xs) >= cut for cut in cuts) + 0.0

        self.assert_fit(rule, (dist,), (cuts,))

    def test_two_variables_fit_the_products_of_the_cell_probabilities(self):
        (dist1, cuts1), (dist2, cuts2) = (PowerLawDistribution(0), (-0.2, 0.3)), (PowerLawDistribution(3), (0.1,))

        def rule(x1, x2):
            return 1.0 * (x1 >= cuts1[0]) + (x1 >= cuts1[1]) + 3.0 * (x2 >= cuts2[0])

        self.assert_fit(rule, (dist1, dist2), (cuts1, cuts2))

    def test_counts_are_determined_by_the_seed_and_sum_to_the_samples(self):
        dist, cuts = PowerLawDistribution(1), (-0.3, 0.2)

        def rule(x, y):
            return (x >= cuts[0]) + 2.0 * (y >= cuts[1])

        runs = {seed: mc_mean_pair(rule, dist, dist, 12_345, seed, cuts, cuts) for seed in (0, 1, 2**70)}
        for seed, counts in runs.items():
            assert mc_mean_pair(rule, dist, dist, 12_345, seed, cuts, cuts) == counts
            assert sum(count for _, count in counts) == 12_345
        assert len({tuple(counts) for counts in runs.values()}) == 3

    def test_a_cell_of_probability_0_counts_0(self):
        # no draw of the flat sampler lies in [1e-300, 2e-300): 0 and 2**-53 are neighbouring draws
        dist, cuts = PowerLawDistribution(0), (1e-300, 2e-300)

        def rule(xs):
            return (np.asarray(xs) >= cuts[0]) + 2.0 * (np.asarray(xs) >= cuts[1])

        assert dict(zip(*_value_probabilities(rule, (dist,), (cuts,))))[1.0] == 0
        for seed in range(20):
            assert dict(mc_mean(rule, dist, self.SAMPLES, seed, cuts))[1.0] == 0
            pair = mc_mean_pair(lambda x, y: rule(y) + 4.0 * (x >= 0.0), dist, dist, self.SAMPLES, seed, (0.0,), cuts)
            assert dict(pair)[1.0] == dict(pair)[5.0] == 0


def _assert_lattice_moments_are_analytic(f, dists, cuts, mean, second_moment=None):
    """The rule's exact mean (and second moment) under the sampler, each
    value's rational probability times the value summed in rationals, is
    the analytic one within 8 ulp of its largest value (squared): 10^12
    times finer than a 4-sigma band at 10^6 samples."""
    values, probs = _value_probabilities(f, dists, cuts)
    big = max(map(abs, values))
    for power, moment in ((1, mean), (2, second_moment)):
        if moment is not None:
            exact = sum(prob * Fraction(value) ** power for prob, value in zip(probs, values))
            assert abs(float(exact - Fraction(moment))) <= 8 * 2.0**-52 * big**power


class TestLatticeMeanIsAnalytic:
    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("prefactor", [False, True])
    def test_sgn_mean(self, n, prefactor):
        for xi in XI_GRID:
            spec = SignFunctionSpec(xi, n=n, include_sign_prefactor=prefactor)
            _assert_lattice_moments_are_analytic(spec.evaluate, (spec.distribution,), ((spec.cut,),), sign_mean_analytic(spec))

    @pytest.mark.parametrize("case_id", ["III", "IV", "V", "VI"])
    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("offset", [0.0, 12345.678])
    def test_spin_one(self, case_id, n, offset):
        rng = np.random.default_rng(4)
        for _ in range(10):
            values, probs = tuple(offset + rng.normal(size=3)), tuple(rng.dirichlet([2.0, 2.0, 2.0]))
            try:
                formula = spin_one.build_formula(case_id, spin_one.SpectralTriple(values, probs), n=n)
            except spin_one.InfeasibleCaseError:
                continue
            stats = spin_one.hv_statistics(formula)
            _assert_lattice_moments_are_analytic(
                formula.evaluate, formula.hidden_distributions, formula.hidden_cuts, stats.mean, stats.second_moment
            )

    def test_spin_half(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            direction, bloch = rng.normal(size=3), rng.normal(size=3)
            bloch *= rng.uniform() / np.linalg.norm(bloch)
            spec, stats = spin_half.modified_sign_function(direction, bloch), spin_half.hv_statistics(direction, bloch)
            _assert_lattice_moments_are_analytic(
                functools.partial(spin_half.bell_outcome_modified, direction, bloch),
                (spec.distribution,), ((spec.cut,),), stats.mean, stats.second_moment,
            )
            spec, stats = spin_half.original_sign_function(direction), spin_half.original_statistics(direction)
            _assert_lattice_moments_are_analytic(
                functools.partial(spin_half.bell_outcome_original, direction),
                (spec.distribution,), ((spec.cut,),), stats.mean, stats.second_moment,
            )

    def test_ks_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model = ks.KsModel(tuple(rng.dirichlet([2.0, 2.0, 2.0])))
            stats = ks.ks_statistics(model)
            _assert_lattice_moments_are_analytic(
                lambda xs: sum(ks.ks_square_outcomes(model, xs)), (ks.SHARED_HIDDEN,),
                ([spec.cut for spec in ks.ks_sign_specs(model)],), stats.mean, stats.second_moment,
            )

    def test_ks_epsilon(self):
        rng = np.random.default_rng(7)
        for eps in (0.05, 0.5, 3.0):
            model = ks.DeformedKsModel(eps, tuple(rng.dirichlet([2.0, 2.0, 2.0])))
            formula, stats = ks.deformed_formula(model), ks.deformed_statistics(model)
            _assert_lattice_moments_are_analytic(
                formula.evaluate, formula.hidden_distributions, formula.hidden_cuts, stats.mean, stats.second_moment
            )

    @pytest.mark.parametrize("n", range(7))
    def test_a_threshold_shifted_by_a_relative_1e_9_fails(self, monkeypatch, n):
        true_threshold = SignFunctionSpec.threshold.fget
        monkeypatch.setattr(SignFunctionSpec, "threshold", property(lambda spec: true_threshold(spec) * (1.0 + 1e-9)))
        spec = SignFunctionSpec(0.5, n=n)
        with pytest.raises(AssertionError):
            _assert_lattice_moments_are_analytic(spec.evaluate, (spec.distribution,), ((spec.cut,),), 0.5)
        # a 4-sigma band at 10^6 samples passes the shifted rule
        mean, stderr = _count_cells(mc_mean(spec.evaluate, spec.distribution, 1_000_000, 30 + n, (spec.cut,)))
        assert abs(mean - 0.5) < 4.0 * stderr


def test_moments_beyond_the_float_range_raise():
    with pytest.raises(ValueError, match="exceed the float range"):
        Moments.of([1e160, 2e160, 3e160], [0.2, 0.5, 0.3])
    moments = Moments.of([1e100, 2e100], [0.5, 0.5])
    assert (moments.mean, moments.second_moment, moments.variance) == pytest.approx((1.5e100, 2.5e200, 0.25e200), rel=1e-15)


class TestCountCells:
    def test_one_value_is_exact(self):
        for value in (0.1, -1e8 - 0.3, 12345.678, 5e-324):
            assert _count_cells([(value, 7)]) == (value, 0.0)
            assert _count_cells([(3.0, 0), (value, 7)]) == (value, 0.0)
        assert _count_cells([(0.3, 1)]) == (0.3, 0.0)

    def test_no_draws_give_empty_cells(self):
        assert _count_cells([]) == (None, None)
        assert _count_cells([(1.0, 0)]) == (None, None)

    def test_stderr_within_the_float_range_whose_variance_is_not(self):
        mean, stderr = _count_cells([(1.41e200, 10000), (-1.41e200, 10000)])
        assert mean == 0.0
        assert stderr == pytest.approx(1.41e200 / math.sqrt(19999), rel=1e-15)

    def test_stderr_within_the_float_range_whose_variance_underflows(self):
        mean, stderr = _count_cells([(1e-200, 10000), (-1e-200, 10000)])
        assert mean == 0.0
        assert stderr == pytest.approx(1e-200 / math.sqrt(19999), rel=1e-15, abs=0.0)

    @given(
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.integers(0, 10**6)), min_size=1, max_size=5),
        st.floats(-1e8, 1e8),
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_is_rounded_once_and_offset_cannot_cancel_the_spread(self, pairs, offset):
        n = sum(count for _, count in pairs)
        mean, stderr = _count_cells(pairs)
        if not n:
            assert (mean, stderr) == (None, None)
            return
        exact = sum(Fraction(value) * count for value, count in pairs) / n
        assert mean == float(exact)
        spread = sum(count * (Fraction(value) - exact) ** 2 for value, count in pairs)
        var = spread / (n - 1) / n if n > 1 else Fraction(0)
        if not var or float(var) >= sys.float_info.min:
            # one rounding of the variance, one of its root
            assert stderr == math.sqrt(var)
        else:
            # the variance underflows a float, its root need not
            assert stderr == pytest.approx(math.sqrt(var * 4**600) / 2**600, rel=1e-15, abs=5e-324)
        shifted = [(offset + value, count) for value, count in pairs]
        if all(offset + value - offset == value for value, _ in pairs):
            assert _count_cells(shifted)[1] == pytest.approx(stderr, rel=1e-12, abs=0.0)
