"""Tests for the power-law densities, sign functions and MC estimator."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab import ks, spin_one
from hvlab.distributions import (
    MC_BLOCK_SIZE,
    MC_CHUNK,
    PowerLawDistribution,
    SignFunctionSpec,
    _count_cells,
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

# the outcome table of every sign rule
SIGNS = (-1.0, 1.0)


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
        mean, stderr = _count_cells(mc_mean(lambda xs: np.ones_like(xs), PowerLawDistribution(0), 10_000, 42, (1.0,)))
        assert mean == 1.0
        assert stderr == 0.0

    def test_sign_mean_within_band(self):
        spec = SignFunctionSpec(0.5)
        mean, stderr = _count_cells(mc_mean(spec.evaluate, PowerLawDistribution(0), 1_000_000, 42, SIGNS))
        assert abs(mean - 0.5) < 4 * stderr

    def test_product_within_band(self):
        a = SignFunctionSpec(0.8, include_sign_prefactor=True)
        b = SignFunctionSpec(0.3, include_sign_prefactor=True)
        counts = mc_mean(lambda xs: a.evaluate(xs) * b.evaluate(xs), PowerLawDistribution(0), 1_000_000, 7, SIGNS)
        mean, stderr = _count_cells(counts)
        assert abs(mean - 0.5) < 4 * stderr

    def test_seed_determinism(self):
        spec = SignFunctionSpec(0.3)
        a = mc_mean(spec.evaluate, PowerLawDistribution(0), 300_000, 5, SIGNS)
        b = mc_mean(spec.evaluate, PowerLawDistribution(0), 300_000, 5, SIGNS)
        assert a == b

    def test_second_moment_is_the_squared_pass(self):
        spec = SignFunctionSpec(0.3, n=1)
        dist = PowerLawDistribution(1)

        def f(xs):
            return 2.0 * spec.evaluate(xs) + sign_pm(xs)

        counts = mc_mean(f, dist, 300_000, 9, (-3.0, -1.0, 1.0, 3.0))
        squared = mc_mean(lambda xs: f(xs) ** 2, dist, 300_000, 9, (1.0, 9.0))
        assert _count_cells([(value * value, count) for value, count in counts]) == _count_cells(squared)

    @pytest.mark.parametrize("offset", [1e5, 1e7])
    def test_spread_survives_large_offset(self, offset):
        # the sum-of-squares form cancels here: stderr 0 at 1e5, 256x too large at 1e7
        table = (offset - 1e-3, offset + 1e-3)
        counts = mc_mean(lambda xs: offset + 1e-3 * sign_pm(xs), PowerLawDistribution(0), 10**6, 1, table)
        mean, stderr = _count_cells(counts)
        assert stderr == pytest.approx(1e-6, rel=0.01)
        assert mean == pytest.approx(offset, abs=1e-5)

    def test_pair_streams_are_independent(self):
        dist = PowerLawDistribution(0)
        counts = mc_mean_pair(lambda x, y: np.sign(x) * np.sign(y), dist, dist, 400_000, 3, (-1.0, 0.0, 1.0))
        mean, stderr = _count_cells(counts)
        assert abs(mean) < 5 * stderr

    def test_worker_count_is_not_settable(self):
        # the engine is serial: blocks are drawn and merged in block order
        dist = PowerLawDistribution(0)
        with pytest.raises(TypeError):
            mc_mean(sign_pm, dist, 1000, 1, SIGNS, workers=2)
        with pytest.raises(TypeError):
            mc_mean_pair(lambda x, y: sign_pm(x), dist, dist, 1000, 1, SIGNS, workers=2)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            mc_mean(sign_pm, PowerLawDistribution(0), 0, 1, SIGNS)

    @pytest.mark.parametrize("bad", [0.5, np.nan])
    def test_outcome_off_the_table_raises(self, bad):
        # one bad outcome in the last chunk of the second block
        samples = MC_BLOCK_SIZE + MC_CHUNK + 3
        dist = PowerLawDistribution(0)
        flagged = dist.sample(MC_CHUNK + 3, np.random.default_rng([1, 0, 1]))[-1]
        with pytest.raises(ValueError, match="outcome table"):
            mc_mean(lambda xs: np.where(xs == flagged, bad, sign_pm(xs)), dist, samples, 1, SIGNS)
        with pytest.raises(ValueError, match="outcome table"):
            mc_mean(lambda xs: np.full(xs.shape, np.nan), dist, 10, 1, (np.nan, 1.0))

    def test_table_order_and_repeats_do_not_change_the_estimate(self):
        spec = SignFunctionSpec(0.3)
        cells = _count_cells(mc_mean(spec.evaluate, PowerLawDistribution(0), 50_000, 5, SIGNS))
        assert _count_cells(mc_mean(spec.evaluate, PowerLawDistribution(0), 50_000, 5, (1.0, -1.0, 1.0, 7.0))) == cells

    @pytest.mark.parametrize("n", range(4))
    def test_mc_matches_analytic_mean(self, n):
        spec = SignFunctionSpec(-0.6, n=n, include_sign_prefactor=True)
        mean, stderr = _count_cells(mc_mean(spec.evaluate, PowerLawDistribution(n), 400_000, 21 + n, SIGNS))
        assert abs(mean - (-0.6)) < 5 * stderr


# Reference forms of the Monte Carlo block arithmetic, one temporary per
# step: the sampler and the sign function must reproduce them bit for
# bit, and the engine's counts must be those of whole-block draws.


def _reference_sample(dist, size, rng):
    t = 2.0 * rng.random(size) - 1.0
    return np.sign(t) * (np.abs(t) * dist.scale) ** (1.0 / (2 * dist.n + 1))


def _reference_sign(spec, x):
    out = sign_pm(np.asarray(x, dtype=float) + spec.threshold)
    if spec.include_sign_prefactor:
        out = out * sign_pm(spec.bias)
    return float(out) if np.ndim(x) == 0 else out


def _reference_counts(f, dists, lanes, samples, seed):
    """{value: count} of f's outcomes, f taking whole blocks."""
    counts = {}
    for index, start in enumerate(range(0, samples, MC_BLOCK_SIZE)):
        count = min(MC_BLOCK_SIZE, samples - start)
        xs = [_reference_sample(d, count, np.random.default_rng([seed, lane, index])) for d, lane in zip(dists, lanes)]
        ys = np.broadcast_to(np.asarray(f(*xs), dtype=float), (count,))
        for value, hits in zip(*np.unique(ys, return_counts=True)):
            counts[float(value)] = counts.get(float(value), 0) + int(hits)
    return counts


def _assert_engine_matches_reference(counts, reference_f, dists, lanes, samples, seed):
    """The engine's counts equal the reference counts of whole-block draws."""
    expected = _reference_counts(reference_f, dists, lanes, samples, seed)
    assert {value: count for value, count in counts if count} == expected
    assert sum(count for _, count in counts) == samples


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# sample counts at the chunk and block edges
ENGINE_SAMPLES = [1, MC_CHUNK - 1, MC_CHUNK + 1, MC_BLOCK_SIZE - 1, MC_BLOCK_SIZE, MC_BLOCK_SIZE + 1, 1_000_000]


class TestBlockArithmeticIsUnchanged:
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("norm", [1.0, 0.37, 5.0])
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

    @pytest.mark.parametrize("samples", ENGINE_SAMPLES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_mc_pair_matches_reference(self, samples, seed):
        a = SignFunctionSpec(0.4, include_sign_prefactor=True)
        b = SignFunctionSpec(-0.7, n=1, include_sign_prefactor=True)
        dist1, dist2 = PowerLawDistribution(0), PowerLawDistribution(1)
        table = (997.0, 999.0, 1001.0, 1003.0)

        def outcome(sign):
            return lambda x, y: 1e3 + sign(a, x) - 2.0 * sign(b, y) * sign(a, x)

        counts = mc_mean_pair(outcome(SignFunctionSpec.evaluate), dist1, dist2, samples, seed, table)
        _assert_engine_matches_reference(counts, outcome(_reference_sign), (dist1, dist2), (1, 2), samples, seed)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_mc_mean_matches_reference(self, seed):
        spec = SignFunctionSpec(-0.45, n=3, norm=0.8, include_sign_prefactor=True)
        dist = spec.distribution
        table = (-4.0, -2.0, 2.0, 4.0)

        def outcome(sign):
            return lambda x: 3.0 * sign(spec, x) - sign_pm(x)

        for samples in [*ENGINE_SAMPLES, 3 * MC_BLOCK_SIZE + MC_CHUNK + 5]:
            counts = mc_mean(outcome(SignFunctionSpec.evaluate), dist, samples, seed, table)
            _assert_engine_matches_reference(counts, outcome(_reference_sign), (dist,), (0,), samples, seed)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scalar_outcome_is_broadcast_and_exact(self, seed):
        samples = MC_BLOCK_SIZE + MC_CHUNK + 3
        assert mc_mean(lambda xs: 2.5, PowerLawDistribution(1), samples, seed, (2.5,)) == [(2.5, samples)]
        dist = PowerLawDistribution(0)
        pair = mc_mean_pair(lambda x, y: -0.75, dist, dist, samples, seed, (-0.75, 1.0))
        assert pair == [(-0.75, samples), (1.0, 0)]
        assert _count_cells(pair) == (-0.75, 0.0)
        assert _count_cells([(value * value, count) for value, count in pair]) == (0.5625, 0.0)
        assert _outcome_counts(lambda x: 2.5, (dist,), (0,), samples, seed, (1.0, 2.5)) == [(1.0, 0), (2.5, samples)]


class TestCountCells:
    def test_one_value_is_exact(self):
        for value in (0.1, -1e8 - 0.3, 12345.678, 5e-324):
            assert _count_cells([(value, 7)]) == (value, 0.0)
            assert _count_cells([(3.0, 0), (value, 7)]) == (value, 0.0)
        assert _count_cells([(0.3, 1)]) == (0.3, 0.0)

    def test_no_draws_give_empty_cells(self):
        assert _count_cells([]) == (None, None)
        assert _count_cells([(1.0, 0)]) == (None, None)

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
        assert stderr == (math.sqrt(spread / (n - 1) / n) if n > 1 else 0.0)
        shifted = [(offset + value, count) for value, count in pairs]
        if all(offset + value - offset == value for value, _ in pairs):
            assert _count_cells(shifted)[1] == pytest.approx(stderr, rel=1e-12, abs=0.0)


def _case_iii_pair():
    formula = spin_one.build_formula("III", spin_one.SpectralTriple((0.0, 1.0, -1.0), (0.3, 0.5, 0.2)))
    return mc_mean_pair(formula.evaluate, *formula.hidden_distributions, 1_000_000, 5, formula._table)


def _ks_sum():
    model = ks.KsModel((0.2, 0.5, 0.3))
    return mc_mean(lambda xs: sum(ks.ks_square_outcomes(model, xs)), ks.SHARED_HIDDEN, 1_000_000, 5, (0.0, 1.0, 2.0, 3.0))


@pytest.mark.parametrize("estimate", [_case_iii_pair, _ks_sum])
def test_mc_peak_memory_stays_below_one_block(estimate):
    # the engine keeps only counts: a chunk's draws, outcomes and
    # temporaries are all it holds
    estimate()
    tracemalloc.start()
    try:
        estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MC_BLOCK_SIZE * 8
