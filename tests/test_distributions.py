"""Tests for the power-law densities, sign functions and MC estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab.distributions import (
    MC_BLOCK_SIZE,
    PowerLawDistribution,
    SignFunctionSpec,
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
        est = mc_mean(lambda xs: np.ones_like(xs), PowerLawDistribution(0), 10_000, 42)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_sign_mean_within_band(self):
        spec = SignFunctionSpec(0.5)
        est = mc_mean(spec.evaluate, PowerLawDistribution(0), 1_000_000, 42)
        assert abs(est.mean - 0.5) < 4 * est.stderr

    def test_product_within_band(self):
        a = SignFunctionSpec(0.8, include_sign_prefactor=True)
        b = SignFunctionSpec(0.3, include_sign_prefactor=True)
        est = mc_mean(lambda xs: a.evaluate(xs) * b.evaluate(xs), PowerLawDistribution(0), 1_000_000, 7)
        assert abs(est.mean - 0.5) < 4 * est.stderr

    def test_seed_determinism(self):
        spec = SignFunctionSpec(0.3)
        a = mc_mean(spec.evaluate, PowerLawDistribution(0), 300_000, 5)
        b = mc_mean(spec.evaluate, PowerLawDistribution(0), 300_000, 5)
        assert a == b

    def test_worker_count_does_not_change_estimate(self):
        spec = SignFunctionSpec(0.3, n=2)
        dist = PowerLawDistribution(2)
        serial = mc_mean(spec.evaluate, dist, 500_000, 5, workers=1)
        threaded = mc_mean(spec.evaluate, dist, 500_000, 5, workers=4)
        assert serial.mean == threaded.mean
        assert serial.stderr == threaded.stderr

    def test_pair_worker_count_does_not_change_estimate(self):
        a = SignFunctionSpec(0.4, n=1, include_sign_prefactor=True)
        b = SignFunctionSpec(-0.7, n=1, include_sign_prefactor=True)
        dist = PowerLawDistribution(1)

        def f(x, y):
            return a.evaluate(x) + 2.0 * b.evaluate(y) + x * y

        serial = mc_mean_pair(f, dist, dist, 500_000, 8, workers=1)
        threaded = mc_mean_pair(f, dist, dist, 500_000, 8, workers=2)
        assert serial == threaded

    def test_second_moment_is_the_squared_pass(self):
        spec = SignFunctionSpec(0.3, n=1)
        dist = PowerLawDistribution(1)

        def f(xs):
            return 2.0 * spec.evaluate(xs) + xs

        est = mc_mean(f, dist, 300_000, 9)
        squared = mc_mean(lambda xs: f(xs) ** 2, dist, 300_000, 9)
        assert est.second_moment == squared.mean
        assert est.second_stderr == squared.stderr

    @pytest.mark.parametrize("offset", [1e5, 1e7])
    def test_spread_survives_large_offset(self, offset):
        # the sum-of-squares form cancels here: stderr 0 at 1e5, 256x too large at 1e7
        est = mc_mean(lambda xs: offset + 1e-3 * sign_pm(xs), PowerLawDistribution(0), 10**6, 1)
        assert est.stderr == pytest.approx(1e-6, rel=0.01)
        assert est.mean == pytest.approx(offset, abs=1e-5)

    def test_pair_streams_are_independent(self):
        dist = PowerLawDistribution(0)
        est = mc_mean_pair(lambda x, y: np.sign(x) * np.sign(y), dist, dist, 400_000, 3)
        assert abs(est.mean) < 5 * est.stderr

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            mc_mean(lambda xs: xs, PowerLawDistribution(0), 0, 1)

    @pytest.mark.parametrize("n", range(4))
    def test_mc_matches_analytic_mean(self, n):
        spec = SignFunctionSpec(-0.6, n=n, include_sign_prefactor=True)
        est = mc_mean(spec.evaluate, PowerLawDistribution(n), 400_000, 21 + n)
        assert abs(est.mean - (-0.6)) < 5 * est.stderr


# Reference forms of the Monte Carlo block arithmetic, one temporary per
# step: the sampler, the sign function and the block summaries must
# reproduce them bit for bit.


def _reference_sample(dist, size, rng):
    t = 2.0 * rng.random(size) - 1.0
    return np.sign(t) * (np.abs(t) * dist.scale) ** (1.0 / (2 * dist.n + 1))


def _reference_sign(spec, x):
    out = sign_pm(np.asarray(x, dtype=float) + spec.threshold)
    if spec.include_sign_prefactor:
        out = out * sign_pm(spec.bias)
    return float(out) if np.ndim(x) == 0 else out


def _reference_mc_pair(f, dist1, dist2, samples, seed):
    """(mean, stderr, second moment, its stderr) from per-block centred
    summaries merged in block order."""
    parts = []
    for index, start in enumerate(range(0, samples, MC_BLOCK_SIZE)):
        count = min(MC_BLOCK_SIZE, samples - start)
        xs = [_reference_sample(d, count, np.random.default_rng([seed, lane, index])) for d, lane in ((dist1, 1), (dist2, 2))]
        ys = np.broadcast_to(np.asarray(f(*xs), dtype=float), (count,))
        parts.append([(count, v.mean(), np.square(v - v.mean()).sum()) for v in (ys, np.square(ys))])
    merged = []
    for summaries in zip(*parts):
        count, mean, m2 = summaries[0]
        for count_b, mean_b, m2_b in summaries[1:]:
            total = count + count_b
            delta = mean_b - mean
            mean, m2 = mean + delta * (count_b / total), m2 + m2_b + delta * delta * (count * count_b / total)
            count = total
        merged.append((float(mean), float(m2)))
    scale = 1.0 / ((samples - 1) * samples) if samples > 1 else 0.0
    (mean, m2), (second, second_m2) = merged
    return mean, float(np.sqrt(m2 * scale)), second, float(np.sqrt(second_m2 * scale))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


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

    @pytest.mark.parametrize("samples", [1, MC_BLOCK_SIZE, MC_BLOCK_SIZE + 1, 1_000_000])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mc_pair_matches_reference(self, samples, workers):
        a = SignFunctionSpec(0.4, include_sign_prefactor=True)
        b = SignFunctionSpec(-0.7, n=1, include_sign_prefactor=True)
        dist1, dist2 = PowerLawDistribution(0), PowerLawDistribution(1)

        def outcome(sign):
            return lambda x, y: 1e3 + sign(a, x) - 2.0 * sign(b, y) * sign(a, x) + y

        est = mc_mean_pair(outcome(SignFunctionSpec.evaluate), dist1, dist2, samples, 31, workers=workers)
        expected = _reference_mc_pair(outcome(_reference_sign), dist1, dist2, samples, 31)
        assert (est.mean, est.stderr, est.second_moment, est.second_stderr) == expected
