"""Power-law hidden-variable densities and thresholded sign functions.

The building blocks used everywhere else in the package: a family of
symmetric power-law densities on a bounded support, the +/-1 step
functions whose threshold is tied to a bias parameter, closed-form
averages of those step functions, the moments of a discrete outcome
distribution, an exact Gauss-Legendre quadrature, an inverse-CDF sampler
and a seeded, block-deterministic Monte Carlo estimator.

The sign convention is sign(0) = +1, applied uniformly by `sign_pm`.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "sign_pm",
    "PowerLawDistribution",
    "SignFunctionSpec",
    "Moments",
    "McEstimate",
    "sign_mean_analytic",
    "sign_product_mean_analytic",
    "sign_mean_quadrature",
    "sign_product_mean_quadrature",
    "mc_mean",
    "mc_mean_pair",
]

# Block size for the Monte Carlo sub-streams.  Each block of samples is
# generated from its own deterministically derived RNG, so estimates do
# not depend on how blocks are distributed over workers.
MC_BLOCK_SIZE = 1 << 17

_BIAS_SLACK = 1e-9


def sign_pm(x):
    """+1.0 for x >= 0, -1.0 for x < 0 (scalar in, scalar out)."""
    out = np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class PowerLawDistribution:
    """Symmetric density norm * (2n+1) * x^(2n) on |x| <= scale^(1/(2n+1)).

    The half-width parameter is tied to the normalisation constant by
    scale = 1 / (2 * norm), so the density integrates to one for every
    n.  n = 0 with norm = 1 is the flat distribution on (-1/2, 1/2).
    """

    n: int = 0
    norm: float = 1.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 0:
            raise ValueError("n must be a nonnegative integer")
        if not self.norm > 0.0:
            raise ValueError("norm must be positive")

    @property
    def scale(self) -> float:
        return 1.0 / (2.0 * self.norm)

    @property
    def support_edge(self) -> float:
        return self.scale ** (1.0 / (2 * self.n + 1))

    def density(self, x):
        """Density value at x, zero outside the support."""
        xs = np.asarray(x, dtype=float)
        inside = np.abs(xs) <= self.support_edge
        vals = self.norm * (2 * self.n + 1) * xs ** (2 * self.n)
        out = np.where(inside, vals, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x):
        """Cumulative distribution, clipped to [0, 1] outside the support."""
        xs = np.asarray(x, dtype=float)
        edge = self.support_edge
        clipped = np.clip(xs, -edge, edge)
        out = self.norm * (clipped ** (2 * self.n + 1) + self.scale)
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF draws: sign(t) * (|t| * scale)^(1/(2n+1)), t = 2u-1.

        At n = 0 the inverse CDF is linear, (u - 1/2) * 2 scale, which
        equals the general form bit for bit: u - 1/2, 2u - 1 and 2 scale
        are exact for the 53-bit uniforms, so both round the one product
        t * scale, and x^1 = x.
        """
        u = rng.random(size)
        if self.n == 0:
            u -= 0.5
            u *= 2.0 * self.scale
            return u
        u *= 2.0
        u -= 1.0
        out = np.abs(u)
        out *= self.scale
        np.power(out, 1.0 / (2 * self.n + 1), out=out)
        return np.copysign(out, u, out=out)


@dataclass(frozen=True)
class SignFunctionSpec:
    """A +/-1 step function of one variable with a prescribed bias.

    evaluate(x) is sign(x + threshold) where the threshold is
    (|bias| / (2 norm))^(1/(2n+1)); with ``include_sign_prefactor`` the
    result is additionally multiplied by sign(bias).  Under the matching
    power-law density the mean is |bias| (plain) or bias (prefactored),
    independent of n and norm.
    """

    bias: float
    n: int = 0
    norm: float = 1.0
    include_sign_prefactor: bool = False

    def __post_init__(self) -> None:
        if not np.isfinite(self.bias):
            raise ValueError(f"bias must be finite, got {self.bias}")
        if abs(self.bias) > 1.0 + _BIAS_SLACK:
            raise ValueError(f"|bias| must not exceed 1, got {self.bias}")

    @property
    def distribution(self) -> PowerLawDistribution:
        return PowerLawDistribution(self.n, self.norm)

    @property
    def threshold(self) -> float:
        level = min(abs(self.bias), 1.0) / (2.0 * self.norm)
        return level ** (1.0 / (2 * self.n + 1))

    def evaluate(self, x):
        """The +/-1 value at x (vectorised over arrays).

        x + threshold >= 0 exactly when x >= -threshold (a sum of two
        floats rounds to zero only when it is zero), so one comparison
        builds the values; NaN maps to -1 times the prefactor.
        """
        up = sign_pm(self.bias) if self.include_sign_prefactor else 1.0
        out = (np.asarray(x, dtype=float) >= -self.threshold).astype(float)
        out *= 2.0 * up
        out -= up
        return float(out) if np.ndim(x) == 0 else out


def sign_mean_analytic(spec: SignFunctionSpec) -> float:
    """Exact mean of the sign function under its own power-law density."""
    mag = min(abs(spec.bias), 1.0)
    return mag * sign_pm(spec.bias) if spec.include_sign_prefactor else mag


def _sign_product_mean(b1, b2):
    """sign(b1) sign(b2) (1 - ||b1| - |b2||), elementwise over arrays."""
    return (1.0 - np.abs(np.abs(b1) - np.abs(b2))) * sign_pm(b1) * sign_pm(b2)


def sign_product_mean_analytic(first: SignFunctionSpec, second: SignFunctionSpec) -> float:
    """Exact mean of the product of two prefactored sign functions of one
    shared variable:  sign(b1) * sign(b2) * (1 - ||b1| - |b2||).
    """
    if not (first.include_sign_prefactor and second.include_sign_prefactor):
        raise ValueError("product average is defined for the prefactored forms")
    if first.n != second.n or first.norm != second.norm:
        raise ValueError("both sign functions must share one distribution")
    return float(_sign_product_mean(first.bias, second.bias))


@dataclass(frozen=True)
class Moments:
    """Mean, second moment and variance of an outcome, as a model
    predicts them or as the quantum reference gives them."""

    mean: float
    second_moment: float
    variance: float

    @classmethod
    def of(cls, values, weights) -> "Moments":
        """Moments of the outcomes ``values`` taken with probabilities
        ``weights``; the variance is summed about the mean, so a common
        offset of the values does not cancel it."""
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        mean = float(weights @ values)
        return cls(mean, float(weights @ np.square(values)), float(weights @ np.square(values - mean)))


def _probability_triple(probabilities) -> tuple[float, float, float]:
    """Three outcome probabilities as floats, checked to lie in [0, 1]
    and to sum to 1, each within 1e-10."""
    probs = tuple(float(p) for p in probabilities)
    if len(probs) != 3:
        raise ValueError("expected three probabilities")
    if any(p < -1e-10 or p > 1.0 + 1e-10 for p in probs):
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(sum(probs) - 1.0) > 1e-10:
        raise ValueError("probabilities must sum to 1")
    return probs


def _panel_integral(dist: PowerLawDistribution, lo: float, hi: float) -> float:
    # (n+1)-node Gauss-Legendre is exact for the degree-2n density
    if hi <= lo:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(dist.n + 1)
    half = 0.5 * (hi - lo)
    return float(half * (weights @ dist.density(lo + half * (nodes + 1.0))))


def sign_mean_quadrature(spec: SignFunctionSpec) -> float:
    """Gauss-Legendre mean of the sign function, split at its threshold.

    Splitting at the known sign change leaves a polynomial integrand on
    each panel, which the rule integrates exactly.
    """
    dist = spec.distribution
    edge = dist.support_edge
    cut = min(spec.threshold, edge)
    mean = _panel_integral(dist, -cut, edge) - _panel_integral(dist, -edge, -cut)
    if spec.include_sign_prefactor:
        mean *= sign_pm(spec.bias)
    return mean


def sign_product_mean_quadrature(first: SignFunctionSpec, second: SignFunctionSpec) -> float:
    """Gauss-Legendre mean of the product of two sign functions sharing
    one variable, split at both thresholds."""
    if first.n != second.n or first.norm != second.norm:
        raise ValueError("both sign functions must share one distribution")
    dist = first.distribution
    edge = dist.support_edge
    cuts = sorted({-edge, -min(first.threshold, edge), -min(second.threshold, edge), edge})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        piece = sign_pm(mid + first.threshold) * sign_pm(mid + second.threshold)
        total += piece * _panel_integral(dist, lo, hi)
    if first.include_sign_prefactor:
        total *= sign_pm(first.bias)
    if second.include_sign_prefactor:
        total *= sign_pm(second.bias)
    return total


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean of f with its standard error, and the mean of f**2
    with its standard error, both from the same draws."""

    mean: float
    stderr: float
    samples: int
    seed: int
    second_moment: float
    second_stderr: float


def _block_rng(seed: int, block_index: int, lane: int) -> np.random.Generator:
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng([key, lane, block_index])


def _summary(vals: np.ndarray, work: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations from the mean); the
    squared deviations are written to ``work``, which may be ``vals``."""
    mean = float(vals.mean())
    np.subtract(vals, mean, out=work)
    np.square(work, out=work)
    return vals.size, mean, float(work.sum())


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Pairwise update of Chan, Golub & LeVeque (1979): centred, so a
    large common offset cannot cancel the spread."""
    (count_a, mean_a, m2_a), (count_b, mean_b, m2_b) = a, b
    count = count_a + count_b
    delta = mean_b - mean_a
    return count, mean_a + delta * (count_b / count), m2_a + m2_b + delta * delta * (count_a * count_b / count)


def _mc_moments(
    f: Callable[..., np.ndarray], dists: tuple, lanes: tuple[int, ...], samples: int, seed: int, workers: int
) -> McEstimate:
    """Monte Carlo estimate of E[f] and E[f**2], f taking one independent
    draw from each of ``dists``.

    Each block of samples is drawn once, each variable from its own RNG
    derived deterministically from (seed, lane, block index), and the
    block summaries are merged in block order.  The estimate is
    therefore bit-identical for any worker count.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")

    def one_block(task):
        index, count = task
        xs = [dist.sample(count, _block_rng(seed, index, lane)) for dist, lane in zip(dists, lanes)]
        ys = np.broadcast_to(np.asarray(f(*xs), dtype=float), (count,))
        work = np.empty(count)
        first = _summary(ys, work)
        return first, _summary(np.square(ys, out=work), work)

    tasks = [(index, min(MC_BLOCK_SIZE, samples - start)) for index, start in enumerate(range(0, samples, MC_BLOCK_SIZE))]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(one_block, tasks))
    else:
        partials = [one_block(task) for task in tasks]
    (_, mean, m2), (_, second, second_m2) = (functools.reduce(_merge, parts) for parts in zip(*partials))
    scale = 1.0 / ((samples - 1) * samples) if samples > 1 else 0.0
    return McEstimate(mean, float(np.sqrt(m2 * scale)), samples, seed, second, float(np.sqrt(second_m2 * scale)))


def mc_mean(
    f: Callable[[np.ndarray], np.ndarray],
    dist: PowerLawDistribution,
    samples: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of E[f(x)] and E[f(x)**2] under ``dist``."""
    return _mc_moments(f, (dist,), (0,), samples, seed, workers)


def mc_mean_pair(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dist1: PowerLawDistribution,
    dist2: PowerLawDistribution,
    samples: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of E[f(x1, x2)] and E[f(x1, x2)**2] for two
    independent draws."""
    return _mc_moments(f, (dist1, dist2), (1, 2), samples, seed, workers)
