"""Power-law hidden-variable densities and thresholded sign functions.

The building blocks used everywhere else in the package: a family of
symmetric power-law densities on a bounded support, the +/-1 step
functions whose threshold is tied to a bias parameter, closed-form
averages of those step functions, the moments of a discrete outcome
distribution, an exact Gauss-Legendre quadrature, an inverse-CDF sampler
and a seeded, block-deterministic Monte Carlo estimator that counts how
often each value of an outcome table is drawn.

The sign convention is sign(0) = +1, applied uniformly by `sign_pm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "sign_pm",
    "PowerLawDistribution",
    "SignFunctionSpec",
    "Moments",
    "sign_mean_analytic",
    "sign_product_mean_analytic",
    "sign_mean_quadrature",
    "sign_product_mean_quadrature",
    "mc_mean",
    "mc_mean_pair",
]

# Block size for the Monte Carlo sub-streams.  Each block of samples is
# generated from its own deterministically derived RNG, so the block
# size fixes which numbers are drawn.
MC_BLOCK_SIZE = 1 << 17

# Samples per call of the estimated function within a block: small
# enough that a chunk's draws, outcomes and temporaries stay in cache
# and in memory the allocator reuses, large enough to amortise each call.
MC_CHUNK = 1 << 14

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


def _panel_integral(dist: PowerLawDistribution, lo: float, hi: float) -> float:
    # (n+1)-node Gauss-Legendre is exact for the degree-2n density
    if hi <= lo:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(dist.n + 1)
    half = 0.5 * (hi - lo)
    return float(half * (weights @ dist.density(lo + half * (nodes + 1.0))))


def _sign_quadrature(*specs: SignFunctionSpec) -> float:
    """Gauss-Legendre mean of the product of sign functions sharing the
    first one's variable, split at every threshold.

    Splitting at the known sign changes leaves a polynomial integrand on
    each panel, which the rule integrates exactly.
    """
    dist = specs[0].distribution
    edge = dist.support_edge
    cuts = sorted({-edge, *(-min(spec.threshold, edge) for spec in specs), edge})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        piece = math.prod(sign_pm(mid + spec.threshold) for spec in specs)
        total += piece * _panel_integral(dist, lo, hi)
    return total * math.prod(sign_pm(spec.bias) for spec in specs if spec.include_sign_prefactor)


def sign_mean_quadrature(spec: SignFunctionSpec) -> float:
    """Gauss-Legendre mean of the sign function, split at its threshold."""
    return _sign_quadrature(spec)


def sign_product_mean_quadrature(first: SignFunctionSpec, second: SignFunctionSpec) -> float:
    """Gauss-Legendre mean of the product of two sign functions sharing
    one variable, split at both thresholds."""
    if first.n != second.n or first.norm != second.norm:
        raise ValueError("both sign functions must share one distribution")
    return _sign_quadrature(first, second)


def _block_rng(seed: int, block_index: int, lane: int) -> np.random.Generator:
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng([key, lane, block_index])


def _count_cells(counts: list[tuple[float, int]]) -> tuple[float | None, float | None]:
    """Mean and standard error of draws given as (value, count) pairs:
    the mc and stderr cells of every Monte Carlo row.  Both are summed
    exactly in rationals and rounded once, so draws of one value give it
    exactly with stderr 0, and no offset common to the values cancels
    the spread.  No draws give empty cells; a value or a result beyond
    the float range raises ValueError."""
    try:
        exact = [(Fraction(value), count) for value, count in counts if count]
        n = sum(count for _, count in exact)
        if not n:
            return None, None
        mean = sum(count * value for value, count in exact) / n
        if n == 1:
            return float(mean), 0.0
        spread = sum(count * (value - mean) ** 2 for value, count in exact)
        return float(mean), math.sqrt(spread / (n - 1) / n)
    except OverflowError as exc:
        raise ValueError("the outcome moments exceed the float range") from exc


def _outcome_counts(
    f: Callable[..., np.ndarray], dists: tuple, lanes: tuple[int, ...], samples: int, seed: int,
    outcomes: Iterable[float],
) -> list[tuple[float, int]]:
    """How many of ``samples`` draws of f take each value of its finite
    outcome table ``outcomes``: (value, count) pairs, one per distinct
    value, in table order.

    Each variable of a block is drawn from its own RNG derived from
    (seed, lane, block index).  ``f`` takes one draw from each of
    ``dists`` and is called on consecutive chunks of at most ``MC_CHUNK``
    samples, so each outcome must depend only on its own sample(s); it
    may return a scalar, which is broadcast.  A chunk's draws continue
    the block's generators, so the counts are those of whole-block draws.
    Outcomes the table does not cover (NaN or an off-table value) raise
    ValueError.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    values = list(dict.fromkeys(np.ravel(outcomes).astype(float).tolist()))
    counts = [0] * len(values)
    for index, start in enumerate(range(0, samples, MC_BLOCK_SIZE)):
        size = min(MC_BLOCK_SIZE, samples - start)
        rngs = [_block_rng(seed, index, lane) for lane in lanes]
        for lo in range(0, size, MC_CHUNK):
            chunk = min(MC_CHUNK, size - lo)
            ys = np.broadcast_to(f(*[dist.sample(chunk, rng) for dist, rng in zip(dists, rngs)]), (chunk,))
            hits = [np.count_nonzero(ys == value) for value in values]
            if sum(hits) != chunk:
                raise ValueError(f"{chunk - sum(hits)} outcomes outside the outcome table {values}")
            counts = [total + hit for total, hit in zip(counts, hits)]
    return list(zip(values, counts))


def mc_mean(
    f: Callable[[np.ndarray], np.ndarray],
    dist: PowerLawDistribution,
    samples: int,
    seed: int,
    outcomes: Iterable[float],
) -> list[tuple[float, int]]:
    """How many of ``samples`` seeded draws of f(x) under ``dist`` take
    each value of its finite outcome table ``outcomes``: (value, count)
    pairs, one per distinct value, in table order.  ``_count_cells`` of
    the pairs gives the estimate of E[f(x)] and its standard error, and
    of the squared pairs that of E[f(x)**2].

    ``f`` is called on chunks of each block of draws, so each value of
    f(x) must depend only on its own x; the counts do not depend on the
    chunking.
    """
    return _outcome_counts(f, (dist,), (0,), samples, seed, outcomes)


def mc_mean_pair(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dist1: PowerLawDistribution,
    dist2: PowerLawDistribution,
    samples: int,
    seed: int,
    outcomes: Iterable[float],
) -> list[tuple[float, int]]:
    """How many of ``samples`` seeded draws of f(x1, x2), for two
    independent variables, take each value of the finite table
    ``outcomes``: (value, count) pairs, as ``mc_mean`` gives them.

    ``f`` is called on chunks of each block of draws, so each value of
    f(x1, x2) must depend only on its own pair; the counts do not
    depend on the chunking.
    """
    return _outcome_counts(f, (dist1, dist2), (1, 2), samples, seed, outcomes)
