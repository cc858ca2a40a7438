"""Power-law hidden-variable densities and thresholded sign functions.

The building blocks used everywhere else in the package: a family of
symmetric power-law densities on a bounded support, the +/-1 step
functions whose threshold is tied to a bias parameter, closed-form
averages of those step functions, the moments of a discrete outcome
distribution, an exact Gauss-Legendre quadrature, an inverse-CDF sampler
and a seeded Monte Carlo estimator that counts how often the rule takes
each of its values.

The estimator takes the rule and its cut points for each hidden
variable: the rule may change value only where a draw x crosses a cut c,
that is where x >= c flips, the one comparison
`SignFunctionSpec.evaluate` makes at its `cut`.  So the cuts split the
draws into cells on which the rule is constant, and the rule is
evaluated once per cell end (per corner of a two-variable cell), never
per draw: a non-finite value (NaN, +-inf) raises ValueError, and so do
two ends of one cell that disagree.  The sampler maps the uniform
k * 2**-53 (k an integer below 2**53) monotonically to x, so x >= c
exactly when k >= K_c, one lattice threshold per cut: each cell's
probability is an exact share of the lattice, and its counts over n
draws are drawn as one multinomial, never the draws themselves.

The sign convention is sign(0) = +1, applied uniformly by `sign_pm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
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

# `Generator.random` draws k * 2**-53 for an integer k below 2**53; the lattice points
# on each side of a threshold checked to fall on its side, and half of one search read
_LATTICE_BITS, _NEIGHBOURS = 53, 1024

_BIAS_SLACK = 1e-9

# leggauss(n + 1) builds an (n+1)^2 companion matrix: 128 MB and some 4 s at n = 4000
_QUADRATURE_MAX_N = 4096


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
        if not (math.isfinite(self.n) and int(self.n) == self.n and self.n >= 0):
            raise ValueError(f"n must be a nonnegative integer, got {self.n}")
        # below about 1/max_float, 2 scale overflows and every draw is +-inf; above
        # max_float/2 (inf included), scale is 0 and every draw is 0
        if not (self.norm > 0.0 and 0.0 < 2.0 * self.scale < math.inf):
            raise ValueError(f"norm must be positive with a finite, nonzero reciprocal, got {self.norm}")

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

        x = (u - 1/2) * 2 scale rounds the one product t * scale, as u - 1/2
        and 2 scale are exact for the 53-bit uniforms and every accepted
        norm, and keeps the sign of t; at n = 0 it is the draw, x^1 = x.
        """
        u = rng.random(size)
        u -= 0.5
        u *= 2.0 * self.scale
        if self.n:
            out = np.abs(u)
            np.power(out, 1.0 / (2 * self.n + 1), out=out)
            np.copysign(out, u, out=u)
        return u


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
    #: the matching power-law density; building it checks n and norm
    distribution: PowerLawDistribution = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.bias):
            raise ValueError(f"bias must be finite, got {self.bias}")
        if abs(self.bias) > 1.0 + _BIAS_SLACK:
            raise ValueError(f"|bias| must not exceed 1, got {self.bias}")
        object.__setattr__(self, "distribution", PowerLawDistribution(self.n, self.norm))

    @property
    def threshold(self) -> float:
        level = min(abs(self.bias), 1.0) / (2.0 * self.norm)
        return level ** (1.0 / (2 * self.n + 1))

    @property
    def cut(self) -> float:
        """-threshold: the value changes only where x >= cut flips."""
        return -self.threshold

    def evaluate(self, x):
        """The +/-1 value at x (vectorised over arrays).

        x + threshold >= 0 exactly when x >= cut (a sum of two floats
        rounds to zero only when it is zero), so one comparison, the one
        the Monte Carlo engine counts, builds the values; NaN maps to -1
        times the prefactor.
        """
        up = sign_pm(self.bias) if self.include_sign_prefactor else 1.0
        out = np.where(np.asarray(x, dtype=float) >= self.cut, up, -up)
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
        offset of the values does not cancel it.  Moments beyond the float
        range raise ValueError."""
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(weights @ values)
            moments = cls(mean, float(weights @ np.square(values)), float(weights @ np.square(values - mean)))
        if not all(map(math.isfinite, (moments.mean, moments.second_moment, moments.variance))):
            raise ValueError("the outcome moments exceed the float range")
        return moments


def _panel_integral(dist: PowerLawDistribution, lo: float, hi: float, nodes: np.ndarray, weights: np.ndarray) -> float:
    if hi <= lo:
        return 0.0
    half = 0.5 * (hi - lo)
    return float(half * (weights @ dist.density(lo + half * (nodes + 1.0))))


def _sign_quadrature(*specs: SignFunctionSpec) -> float:
    """Gauss-Legendre mean of the product of sign functions sharing the
    first one's variable, split at every threshold.

    Splitting at the known sign changes leaves a polynomial integrand on
    each panel, which the rule integrates exactly.
    """
    dist = specs[0].distribution
    if dist.n > _QUADRATURE_MAX_N:
        raise ValueError(f"the quadrature rule takes n up to {_QUADRATURE_MAX_N}, not {dist.n}")
    edge = dist.support_edge
    cuts = sorted({-edge, *(-min(spec.threshold, edge) for spec in specs), edge})
    # (n+1)-node Gauss-Legendre is exact for the degree-2n density
    rule = np.polynomial.legendre.leggauss(dist.n + 1)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        piece = math.prod(sign_pm(mid + spec.threshold) for spec in specs)
        total += piece * _panel_integral(dist, lo, hi, *rule)
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
        var = spread / (n - 1) / n
        # the root of var / 4**half, near 1, scaled back by 2**half: a root
        # within the float range stays exact when var overflows or underflows
        half = (var.numerator.bit_length() - var.denominator.bit_length()) // 2
        return float(mean), math.ldexp(math.sqrt(var / Fraction(4) ** half), half)
    except OverflowError as exc:
        raise ValueError("the outcome moments exceed the float range") from exc


def _lane_cells(cuts: Iterable[float]) -> tuple[list[float], np.ndarray]:
    """The sorted distinct cuts of one variable and the ends of its cells:
    cell j holds the x with exactly j cuts c at or below it (x >= c), its
    lower end is -inf or its cut, its upper end the largest float below
    the next cut or +inf.  The ends are interleaved, lower first."""
    points = sorted(set(np.ravel(np.asarray(cuts, dtype=float)).tolist()))
    if not all(map(math.isfinite, points)):
        raise ValueError(f"cuts must be finite, got {points}")
    lower = [-math.inf, *points]
    upper = [*(math.nextafter(cut, -math.inf) for cut in points), math.inf]
    return points, np.array([end for pair in zip(lower, upper) for end in pair])


def _cell_outcomes(f: Callable[..., np.ndarray], ends: list[np.ndarray]) -> tuple[list[float], list[int]]:
    """The rule's distinct cell values in ascending order and each cell's
    index into them, in C order, from one call of f at every corner of
    every cell; -0.0 is 0.0.  A non-finite value or a cell whose corners
    disagree raises ValueError."""
    grids = [grid.ravel() for grid in np.meshgrid(*ends, indexing="ij")]
    ys = np.broadcast_to(np.asarray(f(*grids), dtype=float) + 0.0, grids[0].shape)
    if not np.isfinite(ys).all():
        raise ValueError(f"the rule takes the non-finite values {sorted(set(ys[~np.isfinite(ys)].tolist()))}")
    # axes (cell, end) per variable; end 0 is the lower end
    shape = [size for lane in ends for size in (lane.size // 2, 2)]
    lower = (slice(None), slice(0, 1)) * len(ends)
    if not np.all(ys.reshape(shape) == ys.reshape(shape)[lower]):
        raise ValueError("the rule changes value inside a cell of its cuts")
    cells = ys.reshape(shape)[lower].ravel().tolist()
    values = sorted(set(cells))
    return values, [values.index(value) for value in cells]


def _lattice_thresholds(dist: PowerLawDistribution, cuts: list[float]) -> np.ndarray:
    """K_c for each cut c: the least k in [0, 2**53] that ``dist.sample`` maps
    to x >= c.  The guess round(cdf(c) * 2**53) misses it by up to about n;
    reach = 1024 (2n + 1) is 17.6 times the largest miss measured at n = 1,
    more at each other n tried.  The point below the bracket of reach points
    each way from the guess must draw x < c and its top x >= c, else ValueError.
    Reads of at most 2048 points at the stride spanning the bracket narrow it
    until the stride is 1; a read not all below c, then all >= c, raises too."""
    def below(cut, start, stop, step=1):  # how many of start, start + step, ... below stop draw x < cut
        ks = np.arange(start, stop, step, dtype=float)  # the sampler's own arithmetic on the uniforms k * 2**-53
        above = dist.sample(ks.size, SimpleNamespace(random=lambda _: np.ldexp(ks, -_LATTICE_BITS, out=ks))) >= cut
        count = above.size - int(np.count_nonzero(above))
        if not above[count:].all():
            raise ValueError("the sampler is not monotone in its uniform near a cut")
        return count

    def threshold(cut, top=1 << _LATTICE_BITS, reach=_NEIGHBOURS * (2 * dist.n + 1)):
        guess = round(float(dist.cdf(cut)) * top)
        lo, hi = max(guess - reach, 0), min(guess + reach, top)
        if not (lo > 0) <= below(cut, lo - 1, hi + 1, hi - lo + 1) <= 1 + (hi == top):  # reads lo - 1 and hi
            raise ValueError("a cut's lattice threshold lies outside the bracket around its cdf")
        while lo < hi:
            step = -(-(hi - lo) // (2 * _NEIGHBOURS))
            count = below(cut, lo, hi, step)
            lo, hi = max(lo, lo + (count - 1) * step + 1), min(lo + count * step, hi)
        if below(cut, max(lo - _NEIGHBOURS, 0), min(lo + _NEIGHBOURS, top)) != min(lo, _NEIGHBOURS):
            raise ValueError("the sampler is not monotone in its uniform near a cut")
        return lo
    return np.array([threshold(cut) for cut in cuts], dtype=np.int64)


def _lattice_cells(
    f: Callable[..., np.ndarray], dists: tuple, cuts: tuple[Iterable[float], ...]
) -> tuple[list[float], list[int], list[np.ndarray]]:
    """The cells of f's cuts under the sampler of each of ``dists``: the
    rule's distinct cell values in ascending order, each cell's index into
    them in C order (the last variable's cell varying fastest), and each
    variable's integer cell widths K_{j+1} - K_j, with K_0 = 0 and the last
    K 2**53, so the widths sum to 2**53.

    ``cuts`` holds the cut points of each variable (see the module
    docstring).  Cell j of a variable holds the uniforms k * 2**-53 with
    K_j <= k < K_{j+1}, whose draws have exactly j of its distinct cuts at
    or below them, so its exact probability is its width * 2**-53.  f is
    called once, at every corner of every cell, both ends for one
    variable; the lower corner gives the cell's value.  f may return a
    scalar, which is broadcast.
    """
    points, ends = zip(*map(_lane_cells, cuts))
    values, value_of_cell = _cell_outcomes(f, list(ends))
    widths = [np.diff(_lattice_thresholds(dist, lane), prepend=0, append=1 << _LATTICE_BITS) for dist, lane in zip(dists, points)]
    return values, value_of_cell, widths


def _outcome_counts(
    f: Callable[..., np.ndarray], dists: tuple, lanes: tuple[int, ...], samples: int, seed: int, cuts: tuple[Iterable[float], ...]
) -> list[tuple[float, int]]:
    """How many of ``samples`` draws of f take each value f takes on a
    cell of ``_lattice_cells``: (value, count) pairs in ascending order of
    value, a cell no draw reaches giving its value with count 0.

    One RNG seeded (seed, *lanes), the seed any nonnegative integer as
    given, draws the first variable's cells as one multinomial, then the
    next variable's within each of them, so no probability is rounded by
    a product.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    values, value_of_cell, widths = _lattice_cells(f, dists, cuts)
    rng = np.random.default_rng([int(seed), *lanes])
    cells = samples
    for lane in widths:
        cells = rng.multinomial(cells, np.ldexp(lane, -_LATTICE_BITS))
    counts = [0] * len(values)
    for value_index, count in zip(value_of_cell, cells.ravel().tolist()):
        counts[value_index] += count
    return list(zip(values, counts))


def mc_mean(
    f: Callable[[np.ndarray], np.ndarray],
    dist: PowerLawDistribution,
    samples: int,
    seed: int,
    cuts: Iterable[float],
) -> list[tuple[float, int]]:
    """How many of ``samples`` seeded draws of f(x) under ``dist`` take
    each value f takes on a cell of its cuts, read from f at the cell
    ends: (value, count) pairs in ascending order of value.
    ``_count_cells`` of the pairs gives the estimate of E[f(x)] and its
    standard error, and of the squared pairs that of E[f(x)**2].

    f must be a step function whose value changes only where x >= c
    flips for one of its ``cuts`` c; it is evaluated once per cell end,
    never per draw.
    """
    return _outcome_counts(f, (dist,), (0,), samples, seed, (cuts,))


def mc_mean_pair(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dist1: PowerLawDistribution,
    dist2: PowerLawDistribution,
    samples: int,
    seed: int,
    cuts1: Iterable[float],
    cuts2: Iterable[float],
) -> list[tuple[float, int]]:
    """How many of ``samples`` seeded draws of f(x1, x2), for two
    independent variables, take each value f takes on a cell: (value,
    count) pairs in ascending order of value, as ``mc_mean`` gives them.

    f may change value only where x1 >= c flips for one of ``cuts1`` or
    x2 >= c for one of ``cuts2``; it is evaluated once per cell corner,
    never per draw.
    """
    return _outcome_counts(f, (dist1, dist2), (1, 2), samples, seed, (cuts1, cuts2))
