"""Deterministic outcome models for spin-1/2 direction observables.

Two outcome rules for the beable matching a direction observable
b . sigma: the original one tied to the special state (1, 0), and the
reformulated one driven by the state's Bloch vector, which reproduces
quantum means and variances for every state.  The subensemble split
demonstrating the loss of ensemble homogeneity lives here as well.

The single hidden variable is uniform on (-1/2, 1/2) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Moments, SignFunctionSpec, sign_mean_analytic, sign_pm

__all__ = [
    "HomogeneitySplit",
    "bell_outcome_original",
    "bell_original_mean_analytic",
    "bell_outcome_modified",
    "hv_statistics",
    "outcome_probabilities",
    "homogeneity_split",
]


def _direction(vec) -> tuple[np.ndarray, float]:
    b = np.asarray(vec, dtype=float).reshape(-1)
    if b.shape != (3,):
        raise ValueError("direction must have three components")
    mag = float(np.linalg.norm(b))
    if mag == 0.0:
        raise ValueError("direction must be nonzero")
    return b, mag


def _original_rule(direction) -> tuple[float, SignFunctionSpec, float]:
    """|b|, the plain sign function of bias |b_z| / |b| and the sign of
    the tie-breaking component: b_z, falling back to b_x then b_y when
    earlier ones vanish."""
    b, mag = _direction(direction)
    bx, by, bz = b
    pick = bz if bz != 0.0 else (bx if bx != 0.0 else by)
    return mag, SignFunctionSpec(abs(bz) / mag), sign_pm(pick)


def _modified_rule(direction, bloch) -> tuple[float, float, SignFunctionSpec]:
    """|b|, b.e and the prefactored sign function of bias b.e / |b|."""
    b, mag = _direction(direction)
    e = np.asarray(bloch, dtype=float).reshape(-1)
    if e.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if np.linalg.norm(e) > 1.0 + 1e-10:
        raise ValueError("Bloch vector must have length at most 1")
    overlap = float(np.dot(b, e))
    return mag, overlap, SignFunctionSpec(overlap / mag, include_sign_prefactor=True)


def bell_outcome_original(direction, hidden):
    """Original deterministic rule for the outcome of b . S: always +|b|
    or -|b|, averaging to b_z over the flat hidden variable."""
    mag, spec, side = _original_rule(direction)
    out = mag * spec.evaluate(hidden) * side
    return float(out) if np.ndim(hidden) == 0 else out


def bell_original_mean_analytic(direction) -> float:
    """Closed-form flat-ensemble average of the original rule.

    The thresholded sign factor averages to |b_z| / |b|, so the mean is
    |b_z| times the sign of the tie-breaking component.
    """
    mag, spec, side = _original_rule(direction)
    return mag * sign_mean_analytic(spec) * side


def bell_outcome_modified(direction, bloch, hidden):
    """Bloch-vector outcome rule: +|b| sign(b.e) above the threshold
    hidden value -|b.e| / (2|b|) and the negative below it."""
    mag, _, spec = _modified_rule(direction, bloch)
    out = mag * spec.evaluate(hidden)
    return float(out) if np.ndim(hidden) == 0 else out


def hv_statistics(direction, bloch) -> Moments:
    """Exact flat-ensemble moments of the modified rule: mean b.e,
    second moment |b|^2 and variance |b|^2 - (b.e)^2, matching the
    quantum values for any state with that Bloch vector.

    The variance is summed in Lagrange's form |b x e|^2 + |b|^2 (1 - |e|^2),
    which does not cancel when b.e is close to +-|b|.
    """
    mag, overlap, _ = _modified_rule(direction, bloch)
    b, e = (np.asarray(v, dtype=float).reshape(-1) for v in (direction, bloch))
    spread = float(np.square(np.cross(b, e)).sum()) + mag * mag * (1.0 - float(e @ e))
    return Moments(mean=overlap, second_moment=mag * mag, variance=spread)


def outcome_probabilities(direction, bloch) -> tuple[float, float]:
    """Probabilities of the outcomes +|b| and -|b| under the modified
    rule; their difference is the sign function's mean b.e / |b|."""
    _, _, spec = _modified_rule(direction, bloch)
    p_plus = 0.5 + sign_mean_analytic(spec) / 2.0
    return p_plus, 1.0 - p_plus


@dataclass(frozen=True)
class HomogeneitySplit:
    """Subensemble averages of offset + b . S over the two sides of the
    outcome threshold, with the subensemble weights."""

    mean_plus: float
    mean_minus: float
    whole: float
    weight_plus: float
    weight_minus: float
    split_point: float


def homogeneity_split(offset, direction, bloch) -> HomogeneitySplit:
    """Split the flat hidden-variable ensemble at the outcome threshold.

    On the upper part the beable is constant at offset + |b| sign(b.e),
    on the lower part constant at the mirrored value, so the two
    subensemble means always differ by 2|b| even though the whole
    ensemble reproduces offset + b.e.  The boundary point joins the
    upper part.
    """
    if not np.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset}")
    mag, overlap, spec = _modified_rule(direction, bloch)
    split = -spec.threshold
    side = sign_pm(spec.bias)
    return HomogeneitySplit(
        mean_plus=float(offset + mag * side),
        mean_minus=float(offset - mag * side),
        whole=float(offset + overlap),
        weight_plus=0.5 - split,
        weight_minus=0.5 + split,
        split_point=split,
    )
