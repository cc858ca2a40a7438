"""Dispersion of the Kochen-Specker constraint in the square-outcome model.

Quantum mechanically Sx^2 + Sy^2 + Sz^2 is twice the identity for
spin 1, hence dispersion free in every state.  The deterministic model
assigns each squared spin component the outcome (1 - s_i)/2 where the
three sign functions share a single flat hidden variable and carry the
slot probabilities of the common eigenbasis.  The ensemble average of
the sum is always exactly 2, but the second moment has a closed form
ranging from 4 to 6, so the model is generically dispersive.
`ks_statistics` gives the three closed-form moments as one `Moments`.

A deformed constraint with outcomes {2, 2 - eps, 2 + eps}, realised by
two sign functions, makes the dispersion arbitrarily small but never zero;
`deformed_statistics` gives its moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Moments, PowerLawDistribution, SignFunctionSpec, _sign_product_mean
from .oracle import QuantumState, _born_weights, _probability_vector, simultaneous_eigenbasis
from .spin_one import OutcomeFormula, SpectralTriple, build_formula

__all__ = [
    "KsModel",
    "DeformedKsModel",
    "ks_sign_specs",
    "ks_square_outcomes",
    "ks_cross_term",
    "ks_statistics",
    "ks_model_from_state",
    "dispersion_scan",
    "deformed_outcomes",
    "deformed_statistics",
    "deformed_formula",
]

#: The flat distribution of the single shared hidden variable.
SHARED_HIDDEN = PowerLawDistribution(0, 1.0)

#: Rows of the dispersion scan per closed-form call, so that the call's temporaries
#: stay below those of the scan's grid build at the default step.
_SCAN_BLOCK = 2048


@dataclass(frozen=True)
class KsModel:
    """Slot probabilities (p1, p2, p3) of the zero outcome for the three
    squared spin components, bound to the common-eigenbasis slots."""

    probabilities: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", _probability_vector(self.probabilities, 3))


def ks_sign_specs(model: KsModel) -> tuple[SignFunctionSpec, ...]:
    """The three prefactored sign functions, biased by 2*p_i - 1, that
    drive the squared outcomes off the one shared hidden variable."""
    return tuple(
        SignFunctionSpec(2.0 * p - 1.0, n=0, norm=1.0, include_sign_prefactor=True)
        for p in model.probabilities
    )


def ks_square_outcomes(model: KsModel, hidden):
    """Outcomes of the three squared spin components at a shared hidden
    value, each (1 - sign)/2 in {0, 1}."""
    return tuple(0.5 * (1.0 - spec.evaluate(hidden)) for spec in ks_sign_specs(model))


def _pair_sum(b):
    # sum of the three pairwise sign-product means, over the last axis of b
    first, second, third = b[..., 0], b[..., 1], b[..., 2]
    return _sign_product_mean(first, second) + _sign_product_mean(first, third) + _sign_product_mean(second, third)


def ks_cross_term(p_i: float, p_j: float) -> float:
    """Closed-form shared-variable mean E[(1 - s_i)(1 - s_j)] / 4 of the
    product of two squared outcomes with zero-outcome probabilities p_i, p_j."""
    bi, bj = 2.0 * float(p_i) - 1.0, 2.0 * float(p_j) - 1.0
    return float(0.25 * (1.0 - bi - bj + _sign_product_mean(bi, bj)))


def ks_statistics(model: KsModel) -> Moments:
    """Closed-form moments of the constraint sum.

    The per-component means 1 - p_i telescope to exactly 2 on the simplex.
    The second moment is 4 + (1 + sum of pairwise sign-product means) / 2,
    which equals the moment-by-moment route: the fourth moments reduce to
    the second ones (outcomes are 0/1), contributing sum(1 - p_i) = 2, plus
    twice the three cross terms.  The variance is the second moment minus
    4, ranging over [0, 2].
    """
    p1, p2, p3 = model.probabilities
    b = 2.0 * np.array(model.probabilities) - 1.0
    second = float(4.0 + 0.5 * (1.0 + _pair_sum(b)))
    return Moments(mean=(1.0 - p1) + (1.0 - p2) + (1.0 - p3), second_moment=second, variance=second - 4.0)


def ks_model_from_state(state: QuantumState) -> KsModel:
    """Slot probabilities of a spin-1 state against the common eigenbasis
    of the three squared spin components."""
    if state.dim != 3:
        raise ValueError("the constraint model needs a spin-1 (3-dimensional) state")
    rows = sorted(simultaneous_eigenbasis(), key=lambda row: row.probability_slot)
    weights = _born_weights(np.column_stack([row.vector for row in rows]), state)
    return KsModel(tuple(weights / weights.sum()))


def dispersion_scan(step: float = 0.01) -> np.ndarray:
    """Dispersion over a regular simplex grid, as rows (p1, p2, p3, value).

    The centroid is appended: it is the only point where the maximum 2
    is attained, and no regular decimal grid contains it.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must lie in (0, 0.5]")
    if 1.0 / step == np.inf:  # a subnormal step
        raise ValueError(f"step {step!r} is too small: 1 / step overflows")
    # points (i, j) with i + j <= count, i major: the upper triangle's (row, col - row);
    # count is the number of whole steps in 1, the allowance keeping 1 / (1/3) at 3
    i, col = np.triu_indices(int(1.0 / step + 1e-9) + 1)
    table = np.empty((len(i) + 1, 4))
    p1, p2, p3, _ = table.T
    np.multiply(i, step, out=p1[:-1])
    np.multiply(np.subtract(col, i, out=col), step, out=p2[:-1])
    del i, col  # freed before the values are computed
    np.subtract(1.0, p1[:-1], out=p3[:-1])
    p3[:-1] -= p2[:-1]
    table[-1, :3] = 1.0 / 3.0
    # the variance of ks_statistics, a block of rows at a time
    for start in range(0, len(table), _SCAN_BLOCK):
        block = table[start : start + _SCAN_BLOCK]
        block[:, 3] = 0.5 * (1.0 + _pair_sum(2.0 * block[:, :3] - 1.0))
    return table


@dataclass(frozen=True)
class DeformedKsModel:
    """Three-outcome model {2 + eps, 2, 2 - eps} with probabilities
    (p_plus, p_zero, p_minus)."""

    eps: float
    probabilities: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not np.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps}")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        object.__setattr__(self, "probabilities", _probability_vector(self.probabilities, 3))


def deformed_outcomes(model: DeformedKsModel) -> tuple[float, float, float]:
    """The outcomes paired with (p_plus, p_zero, p_minus)."""
    return (2.0 + model.eps, 2.0, 2.0 - model.eps)


def deformed_statistics(model: DeformedKsModel) -> Moments:
    """Closed-form moments of the deformed constraint.

    With d = p_plus - p_minus and s = p_plus + p_minus: mean 2 + eps*d,
    second moment 4 + 4*eps*d + eps^2*s, variance eps^2*(s - d^2), summed
    centred as eps^2*(p_zero*s + 4*p_plus*p_minus) so that it does not
    cancel as s nears 1; it scales as eps^2 and is zero only when one
    outcome has probability 1.
    """
    p_plus, p_zero, p_minus = model.probabilities
    diff = p_plus - p_minus
    both = p_plus + p_minus
    eps = model.eps
    return Moments(
        mean=2.0 + eps * diff,
        second_moment=4.0 + 4.0 * eps * diff + eps * eps * both,
        variance=eps * eps * (p_zero * both + 4.0 * p_plus * p_minus),
    )


def deformed_formula(model: DeformedKsModel) -> OutcomeFormula:
    """The deformed model as a case-III rule over two sign functions, the
    outcome 2 repeated; its exact moments are `deformed_statistics`."""
    (plus, zero, minus), (p_plus, p_zero, p_minus) = deformed_outcomes(model), model.probabilities
    return build_formula("III", SpectralTriple((zero, plus, minus), (p_zero, p_plus, p_minus)))

