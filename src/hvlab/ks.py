"""Dispersion of the Kochen-Specker constraint in the square-outcome model.

Quantum mechanically Sx^2 + Sy^2 + Sz^2 is twice the identity for
spin 1, hence dispersion free in every state.  The deterministic model
assigns each squared spin component the outcome (1 - s_i)/2 where the
three sign functions share a single flat hidden variable and carry the
slot probabilities of the common eigenbasis.  The ensemble average of
the sum is always exactly 2, but the second moment has a closed form
ranging from 4 to 6, so the model is generically dispersive.

A deformed constraint with outcomes {2, 2 - eps, 2 + eps}, realised by
two sign functions, makes the dispersion arbitrarily small but never zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Moments, PowerLawDistribution, SignFunctionSpec, _probability_triple, _sign_product_mean
from .oracle import QuantumState, simultaneous_eigenbasis
from .spin_one import CaseAssignment, OutcomeFormula, SpectralTriple, build_formula, solve_coefficients

__all__ = [
    "KsModel",
    "DeformedKsModel",
    "ks_sign_specs",
    "ks_square_outcomes",
    "ks_average",
    "ks_cross_term",
    "ks_second_moment",
    "ks_dispersion",
    "ks_model_from_state",
    "dispersion_scan",
    "deformed_outcomes",
    "deformed_statistics",
    "deformed_formula",
    "deformed_square_formula",
]

#: The flat distribution of the single shared hidden variable.
SHARED_HIDDEN = PowerLawDistribution(0, 1.0)


@dataclass(frozen=True)
class KsModel:
    """Slot probabilities (p1, p2, p3) of the zero outcome for the three
    squared spin components, bound to the common-eigenbasis slots."""

    probabilities: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", _probability_triple(self.probabilities))


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


def ks_average(model: KsModel) -> float:
    """Ensemble mean of the constraint sum: the per-component means
    1 - p_i telescope to exactly 2 on the simplex."""
    p1, p2, p3 = model.probabilities
    return (1.0 - p1) + (1.0 - p2) + (1.0 - p3)


def _pair_sum(b):
    # sum of the three pairwise sign-product means, over the last axis of b
    first, second, third = b[..., 0], b[..., 1], b[..., 2]
    return _sign_product_mean(first, second) + _sign_product_mean(first, third) + _sign_product_mean(second, third)


def ks_cross_term(p_i: float, p_j: float) -> float:
    """Closed-form shared-variable mean E[(1 - s_i)(1 - s_j)] / 4 of the
    product of two squared outcomes with zero-outcome probabilities p_i, p_j."""
    bi, bj = 2.0 * float(p_i) - 1.0, 2.0 * float(p_j) - 1.0
    return float(0.25 * (1.0 - bi - bj + _sign_product_mean(bi, bj)))


def ks_second_moment(model: KsModel) -> float:
    """Closed form: 4 + (1 + sum of pairwise sign-product means) / 2.

    Equals the moment-by-moment route: the fourth moments reduce to the
    second ones (outcomes are 0/1), contributing sum(1 - p_i) = 2, plus
    twice the three cross terms.
    """
    b = 2.0 * np.array(model.probabilities) - 1.0
    return float(4.0 + 0.5 * (1.0 + _pair_sum(b)))


def ks_dispersion(model: KsModel) -> float:
    """Variance of the constraint sum; the mean is exactly 2, so this is
    the second moment minus 4, ranging over [0, 2]."""
    return ks_second_moment(model) - 4.0


def ks_model_from_state(state: QuantumState) -> KsModel:
    """Slot probabilities of a spin-1 state against the common eigenbasis
    of the three squared spin components."""
    if state.dim != 3:
        raise ValueError("the constraint model needs a spin-1 (3-dimensional) state")
    slots = {"p1": 0.0, "p2": 0.0, "p3": 0.0}
    for row in simultaneous_eigenbasis():
        weight = float(np.real(row.vector.conj() @ state.rho @ row.vector))
        slots[row.probability_slot] = max(weight, 0.0)
    total = slots["p1"] + slots["p2"] + slots["p3"]
    return KsModel((slots["p1"] / total, slots["p2"] / total, slots["p3"] / total))


def dispersion_scan(step: float = 0.01) -> np.ndarray:
    """Dispersion over a regular simplex grid, as rows (p1, p2, p3, value).

    The centroid is appended: it is the only point where the maximum 2
    is attained, and no regular decimal grid contains it.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must lie in (0, 0.5]")
    count = int(round(1.0 / step))
    points = []
    for i in range(count + 1):
        for j in range(count - i + 1):
            p1 = i * step
            p2 = j * step
            points.append((p1, p2, 1.0 - p1 - p2))
    points.append((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
    grid = np.asarray(points)
    return np.column_stack([grid, 0.5 * (1.0 + _pair_sum(2.0 * grid - 1.0))])


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
        object.__setattr__(self, "probabilities", _probability_triple(self.probabilities))


def deformed_outcomes(model: DeformedKsModel) -> tuple[float, float, float]:
    """The outcomes paired with (p_plus, p_zero, p_minus)."""
    return (2.0 + model.eps, 2.0, 2.0 - model.eps)


def deformed_statistics(model: DeformedKsModel) -> Moments:
    """Closed-form moments of the deformed constraint.

    With d = p_plus - p_minus and s = p_plus + p_minus: mean 2 + eps*d,
    second moment 4 + 4*eps*d + eps^2*s, variance eps^2*(s - d^2); the
    variance scales as eps^2, small but never zero while s > 0.
    """
    p_plus, _, p_minus = model.probabilities
    diff = p_plus - p_minus
    both = p_plus + p_minus
    eps = model.eps
    return Moments(
        mean=2.0 + eps * diff,
        second_moment=4.0 + 4.0 * eps * diff + eps * eps * both,
        variance=eps * eps * (both - diff * diff),
    )


def deformed_formula(model: DeformedKsModel) -> OutcomeFormula:
    """The deformed model as a case-III rule over two sign functions, the
    outcome 2 repeated; its exact moments are `deformed_statistics`."""
    (plus, zero, minus), (p_plus, p_zero, p_minus) = deformed_outcomes(model), model.probabilities
    return build_formula("III", SpectralTriple((zero, plus, minus), (p_zero, p_plus, p_minus)))


def deformed_square_formula() -> OutcomeFormula:
    """Coefficient structure (3/4, -1/4, 1/4, 1/4) of the squared spin
    component in the deformed model.

    This is the four-pattern solve for the spectrum (1, 0, 1) under the
    assignment whose pattern puts the zero outcome at (+, -); it carries
    no sign-function realisation of its own.
    """
    assignment = CaseAssignment("I")
    values = (1.0, 0.0, 1.0)
    return OutcomeFormula(
        values=values,
        coefficients=solve_coefficients(assignment, values),
        assignment=assignment,
    )
