"""Systematic construction of three-outcome deterministic models.

A three-valued observable gets a deterministic outcome rule of the form
a + b*s1 + c*s2 + d*s1*s2 over two independent +/-1 sign functions.
With four sign patterns and three outcomes, one outcome must repeat;
the six inequivalent assignments (plus their swapped variants) form the
case table.  For each case the four coefficients follow from an exact
4x4 solve, and matching the outcome probabilities fixes the required
sign-function means.  Cases III-VI are always realisable; cases I and II
force a square root that can go imaginary and are then rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import Moments, PowerLawDistribution, SignFunctionSpec, _probability_triple, sign_mean_analytic
from .oracle import OperatorBasis, QuantumState, linear_observable, spectral_decompose

__all__ = [
    "CASE_IDS",
    "SIGN_PATTERNS",
    "InfeasibleCaseError",
    "CaseAssignment",
    "SpectralTriple",
    "OutcomeFormula",
    "solve_coefficients",
    "sign_targets",
    "build_formula",
    "hv_statistics",
    "beable_from_operator",
]

CASE_IDS = ("I", "II", "III", "IV", "V", "VI")

#: The four (s1, s2) sign patterns, in table order.
SIGN_PATTERNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Outcome index (0-based into the spectral triple) produced at each sign
# pattern; index 0 is the repeated outcome.
_CASE_PATTERNS = {
    "I": (0, 1, 2, 0),
    "II": (1, 0, 0, 2),
    "III": (0, 1, 0, 2),
    "IV": (0, 0, 1, 2),
    "V": (1, 0, 2, 0),
    "VI": (1, 2, 0, 0),
}

_RATIO_FLOOR = 1e-12


class InfeasibleCaseError(ValueError):
    """A case whose required sign-function means cannot be realised."""

    def __init__(self, case_id: str, reason: str):
        self.case_id = case_id
        self.reason = reason
        super().__init__(f"case {case_id} infeasible: {reason}")


@dataclass(frozen=True)
class CaseAssignment:
    """One of the six outcome assignments, optionally with the two
    non-repeated outcomes interchanged."""

    case_id: str
    swap: bool = False

    def __post_init__(self) -> None:
        if self.case_id not in CASE_IDS:
            raise ValueError(f"case_id must be one of {CASE_IDS}")

    @property
    def pattern(self) -> tuple[int, int, int, int]:
        base = _CASE_PATTERNS[self.case_id]
        if not self.swap:
            return base
        flip = {0: 0, 1: 2, 2: 1}
        return tuple(flip[k] for k in base)

    def outcomes(self, values) -> tuple[float, float, float, float]:
        vals = tuple(float(v) for v in values)
        return tuple(vals[k] for k in self.pattern)


@dataclass(frozen=True)
class SpectralTriple:
    """Three outcome values with their probabilities; values[0] is the
    outcome designated as repeated in the case table."""

    values: tuple[float, float, float]
    probabilities: tuple[float, float, float]
    traceless: bool = False

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) != 3:
            raise ValueError("a spectral triple needs three values")
        probs = _probability_triple(self.probabilities)
        if self.traceless:
            span = max(1.0, max(abs(v) for v in vals))
            if abs(sum(vals)) > 1e-10 * span:
                raise ValueError("values marked traceless must sum to 0")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probabilities", probs)


def solve_coefficients(assignment: CaseAssignment, values) -> tuple[float, float, float, float]:
    """Exact solution of the four-pattern linear system.

    The sign patterns form an orthogonal design, so the inverse is the
    quarter-sum combination of the four assigned outcomes.
    """
    y_pp, y_pm, y_mp, y_mm = assignment.outcomes(values)
    a = (y_pp + y_pm + y_mp + y_mm) / 4.0
    b = (y_pp + y_pm - y_mp - y_mm) / 4.0
    c = (y_pp - y_pm + y_mp - y_mm) / 4.0
    d = (y_pp - y_pm - y_mp + y_mm) / 4.0
    return a, b, c, d


def _ratio(num: float, den: float) -> float:
    # den -> 0 only when the repeated outcome is certain, where any value
    # works; 0 is the symmetric choice.
    if abs(den) <= _RATIO_FLOOR:
        return 0.0
    return num / den


def _clip_unit(x: float) -> float:
    return min(max(x, -1.0), 1.0)


def sign_targets(case_id: str, probabilities, swap: bool = False) -> tuple[float, float]:
    """Required means (t1, t2) of the two sign functions for a case.

    Raises InfeasibleCaseError for cases I and II when the discriminant
    goes negative or no real root keeps both means inside [-1, 1].
    """
    if case_id not in CASE_IDS:
        raise ValueError(f"case_id must be one of {CASE_IDS}")
    p1, p2, p3 = (float(p) for p in probabilities)
    if swap:
        p2, p3 = p3, p2

    if case_id == "III":
        return _clip_unit(_ratio(p2 - p3, 1.0 - p1)), _clip_unit(2.0 * p1 - 1.0)
    if case_id == "IV":
        return _clip_unit(2.0 * p1 - 1.0), _clip_unit(_ratio(p2 - p3, 1.0 - p1))
    if case_id == "V":
        return _clip_unit(_ratio(p2 - p3, 1.0 - p1)), _clip_unit(1.0 - 2.0 * p1)
    if case_id == "VI":
        return _clip_unit(1.0 - 2.0 * p1), _clip_unit(_ratio(p2 - p3, 1.0 - p1))

    gap = p2 - p3
    disc = gap * gap + 2.0 * p1 - 1.0
    if disc < 0.0:
        raise InfeasibleCaseError(case_id, "square root becomes imaginary")
    root = float(np.sqrt(disc))
    if case_id == "I":
        candidates = [(gap + r, -gap + r) for r in (root, -root)]
    else:
        candidates = [(gap + r, gap - r) for r in (root, -root)]
    for t1, t2 in candidates:
        if max(abs(t1), abs(t2)) <= 1.0 + 1e-9:
            return _clip_unit(t1), _clip_unit(t2)
    raise InfeasibleCaseError(case_id, "no real root keeps both sign means inside [-1, 1]")


@dataclass(frozen=True)
class OutcomeFormula:
    """A deterministic outcome rule a + b*s1 + c*s2 + d*s1*s2.

    Construction checks that the coefficients give the assigned outcome
    at each of the four sign patterns; evaluation reads that table.
    ``sign1``/``sign2`` carry the hidden-variable realisation of the two
    sign factors; they are None for bare coefficient structures that are
    only evaluated over explicit sign patterns.
    """

    values: tuple[float, float, float]
    coefficients: tuple[float, float, float, float]
    assignment: CaseAssignment
    sign1: SignFunctionSpec | None = None
    sign2: SignFunctionSpec | None = None
    probabilities: tuple[float, float, float] | None = None
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = np.array(self.assignment.outcomes(self.values))
        a, b, c, d = self.coefficients
        raw = np.array([a + b * s1 + c * s2 + d * s1 * s2 for s1, s2 in SIGN_PATTERNS])
        # the quarter sums of solve_coefficients round in proportion to the
        # outcome magnitude, so the bound scales with it above 1
        drift = float(np.max(np.abs(raw - table)))
        if drift > 1e-9 * max(1.0, float(np.max(np.abs(table)))):
            raise RuntimeError(f"outcome drifted {drift:.3e} from the spectrum")
        object.__setattr__(self, "_table", table)

    def evaluate_signs(self, s1, s2):
        """Value of the rule at explicit +/-1 sign arguments, read from
        its outcome table in ``SIGN_PATTERNS`` order."""
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        if not (np.all((s1 == 1.0) | (s1 == -1.0)) and np.all((s2 == 1.0) | (s2 == -1.0))):
            raise ValueError("sign arguments must be +1 or -1")
        out = self._table[2 * (s1 < 0) + (s2 < 0)]
        return float(out) if out.ndim == 0 else out

    def evaluate(self, hidden1, hidden2):
        """Outcome at a pair of hidden-variable values."""
        if self.sign1 is None or self.sign2 is None:
            raise ValueError("formula has no sign-function realisation")
        s1 = self.sign1.evaluate(hidden1)
        s2 = self.sign2.evaluate(hidden2)
        return self.evaluate_signs(s1, s2)

    @property
    def hidden_distributions(self) -> tuple[PowerLawDistribution, PowerLawDistribution]:
        if self.sign1 is None or self.sign2 is None:
            raise ValueError("formula has no sign-function realisation")
        return self.sign1.distribution, self.sign2.distribution


def build_formula(
    case_id: str,
    triple: SpectralTriple,
    n: int = 0,
    swap: bool = False,
) -> OutcomeFormula:
    """Assemble the full outcome rule for a case and spectral triple.

    Each sign factor is the prefactored thresholded sign of its own
    hidden variable, so its mean is exactly the case target and the two
    factors are independent.
    """
    assignment = CaseAssignment(case_id, swap)
    t1, t2 = sign_targets(case_id, triple.probabilities, swap)
    coeffs = solve_coefficients(assignment, triple.values)
    return OutcomeFormula(
        values=triple.values,
        coefficients=coeffs,
        assignment=assignment,
        sign1=SignFunctionSpec(t1, n=n, include_sign_prefactor=True),
        sign2=SignFunctionSpec(t2, n=n, include_sign_prefactor=True),
        probabilities=triple.probabilities,
    )


def hv_statistics(formula: OutcomeFormula) -> Moments:
    """Exact ensemble moments of an outcome rule.

    The two sign factors are independent with means t1, t2 (their
    targets), so the pattern (s1, s2) has weight ((1 + s1*t1)/2) *
    ((1 + s2*t2)/2); the moments are weighted sums over the outcome
    table, and the variance is taken about the mean.
    """
    if formula.sign1 is None or formula.sign2 is None:
        raise ValueError("formula has no sign-function realisation")
    t1 = sign_mean_analytic(formula.sign1)
    t2 = sign_mean_analytic(formula.sign2)
    weights = [(1.0 + s1 * t1) / 2.0 * ((1.0 + s2 * t2) / 2.0) for s1, s2 in SIGN_PATTERNS]
    return Moments.of(formula._table, weights)


def beable_from_operator(
    coeffs,
    basis: OperatorBasis,
    state: QuantumState,
    case_id: str = "III",
    repeated_index: int = 1,
    n: int = 0,
    swap: bool = False,
) -> OutcomeFormula:
    """Pipeline from an observable to its deterministic outcome rule.

    The observable is decomposed, per-eigenvector Born weights become
    the outcome probabilities, and ``repeated_index`` selects which
    eigenvalue (by descending position, default the middle one) plays
    the repeated role in the case table.
    """
    matrix = linear_observable(coeffs, basis)
    if matrix.shape[0] != 3:
        raise ValueError("the three-outcome construction needs a 3x3 observable")
    if repeated_index not in (0, 1, 2):
        raise ValueError("repeated_index must be 0, 1 or 2")
    values, vecs = spectral_decompose(matrix)
    probs = np.einsum("ik,ij,jk->k", vecs.conj(), state.rho, vecs).real
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    order = [repeated_index] + [k for k in range(3) if k != repeated_index]
    triple = SpectralTriple(
        values=tuple(values[order]),
        probabilities=tuple(probs[order]),
        traceless=abs(values.sum()) < 1e-10 * max(1.0, float(np.abs(values).max())),
    )
    return build_formula(case_id, triple, n=n, swap=swap)
