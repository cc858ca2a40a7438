"""Verification lab for deterministic hidden-variable outcome models.

Exact quantum references, power-law hidden-variable distributions,
sign-function outcome rules for spin-1/2 and spin-1 observables, and
the dispersion analysis of the Kochen-Specker constraint.
"""

from . import distributions, ks, oracle, spin_half, spin_one
from .distributions import (
    McEstimate,
    Moments,
    PowerLawDistribution,
    SignFunctionSpec,
    mc_mean,
    mc_mean_pair,
    sign_mean_analytic,
    sign_pm,
    sign_product_mean_analytic,
)
from .ks import DeformedKsModel, KsModel, deformed_statistics, ks_average, ks_dispersion, ks_second_moment
from .oracle import (
    ANGULAR_MOMENTUM,
    GELL_MANN,
    PAULI,
    BornDistribution,
    OperatorBasis,
    QuantumState,
    bloch_vector,
    born_distribution,
    build_basis,
    expectation,
    linear_observable,
    spectral_decompose,
    variance,
)
from .spin_one import (
    CaseAssignment,
    InfeasibleCaseError,
    OutcomeFormula,
    SpectralTriple,
    beable_from_operator,
    build_formula,
    solve_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "distributions",
    "oracle",
    "spin_half",
    "spin_one",
    "ks",
    "McEstimate",
    "Moments",
    "PowerLawDistribution",
    "SignFunctionSpec",
    "mc_mean",
    "mc_mean_pair",
    "sign_mean_analytic",
    "sign_pm",
    "sign_product_mean_analytic",
    "DeformedKsModel",
    "KsModel",
    "deformed_statistics",
    "ks_average",
    "ks_dispersion",
    "ks_second_moment",
    "ANGULAR_MOMENTUM",
    "GELL_MANN",
    "PAULI",
    "BornDistribution",
    "OperatorBasis",
    "QuantumState",
    "bloch_vector",
    "born_distribution",
    "build_basis",
    "expectation",
    "linear_observable",
    "spectral_decompose",
    "variance",
    "CaseAssignment",
    "InfeasibleCaseError",
    "OutcomeFormula",
    "SpectralTriple",
    "beable_from_operator",
    "build_formula",
    "solve_coefficients",
]
