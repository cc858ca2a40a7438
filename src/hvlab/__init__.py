"""Verification lab for deterministic hidden-variable outcome models.

Exact quantum references, power-law hidden-variable distributions,
sign-function outcome rules for spin-1/2 and spin-1 observables, and
the dispersion analysis of the Kochen-Specker constraint.
"""

from . import distributions, ks, oracle, spin_half, spin_one
