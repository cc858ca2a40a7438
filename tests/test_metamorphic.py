"""Metamorphic properties of the exact quantum reference and of the model
moments away from unit scale.

Each property compares the reference, or a model's moments, on a
transformed observable with the same on the original one, over scales s
from 1e-12 to 1e8 and offsets c up to 1e8.  Each error is bounded by
conditioning: a backward-stable eigensolve of A perturbs A by a few tens of
roundoffs of ||A||, which moves eigenvalues by as much (Weyl) and
eigenvectors by that over the spectral gap (Davis-Kahan); see Demmel &
Veselic, SIAM J. Matrix Anal. Appl. 13 (1992).  A mean is bounded by that
roundoff of s||H|| + |c|, a second moment or variance by it times
s||H|| + |c| once more.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab import spin_half, spin_one
from hvlab.oracle import (
    _ROUNDOFF_TOL,
    BASIS_KINDS,
    DEGENERACY_TOL,
    GELL_MANN,
    PAULI,
    QuantumState,
    born_distribution,
    build_basis,
    linear_observable,
    random_pure_state,
    spectral_decompose,
)

#: Roundoff of one backward-stable eigensolve, in units of ||A||: a few
#: sweeps of at most three rotations, each a few complex operations.
SOLVE_EPS = 100 * np.finfo(float).eps

BASES = {kind: build_basis(kind) for kind in BASIS_KINDS}

seeds = st.integers(min_value=0, max_value=2**32 - 1)
kinds = st.sampled_from(BASIS_KINDS)
scales = st.floats(min_value=-12.0, max_value=8.0).map(lambda e: 10.0**e)
offsets = st.floats(min_value=-1e8, max_value=1e8)

EXAMPLES = settings(max_examples=40, deadline=None)


def _observable(kind: str, seed: int) -> tuple[np.ndarray, np.random.Generator]:
    basis = BASES[kind]
    rng = np.random.default_rng(seed)
    return linear_observable(rng.normal(size=basis.size), basis), rng


def _bound(h: np.ndarray, s: float, c: float) -> float:
    return SOLVE_EPS * (s * float(np.linalg.norm(h)) + abs(c))


@EXAMPLES
@given(kinds, seeds, scales, offsets)
def test_offset_and_scale_map_the_eigenvalues(kind, seed, s, c):
    h, _ = _observable(kind, seed)
    values, _ = spectral_decompose(h)
    shifted, _ = spectral_decompose(s * h + c * np.eye(len(h)))
    assert np.max(np.abs(shifted - (s * values + c))) <= _bound(h, s, c)


@EXAMPLES
@given(kinds, seeds, scales, offsets)
def test_offset_leaves_the_born_probabilities(kind, seed, s, c):
    h, rng = _observable(kind, seed)
    state = random_pure_state(len(h), rng)
    a = s * h + c * np.eye(len(h))
    base = born_distribution(s * h, state)
    shifted = born_distribution(a, state)
    values = spectral_decompose(h)[0]
    # an offset may merge outcomes only within roundoff of ||sH + cI||:
    # each outcome of sH carries its probability to the nearest outcome of sH + cI
    owner = np.argmin(np.abs((base.outcomes + c)[:, None] - shifted.outcomes[None, :]), axis=1)
    merge_gap = max(DEGENERACY_TOL * s * float(values[0] - values[-1]), _ROUNDOFF_TOL * float(np.linalg.norm(a)))
    for k in set(owner):
        assert np.ptp(base.outcomes[owner == k]) <= 2.0 * (merge_gap + _bound(h, s, c))
    carried = np.bincount(owner, weights=base.probabilities, minlength=len(shifted.outcomes))
    # both solves move each eigenprojector by at most bound / gap, and a
    # projector error e moves a Born weight by at most 2e
    gap = s * float(np.min(-np.diff(values)))
    assert np.max(np.abs(carried - shifted.probabilities)) <= 4.0 * _bound(h, s, c) / gap


@EXAMPLES
@given(kinds, seeds, scales, offsets)
def test_unitary_conjugation_keeps_the_eigenvalues(kind, seed, s, c):
    h, rng = _observable(kind, seed)
    dim = len(h)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    a = s * h + c * np.eye(dim)
    values, _ = spectral_decompose(a)
    rotated, _ = spectral_decompose(u @ a @ u.conj().T)
    assert np.max(np.abs(rotated - values)) <= _bound(h, s, c)


# the same properties with both observables decomposed as one stack


@EXAMPLES
@given(kinds, seeds, scales, offsets)
def test_offset_and_scale_map_the_eigenvalues_in_a_stack(kind, seed, s, c):
    h, _ = _observable(kind, seed)
    values, shifted = spectral_decompose(np.stack([h, s * h + c * np.eye(len(h))]))[0]
    assert np.max(np.abs(shifted - (s * values + c))) <= _bound(h, s, c)


@EXAMPLES
@given(kinds, seeds, scales, offsets)
def test_unitary_conjugation_keeps_the_eigenvalues_in_a_stack(kind, seed, s, c):
    h, rng = _observable(kind, seed)
    dim = len(h)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    a = s * h + c * np.eye(dim)
    values, rotated = spectral_decompose(np.stack([a, u @ a @ u.conj().T]))[0]
    assert np.max(np.abs(rotated - values)) <= _bound(h, s, c)


# the model moments: the spin-1/2 rule and the spin-1 rules of each case


def _assert_moments_map(moments, base, s: float, c: float, size: float) -> None:
    """moments are base under x -> s x + c, size being s||H|| + |c|: the
    mean within SOLVE_EPS * size, the variance (and, with no offset, the
    second moment) within SOLVE_EPS * size**2."""
    assert abs(moments.mean - (s * base.mean + c)) <= SOLVE_EPS * size
    assert abs(moments.variance - s * s * base.variance) <= SOLVE_EPS * size * size
    if c == 0.0:
        assert abs(moments.second_moment - s * s * base.second_moment) <= SOLVE_EPS * size * size


def _direction_and_bloch(seed: int) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    rng = np.random.default_rng(seed)
    bloch = rng.normal(size=3)
    return rng.normal(size=3), bloch * (rng.uniform() / np.linalg.norm(bloch)), rng


def _pauli_norm(direction: np.ndarray, s: float) -> float:
    return s * float(np.linalg.norm(linear_observable(direction, BASES[PAULI])))


@EXAMPLES
@given(seeds, scales)
def test_scaling_b_scales_the_spin_half_moments(seed, s):
    b, e, _ = _direction_and_bloch(seed)
    size = _pauli_norm(b, s)
    moments = spin_half.hv_statistics(s * b, e)
    _assert_moments_map(moments, spin_half.hv_statistics(b, e), s, 0.0, size)


@EXAMPLES
@given(seeds, scales)
def test_one_rotation_of_b_and_the_bloch_vector_keeps_the_spin_half_moments(seed, s):
    b, e, rng = _direction_and_bloch(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation[:, 0] *= np.linalg.det(rotation)  # a reflection becomes a rotation
    size = _pauli_norm(b, s)
    base = spin_half.hv_statistics(s * b, e)
    moments = spin_half.hv_statistics(rotation @ (s * b), rotation @ e)
    _assert_moments_map(moments, base, 1.0, 0.0, size)


@EXAMPLES
@given(seeds, scales, offsets)
def test_an_affine_spectrum_maps_the_spin_one_moments(seed, s, c):
    rng = np.random.default_rng(seed)
    values, probs = rng.normal(size=3), rng.dirichlet(np.ones(3))
    size = s * float(np.linalg.norm(values)) + abs(c)
    for case_id in spin_one.CASE_IDS:
        try:
            base = spin_one.hv_statistics(spin_one.build_formula(case_id, spin_one.SpectralTriple(values, probs)))
        except spin_one.InfeasibleCaseError:
            # feasibility is a property of the probabilities alone
            with pytest.raises(spin_one.InfeasibleCaseError):
                spin_one.build_formula(case_id, spin_one.SpectralTriple(s * values + c, probs))
            continue
        moments = spin_one.hv_statistics(spin_one.build_formula(case_id, spin_one.SpectralTriple(s * values + c, probs)))
        _assert_moments_map(moments, base, s, c, size)


@EXAMPLES
@given(seeds, scales)
def test_scaling_the_coefficients_scales_the_operator_beable_moments(seed, s):
    basis = BASES[GELL_MANN]
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=basis.size)
    state = random_pure_state(3, rng)
    size = s * float(np.linalg.norm(linear_observable(coeffs, basis)))
    base = spin_one.hv_statistics(spin_one.beable_from_operator(coeffs, basis, state))
    moments = spin_one.hv_statistics(spin_one.beable_from_operator(s * coeffs, basis, state))
    _assert_moments_map(moments, base, s, 0.0, size)


@EXAMPLES
@given(seeds, scales)
def test_a_unitary_on_the_observable_and_the_state_keeps_the_operator_beable_moments(seed, s):
    # H + cI has no traceless coefficients: the offset is the affine-spectrum test's
    basis = BASES[GELL_MANN]
    rng = np.random.default_rng(seed)
    coeffs = s * rng.normal(size=basis.size)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h = linear_observable(coeffs, basis)
    # U H U^dagger projected back onto the basis: coefficients Tr(T_k U H U^dagger) / 2
    rotated = np.einsum("kij,ji->k", basis.operators, u @ h @ u.conj().T).real / 2.0
    base = spin_one.hv_statistics(spin_one.beable_from_operator(coeffs, basis, QuantumState.from_pure(psi)))
    moments = spin_one.hv_statistics(spin_one.beable_from_operator(rotated, basis, QuantumState.from_pure(u @ psi)))
    size = float(np.linalg.norm(h))
    # each of the three Born weights moves by at most 4 bound / gap, as in the
    # Born-probability test, and carries an outcome of size at most ||H||
    gap = float(np.min(-np.diff(spectral_decompose(h)[0])))
    tol = SOLVE_EPS * size * (1.0 + 12.0 * size / gap)
    assert abs(moments.mean - base.mean) <= tol
    # a second moment or variance: outcome deviations at most 2 ||H|| times that
    assert abs(moments.second_moment - base.second_moment) <= 12.0 * size * tol
    assert abs(moments.variance - base.variance) <= 12.0 * size * tol
