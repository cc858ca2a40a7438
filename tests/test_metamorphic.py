"""Metamorphic properties of the exact quantum reference away from unit scale.

Each property compares the reference on a transformed observable with the
same reference on the original one, over scales s from 1e-12 to 1e8 and
offsets c up to 1e8.  Each error is bounded by conditioning: a backward-stable
eigensolve of A perturbs A by a few tens of roundoffs of ||A||, which moves
eigenvalues by as much (Weyl) and eigenvectors by that over the spectral gap
(Davis-Kahan); see Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13 (1992).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab.oracle import (
    _ROUNDOFF_TOL,
    BASIS_KINDS,
    DEGENERACY_TOL,
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
