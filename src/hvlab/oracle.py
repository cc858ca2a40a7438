"""Exact quantum-mechanical reference for 2x2 and 3x3 Hermitian observables.

Operator bases (Pauli, Gell-Mann, and the spin-1 angular-momentum set
extended to eight traceless Hermitian operators), an in-repo Jacobi
eigensolver, Born outcome distributions, expectation values, variances,
generalized Bloch vectors and the spin-1 squares identity
Sx^2 + Sy^2 + Sz^2 = 2*I.

Everything here is a pure function of immutable inputs; downstream
modules treat this as the ground truth their deterministic outcome
models must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI",
    "GELL_MANN",
    "ANGULAR_MOMENTUM",
    "BASIS_KINDS",
    "OperatorBasis",
    "QuantumState",
    "BornDistribution",
    "KsIdentityReport",
    "SimultaneousEigenvector",
    "require_hermitian",
    "build_basis",
    "linear_observable",
    "spectral_decompose",
    "born_distribution",
    "expectation",
    "variance",
    "bloch_vector",
    "verify_ks_identity",
    "simultaneous_eigenbasis",
    "random_pure_state",
]

PAULI = "pauli"
GELL_MANN = "gell-mann"
ANGULAR_MOMENTUM = "angular-momentum"
BASIS_KINDS = (PAULI, GELL_MANN, ANGULAR_MOMENTUM)

HERMITIAN_TOL = 1e-12
#: Eigenvalues closer than this, relative to the width of the spectrum,
#: are one outcome.
DEGENERACY_TOL = 1e-8
#: Floor of the merge gap relative to the Frobenius norm: eigenvalues this
#: close are roundoff apart, however narrow the spectrum.
_ROUNDOFF_TOL = 1e-13
#: Jacobi sweeps stop once the off-diagonal norm is this small relative to
#: ||H||_F, skip an entry this small relative to it, and number at most _MAX_SWEEPS.
_STOP_TOL = 1e-15
_SKIP_TOL = 1e-18
_MAX_SWEEPS = 100


def _frobenius_norms(m: np.ndarray) -> np.ndarray:
    """||H||_F of each matrix of a (k, d, d) stack; inf beyond the float range."""
    # einsum's sum of squares overflows to inf without a RuntimeWarning
    parts = m.reshape(len(m), -1).view(float)
    return np.sqrt(np.einsum("ki,ki->k", parts, parts))


def _check_hermitian(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of a complex (k, d, d) stack
    is finite and Hermitian within ``HERMITIAN_TOL * max(1, ||H||_F)``.

    A matrix outside the unit bound whose norm exceeds the float range is
    rejected: a bound scaled by an infinite norm would accept anything.
    """
    if not np.isfinite(m).all():
        raise ValueError("operator has non-finite entries")
    gaps = np.max(np.abs(m - m.conj().transpose(0, 2, 1)), axis=(1, 2))
    outside = gaps > HERMITIAN_TOL
    if outside.any():
        norms = _frobenius_norms(m[outside])
        if not np.isfinite(norms).all():
            raise ValueError("operator norm exceeds the float range")
        if (gaps[outside] > HERMITIAN_TOL * norms).any():
            raise ValueError("operator is not Hermitian")


def require_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Return the matrix as a complex array, raising if it is not Hermitian
    or has a non-finite entry.

    The bound is ``HERMITIAN_TOL * max(1, ||H||_F)``: floating-point
    products round in proportion to the entries, and the floor keeps it
    absolute for density matrices.  A matrix outside the unit bound whose
    norm exceeds the float range is rejected.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("operator must be a square matrix")
    _check_hermitian(m[None])
    return m


def _pauli_matrices() -> np.ndarray:
    return np.array(
        [
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=complex,
    )


def _gell_mann_matrices() -> np.ndarray:
    s3 = np.sqrt(3.0)
    return np.array(
        [
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
            [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
            [[1 / s3, 0, 0], [0, 1 / s3, 0], [0, 0, -2 / s3]],
        ],
        dtype=complex,
    )


def _angular_momentum_matrices() -> np.ndarray:
    g = _gell_mann_matrices()
    s2 = np.sqrt(2.0)
    s3 = np.sqrt(3.0)
    return np.stack(
        [
            (g[0] + g[5]) / s2,
            (g[1] + g[6]) / s2,
            (s3 * g[7] + g[2]) / 2.0,
            (g[0] - g[5]) / s2,
            (g[1] - g[6]) / s2,
            (s3 * g[7] - g[2]) / 2.0,
            g[3],
            g[4],
        ]
    )


def _structure_constants(ops: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Expansion coefficients of commutators and anticommutators.

    [T_i, T_j] = 2i * sum_k f_ijk T_k and
    {T_i, T_j} = (2/dim) Tr(T_i T_j) I + 2 * sum_k d_ijk T_k.
    Solved through the Gram matrix so the non-orthogonal angular-momentum
    set is handled the same way as the trace-orthogonal bases.
    """
    size = len(ops)
    gram = np.einsum("aij,bji->ab", ops, ops).real
    prod = ops[:, None] @ ops[None, :]  # prod[i, j] = T_i T_j
    comm = prod - prod.transpose(1, 0, 2, 3)
    anti = prod + prod.transpose(1, 0, 2, 3)
    anti -= (np.trace(anti, axis1=2, axis2=3) / dim)[..., None, None] * np.eye(dim)

    def expand(rhs: np.ndarray) -> np.ndarray:
        # one solve for every (i, j): rhs[k, i, j] -> coefficient[i, j, k]
        return np.linalg.solve(gram, rhs.reshape(size, -1)).T.reshape(size, size, size)

    rhs_f = (np.einsum("abij,kji->kab", comm, ops) / 2j).real
    rhs_d = np.einsum("abij,kji->kab", anti, ops).real / 2.0
    return expand(rhs_f), expand(rhs_d)


@dataclass(frozen=True)
class OperatorBasis:
    """A set of traceless Hermitian operators with structure constants."""

    kind: str
    operators: np.ndarray
    f: np.ndarray
    d: np.ndarray

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def size(self) -> int:
        return self.operators.shape[0]


def build_basis(kind: str) -> OperatorBasis:
    """Construct one of the named operator bases with f and d recomputed
    from its commutators and anticommutators."""
    if kind == PAULI:
        ops = _pauli_matrices()
    elif kind == GELL_MANN:
        ops = _gell_mann_matrices()
    elif kind == ANGULAR_MOMENTUM:
        ops = _angular_momentum_matrices()
    else:
        raise ValueError(f"unknown basis kind: {kind!r}")
    dim = ops.shape[1]
    f, d = _structure_constants(ops, dim)
    ops = ops.copy()
    ops.setflags(write=False)
    f.setflags(write=False)
    d.setflags(write=False)
    return OperatorBasis(kind=kind, operators=ops, f=f, d=d)


def linear_observable(coeffs, basis: OperatorBasis) -> np.ndarray:
    """Real linear combination of basis operators.

    For the angular-momentum basis a length-3 coefficient vector selects
    the three spin components.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape == (basis.size,):
        full = c
    elif basis.kind == ANGULAR_MOMENTUM and c.shape == (3,):
        full = np.zeros(basis.size)
        full[:3] = c
    else:
        counts = f"{basis.size} or 3" if basis.kind == ANGULAR_MOMENTUM else f"{basis.size}"
        raise ValueError(f"expected {counts} coefficients, got shape {c.shape}")
    return np.einsum("k,kij->ij", full, basis.operators)


def _sweep_stack(h: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic complex Jacobi sweeps of a (k, d, d) stack, returning the
    rotated matrices and the products of their rotations, each rotation one
    numpy operation across the matrices it applies to.

    Every matrix keeps its own stop and skip tests against its own scale,
    and a matrix that has converged is not rotated again, so its result
    does not depend on the other matrices of the stack.
    """
    dim = h.shape[1]
    # rows 0..dim-1 hold A, rows dim..2*dim-1 hold V: a rotation changes
    # columns p and q of both, then rows p and q of A
    w = np.concatenate([h, np.broadcast_to(np.eye(dim, dtype=complex), h.shape)], axis=1)
    rows, cols = np.triu_indices(dim, 1)
    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.abs(w[:, rows, cols]) ** 2, axis=1))
        active = ~(off <= _STOP_TOL * scales)
        if not active.any():
            break
        for p, q in zip(rows.tolist(), cols.tolist()):
            mag = np.abs(w[:, p, q])
            live = np.flatnonzero(active & (mag > _SKIP_TOL * scales))
            if not live.size:
                continue
            sub, mag = w[live], mag[live, None]
            phase = sub[:, p, q, None] / mag
            tau = (sub[:, q, q, None].real - sub[:, p, p, None].real) / (2.0 * mag)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            t[tau == 0.0] = 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # A <- R^H A R and V <- V R, with R the identity but for
            # R[p,p] = c, R[p,q] = s, R[q,p] = -conj(phase) s, R[q,q] = conj(phase) c:
            # only columns p and q, then rows p and q, change
            rqp, rqq = -phase.conj() * s, phase.conj() * c
            x, y = sub[:, :, p], sub[:, :, q].copy()
            sub[:, :, q] = x * s + y * rqq
            sub[:, :, p] = x * c + y * rqp
            rqp, rqq = rqp.conj(), rqq.conj()
            x, y = sub[:, p, :].copy(), sub[:, q, :]
            sub[:, p, :] = c * x + rqp * y
            sub[:, q, :] = s * x + rqq * y
            w[live] = sub
    return w[:, :dim], w[:, dim:]


def spectral_decompose(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a
    Hermitian matrix via cyclic complex Jacobi rotations.

    Returns (values, vectors) with vectors[:, k] the unit eigenvector of
    values[k].  Each eigenvector's phase makes real and nonnegative its
    first component within a factor 1 - 1e-12 of the largest magnitude,
    so components equal in exact arithmetic leave the output
    deterministic rather than to roundoff.
    The stopping and residual tests are relative to the Frobenius norm,
    so a tiny observable keeps its relative accuracy; a norm beyond the
    float range raises ValueError.

    A (k, d, d) stack gives (k, d) values and (k, d, d) vectors from one
    numpy sweep over its leading axis, each matrix checked, stopped,
    ordered and phased on its own.  A single matrix is a stack of one, so
    a matrix of a stack comes out bit for bit as it would alone.
    """
    stacked = np.ndim(matrix) == 3
    if stacked:
        h = np.asarray(matrix, dtype=complex)
        if h.shape[1] != h.shape[2]:
            raise ValueError("operator must be a stack of square matrices")
        _check_hermitian(h)
    else:
        h = require_hermitian(matrix)[None]
    if not np.isfinite(_frobenius_norms(h)).all():
        raise ValueError("operator norm exceeds the float range")
    # each matrix divided exactly by the 2**k putting its largest entry in
    # [1/2, 1), so no square underflows; the values are multiplied back
    k = np.frexp(np.max(np.abs(h), axis=(1, 2)))[1]
    h = np.ldexp(h.reshape(len(h), -1).view(float), -k[:, None]).view(complex).reshape(h.shape)
    scales = _frobenius_norms(h)
    a, v = _sweep_stack(h, scales)
    diag = np.diagonal(a, axis1=1, axis2=2).real
    # a stable sort of the negated diagonal keeps equal values in index order
    order = np.argsort(-diag, axis=1, kind="stable")
    each = np.arange(len(h))[:, None]
    values = diag[each, order]
    vecs = v.transpose(0, 2, 1)[each, order].transpose(0, 2, 1)
    mags = np.abs(vecs)
    lead = np.argmax(mags >= (1.0 - 1e-12) * mags.max(axis=1, keepdims=True), axis=1)
    pivots = vecs[each, lead, np.arange(h.shape[2])]
    vecs *= (pivots.conj() / np.abs(pivots))[:, None, :]
    residuals = np.max(np.abs(h @ vecs - vecs * values[:, None, :]), axis=(1, 2))
    worst = np.flatnonzero(residuals > 1e-9 * scales)
    if worst.size:
        raise RuntimeError(f"eigensolver residual {residuals[worst[0]]:.3e} too large")
    values = np.ldexp(values, k[:, None])
    return (values, vecs) if stacked else (values[0], vecs[0])


@dataclass(frozen=True)
class QuantumState:
    """A pure or mixed state stored as its density matrix."""

    rho: np.ndarray

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def from_pure(cls, amplitudes) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm_sq = float(np.sum(np.abs(vec) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"pure state must be normalised, |psi|^2 = {norm_sq}")
        rho = np.outer(vec, vec.conj())
        rho.setflags(write=False)
        return cls(rho=rho)

    @classmethod
    def from_density(cls, rho) -> "QuantumState":
        mat = require_hermitian(rho)
        if abs(np.trace(mat).real - 1.0) > 1e-12:
            raise ValueError("density matrix must have unit trace")
        smallest = spectral_decompose(mat)[0][-1]
        if smallest < -1e-12:
            raise ValueError(f"density matrix has negative eigenvalue {smallest}")
        mat = mat.copy()
        mat.setflags(write=False)
        return cls(rho=mat)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        rho = np.eye(dim, dtype=complex) / dim
        rho.setflags(write=False)
        return cls(rho=rho)


def _check_dims(matrix: np.ndarray, state: QuantumState) -> None:
    if matrix.shape[0] != state.dim:
        raise ValueError(f"operator dimension {matrix.shape[0]} != state dimension {state.dim}")


def _born_weights(vectors: np.ndarray, state: QuantumState) -> np.ndarray:
    """Born weight <v_k|rho|v_k> of each column v_k of ``vectors``.

    Negative roundoff is clipped to 0; nothing else is changed, so the
    weights are not renormalised.
    """
    _check_dims(vectors, state)
    weights = np.einsum("ik,ij,jk->k", vectors.conj(), state.rho, vectors).real
    return np.clip(weights, 0.0, None)


def _probability_vector(probabilities, length: int | None = None) -> tuple[float, ...]:
    """Outcome probabilities as floats, checked to lie in [0, 1] and to
    sum to 1, each within 1e-10; ``length``, if given, is their count."""
    probs = tuple(float(p) for p in probabilities)
    if length is not None and len(probs) != length:
        raise ValueError(f"expected {length} probabilities")
    if any(p < -1e-10 or p > 1.0 + 1e-10 for p in probs):
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(sum(probs) - 1.0) > 1e-10:
        raise ValueError("probabilities must sum to 1")
    return probs


@dataclass(frozen=True)
class BornDistribution:
    """Measurement outcomes (degenerate eigenvalues merged) and their
    Born probabilities, outcomes sorted descending."""

    outcomes: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        _probability_vector(self.probabilities)

    @property
    def mean(self) -> float:
        return float(np.dot(self.outcomes, self.probabilities))

    @property
    def second_moment(self) -> float:
        return float(np.dot(np.square(self.outcomes), self.probabilities))


def born_distribution(matrix, state) -> BornDistribution | list[BornDistribution]:
    """Born rule: outcome probabilities are traces of the state against
    the eigenprojectors, with eigenvalues within ``DEGENERACY_TOL`` times
    the spectrum width (at least roundoff of the Frobenius norm) merged
    into a single outcome.  The gap ignores a constant offset of the
    observable, so distinct eigenvalues of H + c*I stay distinct.

    A (k, d, d) stack takes a sequence of exactly k states and returns a
    list of k distributions from one stacked decomposition; a single
    matrix and its state are a stack of one and give one distribution.
    """
    values, vecs = spectral_decompose(matrix)
    if values.ndim == 1:
        values, vecs, state = values[None], vecs[None], [state]
    states = list(state)
    if len(states) != len(values):
        raise ValueError(f"a stack of {len(values)} observables needs as many states, got {len(states)}")
    dists = []
    for vals, eigvecs, st in zip(values, vecs, states):
        # the Frobenius norm of a Hermitian matrix is that of its spectrum
        merge_gap = max(DEGENERACY_TOL * float(vals[0] - vals[-1]), _ROUNDOFF_TOL * float(np.linalg.norm(vals)))
        slot_probs = _born_weights(eigvecs, st)
        outcomes: list[float] = []
        probs: list[float] = []
        start = 0
        for k in range(1, len(vals) + 1):
            if k == len(vals) or vals[start] - vals[k] > merge_gap:
                group = slice(start, k)
                outcomes.append(float(np.mean(vals[group])))
                probs.append(float(np.sum(slot_probs[group])))
                start = k
        out = np.asarray(outcomes)
        pr = np.asarray(probs)
        out.setflags(write=False)
        pr.setflags(write=False)
        dists.append(BornDistribution(outcomes=out, probabilities=pr))
    return dists if np.ndim(matrix) == 3 else dists[0]


def expectation(matrix, state: QuantumState) -> float:
    """Trace of the state against the observable."""
    h = require_hermitian(matrix)
    _check_dims(h, state)
    return float(np.trace(state.rho @ h).real)


def variance(matrix, state: QuantumState) -> float:
    """Spread about the mean, Tr rho (H - <H>)^2, centred so that an
    offset of the spectrum does not cancel it."""
    h = require_hermitian(matrix)
    _check_dims(h, state)
    centred = h - float(np.trace(state.rho @ h).real) * np.eye(h.shape[0])
    return float(np.trace(state.rho @ centred @ centred).real)


def bloch_vector(state: QuantumState, basis: OperatorBasis) -> np.ndarray:
    """Expectation value of every basis operator (the generalized Bloch
    vector labelling the state)."""
    if basis.dim != state.dim:
        raise ValueError("basis and state dimensions differ")
    return np.einsum("ij,kji->k", state.rho, basis.operators).real


@dataclass(frozen=True)
class KsIdentityReport:
    holds: bool
    residual: float


def verify_ks_identity(basis: OperatorBasis) -> KsIdentityReport:
    """Whether the first three basis operators satisfy
    T1^2 + T2^2 + T3^2 = 2*I (true for the angular-momentum set,
    false for the Gell-Mann set)."""
    squares = sum(op @ op for op in basis.operators[:3])
    residual = float(np.linalg.norm(squares - 2.0 * np.eye(basis.dim)))
    return KsIdentityReport(holds=residual < 1e-12, residual=residual)


@dataclass(frozen=True)
class SimultaneousEigenvector:
    """One common eigenvector of Sx^2, Sy^2, Sz^2 with its eigenvalue
    triple and the probability slot it is bound to downstream."""

    squares: tuple[int, int, int]
    vector: np.ndarray
    probability_slot: str


def simultaneous_eigenbasis() -> tuple[SimultaneousEigenvector, ...]:
    """The three common eigenvectors of the mutually commuting squared
    spin components; each eigenvalue triple sums to 2."""
    s2 = np.sqrt(2.0)
    rows = (
        SimultaneousEigenvector((1, 0, 1), np.array([1, 0, 1], dtype=complex) / s2, "p2"),
        SimultaneousEigenvector((0, 1, 1), np.array([1, 0, -1], dtype=complex) / s2, "p1"),
        SimultaneousEigenvector((1, 1, 0), np.array([0, 1, 0], dtype=complex), "p3"),
    )
    for row in rows:
        row.vector.setflags(write=False)
    return rows


def random_pure_state(dim: int, rng: np.random.Generator) -> QuantumState:
    """Haar-ish random pure state from complex normal amplitudes."""
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec = vec / np.linalg.norm(vec)
    return QuantumState.from_pure(vec)
