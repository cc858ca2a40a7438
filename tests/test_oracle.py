"""Tests for the exact quantum reference layer."""

import math
import warnings

import numpy as np
import pytest

import hvlab.oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab.distributions import Moments
from hvlab.ks import ks_model_from_state
from hvlab.oracle import (
    ANGULAR_MOMENTUM,
    BASIS_KINDS,
    GELL_MANN,
    PAULI,
    BornDistribution,
    QuantumState,
    bloch_vector,
    born_distribution,
    build_basis,
    expectation,
    linear_observable,
    random_pure_state,
    require_hermitian,
    simultaneous_eigenbasis,
    spectral_decompose,
    variance,
    verify_ks_identity,
)
from hvlab.spin_one import beable_from_operator

S2 = np.sqrt(2.0)

SIGMA_X = np.array([[0, 1 / S2, 0], [1 / S2, 0, 1 / S2], [0, 1 / S2, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j / S2, 0], [1j / S2, 0, -1j / S2], [0, 1j / S2, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)

SIGMA_X_SQ = np.array([[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]], dtype=complex)
SIGMA_Y_SQ = np.array([[0.5, 0, -0.5], [0, 1, 0], [-0.5, 0, 0.5]], dtype=complex)
SIGMA_Z_SQ = np.diag([1.0, 0.0, 1.0]).astype(complex)


@pytest.fixture(scope="module")
def bases():
    return {kind: build_basis(kind) for kind in BASIS_KINDS}


class TestBases:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_basis("su4")

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_all_operators_traceless_and_hermitian(self, bases, kind):
        for op in bases[kind].operators:
            assert abs(np.trace(op)) < 1e-12
            require_hermitian(op)

    @pytest.mark.parametrize("kind", [PAULI, GELL_MANN])
    def test_trace_orthogonality(self, bases, kind):
        basis = bases[kind]
        gram = np.einsum("aij,bji->ab", basis.operators, basis.operators).real
        np.testing.assert_allclose(gram, 2.0 * np.eye(basis.size), atol=1e-12)

    def test_angular_momentum_matrices_verbatim(self, bases):
        ops = bases[ANGULAR_MOMENTUM].operators
        np.testing.assert_allclose(ops[0], SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(ops[1], SIGMA_Y, atol=1e-15)
        np.testing.assert_allclose(ops[2], SIGMA_Z, atol=1e-15)

    def test_angular_momentum_from_gell_mann_combinations(self, bases):
        g = bases[GELL_MANN].operators
        s3 = np.sqrt(3.0)
        combos = [
            (g[0] + g[5]) / S2,
            (g[1] + g[6]) / S2,
            (s3 * g[7] + g[2]) / 2,
            (g[0] - g[5]) / S2,
            (g[1] - g[6]) / S2,
            (s3 * g[7] - g[2]) / 2,
            g[3],
            g[4],
        ]
        for stored, combo in zip(bases[ANGULAR_MOMENTUM].operators, combos):
            np.testing.assert_allclose(stored, combo, atol=1e-12)

    def test_pauli_structure_constants(self, bases):
        f = bases[PAULI].f
        levi = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            levi[i, j, k], levi[j, i, k] = 1.0, -1.0
        np.testing.assert_allclose(f, levi, atol=1e-12)
        np.testing.assert_allclose(bases[PAULI].d, 0.0, atol=1e-12)

    def test_gell_mann_structure_constants(self, bases):
        f, d = bases[GELL_MANN].f, bases[GELL_MANN].d
        assert f[0, 1, 2] == pytest.approx(1.0, abs=1e-12)
        assert f[3, 4, 7] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        assert f[0, 3, 6] == pytest.approx(0.5, abs=1e-12)
        assert d[0, 0, 7] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert d[7, 7, 7] == pytest.approx(-1 / np.sqrt(3), abs=1e-12)
        assert d[2, 3, 3] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_f_antisymmetric_d_symmetric_under_index_exchange(self, bases, kind):
        basis = bases[kind]
        np.testing.assert_allclose(basis.f, -basis.f.transpose(1, 0, 2), atol=1e-12)
        np.testing.assert_allclose(basis.d, basis.d.transpose(1, 0, 2), atol=1e-12)

    @pytest.mark.parametrize("kind", [PAULI, GELL_MANN])
    def test_full_permutation_symmetry_for_orthogonal_kinds(self, bases, kind):
        f, d = bases[kind].f, bases[kind].d
        np.testing.assert_allclose(f, np.transpose(f, (1, 2, 0)), atol=1e-12)
        np.testing.assert_allclose(f, -np.transpose(f, (0, 2, 1)), atol=1e-12)
        np.testing.assert_allclose(d, np.transpose(d, (1, 2, 0)), atol=1e-12)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_structure_constants_close_the_algebra(self, bases, kind):
        basis = bases[kind]
        ops = basis.operators
        eye = np.eye(basis.dim)
        gram = np.einsum("aij,bji->ab", ops, ops).real
        for i in range(basis.size):
            for j in range(basis.size):
                comm = ops[i] @ ops[j] - ops[j] @ ops[i]
                rebuilt = 2j * np.einsum("k,kab->ab", basis.f[i, j], ops)
                np.testing.assert_allclose(comm, rebuilt, atol=1e-12)
                anti = ops[i] @ ops[j] + ops[j] @ ops[i]
                rebuilt = (gram[i, j] * 2.0 / basis.dim) * eye + 2.0 * np.einsum(
                    "k,kab->ab", basis.d[i, j], ops
                )
                np.testing.assert_allclose(anti, rebuilt, atol=1e-12)


def test_structure_constants_take_one_solve_each(monkeypatch):
    # every (i, j) right-hand side goes through one batched solve for f and one for d
    calls = []
    real = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    build_basis(GELL_MANN)
    assert len(calls) == 2


class TestRequireHermitian:
    def test_large_non_hermitian_rejected(self):
        h = np.diag([1e8 + 1, 1e8, 1e8 - 1]).astype(complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(h)

    def test_unit_scale_bound_is_absolute(self):
        # a density matrix has ||rho||_F <= 1, so the bound stays 1e-12
        rho = np.eye(3, dtype=complex) / 3.0
        rho[0, 1] = 0.9e-12
        require_hermitian(rho)
        rho[0, 1] = 1.1e-12
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(rho)

    def test_tolerance_is_not_settable(self):
        with pytest.raises(TypeError):
            require_hermitian(np.eye(2), tol=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    @pytest.mark.parametrize(
        "check",
        [require_hermitian, spectral_decompose, lambda h: born_distribution(h, QuantumState.maximally_mixed(3))],
        ids=["require_hermitian", "spectral_decompose", "born_distribution"],
    )
    def test_non_finite_entries_rejected(self, check, where, bad):
        h = np.diag([1.0, 0.0, -1.0]).astype(complex)
        if where == "diagonal":
            h[0, 0] = bad
        else:
            h[0, 1] = h[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                check(h)

    @pytest.mark.parametrize(
        "check, h",
        [
            (require_hermitian, [[0.0, 1e200], [0.0, 0.0]]),
            (spectral_decompose, [[0.0, 1.3e154], [1.3e154, 0.0]]),
            (lambda h: born_distribution(h, QuantumState.maximally_mixed(2)), [[0.0, 1.3e154], [1.3e154, 0.0]]),
        ],
        ids=["require_hermitian", "spectral_decompose", "born_distribution"],
    )
    def test_norm_beyond_the_float_range_rejected(self, check, h):
        # an infinite norm scaled every bound to accept anything: the first
        # matrix passed as Hermitian, the spectrum +-1.3e154 came out as [0, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="norm exceeds the float range"):
                check(np.array(h))


class TestLinearObservable:
    def test_single_term_selects_operator(self, bases):
        ang = bases[ANGULAR_MOMENTUM]
        np.testing.assert_allclose(linear_observable([0, 0, 1], ang), SIGMA_Z, atol=1e-15)
        gm = bases[GELL_MANN]
        coeffs = np.zeros(8)
        coeffs[0] = 1.0
        np.testing.assert_allclose(linear_observable(coeffs, gm), gm.operators[0], atol=1e-15)

    def test_length_mismatch_rejected(self, bases):
        with pytest.raises(ValueError):
            linear_observable([1.0, 2.0], bases[GELL_MANN])
        with pytest.raises(ValueError):
            linear_observable([1.0, 2.0, 3.0], bases[GELL_MANN])

    def test_mismatch_names_every_accepted_count(self, bases):
        with pytest.raises(ValueError, match=r"^expected 8 or 3 coefficients, got shape \(2,\)$"):
            linear_observable([1.0, 2.0], bases[ANGULAR_MOMENTUM])
        with pytest.raises(ValueError, match=r"^expected 8 coefficients, got shape \(3,\)$"):
            linear_observable([1.0, 2.0, 3.0], bases[GELL_MANN])
        with pytest.raises(ValueError, match=r"^expected 3 coefficients, got shape \(2,\)$"):
            linear_observable([1.0, 2.0], bases[PAULI])
        # a stack's rows are checked by their trailing length, and any other rank is rejected
        with pytest.raises(ValueError, match=r"^expected 8 coefficients, got shape \(4, 3\)$"):
            linear_observable(np.ones((4, 3)), bases[GELL_MANN])
        with pytest.raises(ValueError, match=r"^expected 8 or 3 coefficients, got shape \(4, 2\)$"):
            linear_observable(np.ones((4, 2)), bases[ANGULAR_MOMENTUM])
        with pytest.raises(ValueError, match=r"^expected 3 coefficients, got shape \(2, 4, 3\)$"):
            linear_observable(np.ones((2, 4, 3)), bases[PAULI])
        with pytest.raises(ValueError, match=r"^expected 3 coefficients, got shape \(\)$"):
            linear_observable(1.0, bases[PAULI])

    @pytest.mark.parametrize(
        "kind, width", [(PAULI, 3), (GELL_MANN, 8), (ANGULAR_MOMENTUM, 8), (ANGULAR_MOMENTUM, 3)]
    )
    @pytest.mark.parametrize("count", [1, 20, 200])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_a_stack_is_its_rows_byte_for_byte(self, bases, kind, width, count, scale):
        # oracle-check builds each trial set as one stack; its cells must be the
        # ones a call per trial gives
        rows = scale * np.random.default_rng(count).normal(size=(count, width))
        stack = linear_observable(rows, bases[kind])
        dim = bases[kind].dim
        assert stack.shape == (count, dim, dim)
        assert stack.tobytes() == np.stack([linear_observable(row, bases[kind]) for row in rows]).tobytes()

    def test_direction_spectrum_law(self, bases):
        rng = np.random.default_rng(123)
        ang = bases[ANGULAR_MOMENTUM]
        for _ in range(200):
            beta = rng.normal(size=3)
            mag = np.linalg.norm(beta)
            vals, _ = spectral_decompose(linear_observable(beta, ang))
            np.testing.assert_allclose(vals, [mag, 0.0, -mag], atol=1e-10)

    def test_unit_direction_spectrum(self, bases):
        beta = np.array([2.0, -1.0, 2.0]) / 3.0
        vals, _ = spectral_decompose(linear_observable(beta, bases[ANGULAR_MOMENTUM]))
        np.testing.assert_allclose(vals, [1.0, 0.0, -1.0], atol=1e-12)


class TestSpectralDecompose:
    def test_diagonal_matrix(self):
        vals, vecs = spectral_decompose(SIGMA_Z)
        np.testing.assert_allclose(vals, [1.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(vecs), np.eye(3), atol=1e-15)

    def test_scaled_identity(self):
        vals, _ = spectral_decompose(2.0 * np.eye(3))
        np.testing.assert_allclose(vals, [2.0, 2.0, 2.0], atol=1e-15)

    def test_sigma_x_eigenvector(self):
        vals, vecs = spectral_decompose(SIGMA_X)
        np.testing.assert_allclose(vals, [1.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(SIGMA_X @ vecs[:, 0], vecs[:, 0], atol=1e-12)
        np.testing.assert_allclose(vecs[:, 0], [0.5, 1 / S2, 0.5], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(100):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = raw + raw.conj().T
            vals, vecs = spectral_decompose(h)
            assert np.all(np.diff(vals) <= 1e-12)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-10)
            rebuilt = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(rebuilt - h) < 1e-9 * max(1.0, np.linalg.norm(h))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_library_eigensolver(self, dim):
        rng = np.random.default_rng(17 + dim)
        for _ in range(50):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = raw + raw.conj().T
            vals, _ = spectral_decompose(h)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(h)[::-1], atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_eigenprojectors_match_library_eigensolver(self, dim):
        rng = np.random.default_rng(41 + dim)
        for _ in range(50):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = raw + raw.conj().T
            norm = np.linalg.norm(h)
            ref_vals, ref_vecs = np.linalg.eigh(h)
            assert np.min(np.diff(ref_vals)) > 1e-3 * norm  # a non-degenerate draw
            _, vecs = spectral_decompose(h)
            for k in range(dim):
                ref = ref_vecs[:, dim - 1 - k]
                np.testing.assert_allclose(
                    np.outer(vecs[:, k], vecs[:, k].conj()),
                    np.outer(ref, ref.conj()),
                    rtol=0.0,
                    atol=1e-12 * max(1.0, norm),
                )

    def test_tied_components_put_the_phase_on_the_first(self, bases):
        # the 0-eigenvector of n.S is (-sin t e^-ip / sqrt2, cos t, sin t e^ip / sqrt2),
        # so |v1| = |v3| exactly and the phase must not follow roundoff to v3
        rng = np.random.default_rng(5)
        ang = bases[ANGULAR_MOMENTUM]
        for _ in range(200):
            n = rng.normal(size=3)
            _, vecs = spectral_decompose(linear_observable(n, ang))
            lead = 0 if n[2] ** 2 < (n[0] ** 2 + n[1] ** 2) / 2 else 1
            pivot = vecs[lead, 1]
            assert abs(pivot.imag) <= 1e-15 and pivot.real >= 0.0

    @pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-14, 1e-200])
    def test_tiny_observables_keep_relative_accuracy(self, bases, scale):
        rng = np.random.default_rng(29)
        for _ in range(20):
            h = scale * linear_observable(rng.normal(size=8), bases[GELL_MANN])
            vals, _ = spectral_decompose(h)
            exact = np.linalg.eigvalsh(h)[::-1]
            assert np.max(np.abs(vals - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_zero_matrix(self):
        vals, vecs = spectral_decompose(np.zeros((3, 3)))
        np.testing.assert_array_equal(vals, np.zeros(3))
        np.testing.assert_array_equal(vecs, np.eye(3))


#: Roundoff of one backward-stable eigensolve in units of ||H||_F, as in test_metamorphic.
SOLVE_EPS = 100 * np.finfo(float).eps


def _random_hermitian(dim, seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        out.append(raw + raw.conj().T)
    return out


def _observables(kind, seed, count, scale=1.0, size=None):
    rng = np.random.default_rng(seed)
    basis = build_basis(kind)
    return [scale * linear_observable(rng.normal(size=size or basis.size), basis) for _ in range(count)]


#: The matrices of each TestSpectralDecompose case and of the direction-spectrum
#: law, each case decomposed once more as one stack.
STACK_CASES = {
    "fixed": lambda: [SIGMA_Z, 2.0 * np.eye(3), SIGMA_X, np.zeros((3, 3))],
    "reconstruction-2": lambda: _random_hermitian(2, 2, 100),
    "reconstruction-3": lambda: _random_hermitian(3, 3, 100),
    "library-2": lambda: _random_hermitian(2, 19, 50),
    "library-3": lambda: _random_hermitian(3, 20, 50),
    "projectors-2": lambda: _random_hermitian(2, 43, 50),
    "projectors-3": lambda: _random_hermitian(3, 44, 50),
    "tied-components": lambda: _observables(ANGULAR_MOMENTUM, 5, 200, size=3),
    "tiny-1e-09": lambda: _observables(GELL_MANN, 29, 20, 1e-9),
    "tiny-1e-12": lambda: _observables(GELL_MANN, 29, 20, 1e-12),
    "tiny-1e-14": lambda: _observables(GELL_MANN, 29, 20, 1e-14),
    "tiny-1e-200": lambda: _observables(GELL_MANN, 29, 20, 1e-200),
    "direction-spectrum": lambda: _observables(ANGULAR_MOMENTUM, 123, 200, size=3),
}


class TestSpectralDecomposeStack:
    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_each_matrix_comes_out_as_if_alone(self, case):
        # one sweep, and a single matrix is a stack of one: bit for bit
        hs = np.stack(STACK_CASES[case]())
        values, vectors = spectral_decompose(hs)
        assert values.shape == hs.shape[:2] and vectors.shape == hs.shape
        for h, vals, vecs in zip(hs, values, vectors):
            alone_vals, alone_vecs = spectral_decompose(h)
            assert vals.tobytes() == alone_vals.tobytes()
            assert vecs.tobytes() == alone_vecs.tobytes()

    def test_tied_components_put_the_phase_on_the_first(self, bases):
        rng = np.random.default_rng(5)
        ns = rng.normal(size=(200, 3))
        _, vectors = spectral_decompose(np.stack([linear_observable(n, bases[ANGULAR_MOMENTUM]) for n in ns]))
        for n, vecs in zip(ns, vectors):
            lead = 0 if n[2] ** 2 < (n[0] ** 2 + n[1] ** 2) / 2 else 1
            pivot = vecs[lead, 1]
            assert abs(pivot.imag) <= 1e-15 and pivot.real >= 0.0

    def test_zero_matrix(self):
        values, vectors = spectral_decompose(np.stack([SIGMA_X, np.zeros((3, 3)), SIGMA_Y]))
        np.testing.assert_array_equal(values[1], np.zeros(3))
        np.testing.assert_array_equal(vectors[1], np.eye(3))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_matrix_does_not_depend_on_its_stack_mates(self, dim):
        hs = _random_hermitian(dim, 61, 20)
        mates = [np.diag(np.arange(dim, dtype=float)), 1e8 * hs[0], 1e-14 * hs[1], np.zeros((dim, dim)), *hs[2:]]
        for h in hs[:5]:
            twice = spectral_decompose(np.stack([h, h]))
            for g in mates:
                paired = spectral_decompose(np.stack([h, g]))
                np.testing.assert_array_equal(paired[0][0], twice[0][0])
                np.testing.assert_array_equal(paired[1][0], twice[1][0])

    def test_each_matrix_meets_its_own_bound_across_scales(self):
        # a stop or skip test scaled by the stack's largest norm would leave
        # the tiny matrix unrotated
        h, g = _observables(GELL_MANN, 67, 2)
        tiny, large = 1e-14 * h, 1e8 * g
        values, _ = spectral_decompose(np.stack([tiny, large, tiny]))
        for m, vals in zip((tiny, large, tiny), values):
            exact = np.linalg.eigvalsh(m)[::-1]
            assert np.max(np.abs(vals - exact)) <= SOLVE_EPS * np.linalg.norm(m)

    def test_tiny_observables_keep_relative_accuracy(self):
        # the squared entries of 1e-200 underflow: each matrix is scaled by a power of two first
        hs = [*_observables(GELL_MANN, 29, 20, 1e-200), SIGMA_X]
        values, _ = spectral_decompose(np.stack(hs))
        for h, vals in zip(hs, values):
            exact = np.linalg.eigvalsh(h)[::-1]
            assert np.max(np.abs(vals - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1e8, 1.0, 0.0], [0.0, 1e8, 0.0], [0.0, 0.0, 1e8]]),
            np.diag([np.nan, 0.0, -1.0]),
            np.diag([1.0, np.inf, -1.0]),
            np.array([[0.0, 1.3e154, 0.0], [1.3e154, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0, 1e200, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ],
        ids=["not-hermitian", "nan", "inf", "norm-hermitian", "norm-not-hermitian"],
    )
    def test_a_bad_member_raises_as_it_does_alone(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as alone:
                spectral_decompose(bad)
            with pytest.raises(ValueError) as stacked:
                spectral_decompose(np.stack([SIGMA_X, bad, SIGMA_Z]))
        assert str(stacked.value) == str(alone.value)

    def test_rejects_a_stack_of_non_square_matrices(self):
        with pytest.raises(ValueError, match="square"):
            spectral_decompose(np.zeros((2, 2, 3)))


class TestQuantumState:
    def test_pure_state_requires_normalisation(self):
        with pytest.raises(ValueError):
            QuantumState.from_pure([1.0, 1.0])

    def test_density_requires_unit_trace(self):
        with pytest.raises(ValueError):
            QuantumState.from_density(np.eye(2))

    def test_density_requires_positivity(self):
        with pytest.raises(ValueError):
            QuantumState.from_density(np.diag([1.5, -0.5]))

    def test_maximally_mixed(self):
        state = QuantumState.maximally_mixed(3)
        assert np.trace(state.rho) == pytest.approx(1.0)

    def test_pure_density_is_projector(self):
        state = QuantumState.from_pure([1 / S2, 1j / S2])
        np.testing.assert_allclose(state.rho @ state.rho, state.rho, atol=1e-12)


class TestBornDistribution:
    def test_merge_tolerance_is_not_settable(self):
        with pytest.raises(TypeError):
            born_distribution(SIGMA_Z, QuantumState.from_pure([1, 0, 0]), merge_tol=1.0)

    def test_eigenstate_is_certain(self):
        dist = born_distribution(SIGMA_Z, QuantumState.from_pure([1, 0, 0]))
        np.testing.assert_allclose(dist.outcomes, [1.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(dist.probabilities, [1.0, 0.0, 0.0], atol=1e-12)

    def test_sigma_x_on_up_state(self):
        dist = born_distribution(SIGMA_X, QuantumState.from_pure([1, 0, 0]))
        np.testing.assert_allclose(dist.probabilities, [0.25, 0.5, 0.25], atol=1e-10)

    def test_qubit_up_probability_is_amplitude_square(self):
        amp = np.array([0.6, 0.8j])
        pauli_z = build_basis(PAULI).operators[2]
        dist = born_distribution(pauli_z, QuantumState.from_pure(amp))
        assert dist.probabilities[0] == pytest.approx(0.36, abs=1e-12)

    def test_degenerate_outcomes_merged(self):
        dist = born_distribution(SIGMA_Z_SQ, QuantumState.from_pure([1, 0, 0]))
        np.testing.assert_allclose(dist.outcomes, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-12)

    def test_tiny_distinct_outcomes_stay_apart(self):
        dist = born_distribution(1e-9 * np.diag([1.0, 2.0, 3.0]), QuantumState.maximally_mixed(3))
        np.testing.assert_allclose(dist.outcomes, [3e-9, 2e-9, 1e-9], rtol=1e-12)
        np.testing.assert_allclose(dist.probabilities, [1 / 3, 1 / 3, 1 / 3], rtol=1e-12)

    def test_offset_distinct_outcomes_stay_apart(self):
        dist = born_distribution(np.diag([1e8 + 1, 1e8, 1e8 - 1]), QuantumState.maximally_mixed(3))
        np.testing.assert_array_equal(dist.outcomes, [1e8 + 1, 1e8, 1e8 - 1])
        assert Moments.of(dist.outcomes, dist.probabilities).variance == pytest.approx(2 / 3, rel=1e-9)

    def test_merge_gap_is_measured_from_each_group_start(self):
        # the gap is about 1.7e-13 (roundoff of the norm): consecutive eigenvalues 1e-13
        # apart would chain into one outcome, but the third is 2e-13 from the group's first
        dist = born_distribution(np.diag([1.0, 1 - 1e-13, 1 - 2e-13]), QuantumState.maximally_mixed(3))
        np.testing.assert_array_equal(dist.outcomes, [1 - 5e-14, 1 - 2e-13])
        np.testing.assert_allclose(dist.probabilities, [2 / 3, 1 / 3], rtol=1e-12)

    def test_offset_degenerate_outcomes_merged(self, bases):
        rng = np.random.default_rng(11)
        _, vecs = np.linalg.eigh(linear_observable(rng.normal(size=8), bases[GELL_MANN]))
        h = vecs @ np.diag([1e8 + 1, 1e8 + 1, 1e8 - 1]) @ vecs.conj().T
        h = 0.5 * (h + h.conj().T)
        dist = born_distribution(h, QuantumState.maximally_mixed(3))
        np.testing.assert_allclose(dist.outcomes, [1e8 + 1, 1e8 - 1], rtol=1e-14)
        np.testing.assert_allclose(dist.probabilities, [2 / 3, 1 / 3], rtol=1e-9)

    def test_offset_rotated_observable_accepted(self, bases):
        # roundoff leaves the product about 1e-8 short of Hermitian
        rng = np.random.default_rng(11)
        _, vecs = np.linalg.eigh(linear_observable(rng.normal(size=8), bases[GELL_MANN]))
        h = vecs @ np.diag([1e8 + 1, 1e8 + 1, 1e8 - 1]) @ vecs.conj().T
        assert np.max(np.abs(h - h.conj().T)) > 1e-12
        dist = born_distribution(h, QuantumState.maximally_mixed(3))
        assert len(dist.outcomes) == 2
        np.testing.assert_allclose(dist.probabilities, [2 / 3, 1 / 3], rtol=1e-9)

    def test_mean_matches_trace(self, bases):
        rng = np.random.default_rng(5)
        gm = bases[GELL_MANN]
        for _ in range(50):
            h = linear_observable(rng.normal(size=8), gm)
            state = random_pure_state(3, rng)
            dist = born_distribution(h, state)
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
            assert dist.mean == pytest.approx(expectation(h, state), abs=1e-10)

    def test_tiny_weight_is_kept_by_every_born_route(self, bases):
        # the middle slot weighs about 1e-16: real, not roundoff to zero
        amp = np.array([1.0, 1e-8, 0.0])
        state = QuantumState.from_pure(amp / np.linalg.norm(amp))
        weight = 1e-16 / (1.0 + 1e-16)
        dist = born_distribution(SIGMA_Z, state)
        assert dist.probabilities[1] == pytest.approx(weight, rel=1e-9, abs=0.0)
        formula = beable_from_operator([0.0, 0.0, 1.0], bases[ANGULAR_MOMENTUM], state)
        assert formula.probabilities[0] == pytest.approx(weight, rel=1e-9, abs=0.0)
        # the (0, 1, 0) vector of the common eigenbasis is slot p3
        assert ks_model_from_state(state).probabilities[2] == pytest.approx(weight, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kind", [PAULI, GELL_MANN])
    def test_a_stack_gives_each_single_call_bit_for_bit(self, bases, kind):
        rng = np.random.default_rng(13)
        basis = bases[kind]
        hs = [linear_observable(rng.normal(size=basis.size), basis) for _ in range(20)]
        # a merged outcome, a zero matrix, tiny and offset spectra
        hs += [np.eye(basis.dim), np.zeros((basis.dim, basis.dim)), 1e-200 * hs[0], hs[1] + 1e8 * np.eye(basis.dim)]
        states = [random_pure_state(basis.dim, rng) for _ in hs]
        for stacked, h, state in zip(born_distribution(np.stack(hs), states), hs, states, strict=True):
            alone = born_distribution(h, state)
            assert stacked.outcomes.tobytes() == alone.outcomes.tobytes()
            assert stacked.probabilities.tobytes() == alone.probabilities.tobytes()

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_a_stack_needs_one_state_per_observable(self, count):
        with pytest.raises(ValueError, match="a stack of 2 observables needs as many states"):
            born_distribution(np.stack([SIGMA_X, SIGMA_Z]), [QuantumState.maximally_mixed(3)] * count)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            born_distribution(SIGMA_Z, QuantumState.from_pure([1, 0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            born_distribution(np.array([[0.0, 1.0], [0.0, 0.0]]), QuantumState.maximally_mixed(2))

    def test_checks_the_matrix_once(self, monkeypatch):
        calls = []
        real = hvlab.oracle.require_hermitian

        def counted(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(hvlab.oracle, "require_hermitian", counted)
        born_distribution(SIGMA_X, QuantumState.maximally_mixed(3))
        assert len(calls) == 1

    def test_validation_of_probabilities(self):
        with pytest.raises(ValueError):
            BornDistribution(np.array([1.0, -1.0]), np.array([0.7, 0.7]))


class TestMoments:
    def test_direction_mean_is_bloch_overlap(self, bases):
        rng = np.random.default_rng(31)
        pauli = bases[PAULI]
        for _ in range(50):
            beta = rng.normal(size=3)
            state = random_pure_state(2, rng)
            h = linear_observable(beta, pauli)
            assert expectation(h, state) == pytest.approx(
                float(np.dot(beta, bloch_vector(state, pauli))), abs=1e-10
            )

    def test_eigenstate_variance_vanishes(self):
        assert variance(SIGMA_Z, QuantumState.from_pure([1, 0, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_up_state_mean_is_z_component(self, bases):
        beta = np.array([0.3, -1.2, 0.7])
        h = linear_observable(beta, bases[PAULI])
        assert expectation(h, QuantumState.from_pure([1, 0])) == pytest.approx(0.7, abs=1e-12)

    def test_trace_route_equals_born_route(self, bases):
        rng = np.random.default_rng(77)
        gm = bases[GELL_MANN]
        for _ in range(50):
            h = linear_observable(rng.normal(size=8), gm)
            state = random_pure_state(3, rng)
            dist = born_distribution(h, state)
            assert expectation(h, state) == pytest.approx(dist.mean, abs=1e-10)
            born_var = dist.second_moment - dist.mean**2
            assert variance(h, state) == pytest.approx(born_var, abs=1e-10)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_variance_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        h = linear_observable(rng.normal(size=8), build_basis(GELL_MANN))
        state = random_pure_state(3, rng)
        assert variance(h, state) >= -1e-12

    def test_variance_survives_a_large_offset(self, bases):
        # Tr rho H^2 - (Tr rho H)^2 loses the spread to cancellation here
        rng = np.random.default_rng(12)
        h = linear_observable(rng.normal(size=8), bases[GELL_MANN])
        state = random_pure_state(3, rng)
        shifted = h + 1e8 * np.eye(3)
        assert variance(shifted, state) == pytest.approx(variance(h, state), abs=1e-6)


class TestBlochVector:
    def test_up_state_pauli(self, bases):
        vec = bloch_vector(QuantumState.from_pure([1, 0]), bases[PAULI])
        np.testing.assert_allclose(vec, [0.0, 0.0, 1.0], atol=1e-12)

    def test_maximally_mixed_vanishes(self, bases):
        vec = bloch_vector(QuantumState.maximally_mixed(3), bases[GELL_MANN])
        np.testing.assert_allclose(vec, np.zeros(8), atol=1e-12)

    def test_spin_one_up_state_z_component(self, bases):
        vec = bloch_vector(QuantumState.from_pure([1, 0, 0]), bases[ANGULAR_MOMENTUM])
        assert vec[2] == pytest.approx(1.0, abs=1e-12)

    def test_qubit_vector_length_bounded(self, bases):
        rng = np.random.default_rng(8)
        for _ in range(50):
            vec = bloch_vector(random_pure_state(2, rng), bases[PAULI])
            assert np.linalg.norm(vec) <= 1.0 + 1e-10

    def test_recomputed_from_traces(self, bases):
        rng = np.random.default_rng(9)
        state = random_pure_state(3, rng)
        vec = bloch_vector(state, bases[GELL_MANN])
        for comp, op in zip(vec, bases[GELL_MANN].operators):
            assert comp == pytest.approx(float(np.trace(state.rho @ op).real), abs=1e-12)


class TestKsIdentity:
    def test_angular_momentum_holds(self, bases):
        report = verify_ks_identity(bases[ANGULAR_MOMENTUM])
        assert report.holds
        assert report.residual < 1e-12

    def test_gell_mann_fails(self, bases):
        report = verify_ks_identity(bases[GELL_MANN])
        assert not report.holds
        assert report.residual == pytest.approx(np.sqrt(6.0), abs=1e-12)

    def test_squared_matrices_entrywise(self, bases):
        ops = bases[ANGULAR_MOMENTUM].operators
        np.testing.assert_allclose(ops[0] @ ops[0], SIGMA_X_SQ, atol=1e-14)
        np.testing.assert_allclose(ops[1] @ ops[1], SIGMA_Y_SQ, atol=1e-14)
        np.testing.assert_allclose(ops[2] @ ops[2], SIGMA_Z_SQ, atol=1e-14)


class TestSimultaneousEigenbasis:
    def test_rows_and_slots(self):
        rows = simultaneous_eigenbasis()
        assert [row.squares for row in rows] == [(1, 0, 1), (0, 1, 1), (1, 1, 0)]
        assert [row.probability_slot for row in rows] == ["p2", "p1", "p3"]
        np.testing.assert_allclose(rows[2].vector, [0, 1, 0], atol=1e-15)

    def test_each_row_sums_to_two(self):
        for row in simultaneous_eigenbasis():
            assert sum(row.squares) == 2

    def test_vectors_are_simultaneous_eigenvectors(self):
        squares = (SIGMA_X_SQ, SIGMA_Y_SQ, SIGMA_Z_SQ)
        for row in simultaneous_eigenbasis():
            for mat, val in zip(squares, row.squares):
                np.testing.assert_allclose(mat @ row.vector, val * row.vector, atol=1e-10)

    def test_vectors_orthonormal(self):
        mat = np.column_stack([row.vector for row in simultaneous_eigenbasis()])
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(3), atol=1e-12)
