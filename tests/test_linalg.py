"""Core kernel: inner products, tridiagonal spectra, propagators, dense oracle."""

import numpy as np
import pytest
from scipy.linalg import expm

from krylov_echo.linalg import (
    DenseOperator,
    SymmetricTridiagonal,
    basis_state,
    eig_sym_tridiagonal,
    exact_evolve_dense,
    expi_tridiagonal_apply,
    inner,
    normalized,
)


def random_tridiagonal(n, rng):
    return SymmetricTridiagonal(rng.standard_normal(n), np.abs(rng.standard_normal(n - 1)) + 0.1)


class TestInner:
    def test_unit_norm(self):
        u = np.array([1.0, 0.0], dtype=complex)
        assert inner(u, u) == 1.0

    def test_orthogonality(self):
        assert inner(np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)) == 0.0

    def test_hadamard_pair(self):
        u = np.array([1, 1], dtype=complex) / np.sqrt(2)
        v = np.array([1, -1], dtype=complex) / np.sqrt(2)
        assert abs(inner(u, v)) < 1e-16

    def test_conjugates_first_argument(self):
        u = np.array([1j, 0.0])
        v = np.array([1.0, 0.0])
        assert inner(u, v) == pytest.approx(-1j)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(np.zeros(2), np.zeros(3))


class TestEigSymTridiagonal:
    def test_two_by_two(self):
        eig = eig_sym_tridiagonal(SymmetricTridiagonal([0.0, 0.0], [1.0]))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_homogeneous_closed_form(self):
        # Constant diagonal alpha and hopping beta: E_k = alpha + 2 beta cos(k pi / (n+1)).
        alpha, beta, n = 0.7, 1.3, 5
        eig = eig_sym_tridiagonal(SymmetricTridiagonal(np.full(n, alpha), np.full(n - 1, beta)))
        expected = np.sort(alpha + 2 * beta * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_against_dense_eigensolver(self, rng):
        tri = random_tridiagonal(50, rng)
        eig = eig_sym_tridiagonal(tri)
        dense_evals = np.linalg.eigvalsh(tri.to_dense())
        assert np.allclose(eig.eigenvalues, dense_evals, atol=1e-10)

    def test_eigenvector_invariants(self, rng):
        tri = random_tridiagonal(60, rng)
        eig = eig_sym_tridiagonal(tri)
        q = eig.eigenvectors
        assert np.abs(q.T @ q - np.eye(60)).max() <= 1e-12
        residual = tri.to_dense() @ q - q * eig.eigenvalues
        assert np.abs(residual).max() <= 1e-10 * np.abs(eig.eigenvalues).max()

    def test_spectral_reconstruction(self, rng):
        tri = random_tridiagonal(200, rng)
        eig = eig_sym_tridiagonal(tri)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        assert np.abs(rebuilt - tri.to_dense()).max() <= 1e-10

    def test_size_one(self):
        eig = eig_sym_tridiagonal(SymmetricTridiagonal([3.5], []))
        assert eig.eigenvalues[0] == 3.5
        assert eig.eigenvectors[0, 0] == 1.0

    def test_deterministic(self, rng):
        tri = random_tridiagonal(20, rng)
        a = eig_sym_tridiagonal(tri)
        b = eig_sym_tridiagonal(SymmetricTridiagonal(tri.diag.copy(), tri.offdiag.copy()))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestExpiTridiagonal:
    def test_identity_at_zero(self, rng):
        tri = random_tridiagonal(7, rng)
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        assert np.array_equal(expi_tridiagonal_apply(tri, 0.0, v), v)

    def test_single_bond_rabi(self):
        tri = SymmetricTridiagonal([0.0, 0.0], [1.0])
        for t in (0.3, 1.7, 4.0):
            out = expi_tridiagonal_apply(tri, t, basis_state(2))
            assert np.allclose(out, [np.cos(t), -1j * np.sin(t)], atol=1e-14)

    def test_against_dense_expm(self, rng):
        # Scaling-and-squaring oracle on the dense embedding.
        tri = random_tridiagonal(8, rng)
        v = normalized(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        t = 3.7
        expected = expm(-1j * t * tri.to_dense()) @ v
        assert np.abs(expi_tridiagonal_apply(tri, t, v) - expected).max() <= 1e-10

    def test_norm_preserved(self, rng):
        tri = random_tridiagonal(25, rng)
        v = normalized(rng.standard_normal(25) + 1j * rng.standard_normal(25))
        for t in (0.5, 12.0, 250.0):
            assert abs(np.linalg.norm(expi_tridiagonal_apply(tri, t, v)) - 1.0) <= 1e-12

    def test_time_composition(self, rng):
        tri = random_tridiagonal(12, rng)
        v = normalized(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        t1, t2 = 1.3, 2.9
        once = expi_tridiagonal_apply(tri, t1 + t2, v)
        twice = expi_tridiagonal_apply(tri, t2, expi_tridiagonal_apply(tri, t1, v))
        assert np.abs(once - twice).max() <= 1e-10

    def test_dimension_mismatch(self, rng):
        tri = random_tridiagonal(5, rng)
        with pytest.raises(ValueError, match="does not match"):
            expi_tridiagonal_apply(tri, 1.0, np.zeros(4, dtype=complex))


class TestExactEvolveDense:
    def test_identity_at_zero(self, rng):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        psi = normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert np.allclose(exact_evolve_dense(op, psi, 0.0), psi, atol=1e-15)

    def test_two_level_analytic(self):
        op = DenseOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for t in (0.4, 2.0):
            out = exact_evolve_dense(op, basis_state(2), t)
            assert np.allclose(out, [np.cos(t), -1j * np.sin(t)], atol=1e-13)

    def test_unitary(self, rng):
        g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        op = DenseOperator((g + g.conj().T) / 2)
        psi = normalized(rng.standard_normal(40) + 1j * rng.standard_normal(40))
        out = exact_evolve_dense(op, psi, 17.0)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-11

    def test_cap_refusal(self):
        op = DenseOperator(np.eye(8))
        with pytest.raises(ValueError, match="oracle"):
            exact_evolve_dense(op, basis_state(8), 1.0, cap=4)


class TestOperators:
    def test_dense_operator_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dense_operator_shape_checks(self):
        with pytest.raises(ValueError, match="square"):
            DenseOperator(np.zeros((2, 3)))
        op = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="does not match"):
            op.apply(np.zeros(2, dtype=complex))

    def test_dense_operator_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or inf"):
            DenseOperator(np.array([[0.0, np.nan], [np.nan, 1.0]]))

    def test_dense_operator_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty square"):
            DenseOperator(np.zeros((0, 0)))

    def test_to_dense_matches_apply(self, rng):
        g = rng.standard_normal((6, 6))
        op = DenseOperator((g + g.T) / 2)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.allclose(op.to_dense() @ v, op.apply(v), atol=1e-14)


class TestSymmetricTridiagonal:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="offdiag"):
            SymmetricTridiagonal([1.0, 2.0], [1.0, 1.0])

    def test_prefix_and_append(self):
        tri = SymmetricTridiagonal([1.0, 2.0, 3.0], [0.5, 0.6])
        pre = tri.prefix(2)
        assert np.array_equal(pre.diag, [1.0, 2.0])
        assert np.array_equal(pre.offdiag, [0.5])
        ext = pre.append_site(3.0, 0.6)
        assert np.array_equal(ext.diag, tri.diag)
        assert np.array_equal(ext.offdiag, tri.offdiag)
        with pytest.raises(ValueError, match="prefix"):
            tri.prefix(4)

    def test_to_dense_layout(self):
        tri = SymmetricTridiagonal([1.0, 2.0], [0.25])
        assert np.array_equal(tri.to_dense(), [[1.0, 0.25], [0.25, 2.0]])


class TestStateHelpers:
    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            normalized(np.zeros(3))

    def test_basis_state_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(3, 3)
        assert np.array_equal(basis_state(3, 1), [0, 1, 0])
