"""Lanczos recurrence: orthonormality, reduction, breakdown, extension."""

import numpy as np
import pytest

from krylov_echo.lanczos import extend_one, lanczos_iterate
from krylov_echo.linalg import DenseOperator, basis_state, exact_evolve_dense
from krylov_echo.models import IsingParams, goe_sample, ising_operator, random_state
from krylov_echo.propagator import krylov_evolve, true_infidelity


def reduction_matrix(basis, hamiltonian):
    """<v_i| H |v_j> for all stored vectors."""
    applied = np.array([hamiltonian.apply(v) for v in basis.vectors])
    return basis.vectors.conj() @ applied.T


class TestTrivialSystems:
    def test_two_level(self):
        op = DenseOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        basis = lanczos_iterate(op, basis_state(2), 2)
        assert basis.size == 2
        assert np.allclose(basis.tridiag.diag, [0.0, 0.0], atol=1e-14)
        assert np.allclose(basis.tridiag.offdiag, [1.0], atol=1e-14)
        assert basis.residual_beta == 0.0
        assert basis.breakdown

    def test_eigenvector_breaks_down_at_size_one(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        basis = lanczos_iterate(op, basis_state(3), 3)
        assert basis.size == 1
        assert np.allclose(basis.tridiag.diag, [1.0])
        assert basis.breakdown
        assert basis.residual_beta == 0.0

    def test_v0_is_normalized_input(self, rng):
        op = DenseOperator(np.diag([1.0, -1.0, 0.5, 2.0]))
        psi = 3.0 * random_state(4, 7)
        basis = lanczos_iterate(op, psi, 3)
        assert np.allclose(basis.vectors[0], psi / np.linalg.norm(psi), atol=1e-15)
        assert basis.source_norm == pytest.approx(3.0, rel=1e-12)


class TestContractErrors:
    def test_zero_state(self):
        op = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="zero state"):
            lanczos_iterate(op, np.zeros(3, dtype=complex), 2)

    def test_bad_sizes(self):
        op = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match=">= 1"):
            lanczos_iterate(op, basis_state(3), 0)
        with pytest.raises(ValueError, match="exceeds"):
            lanczos_iterate(op, basis_state(3), 4)

    def test_dimension_mismatch(self):
        op = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="does not match"):
            lanczos_iterate(op, basis_state(4), 2)

    def test_non_finite_state(self):
        op = DenseOperator(np.eye(3))
        for bad in (np.nan, np.inf):
            psi = basis_state(3)
            psi[1] = bad
            with pytest.raises(ValueError, match="NaN or inf"):
                lanczos_iterate(op, psi, 2)


class TestBasisInvariants:
    def test_ising_orthonormality_and_reduction(self):
        ham = ising_operator(IsingParams(10))
        basis = lanczos_iterate(ham, random_state(ham.dim, 11), 30)
        gram = basis.vectors.conj() @ basis.vectors.T
        assert np.abs(gram - np.eye(30)).max() <= 1e-10
        reduced = reduction_matrix(basis, ham)
        tol = 1e-10 * max(np.abs(basis.tridiag.diag).max(), basis.tridiag.offdiag.max())
        assert np.abs(reduced - basis.tridiag.to_dense()).max() <= tol
        # Entries beyond the first off-diagonal must vanish at the same level.
        far = np.triu(np.abs(reduced), k=2)
        assert far.max() <= tol

    def test_betas_strictly_positive(self):
        ham = ising_operator(IsingParams(8))
        basis = lanczos_iterate(ham, random_state(ham.dim, 5), 40)
        assert (basis.tridiag.offdiag > 0).all()

    def test_three_term_identity(self):
        ham = goe_sample(96, 2)
        basis = lanczos_iterate(ham, random_state(96, 12), 20)
        d, e = basis.tridiag.diag, basis.tridiag.offdiag
        for j in range(1, basis.size - 1):
            lhs = ham.apply(basis.vectors[j])
            rhs = (
                e[j] * basis.vectors[j + 1]
                + d[j] * basis.vectors[j]
                + e[j - 1] * basis.vectors[j - 1]
            )
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)

    def test_prefix_stability(self):
        ham = goe_sample(128, 4)
        psi = random_state(128, 21)
        big = lanczos_iterate(ham, psi, 40)
        for n in (10, 20):
            small = lanczos_iterate(ham, psi, n)
            assert np.abs(small.tridiag.diag - big.tridiag.diag[:n]).max() <= 1e-10
            assert np.abs(small.tridiag.offdiag - big.tridiag.offdiag[: n - 1]).max() <= 1e-10

    def test_full_dimension_matches_oracle(self):
        ham = ising_operator(IsingParams(4))
        psi = random_state(ham.dim, 3)
        basis = lanczos_iterate(ham, psi, ham.dim)
        assert basis.size == ham.dim
        for t in (1.0, 5.0):
            exact = exact_evolve_dense(ham, psi, t)
            assert true_infidelity(krylov_evolve(basis, t), exact) <= 1e-10


class TestExtendOne:
    def test_matches_longer_run(self):
        ham = goe_sample(64, 1)
        psi = random_state(64, 2)
        extended = extend_one(lanczos_iterate(ham, psi, 10), ham)
        direct = lanczos_iterate(ham, psi, 11)
        assert np.abs(extended.tridiag.diag - direct.tridiag.diag).max() <= 1e-12
        assert np.abs(extended.tridiag.offdiag - direct.tridiag.offdiag).max() <= 1e-12
        assert extended.residual_beta == pytest.approx(direct.residual_beta, abs=1e-12)

    def test_prefix_block_unchanged(self):
        ham = goe_sample(64, 6)
        basis = lanczos_iterate(ham, random_state(64, 7), 10)
        extended = extend_one(basis, ham)
        assert np.array_equal(extended.tridiag.diag[:10], basis.tridiag.diag)
        assert np.array_equal(extended.tridiag.offdiag[:9], basis.tridiag.offdiag)
        assert extended.tridiag.offdiag[9] == basis.residual_beta

    def test_breakdown_rejected(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        basis = lanczos_iterate(op, basis_state(3), 2)
        assert basis.breakdown
        with pytest.raises(ValueError, match="invariant subspace"):
            extend_one(basis, op)

    def test_full_space_rejected(self):
        op = DenseOperator(np.array([[0.0, 1.0], [1.0, 2.0]]))
        basis = lanczos_iterate(op, random_state(2, 1), 2)
        with pytest.raises(ValueError):
            extend_one(basis, op)
