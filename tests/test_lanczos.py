"""Lanczos recurrence: orthonormality, reduction, breakdown, extension."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from krylov_echo.lanczos import KrylovBasis, _reorthogonalize, extend_one, lanczos_iterate
from krylov_echo.linalg import (
    DenseOperator,
    LinearOperator,
    SymmetricTridiagonal,
    basis_state,
    exact_evolve_dense,
)
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


class Identity(LinearOperator):
    """Returns its input itself, as an operator may."""

    def apply(self, vec):
        return vec


class TestAliasedApply:
    def test_basis_survives_an_apply_that_returns_its_input(self):
        psi = random_state(8, 3)
        basis = lanczos_iterate(Identity(8), psi, 2)
        assert basis.breakdown and basis.size == 1
        assert np.allclose(basis.vectors[0], psi, atol=1e-15)
        assert basis.tridiag.diag[0] == pytest.approx(1.0, abs=1e-15)


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

    @pytest.mark.parametrize(
        "make",
        [lambda: ising_operator(IsingParams(10)), lambda: goe_sample(1024, 3)],
        ids=["ising-n10", "goe-d1024"],
    )
    def test_large_basis_orthonormality_and_reduction(self, make):
        # One Gram-Schmidt pass per step is most at risk of losing orthogonality here.
        ham = make()
        basis = lanczos_iterate(ham, random_state(ham.dim, 11), 300)
        assert basis.size == 300
        gram = basis.vectors.conj() @ basis.vectors.T
        assert np.abs(gram - np.eye(300)).max() <= 1e-10
        reduced = reduction_matrix(basis, ham)
        tol = 1e-10 * max(np.abs(basis.tridiag.diag).max(), basis.tridiag.offdiag.max())
        assert np.abs(reduced - basis.tridiag.to_dense()).max() <= tol

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


class TestRecord:
    """The buffer carries the next Lanczos vector; everything else is derived."""

    def test_next_vector_continues_the_recurrence(self):
        ham = goe_sample(96, 2)
        basis = lanczos_iterate(ham, random_state(96, 12), 20)
        assert not basis.breakdown
        n, d, e = basis.size, basis.tridiag.diag, basis.tridiag.offdiag
        residual = basis.buffer[n] * basis.residual_beta
        v = basis.vectors
        expected = ham.apply(v[n - 1]) - d[n - 1] * v[n - 1] - e[n - 2] * v[n - 2]
        assert np.linalg.norm(residual - expected) <= 1e-10 * np.linalg.norm(expected)
        assert np.abs(v.conj() @ basis.buffer[n]).max() <= 1e-10

    def test_breakdown_is_a_vanished_coupling(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        for psi, broken in ((basis_state(3), True), (random_state(3, 1), False)):
            basis = lanczos_iterate(op, psi, 2)
            assert basis.breakdown is broken
            assert basis.breakdown == (basis.residual_beta == 0.0)

    def test_stored_fields(self):
        names = [f.name for f in dataclasses.fields(KrylovBasis)]
        assert names == ["vectors", "tridiag", "residual_beta", "source_norm", "buffer"]


class TestReorthogonalize:
    def test_second_pass_on_near_dependent_residual(self):
        # w is V[0] up to 1e-10: one pass leaves an overlap of about 1e-6 of
        # what remains, so only the DGKS second pass reaches 1e-14.
        rng = np.random.default_rng(4)
        dim, k = 400, 12
        raw = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        vecs = np.linalg.qr(raw)[0].T
        r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w, norm = _reorthogonalize(vecs[0] + 1e-10 * r / np.linalg.norm(r), vecs)
        assert np.abs(vecs.conj() @ w).max() <= 1e-14 * norm
        assert norm == np.linalg.norm(w)

    def test_pass_allocates_no_vector(self):
        # A copy of w, or of its conjugate, would be a whole D-vector.
        rng = np.random.default_rng(5)
        dim, k = 4096, 30
        raw = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        vecs = np.ascontiguousarray(np.linalg.qr(raw)[0].T)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        _reorthogonalize(w.copy(), vecs)  # load the BLAS wrappers outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, _ = _reorthogonalize(w, vecs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * dim * 16
        assert np.shares_memory(out, w)
        assert np.abs(vecs.conj() @ out).max() <= 1e-13 * np.linalg.norm(out)


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

    def test_basis_without_next_vector_rejected(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        vectors = np.eye(3, dtype=np.complex128)[:2]
        basis = KrylovBasis(vectors, SymmetricTridiagonal([1.0, 2.0], [0.5]), 0.5, 1.0)
        assert basis.buffer is None and not basis.breakdown
        with pytest.raises(ValueError, match="no next vector"):
            extend_one(basis, op)


class TestCopyFree:
    """The recurrence and the extension allocate about one basis, no more."""

    def test_allocation_bounded_by_one_basis(self):
        ham = ising_operator(IsingParams(12))
        psi = random_state(ham.dim, 1)
        n = 30
        basis_bytes = n * ham.dim * 16
        ham.apply(psi)  # pay any lazy operator set-up outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            basis = lanczos_iterate(ham, psi, n)
            iterate_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            extend_one(basis, ham)
            extend_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # Copying the basis (a conjugate per projection, a vstack per
        # extension) measured 2.13x and 2.17x here.
        assert iterate_peak <= 1.5 * basis_bytes
        assert extend_peak <= 0.5 * basis_bytes

    def test_extension_shares_memory(self):
        ham = goe_sample(64, 1)
        basis = lanczos_iterate(ham, random_state(64, 2), 10)
        extended = extend_one(basis, ham)
        assert np.shares_memory(extended.vectors, basis.vectors)
        assert np.array_equal(extended.vectors[:10], basis.vectors)

    def test_extending_twice_is_repeatable(self):
        ham = goe_sample(64, 3)
        basis = lanczos_iterate(ham, random_state(64, 4), 10)
        first = extend_one(basis, ham)
        kept = first.vectors.copy()
        second = extend_one(basis, ham)
        assert np.array_equal(first.vectors, kept)
        assert np.array_equal(second.vectors, first.vectors)
        assert np.array_equal(second.tridiag.diag, first.tridiag.diag)
        assert np.array_equal(second.tridiag.offdiag, first.tridiag.offdiag)
        assert second.residual_beta == first.residual_beta

    def test_extension_of_extension_matches_longer_run(self):
        ham = goe_sample(64, 5)
        psi = random_state(64, 6)
        twice = extend_one(extend_one(lanczos_iterate(ham, psi, 10), ham), ham)
        direct = lanczos_iterate(ham, psi, 12)
        assert twice.size == 12
        assert np.abs(twice.tridiag.diag - direct.tridiag.diag).max() <= 1e-12
        assert np.abs(twice.tridiag.offdiag - direct.tridiag.offdiag).max() <= 1e-12
        assert twice.residual_beta == pytest.approx(direct.residual_beta, abs=1e-12)
        assert np.abs(twice.vectors - direct.vectors).max() <= 1e-12
