"""Lanczos recurrence: orthonormality, reduction, breakdown, extension."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from krylov_echo import lanczos
from krylov_echo.lanczos import (
    OMEGA_GATE,
    ORTHO_RTOL,
    KrylovBasis,
    _reorthogonalize,
    extend_one,
    lanczos_iterate,
)
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
    """Returns its input itself when no ``out`` is given, as an operator may."""

    def apply(self, vec, out=None):
        if out is None:
            return vec
        np.copyto(out, vec)
        return out


class IgnoresOut(LinearOperator):
    """Accepts ``out`` but returns its input instead: it breaks the apply contract."""

    def apply(self, vec, out=None):
        return vec


class TestApplyIntoTheNextRow:
    def test_basis_survives_an_apply_that_returns_its_input(self):
        # The step applies v_0 into row 1, so the stored v_0 is never the output.
        psi = random_state(8, 3)
        basis = lanczos_iterate(Identity(8), psi, 2, buffer=np.full((4, 8), np.nan, dtype=complex))
        assert basis.breakdown and basis.size == 1
        assert np.allclose(basis.vectors[0], psi, atol=1e-15)
        assert basis.tridiag.diag[0] == pytest.approx(1.0, abs=1e-15)
        # On breakdown the next row holds the unnormalized residual, here 0 to roundoff.
        assert np.abs(basis.buffer[1]).max() <= 1e-15

    def test_apply_that_ignores_out_is_refused(self):
        with pytest.raises(ValueError, match="write into out"):
            lanczos_iterate(IgnoresOut(8), random_state(8, 3), 2)

    def test_recurrence_writes_only_the_next_row(self):
        ham = ising_operator(IsingParams(8))
        basis = lanczos_iterate(ham, random_state(ham.dim, 4), 5)
        buffer = np.full((9, ham.dim), np.nan, dtype=complex)
        buffer[:6] = basis.buffer[:6]
        lanczos._recurrence_step(ham, buffer, 5, basis.residual_beta, 10.0)
        assert np.array_equal(buffer[:6], basis.buffer[:6]) and np.isnan(buffer[7:]).all()
        assert abs(vdot_norm(buffer[6]) - 1.0) <= 1e-14

    @pytest.mark.parametrize("n_spins", [10, 12])
    def test_step_allocates_at_most_the_apply_work_vector(self, n_spins):
        # The recurrence, both Gram-Schmidt passes and the normalization run
        # in the buffer row; only the Ising apply's middle groups take one
        # work vector.
        ham = ising_operator(IsingParams(n_spins))
        basis = lanczos_iterate(ham, random_state(ham.dim, 5), 20)
        args = (ham, basis.buffer, 20, basis.residual_beta, 10.0)
        lanczos._recurrence_step(*args)  # load the BLAS wrappers outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lanczos._recurrence_step(*args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * ham.dim * 16


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
        w = vecs[0] + 1e-10 * r / np.linalg.norm(r)
        norm = _reorthogonalize(w, vecs)
        assert np.abs(vecs.conj() @ w).max() <= 1e-14 * norm
        assert norm == vdot_norm(w)

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
            _reorthogonalize(w, vecs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * dim * 16
        assert np.abs(vecs.conj() @ w).max() <= 1e-13 * np.linalg.norm(w)


def vdot_norm(w):
    """``||w||`` as the step takes it: ``sqrt(<w, w>)``."""
    return np.sqrt(np.vdot(w, w).real)


def recurrence_call(x) -> bool:
    """Whether a plain zgemv of the step subtracts its recurrence terms.

    Those coefficients are a fresh ``[beta, alpha]``; a Gram-Schmidt update
    passes a slice of the measured projections.
    """
    return x.base is None


def orthonormal_rows(rng, dim, k):
    raw = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    return np.ascontiguousarray(np.linalg.qr(raw)[0].T)


def orthogonal_residual(rng, vecs):
    """A residual whose projections onto ``vecs`` sit at roundoff, far below ORTHO_RTOL."""
    w = rng.standard_normal(vecs.shape[1]) + 1j * rng.standard_normal(vecs.shape[1])
    for _ in range(2):
        w -= vecs.T @ (vecs.conj() @ w)
    return w


class TestProjectionSkip:
    """A pass that measures every projection within ORTHO_RTOL leaves w untouched."""

    def test_small_projections_leave_w_bit_for_bit(self):
        rng = np.random.default_rng(6)
        vecs = orthonormal_rows(rng, 512, 20)
        w = orthogonal_residual(rng, vecs)
        assert np.abs(vecs.conj() @ w).max() <= ORTHO_RTOL * np.linalg.norm(w)
        before = w.copy()
        norm = _reorthogonalize(w, vecs)
        assert np.array_equal(w.view(np.float64), before.view(np.float64))
        assert norm == vdot_norm(before)

    def test_projection_above_threshold_is_removed(self):
        rng = np.random.default_rng(7)
        vecs = orthonormal_rows(rng, 512, 20)
        w = orthogonal_residual(rng, vecs)
        w += 10 * ORTHO_RTOL * np.linalg.norm(w) * vecs[3]
        norm = _reorthogonalize(w, vecs)
        assert np.abs(vecs.conj() @ w).max() <= 1e-14 * norm
        assert norm == vdot_norm(w)

    @pytest.mark.parametrize(
        "make",
        [lambda: ising_operator(IsingParams(10)), lambda: goe_sample(1024, 3)],
        ids=["ising-n10", "goe-d1024"],
    )
    def test_both_branches_keep_the_basis_tight(self, make, monkeypatch):
        # Far tighter than the 1e-10 of criterion 8: each stored vector's
        # overlap with the earlier ones is at most ORTHO_RTOL as measured.
        measured, updated = [], []
        zgemv = lanczos.zgemv

        recurrences = []

        def counting_zgemv(alpha, a, x, **kwargs):
            if kwargs.get("trans") == 2:
                measured.append(1)
            else:
                (recurrences if recurrence_call(x) else updated).append(1)
            return zgemv(alpha, a, x, **kwargs)

        monkeypatch.setattr(lanczos, "zgemv", counting_zgemv)
        ham = make()
        basis = lanczos_iterate(ham, random_state(ham.dim, 11), 80)
        assert basis.size == 80
        assert len(recurrences) == 79  # every step after the first
        assert 0 < len(updated) < len(measured)
        gram = basis.vectors.conj() @ basis.vectors.T
        assert np.abs(gram - np.eye(80)).max() <= 1e-13
        reduced = reduction_matrix(basis, ham)
        tol = 1e-12 * max(np.abs(basis.tridiag.diag).max(), basis.tridiag.offdiag.max())
        assert np.abs(reduced - basis.tridiag.to_dense()).max() <= tol


class Diagonal(LinearOperator):
    def __init__(self, values):
        super().__init__(values.size)
        self.values = values

    def apply(self, vec, out=None):
        return np.multiply(self.values, vec, out=out)


def build_checking_skips(monkeypatch, ham, psi, n):
    """The basis, and the true ``max_k |<v_k, v_{j+1}>|`` of every step that skipped the measurement."""
    passes, skipped = [], []
    step, reorthogonalize = lanczos._recurrence_step, lanczos._reorthogonalize

    def counting_reorthogonalize(*args, **kwargs):
        passes.append(1)
        return reorthogonalize(*args, **kwargs)

    def checked_step(hamiltonian, vecs, j, *args):
        before = len(passes)
        alpha, beta, scale = step(hamiltonian, vecs, j, *args)
        if len(passes) == before and beta > 0.0:
            skipped.append(np.abs(vecs[: j + 1].conj() @ vecs[j + 1]).max())
        return alpha, beta, scale

    monkeypatch.setattr(lanczos, "_reorthogonalize", counting_reorthogonalize)
    monkeypatch.setattr(lanczos, "_recurrence_step", checked_step)
    return lanczos_iterate(ham, psi, n), skipped


class TestOverlapGate:
    """Between measurements the overlaps are modelled; a step measures when the model crosses OMEGA_GATE."""

    @pytest.mark.parametrize(
        "make, seed, n",
        [
            (lambda: ising_operator(IsingParams(10)), 11, 80),
            (lambda: goe_sample(1024, 3), 11, 80),
            # A model that keeps the signs of its terms, reset to +ORTHO_RTOL,
            # let a skipped step's overlap reach 1.37e-13 here.
            (lambda: ising_operator(IsingParams(8)), 6, 80),
            # Ritz values converge on the outliers first, the classic loss of orthogonality.
            (lambda: Diagonal(np.concatenate([np.linspace(0, 1, 1995), [3, 5, 8, 13, 21]])), 11, 300),
        ],
        ids=["ising-n10", "goe-d1024", "ising-n8", "outliers-d2000"],
    )
    def test_skipped_steps_stay_within_the_gate(self, make, seed, n, monkeypatch):
        ham = make()
        basis, skipped = build_checking_skips(monkeypatch, ham, random_state(ham.dim, seed), n)
        assert basis.size == n
        assert skipped
        assert max(skipped) <= OMEGA_GATE
        gram = basis.vectors.conj() @ basis.vectors.T
        assert np.abs(gram - np.eye(n)).max() <= 1e-13

    def test_measures_fewer_steps_and_updates_only_the_span(self, monkeypatch):
        measures, updates = [], []
        zgemv = lanczos.zgemv

        recurrences = []

        def recording_zgemv(alpha, a, x, **kwargs):
            if kwargs.get("trans") == 2:
                coeffs = zgemv(alpha, a, x, **kwargs)
                flagged = np.flatnonzero(np.abs(coeffs) > ORTHO_RTOL * vdot_norm(x))
                measures.append((a, coeffs, flagged))
                return coeffs
            if recurrence_call(x):
                assert a.shape[1] == x.size == 2
                recurrences.append(1)
                return zgemv(alpha, a, x, **kwargs)
            basis, coeffs, flagged = measures[-1]
            lo, hi = flagged[0], flagged[-1] + 1
            assert a.shape == (basis.shape[0], hi - lo)
            assert np.shares_memory(a, basis[:, lo:hi]) and np.array_equal(a, basis[:, lo:hi])
            assert np.array_equal(x, coeffs[lo:hi])
            updates.append(hi - lo)
            return zgemv(alpha, a, x, **kwargs)

        monkeypatch.setattr(lanczos, "zgemv", recording_zgemv)
        ham = ising_operator(IsingParams(12))
        n = 30
        lanczos_iterate(ham, random_state(ham.dim, 1), n)
        assert len(recurrences) == n - 1
        assert len(measures) < 0.6 * n
        assert updates

    def test_update_subtracts_only_the_flagged_span(self, monkeypatch):
        rng = np.random.default_rng(8)
        vecs = orthonormal_rows(rng, 512, 20)
        w = orthogonal_residual(rng, vecs)
        w += 10 * ORTHO_RTOL * np.linalg.norm(w) * (vecs[3] + vecs[7])
        updates = []
        zgemv = lanczos.zgemv

        def recording_zgemv(alpha, a, x, **kwargs):
            if kwargs.get("trans") != 2:
                updates.append(a)
            return zgemv(alpha, a, x, **kwargs)

        monkeypatch.setattr(lanczos, "zgemv", recording_zgemv)
        norm = _reorthogonalize(w, vecs)
        assert len(updates) == 1
        assert updates[0].shape == (512, 5)
        assert np.shares_memory(updates[0], vecs[3:8]) and np.array_equal(updates[0], vecs[3:8].T)
        assert np.abs(vecs.conj() @ w).max() <= ORTHO_RTOL * norm


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

    def test_operator_of_another_dimension_rejected(self):
        basis = lanczos_iterate(goe_sample(16, 1), random_state(16, 2), 4)
        with pytest.raises(ValueError, match="operator dimension 8 does not match basis source_dim 16"):
            extend_one(basis, goe_sample(8, 1))

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


class TestCallerBuffer:
    """A basis built in a caller's buffer is the fresh build, bit for bit, in that memory."""

    @staticmethod
    def same(a, b):
        return (
            a.vectors.tobytes() == b.vectors.tobytes()
            and a.tridiag.diag.tobytes() == b.tridiag.diag.tobytes()
            and a.tridiag.offdiag.tobytes() == b.tridiag.offdiag.tobytes()
            and a.residual_beta == b.residual_beta
            and a.source_norm == b.source_norm
        )

    def test_build_in_buffer_matches_fresh_build(self):
        ham = ising_operator(IsingParams(8))
        psi = random_state(ham.dim, 2)
        fresh = lanczos_iterate(ham, psi, 20)
        buffer = np.full((22, ham.dim), np.nan + 0j)
        basis = lanczos_iterate(ham, psi, 20, buffer=buffer)
        assert basis.buffer is buffer and np.shares_memory(basis.vectors, buffer)
        assert self.same(basis, fresh)
        assert basis.buffer[20].tobytes() == fresh.buffer[20].tobytes()
        assert self.same(extend_one(basis, ham), extend_one(fresh, ham))

    def test_start_state_in_the_spare_row(self):
        # The stepper carries its state in the buffer's last row.
        ham = goe_sample(64, 7)
        psi = 3.0 * random_state(64, 8)
        buffer = np.empty((12, 64), dtype=np.complex128)
        buffer[-1] = psi
        basis = lanczos_iterate(ham, buffer[-1], 10, buffer=buffer)
        assert self.same(basis, lanczos_iterate(ham, psi, 10))

    def test_breakdown_basis_stays_in_the_buffer(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0, 4.0]))
        buffer = np.full((4, 4), np.nan + 0j)
        basis = lanczos_iterate(op, basis_state(4), 2, buffer=buffer)
        assert basis.breakdown and basis.size == 1
        assert np.shares_memory(basis.vectors, buffer)
        assert self.same(basis, lanczos_iterate(op, basis_state(4), 2))

    @pytest.mark.parametrize(
        "make",
        [
            lambda rows, dim: np.empty((rows - 1, dim), dtype=np.complex128),
            lambda rows, dim: np.empty((rows, dim + 1), dtype=np.complex128),
            lambda rows, dim: np.empty((rows, dim), dtype=np.complex64),
            lambda rows, dim: np.empty((rows, dim), dtype=np.float64),
            lambda rows, dim: np.empty((rows, dim), dtype=np.complex128, order="F"),
            lambda rows, dim: np.empty((2 * rows, dim), dtype=np.complex128)[::2],
            lambda rows, dim: np.empty((rows, 2 * dim), dtype=np.complex128)[:, ::2],
            lambda rows, dim: np.empty(rows * dim, dtype=np.complex128),
            lambda rows, dim: [[0j] * dim] * rows,
        ],
        ids=["rows", "width", "complex64", "float64", "fortran", "row-stride", "column-stride", "flat", "list"],
    )
    def test_unusable_buffer_rejected(self, make):
        ham = goe_sample(32, 1)
        with pytest.raises(ValueError, match="C-contiguous complex128 array of at least 12 rows of 32"):
            lanczos_iterate(ham, random_state(32, 2), 10, buffer=make(12, 32))

    def test_full_dimension_needs_one_row_beyond_the_basis(self):
        ham = goe_sample(8, 3)
        psi = random_state(8, 4)
        with pytest.raises(ValueError, match="at least 9 rows"):
            lanczos_iterate(ham, psi, 8, buffer=np.empty((8, 8), dtype=np.complex128))
        basis = lanczos_iterate(ham, psi, 8, buffer=np.empty((9, 8), dtype=np.complex128))
        assert self.same(basis, lanczos_iterate(ham, psi, 8))
