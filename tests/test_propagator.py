"""Krylov evolution, chain profiles, infidelity, and the echo identity."""

import numpy as np
import pytest

from krylov_echo.estimators import echo_general
from krylov_echo.lanczos import lanczos_iterate
from krylov_echo.linalg import SymmetricTridiagonal, basis_state, exact_evolve_dense
from krylov_echo.models import IsingParams, goe_sample, ising_operator, random_state
from krylov_echo.propagator import (
    krylov_evolve,
    project_profile,
    reduced_coefficients,
    true_infidelity,
)
from krylov_echo.toeplitz import ToeplitzChain, toeplitz_transition


@pytest.fixture(scope="module")
def ising10():
    ham = ising_operator(IsingParams(10))
    psi = random_state(ham.dim, 1)
    basis = lanczos_iterate(ham, psi, 30)
    return ham, psi, basis


class TestKrylovEvolve:
    def test_identity_at_zero(self, ising10):
        _, psi, basis = ising10
        assert np.abs(krylov_evolve(basis, 0.0) - psi).max() <= 1e-14

    def test_full_subspace_is_exact(self):
        ham = ising_operator(IsingParams(4))
        psi = random_state(ham.dim, 2)
        basis = lanczos_iterate(ham, psi, 16)
        for t in np.linspace(0.0, 20.0, 9):
            exact = exact_evolve_dense(ham, psi, t)
            assert true_infidelity(krylov_evolve(basis, t), exact) <= 1e-10

    def test_plateau_regime_accuracy(self, ising10):
        # Before the packet tail reaches the truncation site the error sits
        # at the round-off floor (t = 1.0 is inside that window here).
        ham, psi, basis = ising10
        exact = exact_evolve_dense(ham, psi, 1.0)
        assert true_infidelity(krylov_evolve(basis, 1.0), exact) <= 1e-10

    def test_unitarity(self, ising10):
        _, _, basis = ising10
        for t in (0.7, 5.0, 33.0):
            assert abs(np.linalg.norm(krylov_evolve(basis, t)) - 1.0) <= 1e-12

    def test_unnormalized_input_scale_preserved(self):
        ham = ising_operator(IsingParams(4))
        psi = 2.5 * random_state(ham.dim, 3)
        basis = lanczos_iterate(ham, psi, 8)
        out = krylov_evolve(basis, 1.3)
        assert np.linalg.norm(out) == pytest.approx(2.5, abs=1e-12)


class TestReducedCoefficients:
    def test_localized_at_zero(self, ising10):
        _, _, basis = ising10
        coeffs = reduced_coefficients(basis, 0.0)
        assert coeffs[0] == 1.0
        assert np.abs(coeffs[1:]).max() == 0.0

    def test_two_site_rabi(self):
        op_matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        from krylov_echo.linalg import DenseOperator

        basis = lanczos_iterate(DenseOperator(op_matrix), basis_state(2), 2)
        coeffs = reduced_coefficients(basis, 1.1)
        assert np.allclose(coeffs, [np.cos(1.1), -1j * np.sin(1.1)], atol=1e-14)

    def test_probability_conserved(self, ising10):
        _, _, basis = ising10
        for t in (0.5, 4.2, 19.0):
            total = (np.abs(reduced_coefficients(basis, t)) ** 2).sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_toeplitz_column(self):
        # Homogeneous chain: the closed-form transition column is the
        # conjugate of the propagated coefficients (opposite sign of t).
        n, t = 30, 4.9
        tri = SymmetricTridiagonal(np.zeros(n), np.ones(n - 1))
        from krylov_echo.linalg import DenseOperator

        basis = lanczos_iterate(DenseOperator(tri.to_dense()), basis_state(n), n)
        coeffs = reduced_coefficients(basis, t)
        chain = ToeplitzChain(n, 0.0, 1.0)
        column = np.array([toeplitz_transition(chain, m, 1, t) for m in range(1, n + 1)])
        assert np.abs(column - coeffs.conj()).max() <= 1e-10


class TestProjectProfile:
    def test_initial_state_localized(self, ising10):
        _, psi, basis = ising10
        profile = project_profile(basis, psi)
        assert profile.site_populations[0] == pytest.approx(1.0, abs=1e-12)
        assert profile.site_populations[1:].max() <= 1e-12

    def test_populations_bounded(self, ising10):
        ham, psi, basis = ising10
        state = exact_evolve_dense(ham, psi, 2.0)
        profile = project_profile(basis, state, time=2.0)
        assert profile.time == 2.0
        assert (profile.site_populations >= 0).all()
        assert (profile.site_populations <= 1.0).all()
        assert profile.site_populations.sum() <= 1.0 + 1e-10

    def test_exponentially_suppressed_tail(self, ising10):
        ham, psi, basis = ising10
        state = exact_evolve_dense(ham, psi, 0.5)
        pops = project_profile(basis, state).site_populations
        assert pops[:10].sum() >= 0.99
        assert pops[20:].max() <= 1e-12

    def test_exact_and_krylov_profiles_agree_early(self, ising10):
        ham, psi, basis = ising10
        t = 1.0
        exact_profile = project_profile(basis, exact_evolve_dense(ham, psi, t))
        krylov_profile = project_profile(basis, krylov_evolve(basis, t))
        assert np.abs(
            exact_profile.site_populations - krylov_profile.site_populations
        ).max() <= 1e-8

    def test_dimension_mismatch(self, ising10):
        _, _, basis = ising10
        with pytest.raises(ValueError, match="does not match"):
            project_profile(basis, np.zeros(12, dtype=complex))


class TestTrueInfidelity:
    def test_identical_states(self):
        psi = random_state(16, 4)
        assert true_infidelity(psi, psi) <= 1e-15

    def test_orthogonal_states(self):
        assert true_infidelity(basis_state(4, 0), basis_state(4, 1)) == 1.0

    def test_error_significant_at_collapse(self, ising10):
        # Measured collapse onset for these parameters sits near t = 2.05;
        # just past it the error reaches the percent scale.
        ham, psi, basis = ising10
        exact = exact_evolve_dense(ham, psi, 2.25)
        eps = true_infidelity(krylov_evolve(basis, 2.25), exact)
        assert 1e-3 <= eps <= 0.5

    def test_clamped_to_unit_interval(self):
        psi = random_state(8, 5)
        assert 0.0 <= true_infidelity(psi, psi * np.exp(1j * 0.3)) <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            true_infidelity(np.zeros(3, dtype=complex), np.zeros(4, dtype=complex))

    def test_resolved_below_subtraction_floor(self):
        # 1 - cos^2(theta) rounds to 0 at theta = 1e-9; the residual form
        # resolves sin^2(theta) = 1e-18.
        theta = 1e-9
        approx = np.cos(theta) * basis_state(2, 0) + np.sin(theta) * basis_state(2, 1)
        assert true_infidelity(approx, basis_state(2, 0)) == pytest.approx(
            np.sin(theta) ** 2, rel=1e-6, abs=0.0
        )


class TestEchoIdentity:
    def test_infidelity_is_chain_echo(self):
        # The approximation error equals a Loschmidt echo computed entirely
        # inside the virtual chain: truncated chain forward, full chain back.
        ham = goe_sample(64, 5)
        psi = random_state(64, 6)
        n = 12
        basis_n = lanczos_iterate(ham, psi, n)
        basis_full = lanczos_iterate(ham, psi, 64)
        for t in np.linspace(0.0, 8.0, 17):
            exact = exact_evolve_dense(ham, psi, t)
            fidelity = 1.0 - true_infidelity(krylov_evolve(basis_n, t), exact)
            echo = abs(echo_general(basis_n.tridiag, basis_full.tridiag, t)) ** 2
            assert abs(fidelity - echo) <= 1e-8
