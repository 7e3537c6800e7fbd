"""Closed-form homogeneous-chain machinery vs numeric spectral oracles."""

import numpy as np
import pytest

from krylov_echo import toeplitz
from krylov_echo.estimators import echo_general
from krylov_echo.linalg import SymmetricTridiagonal, _end_states, basis_state, eig_sym_tridiagonal
from krylov_echo.toeplitz import _toeplitz_eigen, toeplitz_echo

from conftest import rescaling_check


def homogeneous(n, alpha, beta):
    return SymmetricTridiagonal(np.full(n, alpha), np.full(n - 1, beta))


class TestEigenpairs:
    def test_dimer(self):
        assert _toeplitz_eigen(2, 0.0, 1.0).eigenvalues == pytest.approx([1.0, -1.0])

    def test_decoupled_chain(self):
        assert _toeplitz_eigen(7, 2.5, 0.0).eigenvalues == pytest.approx(np.full(7, 2.5))

    def test_matches_numeric_solver(self):
        analytic = np.sort(_toeplitz_eigen(5, 0.0, 1.0).eigenvalues)
        numeric = eig_sym_tridiagonal(homogeneous(5, 0.0, 1.0)).eigenvalues
        assert np.allclose(analytic, numeric, atol=1e-12)

    def test_single_site_component(self):
        assert _toeplitz_eigen(1, 0.0, 1.0).eigenvectors[0, 0] == pytest.approx(1.0)

    def test_component_columns_orthonormal(self):
        mat = _toeplitz_eigen(30, 0.0, 1.0).eigenvectors
        assert np.abs(mat.T @ mat - np.eye(30)).max() <= 1e-12

    def test_components_match_numeric_vectors(self):
        closed = _toeplitz_eigen(5, 0.3, 0.9)
        eig = eig_sym_tridiagonal(homogeneous(5, 0.3, 0.9))
        order = np.argsort(closed.eigenvalues)
        for col, k in enumerate(order):
            analytic = closed.eigenvectors[:, k]
            numeric = eig.eigenvectors[:, col]
            sign = np.sign(np.dot(analytic, numeric))
            assert np.abs(analytic - sign * numeric).max() <= 1e-12


class TestTransition:
    """The closed-form column ``exp(-i T t)|1>`` that the echo and the analytic estimator use."""

    def test_identity_at_zero(self):
        # t = 1e-15 goes through the full mode sum, not the t = 0 shortcut.
        states = _end_states(_toeplitz_eigen(6, 0.4, 1.1), [0.0, 1e-15])
        assert np.abs(states - basis_state(6)).max() <= 1e-14

    def test_dimer_cosine(self):
        states = _end_states(_toeplitz_eigen(2, 0.0, 1.0), [0.3, 1.9])
        assert np.abs(states[:, 0] - np.cos([0.3, 1.9])).max() <= 1e-14

    def test_column_matches_spectral_propagation(self):
        n, t = 30, 7.3
        closed = _end_states(_toeplitz_eigen(n, 0.0, 1.0), t)
        numeric = _end_states(homogeneous(n, 0.0, 1.0).eigen(), t)
        assert np.abs(closed - numeric).max() <= 1e-10

    def test_unitarity(self):
        states = _end_states(_toeplitz_eigen(15, 0.2, 0.8), [2.4, 40.0])
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-10


class TestEcho:
    def test_equal_chains_modulus_one(self):
        for t in (0.0, 3.3, 40.0):
            assert abs(toeplitz_echo(20, 20, 0.5, 1.2, t)) == pytest.approx(1.0, abs=1e-12)

    def test_unity_at_zero(self):
        assert toeplitz_echo(9, 12, 0.3, 0.7, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_matches_numeric_echo(self):
        tri_a, tri_b = homogeneous(30, 0.0, 1.0), homogeneous(31, 0.0, 1.0)
        for t in np.linspace(0.0, 100.0, 41):
            analytic = abs(toeplitz_echo(30, 31, 0.0, 1.0, t))
            numeric = abs(echo_general(tri_a, tri_b, t))
            assert abs(analytic - numeric) <= 1e-8

    @pytest.mark.parametrize("n_sites, n_prime", [(0, 3), (3, 0), (-1, 2)])
    def test_chain_size_below_one_rejected(self, n_sites, n_prime):
        with pytest.raises(ValueError, match="chain sizes must be >= 1"):
            toeplitz_echo(n_sites, n_prime, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("n_sites, n_prime", [(9, 8), (8, 9), (9, 9)])
    def test_chain_size_above_the_dense_cap_rejected_before_any_array(
        self, monkeypatch, n_sites, n_prime
    ):
        # The cap is inclusive: two chains of MAX_DENSE_DIM sites run.
        monkeypatch.setattr(toeplitz, "MAX_DENSE_DIM", 8)
        assert abs(toeplitz_echo(8, 8, 0.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

        def never(*args):
            raise AssertionError("a chain above the cap was formed")

        monkeypatch.setattr(toeplitz, "_toeplitz_eigen", never)
        with pytest.raises(ValueError, match=f"chain sizes {n_sites}, {n_prime} exceed cap 8"):
            toeplitz_echo(n_sites, n_prime, 0.0, 1.0, 1.0)

    def test_sine_mode_cache_holds_four_sizes(self):
        # The toeplitz sweep's (n, n+1) and the toeplitz_analytic estimator's (N, N+1).
        assert toeplitz._sine_modes.cache_info().maxsize == 4

    @pytest.mark.parametrize(
        "alpha, beta", [(np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0), (0.0, -np.inf)]
    )
    def test_non_finite_coefficients_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="must be finite"):
            toeplitz_echo(10, 11, alpha, beta, [1.0])

    def test_modulus_bounded(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 40))
            n_prime = int(rng.integers(1, 40))
            val = toeplitz_echo(n, n_prime, rng.uniform(-3, 3), rng.uniform(0, 3), rng.uniform(0, 30))
            assert abs(val) <= 1.0 + 1e-12


class TestRescalingLaws:
    def test_onsite_invariance(self):
        for alpha in (-4.0, 0.0, 2.7):
            direct, ref = rescaling_check(12, 13, alpha, 1.0, 5.0)
            assert direct == pytest.approx(ref, abs=1e-10)

    def test_time_rescaling(self):
        d2, _ = rescaling_check(12, 13, 0.0, 2.0, 5.0)
        d1, _ = rescaling_check(12, 13, 0.0, 1.0, 10.0)
        assert d2 == pytest.approx(d1, abs=1e-10)

    def test_zero_hopping_never_leaks(self):
        for t in (0.1, 5.0, 60.0):
            direct, ref = rescaling_check(8, 9, 1.5, 0.0, t)
            assert direct == pytest.approx(1.0, abs=1e-12)
            assert ref == pytest.approx(1.0, abs=1e-12)

    def test_random_triples(self, rng):
        for _ in range(100):
            alpha = rng.uniform(-5, 5)
            beta = rng.uniform(0.05, 4.0)
            t = rng.uniform(0.0, 40.0)
            direct, ref = rescaling_check(14, 15, alpha, beta, t)
            assert abs(direct - ref) <= 1e-10
