"""Echo estimators: exact extra site, averaged coefficients, analytic, baseline."""

import numpy as np
import pytest

from krylov_echo import estimators
from krylov_echo.estimators import (
    ESTIMATOR_NAMES,
    _exact_propagator,
    bind_estimator,
    averaged_coefficients,
    echo_general,
    estimate_extra_site_averaged,
    estimate_extra_site_exact,
    estimate_oracle,
    estimate_park_light,
    estimate_toeplitz_analytic,
    extra_site_band,
    oracle_infidelities,
)
from krylov_echo.lanczos import KrylovBasis, extend_one, lanczos_iterate
from krylov_echo.linalg import (
    DenseOperator,
    SymmetricTridiagonal,
    _chebyshev_error,
    basis_state,
    exact_evolve_dense,
)
from krylov_echo.models import (
    IsingParams,
    goe_sample,
    gue_sample,
    ising_operator,
    random_state,
)
from krylov_echo.propagator import krylov_evolve, true_infidelity

from conftest import chain_transition, infidelity_allowance


def homogeneous_basis(n, alpha=0.0, beta=1.0, dim=None):
    """Exact homogeneous-chain basis: the recurrence reproduces the chain."""
    dim = dim or n + 4
    tri = SymmetricTridiagonal(np.full(dim, alpha), np.full(dim - 1, beta))
    return lanczos_iterate(DenseOperator(tri.to_dense()), basis_state(dim), n)


@pytest.fixture(scope="module")
def ising_setup():
    ham = ising_operator(IsingParams(10))
    psi = random_state(ham.dim, 1)
    basis = lanczos_iterate(ham, psi, 30)
    extended = extend_one(basis, ham)
    return ham, psi, basis, extended


class TestEchoGeneral:
    def test_identical_chains(self, rng):
        tri = SymmetricTridiagonal(rng.standard_normal(9), np.abs(rng.standard_normal(8)) + 0.2)
        for t in (0.0, 2.2, 17.0):
            assert abs(echo_general(tri, tri, t)) == pytest.approx(1.0, abs=1e-13)

    def test_unity_at_zero(self, rng):
        tri_a = SymmetricTridiagonal(rng.standard_normal(5), np.abs(rng.standard_normal(4)) + 0.2)
        tri_b = SymmetricTridiagonal(rng.standard_normal(8), np.abs(rng.standard_normal(7)) + 0.2)
        assert echo_general(tri_a, tri_b, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_matches_full_space_overlap(self):
        # |<psi_30|psi_31>|^2 computed in the 256-dim space equals the
        # chain echo between the two reductions.
        ham = ising_operator(IsingParams(8))
        psi = random_state(ham.dim, 2)
        basis_30 = lanczos_iterate(ham, psi, 30)
        basis_31 = lanczos_iterate(ham, psi, 31)
        for t in np.linspace(0.0, 6.0, 13):
            overlap = abs(np.vdot(krylov_evolve(basis_30, t), krylov_evolve(basis_31, t))) ** 2
            echo = abs(echo_general(basis_30.tridiag, basis_31.tridiag, t)) ** 2
            assert abs(overlap - echo) <= 1e-10


class TestExtraSiteExact:
    def test_zero_at_zero(self, ising_setup):
        *_, extended = ising_setup
        assert estimate_extra_site_exact(extended, 0.0) <= 1e-15

    def test_tracks_oracle_within_decade(self, ising_setup):
        ham, psi, basis, extended = ising_setup
        for t in np.linspace(1.4, 2.0, 13):
            exact = exact_evolve_dense(ham, psi, t)
            eps = true_infidelity(krylov_evolve(basis, t), exact)
            est = estimate_extra_site_exact(extended, t)
            if 1e-12 <= eps <= 1e-3:
                assert abs(np.log10(est) - np.log10(eps)) <= 1.0

    def test_goe_loglog_correlation(self):
        ham = goe_sample(64, 3)
        psi = random_state(64, 1003)
        basis = lanczos_iterate(ham, psi, 12)
        extended = extend_one(basis, ham)
        ts = np.linspace(0.001, 3.0, 200)
        eps = np.array(
            [true_infidelity(krylov_evolve(basis, t), exact_evolve_dense(ham, psi, t)) for t in ts]
        )
        est = np.array([estimate_extra_site_exact(extended, t) for t in ts])
        window = (eps >= 1e-12) & (eps <= 1e-3) & (est > 0)
        assert window.sum() >= 20
        corr = np.corrcoef(np.log10(est[window]), np.log10(eps[window]))[0, 1]
        assert corr >= 0.99

    def test_breakdown_basis_has_no_history(self):
        # Exact zeros for a breakdown basis come from bind_estimator alone;
        # passed straight in, a size-1 basis has no truncation to compare.
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        basis = lanczos_iterate(op, basis_state(3), 2)
        assert basis.breakdown and basis.size == 1
        with pytest.raises(ValueError, match="history"):
            estimate_extra_site_exact(basis, 5.0)

    def test_invariant_extension_gives_exact_error(self):
        # The extension of N=10 on the 11-site chain spans the whole space,
        # so comparing its first N sites with all N+1 is the true error.
        op = DenseOperator(SymmetricTridiagonal(np.zeros(11), np.ones(10)).to_dense())
        basis = lanczos_iterate(op, basis_state(11), 10)
        extended = extend_one(basis, op)
        assert extended.breakdown and not basis.breakdown
        ts = np.linspace(1.0, 5.0, 9)
        # Against the dense point oracle, whose rounding follows the
        # estimator's on this chain; the Chebyshev oracle of
        # oracle_infidelities meets it within its stated bound only.
        psi = basis_state(11)
        dense = np.array([true_infidelity(krylov_evolve(basis, t), exact_evolve_dense(op, psi, t)) for t in ts])
        assert np.abs(estimate_extra_site_exact(extended, ts) / dense - 1.0).max() <= 1e-12
        exact = _exact_propagator(basis, op)
        delta = 2 * _chebyshev_error((abs(exact.centre) + exact.radius) * ts)
        oracle = oracle_infidelities(basis, op, ts)
        assert (np.abs(oracle - dense) <= infidelity_allowance(dense, delta)).all()


class TestExtraSiteAveraged:
    def test_exact_for_homogeneous_chain(self):
        basis = homogeneous_basis(20)
        extended = extend_one(
            basis, DenseOperator(SymmetricTridiagonal(np.zeros(24), np.ones(23)).to_dense())
        )
        for t in (0.5, 3.0, 11.0):
            literal = estimate_extra_site_averaged(basis, t, mode="literal")
            exact = estimate_extra_site_exact(extended, t)
            assert abs(literal - exact) <= 1e-12

    def test_zero_at_zero(self, ising_setup):
        _, _, basis, _ = ising_setup
        for mode in ("literal", "hybrid"):
            assert estimate_extra_site_averaged(basis, 0.0, mode=mode) <= 1e-15

    def test_overestimation_stays_constant(self, ising_setup):
        # The ratio to the true error holds steady through the build-up window.
        ham, psi, basis, _ = ising_setup
        log_ratios = []
        for t in np.linspace(1.4, 2.0, 13):
            exact = exact_evolve_dense(ham, psi, t)
            eps = true_infidelity(krylov_evolve(basis, t), exact)
            if 1e-12 <= eps <= 1e-3:
                est = estimate_extra_site_averaged(basis, t)
                log_ratios.append(np.log10(est / eps))
        assert len(log_ratios) >= 8
        assert np.std(log_ratios) <= 1.0

    def test_hybrid_differs_from_literal_on_inhomogeneous(self, ising_setup):
        _, _, basis, _ = ising_setup
        literal = estimate_extra_site_averaged(basis, 1.8, mode="literal")
        hybrid = estimate_extra_site_averaged(basis, 1.8, mode="hybrid")
        assert literal != hybrid

    def test_requires_history(self):
        basis = homogeneous_basis(1)
        with pytest.raises(ValueError, match="history"):
            estimate_extra_site_averaged(basis, 1.0)
        with pytest.raises(ValueError, match="mode"):
            estimate_extra_site_averaged(homogeneous_basis(3), 1.0, mode="other")


class TestToeplitzAnalytic:
    def test_zero_at_zero(self, ising_setup):
        _, _, basis, _ = ising_setup
        assert estimate_toeplitz_analytic(basis, 0.0) <= 1e-15

    def test_decoupled_chain_never_leaks(self):
        vectors = np.eye(3, dtype=np.complex128)
        tri = SymmetricTridiagonal([0.5, 0.5, 0.5], [0.0, 0.0])
        basis = KrylovBasis(
            vectors=vectors,
            tridiag=tri,
            residual_beta=0.0,
            source_norm=1.0,
        )
        for t in (0.5, 8.0, 100.0):
            assert estimate_toeplitz_analytic(basis, t) <= 1e-12

    def test_matches_exact_on_homogeneous_chain(self):
        basis = homogeneous_basis(30, dim=40)
        extended = extend_one(
            basis, DenseOperator(SymmetricTridiagonal(np.zeros(40), np.ones(39)).to_dense())
        )
        for t in np.linspace(0.0, 20.0, 11):
            analytic = estimate_toeplitz_analytic(basis, t)
            exact = estimate_extra_site_exact(extended, t)
            assert abs(analytic - exact) <= 1e-8


class TestParkLight:
    def test_zero_at_zero(self):
        basis = homogeneous_basis(10)
        assert estimate_park_light(basis, 0.0) == 0.0

    def test_single_site_chain(self):
        tri = SymmetricTridiagonal([1.3], [])
        basis = KrylovBasis(
            vectors=np.ones((1, 1), dtype=np.complex128),
            tridiag=tri,
            residual_beta=0.0,
            source_norm=1.0,
        )
        for t in (0.0, 2.0, 50.0):
            assert estimate_park_light(basis, t) == pytest.approx(1.0, abs=1e-12)

    def test_matches_transition_amplitude(self):
        n = 30
        basis = homogeneous_basis(n, dim=n)
        for t in (0.8, 4.4, 13.0):
            expected = abs(chain_transition(n, n, 1, t)) ** 2
            assert abs(estimate_park_light(basis, t) - expected) <= 1e-10


class TestAveragedCoefficients:
    def test_arithmetic_means(self):
        basis = KrylovBasis(
            vectors=np.eye(2, dtype=np.complex128),
            tridiag=SymmetricTridiagonal([1.0, 3.0], [2.0]),
            residual_beta=0.0,
            source_norm=1.0,
        )
        assert averaged_coefficients(basis) == (2.0, 2.0)

    def test_homogeneous_chain_exact(self):
        alpha_bar, beta_bar = averaged_coefficients(homogeneous_basis(12, alpha=0.3, beta=0.9))
        assert alpha_bar == pytest.approx(0.3, abs=1e-12)
        assert beta_bar == pytest.approx(0.9, abs=1e-12)

    def test_matches_manual_sums(self, ising_setup):
        _, _, basis, _ = ising_setup
        alpha_bar, beta_bar = averaged_coefficients(basis)
        assert alpha_bar == pytest.approx(basis.tridiag.diag.sum() / 30, rel=1e-14)
        manual_beta = (basis.tridiag.offdiag.sum() + basis.residual_beta) / 30
        assert beta_bar == pytest.approx(manual_beta, rel=1e-14)


class TestCrossEstimatorProperties:
    def test_all_vanish_at_zero(self, ising_setup):
        _, _, basis, extended = ising_setup
        values = [
            estimate_extra_site_exact(extended, 0.0),
            estimate_extra_site_averaged(basis, 0.0),
            estimate_extra_site_averaged(basis, 0.0, mode="hybrid"),
            estimate_toeplitz_analytic(basis, 0.0),
            estimate_park_light(basis, 0.0),
        ]
        assert max(values) <= 1e-12

    def test_homogeneous_collapse(self):
        # On a homogeneous chain all three cheap estimators coincide.
        basis = homogeneous_basis(30, dim=40)
        extended = extend_one(
            basis, DenseOperator(SymmetricTridiagonal(np.zeros(40), np.ones(39)).to_dense())
        )
        for t in np.linspace(0.5, 15.0, 8):
            exact = estimate_extra_site_exact(extended, t)
            literal = estimate_extra_site_averaged(basis, t)
            analytic = estimate_toeplitz_analytic(basis, t)
            assert abs(exact - literal) <= 1e-8
            assert abs(exact - analytic) <= 1e-8

    def test_band_envelope(self, ising_setup):
        _, _, basis, _ = ising_setup
        for t in (1.6, 1.9):
            low, high = extra_site_band(basis, t)
            literal = estimate_extra_site_averaged(basis, t)
            assert low <= high
            assert low <= literal * (1 + 1e-9)
            # The literal estimate need not be inside the envelope in
            # general, but the envelope must be a genuine spread.
            assert high > 0

    def test_band_collapses_for_homogeneous(self):
        basis = homogeneous_basis(20)
        low, high = extra_site_band(basis, 3.0)
        assert abs(high - low) <= 1e-12

    @pytest.mark.parametrize("n", [1, 6], ids=["one-site", "full-chain"])
    def test_band_is_exact_zero_on_a_breakdown_basis(self, n):
        basis = homogeneous_basis(n, dim=n)
        assert basis.breakdown
        low, high = extra_site_band(basis, [0.0, 0.5, 1.0])
        assert low.tolist() == high.tolist() == [0.0] * 3
        assert extra_site_band(basis, 0.5) == (0.0, 0.0)

    def test_oracle_estimate_matches_direct(self, ising_setup):
        ham, psi, basis, _ = ising_setup
        t = 1.8
        est = estimate_oracle(basis, ham, t)
        direct = true_infidelity(krylov_evolve(basis, t), exact_evolve_dense(ham, psi, t))
        assert est == pytest.approx(direct, rel=1e-10)


class TestSmallTimeFloor:
    def test_homogeneous_two_site_error_resolved(self):
        # N=2, alpha=0, beta=1: eps(t) = t^4/4 + O(t^6), far below the
        # ~1e-16 floor of 1 - |echo|^2.
        basis = homogeneous_basis(2)
        ham = DenseOperator(
            SymmetricTridiagonal(np.zeros(6), np.ones(5)).to_dense()
        )
        t = 1e-5
        values = [
            estimate_extra_site_exact(extend_one(basis, ham), t),
            estimate_extra_site_averaged(basis, t, mode="literal"),
            estimate_extra_site_averaged(basis, t, mode="hybrid"),
            estimate_toeplitz_analytic(basis, t),
            *extra_site_band(basis, t),
        ]
        assert values == pytest.approx([t**4 / 4] * len(values), rel=1e-4, abs=0.0)


class TestWindowFidelity:
    @pytest.mark.parametrize(
        "make_op,n_krylov",
        [
            (lambda seed: ising_operator(IsingParams(8)), 20),
            (lambda seed: ising_operator(IsingParams(9)), 25),
            (lambda seed: goe_sample(128, seed), 14),
            (lambda seed: goe_sample(256, seed), 16),
            (lambda seed: gue_sample(128, seed), 14),
            (lambda seed: gue_sample(256, seed), 16),
        ],
        ids=["ising8", "ising9", "goe128", "goe256", "gue128", "gue256"],
    )
    def test_extra_site_tracks_in_window(self, make_op, n_krylov):
        # Through the entire build-up window the exact extra-site estimate
        # stays within one decade of the true error, for every seed.
        for seed in range(1, 6):
            ham = make_op(seed)
            psi = random_state(ham.dim, 100 + seed)
            basis = lanczos_iterate(ham, psi, n_krylov)
            extended = extend_one(basis, ham)
            checked = 0
            # Log-spaced grid: the window location varies with the model's
            # spectral width, so sample small times densely.
            for t in np.geomspace(0.02, 4.0, 120):
                eps = true_infidelity(
                    krylov_evolve(basis, t), exact_evolve_dense(ham, psi, t)
                )
                if not 1e-12 <= eps <= 1e-3:
                    continue
                est = estimate_extra_site_exact(extended, t)
                assert abs(np.log10(max(est, 1e-300)) - np.log10(eps)) <= 1.0
                checked += 1
            assert checked >= 5


class TestBindEstimator:
    def test_unknown_name(self, ising_setup):
        _, _, basis, _ = ising_setup
        with pytest.raises(ValueError, match="unknown estimator"):
            bind_estimator("nonsense", basis)

    def test_exact_requires_hamiltonian(self, ising_setup):
        _, _, basis, _ = ising_setup
        with pytest.raises(ValueError, match="Hamiltonian"):
            bind_estimator("extra_site_exact", basis)

    def test_breakdown_gives_zero(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        basis = lanczos_iterate(op, basis_state(3), 2)
        for name in ("extra_site_exact", "extra_site_averaged", "park_light"):
            assert bind_estimator(name, basis, op)(4.0) == 0.0

    def test_exact_carries_extension(self, ising_setup):
        ham, _, basis, _ = ising_setup
        assert bind_estimator("extra_site_exact", basis, ham).basis.size == basis.size + 1

    def test_breakdown_keeps_input_basis(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        basis = lanczos_iterate(op, basis_state(3), 2)
        for name in ESTIMATOR_NAMES:
            bound = bind_estimator(name, basis, op)
            assert bound(4.0) == 0.0
            assert bound.basis is basis

    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_one_call_per_evaluation(self, ising_setup, monkeypatch, name):
        # The benchmark's tracer counts evaluations by replacing these module attributes.
        ham, _, basis, _ = ising_setup
        target = "estimate_extra_site_averaged" if name == "extra_site_hybrid" else f"estimate_{name}"
        original = getattr(estimators, target)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(estimators, target, counted)
        bound = bind_estimator(name, basis, ham)
        assert np.ndim(bound(1.5)) == 0
        assert len(calls) == 1
        assert bound(np.array([0.5, 1.0, 1.5])).shape == (3,)
        assert len(calls) == 2

    def test_names_dispatch_consistently(self, ising_setup):
        ham, _, basis, extended = ising_setup
        t = 1.7
        assert bind_estimator("extra_site_exact", basis, ham)(t) == pytest.approx(
            estimate_extra_site_exact(extended, t), rel=1e-12
        )
        assert bind_estimator("extra_site_averaged", basis)(t) == estimate_extra_site_averaged(
            basis, t, mode="literal"
        )
        assert bind_estimator("extra_site_hybrid", basis)(t) == estimate_extra_site_averaged(
            basis, t, mode="hybrid"
        )
        assert bind_estimator("toeplitz_analytic", basis)(t) == estimate_toeplitz_analytic(basis, t)
        assert bind_estimator("park_light", basis)(t) == estimate_park_light(basis, t)
