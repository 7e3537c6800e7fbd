"""Adaptive stepping: step sizing against budgets, bookkeeping, determinism."""

import numpy as np
import pytest

from krylov_echo import estimators, linalg
from krylov_echo.estimators import ESTIMATOR_NAMES, estimate_toeplitz_analytic
from krylov_echo.lanczos import lanczos_iterate
from krylov_echo.linalg import DenseOperator, SymmetricTridiagonal, basis_state, exact_evolve_dense
from krylov_echo.models import IsingParams, ising_operator, random_state
from krylov_echo.propagator import true_infidelity
from krylov_echo.stepper import (
    BudgetUnreachableError,
    evolve_adaptive,
    max_step_for_tolerance,
)


def homogeneous_basis(n, beta=1.0, dim=None):
    dim = dim or n + 6
    tri = SymmetricTridiagonal(np.zeros(dim), np.full(dim - 1, beta))
    return lanczos_iterate(DenseOperator(tri.to_dense()), basis_state(dim), n)


class TestMaxStep:
    def test_degenerate_budget_returns_cap(self):
        basis = homogeneous_basis(10)
        assert max_step_for_tolerance(basis, 1.0, "toeplitz_analytic", t_cap=7.5) == 7.5

    def test_under_budget_everywhere_returns_cap(self):
        basis = homogeneous_basis(30)
        # At t_cap = 1 the wave packet is nowhere near site 31.
        assert max_step_for_tolerance(basis, 1e-10, "toeplitz_analytic", t_cap=1.0) == 1.0

    def test_first_crossing_bracketing(self):
        # Independent dense scan of the analytic estimator's first crossing.
        basis = homogeneous_basis(30)
        budget, t_cap = 1e-10, 20.0
        dt = max_step_for_tolerance(basis, budget, "toeplitz_analytic", t_cap=t_cap)
        ts = np.arange(0.05, t_cap, 5e-4)
        values = np.array([estimate_toeplitz_analytic(basis, t).value for t in ts])
        crossing = ts[int(np.argmax(values > budget))]
        assert dt < crossing
        assert abs(dt / 0.9 - crossing) <= 3e-3 * crossing
        assert estimate_toeplitz_analytic(basis, dt).value <= budget

    def test_hopping_rescales_step(self):
        # Doubling the chain hopping halves the admissible step.
        slow = max_step_for_tolerance(homogeneous_basis(30, beta=1.0), 1e-10, "toeplitz_analytic", t_cap=30.0)
        fast = max_step_for_tolerance(homogeneous_basis(30, beta=2.0), 1e-10, "toeplitz_analytic", t_cap=30.0)
        assert fast == pytest.approx(slow / 2.0, rel=0.05)

    def test_budget_unreachable(self):
        # Hopping 1e7 moves the packet across the chain within the minimum step.
        basis = homogeneous_basis(4, beta=1e7)
        with pytest.raises(BudgetUnreachableError, match="minimum step"):
            max_step_for_tolerance(basis, 1e-10, "toeplitz_analytic", t_cap=10.0)

    def test_argument_validation(self):
        basis = homogeneous_basis(5)
        with pytest.raises(ValueError, match="budget"):
            max_step_for_tolerance(basis, 0.0, "toeplitz_analytic", t_cap=1.0)
        with pytest.raises(ValueError, match="t_cap"):
            max_step_for_tolerance(basis, 0.5, "toeplitz_analytic", t_cap=0.0)


class TestEvolveAdaptive:
    def test_eigenvector_takes_single_exact_step(self):
        ham = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        report = evolve_adaptive(ham, basis_state(3), 50.0, 1e-8, 3)
        assert len(report.steps) == 1
        assert report.steps[0].dt == 50.0
        assert report.steps[0].estimated_error == 0.0
        assert report.total_estimated_error == 0.0
        expected = np.exp(-1j * 1.0 * 50.0) * basis_state(3)
        assert np.abs(report.final_state - expected).max() <= 1e-12

    def test_deterministic_reports(self):
        ham = ising_operator(IsingParams(6))
        psi = random_state(ham.dim, 4)
        first = evolve_adaptive(ham, psi, 20.0, 1e-8, 12)
        second = evolve_adaptive(ham, psi, 20.0, 1e-8, 12)
        assert np.array_equal(first.final_state, second.final_state)
        assert first.steps == second.steps
        assert first.total_estimated_error == second.total_estimated_error

    def test_budget_accounting_is_exact(self):
        ham = ising_operator(IsingParams(6))
        psi = random_state(ham.dim, 8)
        report = evolve_adaptive(ham, psi, 20.0, 1e-8, 12)
        assert report.total_estimated_error == sum(s.estimated_error for s in report.steps)
        assert report.total_estimated_error <= 1e-8
        assert all(s.dt > 0 for s in report.steps)
        assert sum(s.dt for s in report.steps) == pytest.approx(20.0, rel=1e-12)

    def test_oracle_bound_default_estimator(self):
        ham = ising_operator(IsingParams(8))
        psi = random_state(ham.dim, 1)
        report = evolve_adaptive(ham, psi, 100.0, 1e-8, 20)
        infidelity = true_infidelity(report.final_state, exact_evolve_dense(ham, psi, 100.0))
        assert infidelity <= 10 * 1e-8
        assert infidelity <= 10 * report.total_estimated_error

    def test_oracle_bound_averaged_estimator(self):
        ham = ising_operator(IsingParams(8))
        psi = random_state(ham.dim, 2)
        report = evolve_adaptive(ham, psi, 60.0, 1e-8, 20, kind="extra_site_averaged")
        infidelity = true_infidelity(report.final_state, exact_evolve_dense(ham, psi, 60.0))
        assert infidelity <= 10 * 1e-8

    def test_monotone_workload(self):
        ham = ising_operator(IsingParams(6))
        psi = random_state(ham.dim, 3)
        loose = evolve_adaptive(ham, psi, 20.0, 1e-6, 12)
        tight = evolve_adaptive(ham, psi, 20.0, 5e-7, 12)
        assert len(tight.steps) >= len(loose.steps)
        # While the trajectories share a prefix the tighter run never takes
        # a longer step.
        assert tight.steps[0].dt <= loose.steps[0].dt

    def test_final_state_normalized(self):
        ham = ising_operator(IsingParams(6))
        psi = random_state(ham.dim, 5)
        report = evolve_adaptive(ham, psi, 20.0, 1e-8, 12)
        assert abs(np.linalg.norm(report.final_state) - 1.0) <= 1e-12

    def test_argument_validation(self):
        ham = ising_operator(IsingParams(6))
        psi = random_state(ham.dim, 1)
        with pytest.raises(ValueError, match="tol"):
            evolve_adaptive(ham, psi, 10.0, 0.0, 8)
        with pytest.raises(ValueError, match="t_final"):
            evolve_adaptive(ham, psi, -1.0, 1e-8, 8)
        with pytest.raises(ValueError, match="unknown estimator"):
            evolve_adaptive(ham, psi, 10.0, 1e-8, 8, kind="wrong")

    def test_non_finite_t_final(self):
        ham = ising_operator(IsingParams(6))
        psi = random_state(ham.dim, 1)
        for t_final in (np.nan, np.inf):
            with pytest.raises(ValueError, match="t_final"):
                evolve_adaptive(ham, psi, t_final, 1e-8, 8)

    @pytest.mark.parametrize(
        "kind", ["extra_site_exact", "extra_site_averaged", "extra_site_hybrid"]
    )
    def test_at_most_two_eigensolves_per_step(self, monkeypatch, kind):
        # Each step diagonalizes the truncated chain and its one-site
        # reference once, however many times the step search evaluates.
        calls = []
        original = linalg.eig_sym_tridiagonal

        def counted(tri):
            calls.append(tri.n)
            return original(tri)

        monkeypatch.setattr(linalg, "eig_sym_tridiagonal", counted)
        ham = ising_operator(IsingParams(10))
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 20.0, 1e-8, 20, kind=kind)
        assert len(report.steps) >= 2
        assert len(calls) <= 2 * len(report.steps)

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_basis_too_small_for_an_estimate(self, kind):
        ham = ising_operator(IsingParams(6))
        psi = random_state(ham.dim, 1)
        with pytest.raises(ValueError, match="n_krylov"):
            evolve_adaptive(ham, psi, 1.0, 1e-8, 1, kind=kind)

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_infidelity_bound_holds(self, kind):
        # Per-step error amplitudes can add coherently, so the sum of the
        # estimates may fall below the true infidelity; (sum sqrt eps)^2
        # must not.
        ham = ising_operator(IsingParams(10))
        psi = random_state(ham.dim, 1)
        tol = 1e-8
        report = evolve_adaptive(ham, psi, 100.0, tol, 30, kind=kind)
        assert report.total_estimated_error <= report.infidelity_bound <= tol
        amplitudes = sum(np.sqrt(s.estimated_error) for s in report.steps)
        assert report.infidelity_bound == pytest.approx(amplitudes**2, rel=1e-12)
        infidelity = true_infidelity(report.final_state, exact_evolve_dense(ham, psi, 100.0))
        assert infidelity <= report.infidelity_bound

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_one_search_per_step(self, monkeypatch, kind):
        calls = []
        for name in (
            "estimate_extra_site_exact",
            "estimate_extra_site_averaged",
            "estimate_toeplitz_analytic",
            "estimate_park_light",
        ):
            original = getattr(estimators, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(estimators, name, counted)
        ham = ising_operator(IsingParams(8))
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 20.0, 1e-8, 20, kind=kind)
        assert len(report.steps) >= 2
        assert len(calls) <= 40 * len(report.steps)
