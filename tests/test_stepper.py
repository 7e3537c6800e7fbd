"""Adaptive stepping: step sizing against budgets, bookkeeping, determinism."""

import tracemalloc

import numpy as np
import pytest

from krylov_echo import estimators, linalg
from krylov_echo.cli import STATE_SEED_OFFSET
from krylov_echo.estimators import ESTIMATOR_NAMES, estimate_toeplitz_analytic
from krylov_echo.lanczos import lanczos_iterate
from krylov_echo.linalg import DenseOperator, SymmetricTridiagonal, basis_state, exact_evolve_dense
from krylov_echo.models import IsingOperator, IsingParams, goe_sample, ising_operator, random_state
from krylov_echo.propagator import true_infidelity
from krylov_echo.stepper import (
    BISECT_RTOL,
    BudgetUnreachableError,
    _max_step,
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
        values = np.array([estimate_toeplitz_analytic(basis, t) for t in ts])
        crossing = ts[int(np.argmax(values > budget))]
        assert dt < crossing
        assert abs(dt - crossing) <= 3e-3 * crossing
        assert estimate_toeplitz_analytic(basis, dt) <= budget

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

    @pytest.mark.parametrize("t_cap", [np.nan, np.inf])
    def test_non_finite_t_cap_rejected(self, t_cap):
        basis = homogeneous_basis(5)
        with pytest.raises(ValueError, match="finite"):
            max_step_for_tolerance(basis, 1e-8, "toeplitz_analytic", t_cap=t_cap)


class SyntheticEps:
    """``eps(t)``: 1 where ``over(t)`` holds, else 0; records each call's times."""

    def __init__(self, over):
        self.over = over
        self.calls = []

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        self.calls.append(t)
        return np.where(self.over(t), 1.0, 0.0)


def half(dt):
    return 0.5


class TestMaxStepSearch:
    # The doubling grid brackets the crossings below between 0.262144 and
    # 0.524288; the 32-way refinement then samples every 0.008192.

    def test_stops_at_first_crossing(self):
        # Over in [0.3, 0.35] and from 0.45 on: a bisection would follow the
        # midpoint 0.393216 up to the crossing at 0.45.
        eps = SyntheticEps(lambda t: ((0.3 <= t) & (t <= 0.35)) | (t >= 0.45))
        dt, estimate = _max_step(eps, half, 20.0)
        assert dt == pytest.approx(0.3, rel=BISECT_RTOL)
        assert dt < 0.3
        assert estimate == 0.0
        # Doubling grid and two refinements.
        assert [c.size for c in eps.calls] == [26, 31, 31]

    def test_no_crossing_returns_cap_with_its_estimate(self):
        eps = SyntheticEps(lambda t: t > 100.0)
        assert _max_step(eps, half, 20.0) == (20.0, 0.0)
        assert len(eps.calls) == 1
        assert eps.calls[0][-1] == 20.0
        # Below the minimum step the grid is the cap alone.
        assert _max_step(SyntheticEps(lambda t: t > 1.0), half, 1e-7) == (1e-7, 0.0)

    @pytest.mark.parametrize(
        "over, message",
        [(lambda t: t > 0.0, "minimum step")],
        ids=["minimum-step"],
    )
    def test_budget_unreachable_messages(self, over, message):
        with pytest.raises(BudgetUnreachableError, match=message):
            _max_step(SyntheticEps(over), half, 20.0)

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_step_is_a_point_the_estimator_evaluated(self, kind):
        # The accepted step was passed to eps, and its recorded estimate is
        # the value eps returned there, inside the step's budget.
        ham = ising_operator(IsingParams(8))
        bound = estimators.bind_estimator(kind, lanczos_iterate(ham, random_state(ham.dim, 1), 12), ham)
        calls = []

        def eps(t):
            values = bound(t)
            calls.append((np.array(t, dtype=float), np.array(values, dtype=float)))
            return values

        def budget(dt):
            return (1e-4 * dt) ** 2

        dt, estimate = _max_step(eps, budget, 10.0)
        assert 0.0 < dt < 10.0
        hits = [values[t == dt] for t, values in calls if (t == dt).any()]
        assert hits
        assert all((values == estimate).all() for values in hits)
        assert estimate <= budget(dt)


def count_estimator_calls(monkeypatch):
    """Patch every estimator the stepper binds to record one entry per call."""
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
    return calls


# The kinds whose infidelity_bound must bound the true error. The literal
# averaged coupling falls below the oracle at some times, so its sum is an
# estimate, not a bound.
BOUND_KINDS = [
    "extra_site_exact",
    "extra_site_hybrid",
    "toeplitz_analytic",
    "park_light",
    pytest.param("extra_site_averaged", marks=pytest.mark.xfail(strict=True)),
]


@pytest.fixture(scope="module")
def goe_runs():
    """The CLI's GOE D=512 seed-1 and seed-3 cases.

    Each is an operator, its start state and the exact state at t=2.
    """
    runs = []
    for seed in (1, 3):
        ham, psi = goe_sample(512, seed), random_state(512, seed + STATE_SEED_OFFSET)
        runs.append((ham, psi, exact_evolve_dense(ham, psi, 2.0)))
    return runs


@pytest.fixture(scope="module")
def ising_hz0_runs():
    """Ising n=10 with h_z=0 and the CLI's seed-2 and seed-3 start states, each with its exact state at t=20."""
    ham = ising_operator(IsingParams(10, h_z=0.0))
    states = [random_state(ham.dim, seed + STATE_SEED_OFFSET) for seed in (2, 3)]
    return ham, [(psi, exact_evolve_dense(ham, psi, 20.0)) for psi in states]


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

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_step_counts_pinned(self, kind):
        # The count sits in the body, so that a retarget keeps the test's id.
        steps = {
            "extra_site_exact": 38,
            "extra_site_averaged": 38,
            "extra_site_hybrid": 38,
            "toeplitz_analytic": 39,
            "park_light": 40,
        }[kind]
        ham = ising_operator(IsingParams(10))
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 50.0, 1e-8, 30, kind)
        assert len(report.steps) == steps

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

    def test_one_dimensional_space_needs_no_second_vector(self):
        # A basis of one vector spans a one-dimensional space: one exact step.
        ham = DenseOperator(np.array([[0.7]]))
        report = evolve_adaptive(ham, basis_state(1), 5.0, 1e-8, 1)
        assert [(step.dt, step.basis_size, step.estimated_error) for step in report.steps] == [
            (5.0, 1, 0.0)
        ]
        assert report.final_state[0] == pytest.approx(np.exp(-3.5j), abs=1e-14)

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

    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_infidelity_bound_holds_on_goe(self, goe_runs, kind):
        # Measured true/bound ratios at tol 1e-6/1e-10, seed 1 then seed 3:
        # exact 0.025/0.009 and 0.023/0.008, hybrid 0.961/0.986 and
        # 0.965/0.987, Toeplitz 0.957/0.981 and 0.961/0.983, park_light
        # 0.023/0.007 and 0.019/0.006; the averaged kind reads 1.05/1.08 and
        # 0.989/1.012.
        for ham, psi, exact in goe_runs:
            for tol in (1e-6, 1e-10):
                report = evolve_adaptive(ham, psi, 2.0, tol, 10, kind=kind)
                assert true_infidelity(report.final_state, exact) <= report.infidelity_bound

    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_infidelity_bound_holds_on_ising_without_parallel_field(self, ising_hz0_runs, kind):
        # Measured worst true/bound ratios over seeds 2-3 and tol 1e-6/1e-10:
        # exact 0.020, hybrid 0.984, Toeplitz 0.882, park_light 0.015; the
        # averaged kind reads 1.029 and 1.011 on two of the four cases.
        ham, runs = ising_hz0_runs
        for psi, exact in runs:
            for tol in (1e-6, 1e-10):
                report = evolve_adaptive(ham, psi, 20.0, tol, 10, kind=kind)
                assert true_infidelity(report.final_state, exact) <= report.infidelity_bound

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_bound_within_tol_at_every_size(self, kind):
        # Steps end at the searched crossing, so each run spends nearly all
        # of tol; the bound must still never exceed it.
        for n_spins in (6, 8):
            ham = ising_operator(IsingParams(n_spins))
            for seed in (1, 2, 3):
                psi = random_state(ham.dim, seed)
                for tol in (1e-6, 1e-8, 1e-10):
                    for n_krylov in (8, 12, 20):
                        report = evolve_adaptive(ham, psi, 10.0, tol, n_krylov, kind=kind)
                        assert report.infidelity_bound <= tol, (n_spins, seed, tol, n_krylov)

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_one_search_per_step(self, monkeypatch, kind):
        calls = count_estimator_calls(monkeypatch)
        ham = ising_operator(IsingParams(8))
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 20.0, 1e-8, 20, kind=kind)
        assert len(report.steps) >= 2
        assert len(calls) <= 40 * len(report.steps)

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_search_evaluates_arrays(self, monkeypatch, kind):
        # Doubling grid and two refinements per step, and no second
        # evaluation of the accepted step: a search that fell back to scalar
        # probes would make about 33 calls per step.
        calls = count_estimator_calls(monkeypatch)
        ham = ising_operator(IsingParams(8))
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 20.0, 1e-8, 20, kind=kind)
        assert len(report.steps) >= 2
        assert len(calls) <= 3 * len(report.steps)

    def test_extra_site_exact_applies_per_step(self, monkeypatch):
        # N applies build each step's basis and one extends it; the step
        # search and the map-back apply nothing.
        calls = []
        original = IsingOperator.apply

        def counted(self, vec, out=None):
            calls.append(1)
            return original(self, vec, out)

        monkeypatch.setattr(IsingOperator, "apply", counted)
        ham = ising_operator(IsingParams(10))
        n_krylov = 20
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 20.0, 1e-8, n_krylov)
        assert len(report.steps) >= 2
        assert len(calls) == (n_krylov + 1) * len(report.steps)

    def test_work_counts_are_pinned(self, monkeypatch):
        # Ising n=12, N=30, t=10, state seed 1. The counts belong to the
        # algorithm (the recurrence, the overlap gate, the step search), so a
        # change to the kernels under it, such as how an apply or a
        # Gram-Schmidt pass is computed, must leave them as they are.
        calls = []
        original = IsingOperator.apply

        def counted(self, vec, out=None):
            calls.append(1)
            return original(self, vec, out)

        monkeypatch.setattr(IsingOperator, "apply", counted)
        ham = ising_operator(IsingParams(12))
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 10.0, 1e-8, 30)
        assert (len(calls), len(report.steps)) == (279, 9)


class TestOneBuffer:
    """An evolution builds every basis in one buffer, whose last row carries the state."""

    def test_peak_is_one_basis_and_a_few_vectors(self):
        ham = ising_operator(IsingParams(12))
        psi = random_state(ham.dim, 5)
        n_krylov = 30
        evolve_adaptive(ham, psi, 0.05, 1e-8, n_krylov)  # pay lazy set-up outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = evolve_adaptive(ham, psi, 3.0, 1e-8, n_krylov)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(report.steps) == 3
        # N + 2 buffer rows, the apply output and the map-back's two products
        # measured 34.4 vectors; a fresh basis per step beside the carried
        # state measured 35.3.
        assert peak <= (n_krylov + 4.8) * ham.dim * 16

    def test_final_state_owns_its_memory(self):
        ham = ising_operator(IsingParams(6))
        psi = random_state(ham.dim, 5)
        kept = psi.copy()
        report = evolve_adaptive(ham, psi, 20.0, 1e-8, 12)
        assert len(report.steps) >= 2
        assert report.final_state.base is None
        assert np.array_equal(psi, kept)
