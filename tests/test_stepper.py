"""Adaptive stepping: step sizing against budgets, bookkeeping, determinism."""

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
    MIN_STEP,
    SAFETY,
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
        assert abs(dt / 0.9 - crossing) <= 3e-3 * crossing
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
        assert dt == pytest.approx(SAFETY * 0.3, rel=BISECT_RTOL)
        assert dt < SAFETY * 0.3
        assert estimate == 0.0
        # Doubling grid, two refinements, one verification.
        assert len(eps.calls) == 4
        assert [c.size for c in eps.calls[:3]] == [26, 31, 31]

    def test_verification_backs_off(self):
        # A spike at the backed-off step that no search point lands on.
        eps = SyntheticEps(
            lambda t: ((0.3 <= t) & (t <= 0.35)) | (t >= 0.45) | ((0.2695 <= t) & (t <= 0.27))
        )
        dt, estimate = _max_step(eps, half, 20.0)
        assert dt == pytest.approx(SAFETY**2 * 0.3, rel=BISECT_RTOL)
        assert estimate == 0.0
        assert len(eps.calls) == 5

    def test_no_crossing_returns_cap_with_its_estimate(self):
        eps = SyntheticEps(lambda t: t > 100.0)
        assert _max_step(eps, half, 20.0) == (20.0, 0.0)
        assert len(eps.calls) == 1
        assert eps.calls[0][-1] == 20.0
        # Below the minimum step the grid is the cap alone.
        assert _max_step(SyntheticEps(lambda t: t > 1.0), half, 1e-7) == (1e-7, 0.0)

    @pytest.mark.parametrize(
        "over, message",
        [
            (lambda t: t > 0.0, "minimum step"),
            # Under budget only at exactly MIN_STEP: the back-off reaches it.
            (lambda t: t != MIN_STEP, "no step above"),
        ],
        ids=["minimum-step", "back-off"],
    )
    def test_budget_unreachable_messages(self, over, message):
        with pytest.raises(BudgetUnreachableError, match=message):
            _max_step(SyntheticEps(over), half, 20.0)


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

    @pytest.mark.parametrize(
        "kind, steps",
        [
            ("extra_site_exact", 41),
            ("extra_site_averaged", 41),
            ("extra_site_hybrid", 41),
            ("toeplitz_analytic", 41),
            ("park_light", 43),
        ],
    )
    def test_step_counts_pinned(self, kind, steps):
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
    def test_one_search_per_step(self, monkeypatch, kind):
        calls = count_estimator_calls(monkeypatch)
        ham = ising_operator(IsingParams(8))
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 20.0, 1e-8, 20, kind=kind)
        assert len(report.steps) >= 2
        assert len(calls) <= 40 * len(report.steps)

    @pytest.mark.parametrize("kind", ESTIMATOR_NAMES)
    def test_search_evaluates_arrays(self, monkeypatch, kind):
        # Doubling grid, two refinements and one verification per step, and
        # no second evaluation of the accepted step: a search that fell back
        # to scalar probes would make about 33 calls per step.
        calls = count_estimator_calls(monkeypatch)
        ham = ising_operator(IsingParams(8))
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 20.0, 1e-8, 20, kind=kind)
        assert len(report.steps) >= 2
        assert len(calls) <= 4 * len(report.steps)

    def test_extra_site_exact_applies_per_step(self, monkeypatch):
        # N applies build each step's basis and one extends it; the step
        # search and the map-back apply nothing.
        calls = []
        original = IsingOperator.apply

        def counted(self, vec):
            calls.append(1)
            return original(self, vec)

        monkeypatch.setattr(IsingOperator, "apply", counted)
        ham = ising_operator(IsingParams(10))
        n_krylov = 20
        report = evolve_adaptive(ham, random_state(ham.dim, 1), 20.0, 1e-8, n_krylov)
        assert len(report.steps) >= 2
        assert len(calls) == (n_krylov + 1) * len(report.steps)
