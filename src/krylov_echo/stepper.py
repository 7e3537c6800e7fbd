"""Adaptive evolution driver: restarted Krylov steps sized by cheap estimators.

Long evolutions are followed as a sequence of patches: build a basis, step
for as long as the error estimator stays inside the step's slice of the
tolerance budget, map back, restart. Per-step estimates are summed as a
conservative bookkeeping proxy for the total infidelity; each step's budget
is a time-proportional slice of the *unspent* tolerance, which makes the
total bookkeeping provably respect the requested tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .estimators import EXTRA_SITE_EXACT, ESTIMATOR_NAMES, bind_estimator
from .lanczos import KrylovBasis, lanczos_iterate
from .linalg import LinearOperator
from .propagator import krylov_evolve

__all__ = [
    "BudgetUnreachableError",
    "EvolutionReport",
    "StepRecord",
    "evolve_adaptive",
    "max_step_for_tolerance",
]

# Smallest time step the bracketing search will consider (units 1/J).
MIN_STEP = 1e-6
# Relative width at which the bisection on the first crossing stops.
BISECT_RTOL = 1e-3
# Accepted steps back off from the measured crossing by this factor.
SAFETY = 0.9


class BudgetUnreachableError(ValueError):
    """The estimator exceeds the budget already at the minimum step."""


@dataclass
class StepRecord:
    """One accepted patch of the evolution. Wall time is metadata only."""

    t_start: float
    dt: float
    basis_size: int
    estimated_error: float
    estimator_kind: str
    wall_time: float = field(compare=False, default=0.0)


@dataclass(eq=False)
class EvolutionReport:
    """Final state plus the full step log and its exact error bookkeeping."""

    final_state: np.ndarray
    steps: list[StepRecord]
    total_estimated_error: float
    config: dict


def _max_step(eval_fn: Callable[[float], float], budget: float, t_cap: float) -> float:
    """Largest step with ``eval_fn(dt) <= budget``, by doubling + bisection."""
    if eval_fn(MIN_STEP) > budget:
        raise BudgetUnreachableError(
            f"estimated error at the minimum step {MIN_STEP} already exceeds the "
            f"per-step budget {budget:.3e}; increase the basis size or the tolerance"
        )
    # Geometric expansion until the estimator first climbs above budget.
    low = MIN_STEP
    high = None
    dt = MIN_STEP
    while dt < t_cap:
        dt = min(2.0 * dt, t_cap)
        if eval_fn(dt) > budget:
            high = dt
            break
        low = dt
    if high is None:
        return t_cap
    # Bisection onto the first upward crossing inside (low, high).
    while high - low > BISECT_RTOL * low:
        mid = 0.5 * (low + high)
        if eval_fn(mid) > budget:
            high = mid
        else:
            low = mid
    # Back off, then verify: the recorded estimate must sit inside budget
    # even if the estimator is not locally monotone.
    dt = SAFETY * low
    while dt > MIN_STEP and eval_fn(dt) > budget:
        dt *= SAFETY
    if eval_fn(dt) > budget:
        raise BudgetUnreachableError(
            f"no step above {MIN_STEP} satisfies the per-step budget {budget:.3e}; "
            "increase the basis size or the tolerance"
        )
    return dt


def max_step_for_tolerance(
    basis: KrylovBasis,
    budget: float,
    kind: str = EXTRA_SITE_EXACT,
    t_cap: float = 1.0,
    hamiltonian: LinearOperator | None = None,
) -> float:
    """Largest step (up to ``t_cap``) whose estimated error stays in budget.

    ``kind`` names any estimator in ``ESTIMATOR_NAMES``; for
    ``extra_site_exact`` pass ``hamiltonian`` so the basis can be extended.
    Returns ``t_cap`` when the estimator never exceeds the budget, and
    raises :class:`BudgetUnreachableError` when even the minimum step does.
    """
    if not 0.0 < budget:
        raise ValueError("budget must be positive")
    if t_cap <= 0.0:
        raise ValueError("t_cap must be positive")
    if budget >= 1.0:
        return t_cap
    eval_fn = bind_estimator(kind, basis, hamiltonian)
    return _max_step(eval_fn, budget, t_cap)


def evolve_adaptive(
    hamiltonian: LinearOperator,
    psi: np.ndarray,
    t_final: float,
    tol: float,
    n_krylov: int,
    kind: str = EXTRA_SITE_EXACT,
) -> EvolutionReport:
    """Evolve ``psi`` to ``t_final`` with restarted Krylov steps.

    Each step rebuilds the basis from the current state, sizes the step so
    its estimated error fits a time-proportional slice of the unspent
    tolerance, advances, and renormalizes. A breakdown basis means the
    subspace is invariant: its estimate is exactly zero, so the remaining
    time is covered in one exact step. Deterministic for fixed inputs.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if not 0.0 < t_final < np.inf:
        raise ValueError("t_final must be positive and finite")
    if kind not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator {kind!r}; expected one of {ESTIMATOR_NAMES}")

    state = np.asarray(psi, dtype=np.complex128)
    n_krylov = min(n_krylov, hamiltonian.dim)
    steps: list[StepRecord] = []
    now = 0.0
    spent = 0.0
    # Guard against a spurious 1-ulp residual step after now += (t_final - now).
    while t_final - now > 1e-12 * t_final:
        tick = time.perf_counter()
        t_remaining = t_final - now
        eval_fn = bind_estimator(kind, lanczos_iterate(hamiltonian, state, n_krylov), hamiltonian)
        basis = eval_fn.basis
        tol_unspent = tol - spent
        dt_proposed = _max_step(eval_fn, tol_unspent, t_remaining)
        if dt_proposed >= t_remaining:
            dt = t_remaining
        else:
            # Quadratic (amplitude-aware) slice of the unspent budget:
            # per-step error amplitudes can add coherently across
            # restarts, so linear time-proportional slices do not keep
            # the accumulated true infidelity near the bookkeeping.
            budget = tol_unspent * (dt_proposed / t_remaining) ** 2
            dt = _max_step(eval_fn, budget, t_remaining)
        estimate = eval_fn(dt)
        state = krylov_evolve(basis, dt)
        state = state / np.linalg.norm(state)
        spent += estimate
        steps.append(
            StepRecord(
                t_start=now,
                dt=dt,
                basis_size=basis.size,
                estimated_error=estimate,
                estimator_kind=kind,
                wall_time=time.perf_counter() - tick,
            )
        )
        now += dt

    total = sum(step.estimated_error for step in steps)
    return EvolutionReport(
        final_state=state,
        steps=steps,
        total_estimated_error=total,
        config={
            "t_final": t_final,
            "tol": tol,
            "n_krylov": n_krylov,
            "estimator": kind,
        },
    )
