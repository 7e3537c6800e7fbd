"""Adaptive evolution driver: restarted Krylov steps sized by cheap estimators.

Long evolutions are followed as a sequence of patches: build a basis, take
the longest step the estimator allows, map back, restart. Step errors can
add coherently, so the budget is spent in amplitude: each step takes the
largest ``dt`` with ``eps(dt) <= (r dt)^2``, ``r = (sqrt(tol) - sum
sqrt(eps_k)) / t_remaining``. ``r`` never decreases, so the reported
``infidelity_bound = (sum sqrt(eps_k))^2`` stays within ``tol``.
"""

from __future__ import annotations

import math
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
    """The estimator exceeds its budget already at the minimum step."""


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
    """Final state, step log, ``sum eps_k`` and the bound ``(sum sqrt(eps_k))^2``."""

    final_state: np.ndarray
    steps: list[StepRecord]
    total_estimated_error: float
    infidelity_bound: float
    config: dict


def _max_step(exceeds: Callable[[float], bool], t_cap: float) -> float:
    """Largest step with ``not exceeds(dt)``, by doubling + bisection."""
    if exceeds(MIN_STEP):
        raise BudgetUnreachableError(
            f"estimated error at the minimum step {MIN_STEP} already exceeds its "
            "budget; increase the basis size or the tolerance"
        )
    # Geometric expansion until the estimator first climbs above budget.
    low = high = MIN_STEP
    while high < t_cap:
        high = min(2.0 * low, t_cap)
        if exceeds(high):
            break
        low = high
    else:
        return t_cap
    # Bisection onto the first upward crossing inside (low, high).
    while high - low > BISECT_RTOL * low:
        mid = 0.5 * (low + high)
        if exceeds(mid):
            high = mid
        else:
            low = mid
    # Back off, then verify: the recorded estimate must sit inside budget
    # even if the estimator is not locally monotone.
    dt = SAFETY * low
    while exceeds(dt):
        if dt <= MIN_STEP:
            raise BudgetUnreachableError(
                f"no step above {MIN_STEP} satisfies its budget; "
                "increase the basis size or the tolerance"
            )
        dt *= SAFETY
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
    return _max_step(lambda dt: eval_fn(dt) > budget, t_cap)


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
    its error amplitude fits the unspent amplitude spread over the remaining
    time, advances, and renormalizes. A breakdown basis means the subspace
    is invariant: its estimate is exactly zero, so the remaining time is
    covered in one exact step. Deterministic for fixed inputs.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if not 0.0 < t_final < np.inf:
        raise ValueError("t_final must be positive and finite")
    if n_krylov < 2:
        raise ValueError(f"n_krylov must be >= 2 for an error estimate, got {n_krylov}")
    if kind not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator {kind!r}; expected one of {ESTIMATOR_NAMES}")

    state = np.asarray(psi, dtype=np.complex128)
    n_krylov = min(n_krylov, hamiltonian.dim)
    steps: list[StepRecord] = []
    now = 0.0
    spent_amplitude = 0.0
    # Guard against a spurious 1-ulp residual step after now += (t_final - now).
    while t_final - now > 1e-12 * t_final:
        tick = time.perf_counter()
        t_remaining = t_final - now
        eval_fn = bind_estimator(kind, lanczos_iterate(hamiltonian, state, n_krylov), hamiltonian)
        basis = eval_fn.basis
        rate = (math.sqrt(tol) - spent_amplitude) / t_remaining
        dt = _max_step(lambda step: eval_fn(step) > (rate * step) ** 2, t_remaining)
        estimate = eval_fn(dt)
        state = krylov_evolve(basis, dt)
        state = state / np.linalg.norm(state)
        spent_amplitude += math.sqrt(estimate)
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
        infidelity_bound=spent_amplitude**2,
        config={
            "t_final": t_final,
            "tol": tol,
            "n_krylov": n_krylov,
            "estimator": kind,
        },
    )
