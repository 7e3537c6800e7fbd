"""Adaptive evolution driver: restarted Krylov steps sized by cheap estimators.

Long evolutions are followed as a sequence of patches: build a basis, take
the longest step the estimator allows (at most three array calls of
``eps``), map back, restart. Step errors can add coherently, so the budget is spent in
amplitude: each step takes the largest ``dt`` with ``eps(dt) <= (r dt)^2``,
``r = (sqrt(tol) - sum sqrt(eps_k)) / t_remaining``. ``r`` never decreases,
so the reported ``infidelity_bound = (sum sqrt(eps_k))^2`` stays within ``tol``.
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
# Ways each refinement call splits the bracket: five bisection halvings.
_SPLITS = 32


class BudgetUnreachableError(ValueError):
    """The estimator exceeds its budget already at the minimum step."""


@dataclass
class StepRecord:
    """One accepted patch of the evolution. Wall time is metadata only."""

    t_start: float
    dt: float
    basis_size: int
    estimated_error: float
    wall_time: float = field(compare=False, default=0.0)


@dataclass(eq=False)
class EvolutionReport:
    """Final state, step log, ``sum eps_k`` and the bound ``(sum sqrt(eps_k))^2``."""

    final_state: np.ndarray
    steps: list[StepRecord]
    total_estimated_error: float
    infidelity_bound: float


def _max_step(eps: Callable, budget: Callable, t_cap: float) -> tuple[float, float]:
    """Largest step with ``eps(dt) <= budget(dt)``, and its ``eps``, in at most three array calls.

    One call on the doubling grid ``MIN_STEP 2^k`` (capped at ``t_cap``)
    brackets the first crossing; each call on a ``_SPLITS``-way split at the
    bisection midpoints narrows it, and two reach ``BISECT_RTOL``. The step
    is the bracket's lower end, a point some call found within budget, so
    its recorded ``eps`` is the value that call returned there.
    """
    grid = [min(MIN_STEP, t_cap)]
    while grid[-1] < t_cap:
        grid.append(min(2.0 * grid[-1], t_cap))
    grid = np.array(grid)
    values = eps(grid)
    over = values > budget(grid)
    if over[0]:
        raise BudgetUnreachableError(
            f"estimated error at the minimum step {MIN_STEP} already exceeds its budget;"
            " increase the basis size or the tolerance"
        )
    if not over.any():
        return t_cap, float(values[-1])
    first = over.argmax()
    low, high, estimate = grid[first - 1], grid[first], values[first - 1]
    while high - low > BISECT_RTOL * low:
        edges = np.linspace(low, high, _SPLITS + 1)
        values = np.append(estimate, eps(edges[1:-1]))
        first = np.append(values[1:] > budget(edges[1:-1]), True).argmax()
        low, high, estimate = edges[first], edges[first + 1], values[first]
    return float(low), float(estimate)


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
    ``t_cap`` must be positive and finite.
    """
    if not 0.0 < budget:
        raise ValueError("budget must be positive")
    if not 0.0 < t_cap < np.inf:
        raise ValueError("t_cap must be positive and finite")
    if budget >= 1.0:
        return t_cap
    return _max_step(bind_estimator(kind, basis, hamiltonian), lambda dt: budget, t_cap)[0]


def evolve_adaptive(
    hamiltonian: LinearOperator,
    psi: np.ndarray,
    t_final: float,
    tol: float,
    n_krylov: int,
    kind: str = EXTRA_SITE_EXACT,
) -> EvolutionReport:
    """Evolve ``psi`` to ``t_final`` with restarted Krylov steps.

    Each step rebuilds the basis from the current state, in one buffer
    allocated per evolution that also carries the state, sizes the step so
    its error amplitude fits the unspent amplitude spread over the remaining
    time, advances, and renormalizes. A breakdown basis means the subspace
    is invariant: its estimate is exactly zero, so the remaining time is
    covered in one exact step. ``n_krylov`` must be at least 2, the smallest
    basis with an error estimate, unless it spans the whole space (D = 1).
    Deterministic for fixed inputs.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if not 0.0 < t_final < np.inf:
        raise ValueError("t_final must be positive and finite")
    if n_krylov < min(2, hamiltonian.dim):
        raise ValueError(f"n_krylov must be >= 2 for an error estimate, got {n_krylov}")
    if kind not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator {kind!r}; expected one of {ESTIMATOR_NAMES}")

    state = np.asarray(psi, dtype=np.complex128)
    n_krylov = min(n_krylov, hamiltonian.dim)
    # Every step builds its basis in this one buffer. Its last row never holds
    # a vector the step advances in, so once the estimate is taken it is free
    # to carry the state into the next step's build.
    buffer = np.empty((min(n_krylov + 2, hamiltonian.dim + 1), hamiltonian.dim), np.complex128)
    steps: list[StepRecord] = []
    now = 0.0
    spent_amplitude = 0.0
    # Guard against a spurious 1-ulp residual step after now += (t_final - now).
    while t_final - now > 1e-12 * t_final:
        tick = time.perf_counter()
        t_remaining = t_final - now
        eval_fn = bind_estimator(
            kind, lanczos_iterate(hamiltonian, state, n_krylov, buffer=buffer), hamiltonian
        )
        rate = (math.sqrt(tol) - spent_amplitude) / t_remaining
        dt, estimate = _max_step(eval_fn, lambda step: (rate * step) ** 2, t_remaining)
        state = krylov_evolve(eval_fn.basis, dt)
        state = np.divide(state, np.linalg.norm(state), out=buffer[-1])
        spent_amplitude += math.sqrt(estimate)
        steps.append(
            StepRecord(
                t_start=now,
                dt=dt,
                basis_size=eval_fn.basis.size,
                estimated_error=estimate,
                wall_time=time.perf_counter() - tick,
            )
        )
        now += dt
        del eval_fn  # free this step's tridiagonal eigensolves before the next basis is built

    total = sum(step.estimated_error for step in steps)
    return EvolutionReport(
        final_state=state.copy(),
        steps=steps,
        total_estimated_error=total,
        infidelity_bound=spent_amplitude**2,
    )
