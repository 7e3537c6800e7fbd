"""Echo-based error estimators for truncated Krylov evolution.

The infidelity of an N-site Krylov approximation equals one minus a
Loschmidt echo between two chain evolutions: the full reduction and its
truncation. Replacing the full chain with one carrying a *single* extra
site captures the error through its entire build-up window at negligible
cost, and the extra site's coefficients can themselves be estimated from
the history of the recurrence, or handled in closed form when the chain is
treated as homogeneous.

Every echo estimator picks a truncated and a reference chain and returns
``1 - |echo|^2`` of their end states through the kernel of
:func:`krylov_echo.propagator.true_infidelity`. Functions of time take a
scalar ``t`` or a 1-D array and return a scalar or one value per time; the
two agree to about ``2 sqrt(eps) u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .lanczos import KrylovBasis, extend_one
from .linalg import (
    LinearOperator,
    SymmetricTridiagonal,
    _ChebyshevPropagator,
    _over_chains,
    _over_times,
    _overlaps,
    _per_time,
    _times,
)
from .propagator import _infidelity, krylov_evolve
from .toeplitz import _toeplitz_eigen

__all__ = [
    "BoundEstimator",
    "ESTIMATOR_NAMES",
    "averaged_coefficients",
    "bind_estimator",
    "echo_general",
    "estimate_extra_site_averaged",
    "estimate_extra_site_exact",
    "estimate_oracle",
    "estimate_park_light",
    "estimate_toeplitz_analytic",
    "extra_site_band",
    "oracle_infidelities",
]

EXTRA_SITE_EXACT = "extra_site_exact"


@dataclass(frozen=True)
class BoundEstimator:
    """``eps(t)`` of one estimator kind on one basis, and the basis a step advances in.

    ``t`` is a scalar or a 1-D array. For ``extra_site_exact`` the basis is
    the one-site extension: already paid for, and covered by the estimate.
    """

    evaluate: Callable
    basis: KrylovBasis

    def __call__(self, t):
        return self.evaluate(t)


def _zero(t):
    """The exactly-zero estimate of a breakdown basis, per time of ``t``."""
    return _per_time(t, np.zeros(_times(t).size))


def echo_general(tri_a: SymmetricTridiagonal, tri_b: SymmetricTridiagonal, t):
    """Echo amplitude ``<0| exp(+i A t) exp(-i B t) |0>`` between two chains.

    Both chains are implicitly zero-padded to the common size; because the
    padding carries no onsite energy and no coupling, each evolution stays
    inside its own chain and the echo reduces to the overlap of the two
    propagated end states, O(size^2) per time once the eigendecompositions
    are cached.
    """
    return _over_chains(_overlaps, t, tri_a.eigen(), tri_b.eigen())


def _coupling_history(basis: KrylovBasis) -> np.ndarray:
    """Hoppings beta_1..beta_N, the last of which came free with the residual."""
    betas = basis.tridiag.offdiag
    if basis.residual_beta > 0.0:
        betas = np.append(betas, basis.residual_beta)
    return betas


def averaged_coefficients(basis: KrylovBasis) -> tuple[float, float]:
    """Arithmetic means ``(alpha_bar, beta_bar)`` of the recurrence coefficients.

    The hopping average includes the residual coupling when the recurrence
    produced one: for a size-N basis that is exactly the set beta_1..beta_N,
    of which beta_N came for free with the final residual.
    """
    betas = _coupling_history(basis)
    beta_bar = float(betas.mean()) if betas.size else 0.0
    return float(basis.tridiag.diag.mean()), beta_bar


def _require_history(basis: KrylovBasis) -> None:
    if basis.size < 2:
        raise ValueError("estimator needs a basis of size >= 2 (no history to average)")


def estimate_extra_site_exact(extended: KrylovBasis, t):
    """Error estimate from one exactly known extra chain site.

    ``extended`` must be the (N+1)-site basis produced by
    :func:`krylov_echo.lanczos.extend_one`; the estimate compares the N-site
    truncation against it. When the extension itself broke down it spans an
    invariant subspace, so that comparison is the exact N-site error.
    """
    _require_history(extended)
    full = extended.tridiag
    return _over_chains(_infidelity, t, full.prefix(full.n - 1).eigen(), full.eigen())


def estimate_extra_site_averaged(basis: KrylovBasis, t, mode: str = "literal"):
    """Extra-site estimate with the unknown site coefficients averaged away.

    literal mode appends a site with onsite alpha_bar and coupling beta_bar,
    costing no operator applications at all; hybrid mode keeps the averaged
    onsite but uses the exactly known residual coupling, which is also free
    after a size-N run.
    """
    _require_history(basis)
    if mode not in ("literal", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}; expected 'literal' or 'hybrid'")
    alpha_bar, beta_bar = averaged_coefficients(basis)
    coupling = beta_bar if mode == "literal" else basis.residual_beta
    tri = basis.tridiag
    reference = tri.append_site(alpha_bar, coupling)
    return _over_chains(_infidelity, t, tri.eigen(), reference.eigen())


def estimate_toeplitz_analytic(basis: KrylovBasis, t):
    """Closed-form estimate treating the chain as homogeneous.

    Compares the analytic end states of homogeneous chains of sizes N and
    N+1 with the history-averaged coefficients; no eigensolve is performed.
    """
    _require_history(basis)
    alpha_bar, beta_bar = averaged_coefficients(basis)
    truncated = _toeplitz_eigen(basis.size, alpha_bar, beta_bar)
    reference = _toeplitz_eigen(basis.size + 1, alpha_bar, beta_bar)
    return _over_chains(_infidelity, t, truncated, reference)


def estimate_park_light(basis: KrylovBasis, t):
    """End-of-chain population ``|<e_N| exp(-i T t) |e_1>|^2``.

    The classic comparison baseline: the error is taken as the population
    that reached the truncation end of the chain.
    """
    def last_population(states):
        return np.minimum(np.abs(states[:, -1]) ** 2, 1.0)

    return _over_chains(last_population, t, basis.tridiag.eigen())


def extra_site_band(basis: KrylovBasis, t) -> tuple:
    """Envelope of extra-site estimates over extreme history coefficients.

    Runs the averaged-style estimate with all four (min/max onsite) x
    (min/max coupling) combinations and returns (low, high). A breakdown
    basis evolves exactly, so both are exact zeros, as every estimator reads.
    """
    if basis.breakdown:
        return _zero(t), _zero(t)
    _require_history(basis)
    tri = basis.tridiag
    extremes = [(float(c.min()), float(c.max())) for c in (tri.diag, _coupling_history(basis))]
    references = [tri.append_site(a, b).eigen() for a, b in product(*extremes)]

    def infidelities(truncated, *states):
        return np.stack([_infidelity(truncated, state) for state in states], axis=-1)

    values = _over_chains(infidelities, t, tri.eigen(), *references)
    return values.min(axis=-1), values.max(axis=-1)


def _exact_propagator(basis: KrylovBasis, hamiltonian: LinearOperator) -> _ChebyshevPropagator:
    """Chebyshev propagator of the basis's start state on the interval the basis holds.

    The interval runs between the extreme Ritz values; a one-vector basis
    has one, so its interval is that value plus or minus the residual
    coupling, the spread of the start state's spectrum about it (0 at
    breakdown, where the start state is an eigenvector).
    """
    ritz = basis.tridiag.eigen().eigenvalues
    spread = basis.residual_beta if basis.size == 1 else 0.0
    return _ChebyshevPropagator(hamiltonian, basis.vectors[0], ritz[0] - spread, ritz[-1] + spread)


def oracle_infidelities(basis: KrylovBasis, hamiltonian: LinearOperator, ts) -> np.ndarray:
    """True infidelity of the Krylov evolution at each of ``ts`` (verification only).

    One time block at a time, the Chebyshev propagator of
    :mod:`krylov_echo.linalg` forms the exact states, to within its stated
    bound ``linalg._chebyshev_error``, on the interval of the basis's Ritz
    values, and :func:`krylov_evolve` the Krylov states as one product; each
    pair goes through the infidelity kernel of
    :func:`krylov_echo.propagator.true_infidelity`. No dense matrix is formed
    or solved, so no dimension is refused. ``ts``, a scalar or a 1-D array
    of finite times, is checked before any work.
    """
    exact = _exact_propagator(basis, hamiltonian)

    def block(times):
        states = exact(times)
        krylov = krylov_evolve(basis, times)
        krylov /= basis.source_norm
        return _infidelity(krylov, states)

    return _over_times(block, ts, hamiltonian.dim)


def estimate_oracle(basis: KrylovBasis, hamiltonian: LinearOperator, t: float) -> float:
    """True infidelity at one time: :func:`oracle_infidelities` at a scalar ``t`` (verification only)."""
    return float(oracle_infidelities(basis, hamiltonian, t))


# Names accepted by bind_estimator and the CLI, each with its eps(basis, t), looked up
# when called; "extra_site_averaged" uses the literal history-averaged coupling,
# "extra_site_hybrid" the exactly known residual coupling.
_EVALUATORS = {
    EXTRA_SITE_EXACT: lambda basis, t: estimate_extra_site_exact(basis, t),
    "extra_site_averaged": lambda basis, t: estimate_extra_site_averaged(basis, t, mode="literal"),
    "extra_site_hybrid": lambda basis, t: estimate_extra_site_averaged(basis, t, mode="hybrid"),
    "toeplitz_analytic": lambda basis, t: estimate_toeplitz_analytic(basis, t),
    "park_light": lambda basis, t: estimate_park_light(basis, t),
}
ESTIMATOR_NAMES = tuple(_EVALUATORS)


def bind_estimator(
    name: str, basis: KrylovBasis, hamiltonian: LinearOperator | None = None
) -> BoundEstimator:
    """Bind an estimator name to a basis, returning ``eps(t)``.

    For ``extra_site_exact`` the basis is extended once up front (one
    operator application), so the returned estimator is cheap for time
    sweeps and carries the extension as its ``basis``. A breakdown basis
    yields the exactly-zero estimator for every kind and keeps the input
    basis: its evolution is exact.
    """
    if name not in _EVALUATORS:
        raise ValueError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    if basis.breakdown:
        return BoundEstimator(_zero, basis)
    if name == EXTRA_SITE_EXACT:
        if hamiltonian is None:
            raise ValueError("extra_site_exact needs the Hamiltonian to extend the basis")
        basis = extend_one(basis, hamiltonian)
    evaluate = _EVALUATORS[name]
    return BoundEstimator(lambda t: evaluate(basis, t), basis)
