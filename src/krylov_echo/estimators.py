"""Echo-based error estimators for truncated Krylov evolution.

The infidelity of an N-site Krylov approximation equals one minus a
Loschmidt echo between two chain evolutions: the full reduction and its
truncation. Replacing the full chain with one carrying a *single* extra
site captures the error through its entire build-up window at negligible
cost, and the extra site's coefficients can themselves be estimated from
the history of the recurrence, or handled in closed form when the chain is
treated as homogeneous.

Echo estimators return ``1 - |echo|^2`` of two chain end states through the
kernel of :func:`krylov_echo.propagator.true_infidelity`, resolving ~1e-30.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .lanczos import KrylovBasis, extend_one
from .linalg import (
    DEFAULT_ORACLE_CAP,
    LinearOperator,
    SymmetricTridiagonal,
    _dense_oracle,
    basis_state,
    expi_tridiagonal_apply,
)
from .propagator import _infidelity, krylov_evolve
from .toeplitz import toeplitz_end_state

__all__ = [
    "AveragedCoefficients",
    "BoundEstimator",
    "ESTIMATOR_NAMES",
    "ErrorEstimate",
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

ORACLE = "oracle"
EXTRA_SITE_EXACT = "extra_site_exact"
EXTRA_SITE_AVERAGED = "extra_site_averaged"
TOEPLITZ_ANALYTIC = "toeplitz_analytic"
PARK_LIGHT = "park_light"

# Names accepted by bind_estimator and the CLI; "extra_site_averaged" uses
# the literal history-averaged coupling, "extra_site_hybrid" the exactly
# known residual coupling.
ESTIMATOR_NAMES = (
    EXTRA_SITE_EXACT,
    EXTRA_SITE_AVERAGED,
    "extra_site_hybrid",
    TOEPLITZ_ANALYTIC,
    PARK_LIGHT,
)


@dataclass(frozen=True)
class ErrorEstimate:
    """A time-stamped infidelity estimate produced by one estimator kind."""

    value: float
    time: float
    kind: str


@dataclass(frozen=True)
class AveragedCoefficients:
    """History averages of the chain coefficients (energy units)."""

    alpha_bar: float
    beta_bar: float


@dataclass(frozen=True)
class BoundEstimator:
    """``eps(t)`` of one estimator kind on one basis, and the basis a step advances in.

    For ``extra_site_exact`` that is the one-site extension: already paid
    for, and covered by the recorded truncation estimate.
    """

    evaluate: Callable[[float], float]
    basis: KrylovBasis

    def __call__(self, t: float) -> float:
        return self.evaluate(t)


def _chain_state(tri: SymmetricTridiagonal, t: float) -> np.ndarray:
    return expi_tridiagonal_apply(tri, t, basis_state(tri.n))


def echo_general(
    tri_a: SymmetricTridiagonal, tri_b: SymmetricTridiagonal, t: float
) -> complex:
    """Echo amplitude ``<0| exp(+i A t) exp(-i B t) |0>`` between two chains.

    Both chains are implicitly zero-padded to the common size; because the
    padding carries no onsite energy and no coupling, each evolution stays
    inside its own chain and the echo reduces to an inner product of the two
    propagated end states. Cost is O(size^2) per call once the tridiagonal
    eigendecompositions are cached.
    """
    state_a = _chain_state(tri_a, t)
    state_b = _chain_state(tri_b, t)
    k = min(state_a.size, state_b.size)
    return complex(np.vdot(state_a[:k], state_b[:k]))


def _coupling_history(basis: KrylovBasis) -> np.ndarray:
    """Hoppings beta_1..beta_N, the last of which came free with the residual."""
    betas = basis.tridiag.offdiag
    if basis.residual_beta > 0.0:
        betas = np.append(betas, basis.residual_beta)
    return betas


def averaged_coefficients(basis: KrylovBasis) -> AveragedCoefficients:
    """Arithmetic means of the recurrence coefficients.

    The hopping average includes the residual coupling when the recurrence
    produced one: for a size-N basis that is exactly the set beta_1..beta_N,
    of which beta_N came for free with the final residual.
    """
    betas = _coupling_history(basis)
    beta_bar = float(betas.mean()) if betas.size else 0.0
    return AveragedCoefficients(float(basis.tridiag.diag.mean()), beta_bar)


def _require_history(basis: KrylovBasis) -> None:
    if basis.size < 2:
        raise ValueError("estimator needs a basis of size >= 2 (no history to average)")


def estimate_extra_site_exact(extended: KrylovBasis, t: float) -> ErrorEstimate:
    """Error estimate from one exactly known extra chain site.

    ``extended`` must be the (N+1)-site basis produced by
    :func:`krylov_echo.lanczos.extend_one`; the estimate compares the N-site
    truncation against it. A breakdown basis spans an invariant subspace, so
    its evolution is exact and the estimate is exactly zero.
    """
    if extended.breakdown:
        return ErrorEstimate(0.0, float(t), EXTRA_SITE_EXACT)
    _require_history(extended)
    full = extended.tridiag
    value = _infidelity(_chain_state(full.prefix(full.n - 1), t), _chain_state(full, t))
    return ErrorEstimate(value, float(t), EXTRA_SITE_EXACT)


def estimate_extra_site_averaged(
    basis: KrylovBasis, t: float, mode: str = "literal"
) -> ErrorEstimate:
    """Extra-site estimate with the unknown site coefficients averaged away.

    literal mode appends a site with onsite alpha_bar and coupling beta_bar,
    costing no operator applications at all; hybrid mode keeps the averaged
    onsite but uses the exactly known residual coupling, which is also free
    after a size-N run.
    """
    _require_history(basis)
    if mode not in ("literal", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}; expected 'literal' or 'hybrid'")
    avg = averaged_coefficients(basis)
    coupling = avg.beta_bar if mode == "literal" else basis.residual_beta
    tri = basis.tridiag
    reference = tri.append_site(avg.alpha_bar, coupling)
    value = _infidelity(_chain_state(tri, t), _chain_state(reference, t))
    kind = EXTRA_SITE_AVERAGED if mode == "literal" else "extra_site_hybrid"
    return ErrorEstimate(value, float(t), kind)


def estimate_toeplitz_analytic(basis: KrylovBasis, t: float) -> ErrorEstimate:
    """Closed-form estimate treating the chain as homogeneous.

    Compares the analytic end states of homogeneous chains of sizes N and
    N+1 with the history-averaged coefficients; no propagation is performed.
    """
    _require_history(basis)
    avg = averaged_coefficients(basis)
    a = toeplitz_end_state(basis.size, avg.alpha_bar, avg.beta_bar, t)
    b = toeplitz_end_state(basis.size + 1, avg.alpha_bar, avg.beta_bar, t)
    return ErrorEstimate(_infidelity(a, b), float(t), TOEPLITZ_ANALYTIC)


def estimate_park_light(basis: KrylovBasis, t: float) -> ErrorEstimate:
    """End-of-chain population ``|<e_N| exp(-i T t) |e_1>|^2``.

    The classic comparison baseline: the error is taken as the population
    that reached the truncation end of the chain.
    """
    value = abs(_chain_state(basis.tridiag, t)[-1]) ** 2
    return ErrorEstimate(min(float(value), 1.0), float(t), PARK_LIGHT)


def extra_site_band(basis: KrylovBasis, t: float) -> tuple[float, float]:
    """Envelope of extra-site estimates over extreme history coefficients.

    Runs the averaged-style estimate with all four (min/max onsite) x
    (min/max coupling) combinations and returns (low, high).
    """
    _require_history(basis)
    tri = basis.tridiag
    alphas = tri.diag
    betas = _coupling_history(basis)
    truncated = _chain_state(tri, t)
    values = []
    for onsite, coupling in product(
        (float(alphas.min()), float(alphas.max())),
        (float(betas.min()), float(betas.max())),
    ):
        reference = tri.append_site(onsite, coupling)
        values.append(_infidelity(truncated, _chain_state(reference, t)))
    return min(values), max(values)


def oracle_infidelities(
    basis: KrylovBasis,
    hamiltonian: LinearOperator,
    ts,
    *,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """True infidelity of the Krylov evolution at each of ``ts`` (verification only).

    The dense oracle forms the exact states a block of times at a time;
    each is compared with the Krylov state through the infidelity kernel of
    :func:`krylov_echo.propagator.true_infidelity`. ``ts`` must be a 1-D
    array of finite times.
    """
    blocks = _dense_oracle(hamiltonian, basis.vectors[0], ts, cap=cap)
    ts = np.asarray(ts, dtype=float)
    values = np.empty(ts.size)
    for start, exact in blocks:
        for j, state in enumerate(exact, start):
            approx = krylov_evolve(basis, ts[j]) / basis.source_norm
            values[j] = _infidelity(approx, state)
    return values


def estimate_oracle(
    basis: KrylovBasis,
    hamiltonian: LinearOperator,
    t: float,
    *,
    cap: int = DEFAULT_ORACLE_CAP,
) -> ErrorEstimate:
    """True infidelity against the dense evolution oracle at one time (verification only)."""
    value = float(oracle_infidelities(basis, hamiltonian, [t], cap=cap)[0])
    return ErrorEstimate(value, float(t), ORACLE)


def bind_estimator(
    name: str, basis: KrylovBasis, hamiltonian: LinearOperator | None = None
) -> BoundEstimator:
    """Bind an estimator name to a basis, returning ``eps(t) -> float``.

    For ``extra_site_exact`` the basis is extended once up front (one
    operator application), so the returned estimator is cheap for time
    sweeps and carries the extension as its ``basis``. A breakdown basis
    yields the exactly-zero estimator for every kind and keeps the input
    basis: its evolution is exact.
    """
    if name not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    if basis.breakdown:
        return BoundEstimator(lambda t: 0.0, basis)
    if name == EXTRA_SITE_EXACT:
        if hamiltonian is None:
            raise ValueError("extra_site_exact needs the Hamiltonian to extend the basis")
        extended = extend_one(basis, hamiltonian)
        return BoundEstimator(lambda t: estimate_extra_site_exact(extended, t).value, extended)
    if name == EXTRA_SITE_AVERAGED:
        evaluate = lambda t: estimate_extra_site_averaged(basis, t, mode="literal").value
    elif name == "extra_site_hybrid":
        evaluate = lambda t: estimate_extra_site_averaged(basis, t, mode="hybrid").value
    elif name == TOEPLITZ_ANALYTIC:
        evaluate = lambda t: estimate_toeplitz_analytic(basis, t).value
    else:
        evaluate = lambda t: estimate_park_light(basis, t).value
    return BoundEstimator(evaluate, basis)
