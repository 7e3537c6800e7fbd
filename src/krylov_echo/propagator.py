"""Krylov-approximate evolution and diagnostics in the Lanczos chain picture."""

from __future__ import annotations

import numpy as np

from .lanczos import KrylovBasis
from .linalg import _end_states, _per_time

__all__ = [
    "krylov_evolve",
    "project_profile",
    "reduced_coefficients",
    "true_infidelity",
]


def reduced_coefficients(basis: KrylovBasis, t) -> np.ndarray:
    """Coefficients of ``exp(-i T t) e_1`` in the Lanczos site basis.

    This is the wave packet on the virtual chain: it starts localized at
    site 0 and spreads under the onsite/hopping coefficients of the
    reduction. Squared magnitudes sum to 1; one row per time of an array ``t``.
    """
    return _per_time(t, _end_states(basis.tridiag.eigen(), t))


def krylov_evolve(basis: KrylovBasis, t) -> np.ndarray:
    """Approximate evolved state: chain evolution mapped back to full space.

    Returns a ``source_dim`` state with the norm of the original input (one
    row per time of an array ``t``); ``t = 0`` reproduces the input state.
    """
    # Scaling the coefficients, not the state, allocates one state per time, not two.
    return (basis.source_norm * reduced_coefficients(basis, t)) @ basis.vectors


def project_profile(basis: KrylovBasis, state: np.ndarray) -> np.ndarray:
    """Populations ``|<v_i|state>|^2`` on the stored basis vectors; one row per row of a ``(T, D)`` block."""
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim not in (1, 2) or state.shape[-1] != basis.source_dim:
        raise ValueError(
            f"state shape {state.shape} does not match source_dim {basis.source_dim}"
        )
    return np.abs(state.conj() @ basis.vectors.T) ** 2


def _infidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of :func:`true_infidelity` per row of two blocks of states; ``a`` may be shorter."""
    k = a.shape[-1]
    residual = a * -np.vecdot(a, b[..., :k])[..., None]
    residual += b[..., :k]
    value = np.vecdot(residual, residual).real + np.vecdot(b[..., k:], b[..., k:]).real
    return np.minimum(value, 1.0)


def true_infidelity(approx: np.ndarray, exact: np.ndarray) -> float:
    """Infidelity ``1 - |<approx|exact>|^2`` of two unit states, in [0, 1].

    Computed as the residual ``||exact - approx<approx|exact>||^2``, whose
    floor is ~1e-30 instead of the ~1e-16 of the subtraction from 1 for
    states computed the same way (states from different products, such as a
    block of times and one time, agree to about ``2 sqrt(eps) u``). The echo
    estimators and the oracle share the kernel, shorter states zero-padded.
    Raises ``ValueError`` when either norm differs from 1 by more than 1e-8.
    """
    approx = np.asarray(approx, dtype=np.complex128)
    exact = np.asarray(exact, dtype=np.complex128)
    if approx.shape != exact.shape:
        raise ValueError(f"dimension mismatch: {approx.shape} vs {exact.shape}")
    for norm in (np.linalg.norm(approx), np.linalg.norm(exact)):
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"true_infidelity needs unit states, got norm {norm:.17g}")
    return float(_infidelity(approx, exact))
