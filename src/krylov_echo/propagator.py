"""Krylov-approximate evolution and diagnostics in the Lanczos chain picture."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lanczos import KrylovBasis
from .linalg import basis_state, expi_tridiagonal_apply

__all__ = [
    "WavepacketProfile",
    "krylov_evolve",
    "project_profile",
    "reduced_coefficients",
    "true_infidelity",
]


@dataclass(frozen=True)
class WavepacketProfile:
    """Populations |<v_i|state>|^2 over the stored chain sites at one time."""

    site_populations: np.ndarray
    time: float


def reduced_coefficients(basis: KrylovBasis, t: float) -> np.ndarray:
    """Coefficients of ``exp(-i T t) e_1`` in the Lanczos site basis.

    This is the wave packet on the virtual chain: it starts localized at
    site 0 and spreads under the onsite/hopping coefficients of the
    reduction. Squared magnitudes sum to 1.
    """
    return expi_tridiagonal_apply(basis.tridiag, t, basis_state(basis.size))


def krylov_evolve(basis: KrylovBasis, t: float) -> np.ndarray:
    """Approximate evolved state: chain evolution mapped back to full space.

    Returns a ``source_dim`` state with the norm of the original input;
    ``t = 0`` reproduces the input state.
    """
    coeffs = reduced_coefficients(basis, t)
    return basis.source_norm * (coeffs @ basis.vectors)


def project_profile(basis: KrylovBasis, state: np.ndarray, time: float = 0.0) -> WavepacketProfile:
    """Populations of ``state`` on the stored basis vectors."""
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (basis.source_dim,):
        raise ValueError(
            f"state shape {state.shape} does not match source_dim {basis.source_dim}"
        )
    amplitudes = (basis.vectors @ state.conj()).conj()
    return WavepacketProfile(np.abs(amplitudes) ** 2, float(time))


def _infidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Kernel of :func:`true_infidelity` on complex states; ``a`` may be shorter."""
    residual = b.copy()
    residual[: a.size] -= a * np.vdot(a, b[: a.size])
    return min(float(np.vdot(residual, residual).real), 1.0)


def true_infidelity(approx: np.ndarray, exact: np.ndarray) -> float:
    """Infidelity ``1 - |<approx|exact>|^2`` of two unit states, in [0, 1].

    Computed as the residual ``||exact - approx<approx|exact>||^2``, whose
    floor is ~1e-30 instead of the ~1e-16 of the subtraction from 1. The echo
    estimators share the kernel, the shorter chain end state zero-padded.
    Raises ``ValueError`` when either norm differs from 1 by more than 1e-8.
    """
    approx = np.asarray(approx, dtype=np.complex128)
    exact = np.asarray(exact, dtype=np.complex128)
    if approx.shape != exact.shape:
        raise ValueError(f"dimension mismatch: {approx.shape} vs {exact.shape}")
    for norm in (np.linalg.norm(approx), np.linalg.norm(exact)):
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"true_infidelity needs unit states, got norm {norm:.17g}")
    return _infidelity(approx, exact)
