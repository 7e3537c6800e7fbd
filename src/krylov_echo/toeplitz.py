"""Closed forms for homogeneous (Toeplitz) tridiagonal chains.

A chain with constant onsite energy ``alpha`` and hopping ``beta`` has
sine-wave eigenvectors and a cosine-band spectrum, so end states and echoes
between two such chains can be evaluated without any eigensolve.
Two consequences are used as exact laws: ``alpha`` never affects an echo
(its phase cancels between forward and backward evolution), and ``beta``
only rescales time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import MAX_DENSE_DIM, TridiagonalEigen, _over_chains, _overlaps

__all__ = ["toeplitz_echo"]


# Four sizes serve the CLI: the toeplitz sweep's (n, n+1) and the
# toeplitz_analytic estimator's (N, N+1). Each entry is an n x n array.
@lru_cache(maxsize=4)
def _sine_modes(n_sites: int) -> np.ndarray:
    # sqrt(2/(N+1)) sin(n k pi / (N+1)) with 1-based site rows n and mode columns k.
    idx = np.arange(1, n_sites + 1)
    return np.sqrt(2.0 / (n_sites + 1)) * np.sin(np.outer(idx, idx) * (np.pi / (n_sites + 1)))


def _toeplitz_eigen(n_sites: int, alpha: float, beta: float) -> TridiagonalEigen:
    """Closed-form eigenpairs: the cosine band, in mode order, and the sine modes."""
    k = np.arange(1, n_sites + 1)
    return TridiagonalEigen(alpha + 2.0 * beta * np.cos(k * np.pi / (n_sites + 1)), _sine_modes(n_sites))


def toeplitz_echo(n_sites: int, n_prime: int, alpha: float, beta: float, t):
    """Echo amplitude ``<0| exp(-i t T_{N'}) exp(+i t T_N) |0>``.

    Evaluated as ``sum_n S^N_{n,1}(t) S^{N'}_{1,n}(-t)``, with
    ``S^N(t) = exp(+i T_N t)``, over the shared sites, entirely from the
    closed-form eigenpairs. ``alpha`` and ``beta`` must be finite, and each
    chain size within ``MAX_DENSE_DIM``: its sine modes form a dense matrix.
    """
    if n_sites < 1 or n_prime < 1:
        raise ValueError("chain sizes must be >= 1")
    if max(n_sites, n_prime) > MAX_DENSE_DIM:
        raise ValueError(f"chain sizes {n_sites}, {n_prime} exceed cap {MAX_DENSE_DIM}")
    if not np.isfinite([alpha, beta]).all():
        raise ValueError(f"alpha={alpha} and beta={beta} must be finite")
    chains = (_toeplitz_eigen(n_sites, alpha, beta), _toeplitz_eigen(n_prime, alpha, beta))
    return _over_chains(_overlaps, t, *chains)

