"""Closed forms for homogeneous (Toeplitz) tridiagonal chains.

A chain with constant onsite energy ``alpha`` and hopping ``beta`` has
sine-wave eigenvectors and a cosine-band spectrum, so transition amplitudes
and echoes between two such chains can be evaluated without any propagation.
Two consequences are used as exact laws: ``alpha`` never affects an echo
(its phase cancels between forward and backward evolution), and ``beta``
only rescales time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    TridiagonalEigen,
    _end_states,
    _over_chains,
    _overlaps,
    _per_time,
    _spectral_states,
    basis_state,
)

__all__ = [
    "ToeplitzChain",
    "rescaling_check",
    "toeplitz_echo",
    "toeplitz_end_state",
    "toeplitz_eigenvalue",
    "toeplitz_eigenvector_component",
    "toeplitz_transition",
]


@dataclass(frozen=True)
class ToeplitzChain:
    """Homogeneous tridiagonal chain with ``n_sites`` sites."""

    n_sites: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")


@lru_cache(maxsize=64)
def _sine_modes(n_sites: int) -> np.ndarray:
    # sqrt(2/(N+1)) sin(n k pi / (N+1)) with 1-based site rows n and mode columns k.
    idx = np.arange(1, n_sites + 1)
    return np.sqrt(2.0 / (n_sites + 1)) * np.sin(np.outer(idx, idx) * (np.pi / (n_sites + 1)))


def _toeplitz_eigen(n_sites: int, alpha: float, beta: float) -> TridiagonalEigen:
    """Closed-form eigenpairs: the cosine band, in mode order, and the sine modes."""
    k = np.arange(1, n_sites + 1)
    return TridiagonalEigen(alpha + 2.0 * beta * np.cos(k * np.pi / (n_sites + 1)), _sine_modes(n_sites))


def _check_site(chain: ToeplitzChain, name: str, value: int) -> None:
    if not 1 <= value <= chain.n_sites:
        raise ValueError(f"{name}={value} out of range 1..{chain.n_sites}")


def toeplitz_eigenvalue(chain: ToeplitzChain, k: int) -> float:
    """Band energy ``alpha + 2 beta cos(k pi / (N+1))`` of mode ``k``."""
    _check_site(chain, "k", k)
    return float(_toeplitz_eigen(chain.n_sites, chain.alpha, chain.beta).eigenvalues[k - 1])


def toeplitz_eigenvector_component(chain: ToeplitzChain, n: int, k: int) -> float:
    """Site amplitude ``sqrt(2/(N+1)) sin(n k pi / (N+1))`` of mode ``k``."""
    _check_site(chain, "n", n)
    _check_site(chain, "k", k)
    return float(_sine_modes(chain.n_sites)[n - 1, k - 1])


def toeplitz_transition(chain: ToeplitzChain, n: int, n_prime: int, t):
    """Transition amplitude ``S^N_{n,n'}(t)`` of ``exp(+i T t)``.

    ``(2/(N+1)) sum_k sin(n k pi/(N+1)) sin(n' k pi/(N+1)) exp(i t E_k)``,
    one amplitude per time for an array ``t``.
    """
    _check_site(chain, "n", n)
    _check_site(chain, "n_prime", n_prime)
    eig = _toeplitz_eigen(chain.n_sites, chain.alpha, chain.beta)
    modes, source = eig.eigenvectors, basis_state(chain.n_sites, n_prime - 1)
    states = _spectral_states(eig.eigenvalues, modes, modes[n_prime - 1], -np.asarray(t, float), source)
    return _per_time(t, states[:, n - 1])


def toeplitz_end_state(n_sites: int, alpha: float, beta: float, t) -> np.ndarray:
    """Chain state ``exp(-i T t)|1>`` in closed form (one per time): the column ``S^N_{n,1}(-t)``."""
    return _per_time(t, _end_states(_toeplitz_eigen(n_sites, alpha, beta), t))


def toeplitz_echo(n_sites: int, n_prime: int, alpha: float, beta: float, t):
    """Echo amplitude ``<0| exp(-i t T_{N'}) exp(+i t T_N) |0>``.

    Evaluated as ``sum_n S^N_{n,1}(t) S^{N'}_{1,n}(-t)`` over the shared
    sites, entirely from the closed-form transition amplitudes.
    """
    if n_sites < 1 or n_prime < 1:
        raise ValueError("chain sizes must be >= 1")
    chains = (_toeplitz_eigen(n_sites, alpha, beta), _toeplitz_eigen(n_prime, alpha, beta))
    return _over_chains(_overlaps, t, *chains)


def rescaling_check(
    n_sites: int, n_prime: int, alpha: float, beta: float, t: float
) -> tuple[float, float]:
    """Moduli of the direct echo and its rescaled reference form.

    Returns ``(|echo(t; alpha, beta)|, |echo(beta*t; 0, 1)|)``; the two agree
    because onsite phases cancel in the echo and hopping only rescales time.
    """
    direct = abs(toeplitz_echo(n_sites, n_prime, alpha, beta, t))
    rescaled = abs(toeplitz_echo(n_sites, n_prime, 0.0, 1.0, beta * t))
    return direct, rescaled
