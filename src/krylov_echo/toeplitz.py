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
def _sin_table(n_sites: int) -> np.ndarray:
    # sin(n k pi / (N+1)) with 1-based site rows n and mode columns k.
    idx = np.arange(1, n_sites + 1)
    return np.sin(np.outer(idx, idx) * (np.pi / (n_sites + 1)))


def _eigenvalues(n_sites: int, alpha: float, beta: float) -> np.ndarray:
    k = np.arange(1, n_sites + 1)
    return alpha + 2.0 * beta * np.cos(k * np.pi / (n_sites + 1))


def _check_site(chain: ToeplitzChain, name: str, value: int) -> None:
    if not 1 <= value <= chain.n_sites:
        raise ValueError(f"{name}={value} out of range 1..{chain.n_sites}")


def toeplitz_eigenvalue(chain: ToeplitzChain, k: int) -> float:
    """Band energy ``alpha + 2 beta cos(k pi / (N+1))`` of mode ``k``."""
    _check_site(chain, "k", k)
    return float(chain.alpha + 2.0 * chain.beta * np.cos(k * np.pi / (chain.n_sites + 1)))


def toeplitz_eigenvector_component(chain: ToeplitzChain, n: int, k: int) -> float:
    """Site amplitude ``sqrt(2/(N+1)) sin(n k pi / (N+1))`` of mode ``k``."""
    _check_site(chain, "n", n)
    _check_site(chain, "k", k)
    top = chain.n_sites + 1
    return float(np.sqrt(2.0 / top) * np.sin(n * k * np.pi / top))


def _transition_column(
    n_sites: int, alpha: float, beta: float, t: float, source: int = 1
) -> np.ndarray:
    # S^N_{n,source}(t) for every site n (see toeplitz_transition); the sin
    # table is cached across t values.
    table = _sin_table(n_sites)
    phases = np.exp(1j * t * _eigenvalues(n_sites, alpha, beta))
    return (2.0 / (n_sites + 1)) * (table @ (table[source - 1] * phases))


def toeplitz_transition(chain: ToeplitzChain, n: int, n_prime: int, t: float) -> complex:
    """Transition amplitude ``S^N_{n,n'}(t)`` of ``exp(+i T t)``.

    ``(2/(N+1)) sum_k sin(n k pi/(N+1)) sin(n' k pi/(N+1)) exp(i t E_k)``.
    """
    _check_site(chain, "n", n)
    _check_site(chain, "n_prime", n_prime)
    column = _transition_column(chain.n_sites, chain.alpha, chain.beta, t, n_prime)
    return complex(column[n - 1])


def toeplitz_end_state(n_sites: int, alpha: float, beta: float, t: float) -> np.ndarray:
    """Chain state ``exp(-i T t)|1>`` in closed form: the column ``S^N_{n,1}(-t)``."""
    return _transition_column(n_sites, alpha, beta, -t)


def toeplitz_echo(n_sites: int, n_prime: int, alpha: float, beta: float, t: float) -> complex:
    """Echo amplitude ``<0| exp(-i t T_{N'}) exp(+i t T_N) |0>``.

    Evaluated as ``sum_n S^N_{n,1}(t) S^{N'}_{1,n}(-t)`` over the shared
    sites, entirely from the closed-form transition amplitudes.
    """
    if n_sites < 1 or n_prime < 1:
        raise ValueError("chain sizes must be >= 1")
    forward = _transition_column(n_sites, alpha, beta, t)
    backward = _transition_column(n_prime, alpha, beta, -t)
    k = min(n_sites, n_prime)
    return complex(np.dot(forward[:k], backward[:k]))


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
