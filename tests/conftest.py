"""Shared oracles and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from krylov_echo.models import IsingParams
from krylov_echo.toeplitz import toeplitz_echo

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def ising_dense_oracle(params: IsingParams) -> np.ndarray:
    """Independent Kronecker-product construction of the Ising chain, real and dense.

    The chain grows one site at a time as the new highest bit:
    ``H_{m+1} = I ⊗ H_m + (h_x sx + h_z sz) ⊗ I - J sz ⊗ sz ⊗ I``.
    """
    field = params.h_x * SX + params.h_z * SZ
    ham = field
    for m in range(1, params.n_spins):
        rest = np.eye(2 ** (m - 1))
        ham = np.kron(np.eye(2), ham)
        ham += np.kron(field, np.kron(np.eye(2), rest))
        ham -= params.J * np.kron(SZ, np.kron(SZ, rest))
    return ham


def eigh_evolution(matrix: np.ndarray):
    """Test-side ``exp(-i H t) psi`` from one ``np.linalg.eigh``, as a function of ``(psi, t)``.

    Formed as ``psi + E (expm1(-i lambda t) E^dagger psi)``, so the
    eigenvectors' own rounding enters scaled by ``|lambda t|`` and the state
    at short times is not held at their ~1e-15 orthogonality floor.
    """
    evals, evecs = np.linalg.eigh(matrix)

    def evolve(psi: np.ndarray, t: float) -> np.ndarray:
        return psi + evecs @ (np.expm1(-1j * evals * t) * (evecs.conj().T @ psi))

    return evolve


def infidelity_allowance(eps, delta):
    """How far ``||r||^2 = eps`` may move when the states it is read from move by ``delta``."""
    return delta * (2.0 * np.sqrt(eps) + delta)


def chain_transition(n_sites: int, n: int, n_prime: int, t: float) -> complex:
    """Textbook amplitude ``<n| exp(+i T t) |n'>`` of the chain with onsite 0 and hopping 1.

    ``(2/(N+1)) sum_k sin(n k pi/(N+1)) sin(n' k pi/(N+1)) exp(i t E_k)``
    with ``E_k = 2 cos(k pi/(N+1))``, in plain numpy.
    """
    theta = np.arange(1, n_sites + 1) * np.pi / (n_sites + 1)
    terms = np.sin(n * theta) * np.sin(n_prime * theta) * np.exp(2j * t * np.cos(theta))
    return 2.0 / (n_sites + 1) * terms.sum()


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


def hermiticity_defect(op, rng: np.random.Generator, probes: int = 4) -> float:
    """Max relative defect of <u|Hv> = conj(<v|Hu>) over random probes."""
    worst = 0.0
    for _ in range(probes):
        u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        lhs = np.vdot(u, op.apply(v))
        rhs = np.conj(np.vdot(v, op.apply(u)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
