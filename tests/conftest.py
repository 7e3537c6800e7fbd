"""Shared oracles and helpers for the test suite."""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from krylov_echo.models import IsingParams
from krylov_echo.toeplitz import toeplitz_echo

# Environment variables through which a user sets the BLAS thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def openblas_threads(path):
    """The ``(get, set)`` thread-count functions of the OpenBLAS at ``path``, or None.

    numpy's wheel ships an ILP64 build whose symbols end in ``64_``, scipy's
    an LP64 build without the suffix; a library exporting neither, such as
    another BLAS, gives None.
    """
    lib = ctypes.CDLL(str(path))
    for suffix in ("64_", ""):
        try:
            return (
                getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                getattr(lib, f"scipy_openblas_set_num_threads{suffix}"),
            )
        except AttributeError:
            continue
    return None


def bundled_openblas() -> list:
    """The ``(get, set)`` pairs of each OpenBLAS shipped in the numpy and scipy wheels."""
    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            if (threads := openblas_threads(path)) is not None:
                found.append(threads)
    return found


# One BLAS thread per library unless the user chose a count: with two pools
# on a few cores the small BLAS calls of the suite contend and run several
# times slower. numpy is already loaded when this file runs (pytest imports
# it for the warning filters), so each library's own setter is called.
if not any(name in os.environ for name in THREAD_VARIABLES):
    for _, set_threads in bundled_openblas():
        set_threads(1)

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
