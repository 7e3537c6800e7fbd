"""Reference computations made apart from krylov_echo, and readers for its file formats.

Nothing here imports the package under test. The Ising Hamiltonian is built
as a sparse matrix from its definition, the Krylov approximation comes from
a Lanczos loop written here, exact evolution comes from
``scipy.sparse.linalg.expm_multiply`` or from a dense real-symmetric
eigendecomposition of a matrix built here, and the CSV and KRYV1 readers
follow the formats documented in the package README.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

# The CLI draws the initial state of a random-matrix model with this offset
# added to its seed (documented in krylov_echo.cli).
STATE_SEED_OFFSET = 1_000_003

KRYV1_MAGIC = b"KRYV1"


def normal_state(dim: int, seed: int) -> np.ndarray:
    """Unit state with independent complex normal amplitudes drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def goe_matrix(dim: int, seed: int) -> np.ndarray:
    """Real symmetric ``(G + G^T)/2`` with standard normal ``G`` drawn from ``seed``."""
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    return (g + g.T) / 2.0


def ising_sparse(
    n_spins: int, J: float = 1.0, h_x: float = 1.0, h_z: float = 0.5
) -> scipy.sparse.csr_matrix:
    """Open Ising chain ``sum_k (h_x X_k + h_z Z_k) - J sum_k Z_k Z_{k+1}`` as a real CSR matrix.

    Bit k of a basis index is 0 when spin k+1 has Z = +1.
    """
    dim = 1 << n_spins
    idx = np.arange(dim)
    z = [1.0 - 2.0 * ((idx >> k) & 1) for k in range(n_spins)]
    diag = h_z * np.sum(z, axis=0) - J * sum(z[k] * z[k + 1] for k in range(n_spins - 1))
    rows = np.concatenate([idx] * (n_spins + 1))
    cols = np.concatenate([idx] + [idx ^ (1 << k) for k in range(n_spins)])
    vals = np.concatenate([diag] + [np.full(dim, h_x)] * n_spins)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def expm_reference(matrix: scipy.sparse.spmatrix, psi: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i H t) psi`` by scipy's truncated Taylor method."""
    return expm_multiply((-1j * t) * matrix.tocsr(), psi)


class DenseEvolution:
    """``exp(-i H t)`` for a real symmetric ``H`` from one eigendecomposition."""

    def __init__(self, matrix: np.ndarray):
        self.evals, self.evecs = np.linalg.eigh(np.asarray(matrix, dtype=float))

    def __call__(self, psi: np.ndarray, t: float) -> np.ndarray:
        coeffs = self.evecs.T @ psi
        return self.evecs @ (np.exp(-1j * t * self.evals) * coeffs)


def krylov_states(matvec, psi: np.ndarray, n_krylov: int, ts) -> list[np.ndarray]:
    """Krylov approximations of ``exp(-i H t) psi`` at each ``t``, from a Lanczos loop written here.

    Full Gram-Schmidt reorthogonalization (two passes) keeps the basis
    orthonormal; the reduced exponential comes from ``numpy.linalg.eigh`` on
    the dense tridiagonal.
    """
    vecs = np.zeros((n_krylov, psi.size), dtype=np.complex128)
    alphas = np.zeros(n_krylov)
    betas = np.zeros(n_krylov - 1)
    vecs[0] = psi / np.linalg.norm(psi)
    for j in range(n_krylov):
        w = matvec(vecs[j])
        alphas[j] = np.vdot(vecs[j], w).real
        for _ in range(2):
            w = w - vecs[: j + 1].T @ (vecs[: j + 1].conj() @ w)
        if j + 1 < n_krylov:
            betas[j] = np.linalg.norm(w)
            vecs[j + 1] = w / betas[j]
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    evals, evecs = np.linalg.eigh(tri)
    return [vecs.T @ (evecs @ (np.exp(-1j * t * evals) * evecs[0])) for t in ts]


def infidelity(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - |<a|b>|^2`` for unit vectors."""
    return 1.0 - abs(np.vdot(a, b)) ** 2


def read_kryv1(data: bytes) -> np.ndarray:
    """Parse a KRYV1 state: magic, little-endian u64 dimension, ``dim`` (re, im) f64 pairs."""
    if data[: len(KRYV1_MAGIC)] != KRYV1_MAGIC:
        raise ValueError("bad KRYV1 magic")
    (dim,) = struct.unpack_from("<Q", data, len(KRYV1_MAGIC))
    payload = data[len(KRYV1_MAGIC) + 8 :]
    if len(payload) != 16 * dim:
        raise ValueError(f"KRYV1 payload of {len(payload)} bytes, expected {16 * dim}")
    pairs = np.frombuffer(payload, dtype="<f8").reshape(dim, 2)
    return pairs[:, 0] + 1j * pairs[:, 1]


def read_csv(data: bytes) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split a CLI CSV into its ``# key=value`` comments, header and rows of strings."""
    comments: dict[str, str] = {}
    header: list[str] | None = None
    rows = []
    for line in data.decode("utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise ValueError("CSV has no header")
    return comments, header, rows


def csv_column(header: list[str], rows: list[list[str]], name: str) -> np.ndarray:
    """One numeric column of a parsed CSV."""
    idx = header.index(name)
    return np.array([float(row[idx]) for row in rows])
