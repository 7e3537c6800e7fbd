"""State vectors, Hermitian operators, and tridiagonal/dense propagators.

Everything runs in double precision. States are plain 1-D ``complex128``
arrays; operators expose a matrix-free ``apply`` contract so large
Hamiltonians never need to be materialized. Symmetric tridiagonal matrices
carry their own cached spectral decomposition, which makes repeated
``exp(-i T t)`` applications on the same matrix an O(n^2) affair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "DenseOperator",
    "LinearOperator",
    "SymmetricTridiagonal",
    "TridiagonalEigen",
    "basis_state",
    "eig_sym_tridiagonal",
    "exact_evolve_dense",
    "expi_tridiagonal_apply",
    "inner",
    "normalized",
]

# The dense evolution oracle refuses dimensions above this unless overridden.
DEFAULT_ORACLE_CAP = 4096


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian inner product ``sum_i conj(u_i) v_i``."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return complex(np.vdot(u, v))


def normalized(state: np.ndarray) -> np.ndarray:
    """Unit-norm complex copy of ``state``; rejects the zero vector."""
    state = np.asarray(state, dtype=np.complex128)
    nrm = np.linalg.norm(state)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero state")
    return state / nrm


def basis_state(dim: int, index: int = 0) -> np.ndarray:
    """Coordinate state |index> in a `dim`-dimensional space."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    state = np.zeros(dim, dtype=np.complex128)
    state[index] = 1.0
    return state


@dataclass(frozen=True)
class TridiagonalEigen:
    """Spectral decomposition ``T = Q diag(eigenvalues) Q^T``.

    ``eigenvalues`` is ascending; ``eigenvectors`` holds the orthonormal
    eigenvectors as columns (real, since T is real symmetric).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(eq=False)
class SymmetricTridiagonal:
    """Real symmetric tridiagonal matrix: onsite ``diag``, hopping ``offdiag``."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        self.diag = np.atleast_1d(np.asarray(self.diag, dtype=float))
        self.offdiag = np.asarray(self.offdiag, dtype=float).reshape(-1)
        if self.diag.ndim != 1 or self.diag.size < 1:
            raise ValueError("diag must be a nonempty 1-D real array")
        if self.offdiag.size != self.diag.size - 1:
            raise ValueError(
                f"offdiag length {self.offdiag.size} does not fit diag length {self.diag.size}"
            )
        self._eigen: TridiagonalEigen | None = None
        # Chains returned by prefix/append_site, shared and so read-only, so
        # that an estimator evaluated at many times diagonalizes them once.
        self._derived: dict[tuple, SymmetricTridiagonal] = {}

    @property
    def n(self) -> int:
        return self.diag.size

    def prefix(self, m: int) -> "SymmetricTridiagonal":
        """Leading m-by-m principal block (cached per ``m``)."""
        if not 1 <= m <= self.n:
            raise ValueError(f"prefix size {m} out of range 1..{self.n}")
        key = ("prefix", m)
        if key not in self._derived:
            self._derived[key] = SymmetricTridiagonal(
                self.diag[:m].copy(), self.offdiag[: m - 1].copy()
            )
        return self._derived[key]

    def append_site(self, onsite: float, coupling: float) -> "SymmetricTridiagonal":
        """Matrix with one extra site attached through ``coupling`` (cached per site)."""
        key = ("append", onsite, coupling)
        if key not in self._derived:
            self._derived[key] = SymmetricTridiagonal(
                np.append(self.diag, onsite), np.append(self.offdiag, coupling)
            )
        return self._derived[key]

    def to_dense(self) -> np.ndarray:
        mat = np.diag(self.diag)
        if self.n > 1:
            mat += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return mat

    def eigen(self) -> TridiagonalEigen:
        """Cached spectral decomposition (computed once per instance)."""
        if self._eigen is None:
            self._eigen = eig_sym_tridiagonal(self)
        return self._eigen


def eig_sym_tridiagonal(tri: SymmetricTridiagonal) -> TridiagonalEigen:
    """Full spectral decomposition of a real symmetric tridiagonal matrix.

    Uses the LAPACK implicit-shift solvers behind
    :func:`scipy.linalg.eigh_tridiagonal`; deterministic for fixed input.
    """
    if tri.n == 1:
        return TridiagonalEigen(tri.diag.copy(), np.ones((1, 1)))
    evals, evecs = eigh_tridiagonal(tri.diag, tri.offdiag)
    return TridiagonalEigen(evals, evecs)


def expi_tridiagonal_apply(tri: SymmetricTridiagonal, t: float, vec: np.ndarray) -> np.ndarray:
    """Apply ``exp(-i T t)`` to ``vec`` through the spectral decomposition.

    Norm is preserved to machine precision; ``t = 0`` returns the input
    unchanged.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    if vec.shape != (tri.n,):
        raise ValueError(f"vector shape {vec.shape} does not match size {tri.n}")
    if t == 0.0:
        return vec.copy()
    eig = tri.eigen()
    phases = np.exp(-1j * t * eig.eigenvalues)
    return eig.eigenvectors @ (phases * (eig.eigenvectors.T @ vec))


class LinearOperator:
    """Hermitian operator of dimension ``dim`` with an apply-to-vector contract.

    Subclasses implement :meth:`apply`. The operator must be linear and
    Hermitian; shared state is read-only after construction, so concurrent
    applies on distinct vectors are safe. ``to_dense``/``dense_eigh`` exist
    for verification at modest dimensions; only ``dense_eigh`` memoizes.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("operator dimension must be >= 1")
        self.dim = int(dim)
        self._dense_eigh: tuple[np.ndarray, np.ndarray] | None = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialized matrix, built column by column."""
        cols = np.empty((self.dim, self.dim), dtype=np.complex128)
        for j in range(self.dim):
            cols[:, j] = self.apply(basis_state(self.dim, j))
        return cols

    def dense_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached eigenvalues and complex eigenvectors (columns) of the dense form."""
        if self._dense_eigh is None:
            evals, evecs = np.linalg.eigh(self.to_dense())
            self._dense_eigh = (evals, evecs.astype(np.complex128, copy=False))
        return self._dense_eigh


class DenseOperator(LinearOperator):
    """Hermitian operator backed by an explicit matrix."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
            raise ValueError("a nonempty square matrix is required")
        scale = float(np.abs(matrix).max()) or 1.0
        if not np.isfinite(scale):
            raise ValueError("matrix has NaN or inf entries")
        if float(np.abs(matrix - matrix.conj().T).max()) > 1e-12 * scale:
            raise ValueError("matrix is not Hermitian")
        super().__init__(matrix.shape[0])
        dtype = np.complex128 if np.iscomplexobj(matrix) else np.float64
        self.matrix = np.ascontiguousarray(matrix, dtype=dtype)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} does not match dim {self.dim}")
        return self.matrix @ vec

    def to_dense(self) -> np.ndarray:
        return self.matrix


def exact_evolve_dense(
    hamiltonian: LinearOperator,
    psi: np.ndarray,
    t: float,
    *,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Evolve ``psi`` under ``exp(-i H t)`` via full eigendecomposition.

    This is the verification oracle: exact up to eigensolver accuracy, with
    O(dim^3) setup (cached on the operator) and O(dim^2) per call. It refuses
    dimensions above ``cap`` so production paths cannot lean on it by
    accident.
    """
    if hamiltonian.dim > cap:
        raise ValueError(
            f"dense oracle refused: dimension {hamiltonian.dim} exceeds cap {cap}; "
            "the oracle exists for verification, not production evolution"
        )
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (hamiltonian.dim,):
        raise ValueError(f"state shape {psi.shape} does not match dim {hamiltonian.dim}")
    evals, evecs = hamiltonian.dense_eigh()
    # E^dagger psi as (psi^* E)^*, so that no call copies E.
    return evecs @ (np.exp(-1j * evals * t) * (psi.conj() @ evecs).conj())
