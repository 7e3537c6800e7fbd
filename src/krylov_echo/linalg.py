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
]

# The dense evolution oracle refuses dimensions above this unless overridden.
DEFAULT_ORACLE_CAP = 4096
# Size of one block of exact states the oracle forms at once.
_ORACLE_BLOCK_BYTES = 1 << 20


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

    ``eigenvalues`` is ascending from the numeric solver (the closed-form
    homogeneous chain keeps mode order); ``eigenvectors`` holds the
    orthonormal eigenvectors as columns (real, since T is real symmetric).
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
        return np.diag(self.diag) + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)

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
    evals, evecs = eigh_tridiagonal(tri.diag, tri.offdiag)
    return TridiagonalEigen(evals, evecs)


def _times(t) -> np.ndarray:
    """A scalar or 1-D array of times as a 1-D float array; rejects non-finite times."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {ts.shape}")
    if np.count_nonzero(np.isfinite(ts)) < ts.size:
        raise ValueError("times must be finite")
    return ts.reshape(-1)


def _per_time(t, rows):
    """``rows`` (leading time axis) for an array ``t``; its one row for a scalar ``t``."""
    return rows if np.asarray(t).ndim else rows[0]


def _over_times(evaluate, t, width: int):
    """``evaluate`` over blocks of ``t``, joined, per time of ``t``: the one time-block loop.

    The times are checked before the first block. Each block holds about
    ``_ORACLE_BLOCK_BYTES`` of complex rows of ``width``, so no
    times-by-``width`` array is formed; no times still make one (empty)
    block, so results keep their shape.
    """
    ts = _times(t)
    chunk = max(1, _ORACLE_BLOCK_BYTES // (16 * width))
    rows = [evaluate(ts[start : start + chunk]) for start in range(0, max(ts.size, 1), chunk)]
    return _per_time(t, np.concatenate(rows))


def _matmul(matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``matrix @ columns`` for complex columns; a float64 matrix acts on their real view, uncast."""
    if matrix.dtype == np.float64:
        return (matrix @ columns.view(np.float64)).view(np.complex128)
    return matrix @ columns


def _coefficients(evecs: np.ndarray, state: np.ndarray) -> np.ndarray:
    """``E^dagger state`` as ``(E^T state^*)^*``, so that ``E`` is never copied or cast."""
    return _matmul(evecs.T, state.conj()[:, None])[:, 0].conj()


def _spectral_states(evals, evecs, coeffs, t, start) -> np.ndarray:
    """States ``E (exp(-i lambda t) c)`` at the times ``t``, as the rows of a (T, n) array.

    The one propagator kernel, so the one place a time enters: ``t`` must be
    finite, and rows at ``t = 0`` are ``start`` exactly. For real ``E`` the
    product is one real GEMM on the float64 view of the phase columns. It
    holds two (n, T) arrays at a time; sweeps pass one ``_over_times`` block.
    """
    ts = _times(t)
    phases = np.multiply.outer(-1j * evals, ts)
    np.exp(phases, out=phases)
    phases *= coeffs[:, None]
    phases = _matmul(evecs, phases)
    states = np.ascontiguousarray(phases.T)
    if np.count_nonzero(ts) < ts.size:
        states[ts == 0.0] = start
    return states


def _end_states(eig: TridiagonalEigen, t) -> np.ndarray:
    """Chain states ``exp(-i T t)|0>`` as rows: the kernel with ``c = Q[0]``."""
    n = eig.eigenvalues.size
    return _spectral_states(eig.eigenvalues, eig.eigenvectors, eig.eigenvectors[0], t, basis_state(n))


def _over_chains(reduce, t, *chains: TridiagonalEigen):
    """``reduce`` of the chains' end states, per time of ``t``: the one echo evaluator.

    ``reduce`` maps one block of states per chain to one result per time, so
    no times-by-sites array is held.
    """
    width = max(eig.eigenvalues.size for eig in chains)
    return _over_times(lambda ts: reduce(*[_end_states(eig, ts) for eig in chains]), t, width)


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``<a|b>`` over the sites two blocks of chain states share."""
    k = min(a.shape[-1], b.shape[-1])
    return np.vecdot(a[..., :k], b[..., :k])


class LinearOperator:
    """Hermitian operator of dimension ``dim`` with an apply-to-vector contract.

    Subclasses implement :meth:`apply`. The operator must be linear and
    Hermitian; shared state is read-only after construction, so concurrent
    applies on distinct vectors are safe. The caller owns what ``apply``
    returns: the Lanczos step overwrites it. ``to_dense``/``dense_eigh`` exist
    for verification at modest dimensions; only ``dense_eigh`` memoizes, and
    a subclass changes how it solves through the ``_eigh`` hook. A
    real operator stays real there: its dense form is float64 and so are
    its eigenvectors.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("operator dimension must be >= 1")
        self.dim = int(dim)
        self._dense_eigh: tuple[np.ndarray, np.ndarray] | None = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialized matrix, one ``apply`` per column; float64 when every entry is real."""
        dense = np.column_stack([self.apply(basis_state(self.dim, j)) for j in range(self.dim)])
        return dense if dense.imag.any() else dense.real.copy()

    def dense_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ascending eigenvalues and orthonormal eigenvectors (columns) of the dense form.

        The one memoized entry point: it computes :meth:`_eigh` once. An
        all-real dense form gets float64 eigenvectors; only a matrix with a
        nonzero imaginary part gets complex128 ones.
        """
        if self._dense_eigh is None:
            self._dense_eigh = self._eigh()
        return self._dense_eigh

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Uncached eigendecomposition of the dense form: the hook a subclass overrides."""
        return tuple(np.linalg.eigh(self.to_dense()))


class DenseOperator(LinearOperator):
    """Hermitian operator backed by an explicit matrix, stored float64 when every entry is real."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
            raise ValueError("a nonempty square matrix is required")
        _check_hermitian(matrix)
        super().__init__(matrix.shape[0])
        if np.iscomplexobj(matrix) and not matrix.imag.any():
            matrix = matrix.real
        dtype = np.complex128 if np.iscomplexobj(matrix) else np.float64
        self.matrix = np.ascontiguousarray(matrix, dtype=dtype)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} does not match dim {self.dim}")
        return _matmul(self.matrix, vec[:, None])[:, 0]

    def to_dense(self) -> np.ndarray:
        return self.matrix


def _check_hermitian(matrix: np.ndarray) -> None:
    """Reject non-finite or non-Hermitian matrices, in one scratch matrix.

    The scratch holds ``|A|`` for the scale, then ``|A - A^dagger|``, so the
    check costs one matrix of memory, not one per temporary.
    """
    scratch = np.empty_like(matrix, dtype=np.result_type(matrix, float))
    scale = float(np.abs(matrix, out=scratch).real.max()) or 1.0
    if not np.isfinite(scale):
        raise ValueError("matrix has NaN or inf entries")
    np.conjugate(matrix.T, out=scratch)
    np.subtract(matrix, scratch, out=scratch)
    if float(np.abs(scratch, out=scratch).real.max()) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")


def exact_evolve_dense(
    hamiltonian: LinearOperator,
    psi: np.ndarray,
    t,
    *,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Evolve ``psi`` under ``exp(-i H t)`` via full eigendecomposition.

    This is the verification oracle: exact up to eigensolver accuracy, with
    O(dim^3) setup (cached on the operator) and O(dim^2) per time, in real
    arithmetic for a real operator. It is the propagator kernel with
    ``c = E^dagger psi``; an array ``t`` gives one state per time, so sweeps
    call it once per ``_over_times`` block. It refuses dimensions above
    ``cap`` so production paths cannot lean on it by accident, and checks
    ``psi`` and ``t`` (finite, scalar or 1-D) before the eigensolve.
    """
    if hamiltonian.dim > cap:
        raise ValueError(
            f"dense oracle refused: dimension {hamiltonian.dim} exceeds cap {cap}; "
            "the oracle exists for verification, not production evolution"
        )
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    if psi.shape != (hamiltonian.dim,):
        raise ValueError(f"state shape {psi.shape} does not match dim {hamiltonian.dim}")
    ts = _times(t)
    evals, evecs = hamiltonian.dense_eigh()
    return _per_time(t, _spectral_states(evals, evecs, _coefficients(evecs, psi), ts, psi))
