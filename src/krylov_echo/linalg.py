"""State vectors, Hermitian operators, and tridiagonal/dense propagators.

Everything runs in double precision. States are plain 1-D ``complex128``
arrays; operators expose a matrix-free ``apply`` contract so large
Hamiltonians never need to be materialized. Symmetric tridiagonal matrices
carry their own cached spectral decomposition, which makes repeated
``exp(-i T t)`` applications on the same matrix an O(n^2) affair. Exact
states of a full operator come from one of two oracles: the dense
eigendecomposition (:func:`exact_evolve_dense`), or a Chebyshev recurrence
of ``apply`` on a spectral interval (:class:`_ChebyshevPropagator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dgemm, dsymv

__all__ = [
    "MAX_DENSE_DIM",
    "DenseOperator",
    "LinearOperator",
    "SymmetricTridiagonal",
    "TridiagonalEigen",
    "basis_state",
    "eig_sym_tridiagonal",
    "exact_evolve_dense",
]

# The one size rule for dense matrices: above this dimension no dense model
# is built and no dense solve is run.
MAX_DENSE_DIM = 4096
# Size of one block of exact states the oracle forms at once.
_ORACLE_BLOCK_BYTES = 1 << 20
# Rows per panel in which the ensemble samplers symmetrize a draw and
# _check_hermitian compares a matrix with its adjoint, so that neither holds
# a second matrix.
_PANEL = 128
# The Chebyshev propagator keeps terms until the Bessel tail bound puts the
# discarded part of a unit state below _CHEB_TAIL, samples its coefficients
# at _CHEB_EXTRA_NODES nodes beyond the kept terms, streams the moments into
# the product _CHEB_CHUNK at a time, and reads a moment norm above
# 1 + _CHEB_NORM_RTOL + 8 K u, with K terms, as the spectrum leaving its
# interval. The recurrence's own rounding grows by up to about 6.5 u per
# term at the interval's edge (measured to K = 1e5), and a leak grows
# exponentially.
_CHEB_TAIL = 1e-16
_CHEB_EXTRA_NODES = 32
_CHEB_CHUNK = 32
_CHEB_NORM_RTOL = 1e-12
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


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
        """The matrix in one array; each band entry is written as ``x + 0.0``, so a -0.0 reads +0.0."""
        n = self.n
        dense = np.zeros((n, n))
        for start, band in ((0, self.diag), (1, self.offdiag), (n, self.offdiag)):
            np.add(band, 0.0, out=dense.reshape(-1)[start :: n + 1])
        return dense

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

    Subclasses implement :meth:`apply` in the numpy idiom: given ``out``,
    it writes ``H vec`` into ``out`` and returns ``out`` itself; without
    one it returns a fresh vector, which the caller owns and may overwrite.
    ``out`` must be a writable C-contiguous complex128 vector of ``dim``
    entries sharing no memory with ``vec`` (:meth:`_operands` checks it).
    The Lanczos step applies each vector straight into the next row of its
    basis. The operator must be linear and Hermitian; shared state is
    read-only after construction.
    The Chebyshev propagator, the oracle of the ``regimes``, ``bounds`` and
    ``snapshots`` commands, needs ``apply`` alone. ``dense_eigh`` exists for
    the dense oracle, :func:`exact_evolve_dense`, which ``evolve`` uses within
    ``MAX_DENSE_DIM`` and the tests at modest dimensions; only it memoizes, and a
    subclass changes how it solves through the ``_eigh`` hook. The base hook
    solves ``to_dense``, one ``apply`` per column; the Ising chain overrides
    it with a sector solve that forms no dense matrix, so its ``to_dense``
    serves the tests alone. A real operator stays real there: its dense
    form is float64 and so are its eigenvectors.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("operator dimension must be >= 1")
        self.dim = int(dim)
        self._dense_eigh: tuple[np.ndarray, np.ndarray] | None = None

    def apply(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def _operands(self, vec, out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """``vec`` as a contiguous complex128 vector of ``dim``, and ``out`` checked (fresh when None)."""
        vec = np.ascontiguousarray(vec, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} does not match dim {self.dim}")
        if out is None:
            return vec, np.empty_like(vec)
        if not (
            isinstance(out, np.ndarray)
            and out.dtype == np.complex128
            and out.shape == vec.shape
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise ValueError(f"out must be a writable C-contiguous complex128 vector of {self.dim}")
        if np.may_share_memory(vec, out):
            raise ValueError("out must not share memory with vec")
        return vec, out

    def to_dense(self) -> np.ndarray:
        """Materialized matrix, one ``apply`` per column; float64 when every entry is real."""
        dense = np.column_stack([self.apply(basis_state(self.dim, j)) for j in range(self.dim)])
        return dense if dense.imag.any() else dense.real.copy()

    def dense_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ascending eigenvalues and orthonormal eigenvectors (columns) of the dense form.

        The one memoized entry point: its first call runs :meth:`_eigh` on
        the calling thread and keeps the result; a call whose solve raises
        keeps nothing. An all-real dense form gets float64 eigenvectors;
        only a matrix with a nonzero imaginary part gets complex128 ones.
        """
        if self._dense_eigh is None:
            self._dense_eigh = self._eigh()
        return self._dense_eigh

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Uncached eigendecomposition of the dense form: the hook a subclass overrides."""
        return tuple(np.linalg.eigh(self.to_dense()))


class DenseOperator(LinearOperator):
    """Hermitian operator backed by an explicit matrix, stored float64 when every entry is real.

    A float64 matrix is applied from its lower triangle alone: two BLAS
    ``dsymv`` calls, on the real and the imaginary part of the vector, each
    reading the matrix once. The operator is therefore the symmetric matrix
    ``tril(A) + tril(A, -1).T``, the same triangle ``np.linalg.eigh`` reads
    (``UPLO='L'``) in :meth:`dense_eigh`, so the apply and the dense oracle
    see one operator; the two differ from ``A`` only within the ``1e-12``
    relative asymmetry the construction check allows. A complex matrix keeps
    its full product: ``zhemv`` measured slower than it at D=1024.
    """

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

    def apply(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        vec, out = self._operands(vec, out)
        if self.matrix.dtype != np.float64:
            np.matmul(self.matrix, vec[:, None], out=out[:, None])
            return out
        # The wrapper passes the F-contiguous view uncopied, and reads its
        # upper triangle, the matrix's lower one. It copies each strided part
        # of the vector to a contiguous one, on which dsymv runs about four
        # times faster than on the stride-2 float64 view.
        lower = self.matrix.T
        out.real = dsymv(1.0, lower, vec.real)
        out.imag = dsymv(1.0, lower, vec.imag)
        return out

    def to_dense(self) -> np.ndarray:
        return self.matrix


def _check_hermitian(matrix: np.ndarray) -> None:
    """Reject non-finite or non-Hermitian matrices: ``max|A - A^dagger| <= 1e-12 max|A|``.

    The rule is checked over the whole matrix one panel of ``_PANEL`` rows
    at a time, against the matching panel of columns, in one panel-sized
    scratch, so the check never holds a second matrix. Every panel's
    ``max|A|`` is tested for NaN and inf as it is read, before any verdict
    on symmetry.
    """
    dim = matrix.shape[0]
    scratch = np.empty((min(_PANEL, dim), dim), dtype=np.result_type(matrix, float))
    scale = asymmetry = 0.0
    for start in range(0, dim, _PANEL):
        rows = matrix[start : start + _PANEL]
        diff = scratch[: rows.shape[0]]
        panel_scale = float(np.abs(rows, out=diff).real.max())
        if not np.isfinite(panel_scale):
            raise ValueError("matrix has NaN or inf entries")
        np.conjugate(matrix[:, start : start + _PANEL].T, out=diff)
        np.subtract(rows, diff, out=diff)
        scale = max(scale, panel_scale)
        asymmetry = max(asymmetry, float(np.abs(diff, out=diff).real.max()))
    if asymmetry > 1e-12 * (scale or 1.0):
        raise ValueError("matrix is not Hermitian")


def exact_evolve_dense(hamiltonian: LinearOperator, psi: np.ndarray, t) -> np.ndarray:
    """Evolve ``psi`` under ``exp(-i H t)`` via full eigendecomposition.

    This is the verification oracle: exact up to eigensolver accuracy, with
    O(dim^3) setup (cached on the operator) and O(dim^2) per time, in real
    arithmetic for a real operator. It is the propagator kernel with
    ``c = E^dagger psi``; an array ``t`` gives one state per time. The one
    oracle with a size limit, it refuses dimensions above ``MAX_DENSE_DIM``
    and checks ``psi`` and ``t`` (finite, scalar or 1-D) before the
    eigensolve.
    """
    if hamiltonian.dim > MAX_DENSE_DIM:
        raise ValueError(
            f"exact oracle refused: dimension {hamiltonian.dim} exceeds cap {MAX_DENSE_DIM}; "
            "the oracle exists for verification, not production evolution"
        )
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    if psi.shape != (hamiltonian.dim,):
        raise ValueError(f"state shape {psi.shape} does not match dim {hamiltonian.dim}")
    if not np.isfinite(psi).all():
        raise ValueError("cannot evolve a state with NaN or inf entries")
    ts = _times(t)
    evals, evecs = hamiltonian.dense_eigh()
    return _per_time(t, _spectral_states(evals, evecs, _coefficients(evecs, psi), ts, psi))


def _chebyshev_error(phase) -> float:
    """The Chebyshev propagator's stated bound on ``||state - exp(-i H t) psi||`` for a unit ``psi``.

    ``phase`` is the largest phase on the interval, ``(|c| + r)|t|``. The
    discarded tail adds at most ``_CHEB_TAIL``. Rounding adds an error that
    grows with the phase: the samples ``exp(-i r t cos theta)`` and the
    factor ``exp(-i c t)`` carry phase errors of about ``u (|c| + r)|t|``,
    and the recurrence acts like a perturbation of ``H'`` of order ``u``,
    which the evolution turns into a phase error of the same order. The
    bound takes ``8 u (1 + phase)``. Against a long-double reference, GOE
    and GUE at D=256 and 1024 and the Ising chain at n = 8 and 10 measured
    at most ``1.4 u (1 + phase)`` for phases up to 700.
    """
    return _CHEB_TAIL + 8.0 * _UNIT_ROUNDOFF * (1.0 + phase)


# A block of times restarts from the last state of the block before only
# where every time's phase (|c| + r)|t| is at least this; rows at smaller
# phases are always one run from psi.
_CHEB_RESTART_PHASE = 10.0
# A bounds ratio cell is left empty where the oracle is at or below this.
# The oracle reads each Krylov state against a Chebyshev state within
# delta = _chebyshev_error(phase) of the exact one, so an infidelity eps is
# read off by up to 2 delta sqrt(eps) + delta^2: a ratio is good to 10 %
# only where sqrt(eps) >= 20 delta. An oracle that small is met at short
# times, where the phase (|c| + r) t is at most about 10: a basis of the
# default 30 sites has an error near ((rt/2)^30 / 30!)^2, which reaches
# 1e-26 at rt = 9. Those rows lie below the restart phase, so their delta is
# that of one run from psi, at most _chebyshev_error(10) = 9.9e-15, and the
# floor is (20 delta)^2 = 3.9e-26.
ORACLE_FLOOR = (20.0 * _chebyshev_error(_CHEB_RESTART_PHASE)) ** 2


def _chebyshev_terms(tau: float) -> int:
    """Smallest ``K`` whose discarded tail ``2 sum_{k>K} |J_k(tau)|`` is at most ``_CHEB_TAIL``.

    From ``|J_k(tau)| <= (tau/2)^k / k!``: once ``k + 2 >= tau``, each bound
    term is at most half the one before, so the tail is at most
    ``4 (tau/2)^(K+1) / (K+1)!``, which is compared in logarithms.
    """
    if tau == 0.0:
        return 0
    log_half, log_floor = math.log(tau / 2), math.log(_CHEB_TAIL / 4)
    terms, log_next = 0, log_half
    while terms + 2 < tau or log_next > log_floor:
        terms += 1
        log_next += log_half - math.log(terms + 1)
    return terms


def _bessel_coefficients(taus: np.ndarray, terms: int) -> np.ndarray:
    """``(2 - delta_k0) J_k(tau)`` for ``k = 0..terms``, one row per ``tau``.

    ``exp(-i tau cos theta)`` is sampled at ``M = terms + _CHEB_EXTRA_NODES``
    Chebyshev nodes ``theta_j = pi (j + 1/2) / M``. Its DCT-II, one FFT of
    the even extension per row, gives its Chebyshev coefficients
    ``(2 - delta_k0)(-i)^k J_k(tau)`` up to aliasing from orders above
    ``2M - terms``, which the tail bound has already discarded; the exact
    factor ``i^k`` leaves them real. The FFTs run on as many rows at a time
    as keep their complex work arrays within ``_ORACLE_BLOCK_BYTES``.
    """
    nodes = terms + _CHEB_EXTRA_NODES
    cosines = np.cos((np.arange(nodes) + 0.5) * (np.pi / nodes))
    k = np.arange(terms + 1)
    shift = np.exp(-0.5j * np.pi / nodes * k) * np.array([1, 1j, -1, -1j])[k % 4] / nodes
    coeffs = np.empty((taus.size, terms + 1))
    rows = max(1, _ORACLE_BLOCK_BYTES // (32 * 2 * nodes))
    for start in range(0, taus.size, rows):
        samples = np.exp(np.multiply.outer(-1j * taus[start : start + rows], cosines))
        spectrum = np.fft.fft(np.concatenate([samples, samples[:, ::-1]], axis=1), axis=1)
        coeffs[start : start + rows] = (spectrum[:, : terms + 1] * shift).real
    coeffs[:, 0] *= 0.5
    return coeffs


class _ChebyshevPropagator:
    """``exp(-i H t) psi`` for a block of times, from one Chebyshev recurrence of ``apply``.

    ``exp(-i H t) psi = e^{-ict} sum_k (2 - delta_k0)(-i)^k J_k(rt) T_k(H') psi``
    with ``H' = (H - c) / r`` (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984).
    The interval ``[c - r, c + r]`` is ``[lo, hi]`` widened by 5 % of its
    width on each side; a width of 0 says ``psi`` is an eigenvector, whose
    state is ``e^{-ict} psi`` with no apply. The recurrence runs on
    ``N_k = (-i)^k T_k(H') psi``, ``N_{k+1} = N_{k-1} - 2i H' N_k``, so that
    every coefficient is real: each chunk of ``_CHEB_CHUNK`` moments enters
    the states as one real GEMM on their float64 view. A block sizes its own
    number of terms from its largest ``r|t|`` (:func:`_chebyshev_terms`) and
    holds its states, one chunk of moments and its coefficients; no
    terms-by-``dim`` array is formed. On ``[-1, 1]`` every ``|T_k| <= 1``, so
    a moment norm above that of the start state, by more than the rounding
    allowance of ``_CHEB_NORM_RTOL``, shows the spectrum leaving the
    interval: the radius is doubled, kept for later blocks, and the block
    rerun. Rows at ``t = 0`` are ``psi`` exactly.

    A block starts from ``psi``, or from the last state of the block before
    (its anchor) when every time in it has phase ``(|c| + r)|t| >=
    _CHEB_RESTART_PHASE`` and that start needs fewer terms. A row's stated
    error, kept in ``errors`` for the rows of the last call, is
    :func:`_chebyshev_error` of its phase from its start, plus the anchor's
    stated error when it started there.
    """

    def __init__(self, hamiltonian: LinearOperator, psi: np.ndarray, lo: float, hi: float):
        self.hamiltonian = hamiltonian
        self.psi = psi
        self.centre = 0.5 * (lo + hi)
        self.radius = 0.55 * (hi - lo)
        self.errors = np.zeros(0)
        # The last row returned: its time, its state and its stated error.
        self._anchor = (0.0, psi, 0.0)

    def __call__(self, t) -> np.ndarray:
        """States at the times ``t`` (checked before any apply), as the rows of a (T, dim) array."""
        ts = _times(t)
        start, span, error = self._start(ts)
        states = self._block(start, span)
        while states is None:
            self.radius *= 2.0
            states = self._block(start, span)
        states *= np.exp(-1j * self.centre * span)[:, None]
        if np.count_nonzero(ts) < ts.size:
            states[ts == 0.0] = self.psi
        self.errors = error + _chebyshev_error((abs(self.centre) + self.radius) * np.abs(span))
        if ts.size:
            self._anchor = (ts[-1], states[-1].copy(), self.errors[-1])
        return states

    def _start(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The state a block starts from, its times measured from there, and that state's error."""
        when, anchor, error = self._anchor
        span, r = ts - when, self.radius
        if ts.size and (abs(self.centre) + r) * np.abs(ts).min() >= _CHEB_RESTART_PHASE:
            if _chebyshev_terms(r * np.abs(span).max()) < _chebyshev_terms(r * np.abs(ts).max()):
                return anchor, span, error
        return self.psi, ts, 0.0

    def _block(self, start: np.ndarray, ts: np.ndarray) -> np.ndarray | None:
        """``sum_k a_k(r t) N_k`` at ``ts`` from ``N_0 = start``; None when a moment leaves the norm limit."""
        terms = _chebyshev_terms(self.radius * float(np.abs(ts).max(initial=0.0)))
        coeffs = _bessel_coefficients(self.radius * ts, terms)
        states = np.multiply.outer(coeffs[:, 0], start)
        # Rows 0 and 1 hold the two moments before the chunk in rows 2 onwards.
        moments = np.empty((min(_CHEB_CHUNK, terms) + 2, start.size), dtype=np.complex128)
        moments[1] = start
        norm = float(np.linalg.norm(start))
        limit = ((1.0 + _CHEB_NORM_RTOL + 8 * terms * _UNIT_ROUNDOFF) * norm) ** 2
        done = 1
        while done <= terms:
            size = min(_CHEB_CHUNK, terms + 1 - done)
            for row in range(2, size + 2):
                self._next_moment(moments, row, first=done == 1 and row == 2)
            chunk = moments[2 : size + 2]
            squares = np.vecdot(chunk, chunk).real
            if not np.isfinite(squares).all():
                raise ValueError("the operator returned NaN or inf in a Chebyshev moment")
            if squares.max() > limit:
                return None
            # states += coeffs[:, chunk] @ chunk, in place on the float64 views.
            dgemm(
                1.0, chunk.view(np.float64).T, coeffs[:, done : done + size].T,
                beta=1.0, c=states.view(np.float64).T, overwrite_c=True,
            )
            moments[:2] = moments[size : size + 2]
            done += size
        return states

    def _next_moment(self, moments: np.ndarray, row: int, first: bool) -> None:
        """``moments[row] = N_{k-1} - 2i H' N_k`` from the two rows before it (``-i H' psi`` first)."""
        current, out = moments[row - 1], moments[row]
        scale = (1.0 if first else 2.0) / self.radius
        product = self.hamiltonian.apply(current)
        np.multiply(current, 1j * scale * self.centre, out=out)
        if not first:
            out += moments[row - 2]
        product *= -1j * scale
        out += product

