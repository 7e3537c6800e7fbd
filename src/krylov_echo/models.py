"""Test Hamiltonians and seeded initial states.

The Ising chain is applied bitwise and never built dense, not even for the
oracle; the random-matrix ensembles are dense by construction and capped at
``linalg.MAX_DENSE_DIM``, since they exist only to validate estimators. All
samplers are pure functions of (size, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .linalg import _PANEL, MAX_DENSE_DIM, DenseOperator, LinearOperator

__all__ = [
    "IsingOperator",
    "IsingParams",
    "MAX_ISING_SPINS",
    "goe_sample",
    "gue_sample",
    "ising_operator",
    "random_state",
]

MAX_ISING_SPINS = 20
# Adjacent sites whose sx flips one apply treats as a single matmul: the
# lowest _LOW_BITS, then groups of at most _GROUP_BITS.
_LOW_BITS = 3
_GROUP_BITS = 4


@dataclass(frozen=True)
class IsingParams:
    """Open-boundary Ising chain with transverse (x) and parallel (z) fields.

    Energies are in units of the coupling J, times in 1/J. The defaults put
    the chain at a standard nonintegrable point.
    """

    n_spins: int
    J: float = 1.0
    h_x: float = 1.0
    h_z: float = 0.5

    def __post_init__(self):
        if self.n_spins < 2:
            raise ValueError("n_spins must be >= 2")
        if not np.isfinite([self.J, self.h_x, self.h_z]).all():
            raise ValueError("J, h_x and h_z must be finite")

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**n_spins``."""
        return 2**self.n_spins


def _flip_sum(n_bits: int) -> np.ndarray:
    """The 0/1 matrix sum_k sx_k on ``n_bits`` sites: 1 where two indices differ in one bit."""
    flips, idx = np.zeros((1 << n_bits, 1 << n_bits)), np.arange(1 << n_bits)
    for k in range(n_bits):
        flips[idx, idx ^ (1 << k)] = 1.0
    return flips


class IsingOperator(LinearOperator):
    """Matrix-free H = sum_k (h_x sx_k + h_z sz_k) - J sum_k sz_k sz_{k+1}.

    Basis index b encodes the spins bitwise: bit k = 0 means sz eigenvalue +1
    at site k+1. sz terms are a precomputed diagonal. The sx terms act in
    groups of adjacent sites: the lowest three, then groups of at most four
    (3,4,4,3 at n = 14, 3,4,3 at n = 10). Within a group at bits
    lo..lo+b-1 the flips sum to one 2^b x 2^b 0/1 matrix, scaled by h_x at
    construction and applied as a single real matmul on the float64 view of
    the vector (real and imaginary parts alike), so one apply costs
    O(n 2^n) in about n/4 BLAS passes. The chain is unchanged, bit for bit,
    when its spin order is reversed, so the dense oracle is solved on two
    reflection-sector blocks written from the flips (:meth:`_eigh`).
    """

    def __init__(self, params: IsingParams):
        if params.n_spins > MAX_ISING_SPINS:
            raise ValueError(f"n_spins {params.n_spins} exceeds cap {MAX_ISING_SPINS}")
        super().__init__(params.dim)
        self.params = params
        # h_z sum_k z_k - J sum_k z_k z_{k+1} = h_z (n - 2 d) - J (n - 1 - 2 w)
        # for d down spins and w domain walls. Both counts are exact and
        # survive reversing the chain, so the diagonal does too, bit for bit;
        # a float sum over sites does not, in its last bits.
        n, idx, h_x = params.n_spins, np.arange(self.dim), params.h_x
        walls = np.bitwise_count((idx ^ (idx >> 1)) & ((1 << (n - 1)) - 1))
        bonds = (n - 1) - 2.0 * walls
        diag = params.h_z * (n - 2.0 * np.bitwise_count(idx)) - params.J * bonds
        # Each entry twice, once per float64 of a complex entry, so that the
        # diagonal multiplies the float64 view of a vector in one pass.
        self._diag_pairs = np.repeat(diag, 2)
        # The lowest group right-multiplies rows of (re, im) pairs, hence the
        # kron with I2; a group of b bits at bit lo left-multiplies the view
        # reshaped to (-1, 2^b, 2 * 2^lo), which for the highest group is
        # one 2-D block. Every flip matrix is symmetric.
        low = min(_LOW_BITS, n)
        self._low_flips = h_x * np.kron(_flip_sum(low), np.eye(2))
        sizes = [(lo, min(_GROUP_BITS, n - lo)) for lo in range(low, n, _GROUP_BITS)]
        groups = [(1 << b, 2 << lo, h_x * _flip_sum(b)) for lo, b in sizes]
        self._top = groups.pop() if groups else None
        self._middle = groups

    def apply(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        vec, out = self._operands(vec, out)
        src, acc = vec.view(np.float64), out.view(np.float64)
        # One contiguous multiply on the float64 view: each real and imaginary
        # part meets its diagonal entry, the same product as part by part.
        np.multiply(src, self._diag_pairs, out=acc)
        # The lowest and the highest group add their products into out by
        # dgemm on the F-ordered (transposed) views, with no copy; a middle
        # group is a batch of products, made in the one work vector.
        width = self._low_flips.shape[0]
        rows = src.reshape(-1, width).T
        dgemm(1.0, self._low_flips.T, rows, beta=1.0, c=acc.reshape(-1, width).T, overwrite_c=True)
        if self._middle:
            part = np.empty_like(src)
            for size, cols, flips in self._middle:
                np.matmul(flips, src.reshape(-1, size, cols), out=part.reshape(-1, size, cols))
                acc += part
        if self._top is not None:
            size, cols, flips = self._top
            block = src.reshape(size, cols).T
            dgemm(1.0, block, flips.T, beta=1.0, c=acc.reshape(size, cols).T, overwrite_c=True)
        return out

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition one reflection sector at a time: two real ``eigh`` of about D/2.

        Reversing the spin order (the bit reversal ``rev``) leaves H
        unchanged, so H splits over the palindromes ``m`` and the pairs
        ``l < rev(l)``: the even sector, on ``|m>`` and ``(|l> + |rev l>)/√2``,
        has size ``(D + 2^ceil(n/2))/2``; the odd one, on ``(|l> - |rev l>)/√2``,
        the rest. Both blocks are written from the diagonal ``d`` and the bit
        flips, with no D x D matrix: ``l`` and ``rev l`` are an even number of
        flips apart, so no index neighbours both, and every entry is one of
        ``d``, ``h_x``, ``-h_x`` and ``√2 h_x``. Each sector's eigenvectors are
        written into their sorted columns of one D x D float64 array.
        """
        n, idx, h_x = self.params.n_spins, np.arange(self.dim), self.params.h_x
        rev = np.zeros_like(idx)
        for k in range(n):
            rev |= ((idx >> k) & 1) << (n - 1 - k)
        palindrome = idx == rev
        mid, low = np.flatnonzero(palindrome), np.flatnonzero(idx < rev)
        high, split, rows = rev[low], mid.size, np.concatenate([mid, low])
        # Each index's row in the even block; a pair's row in the odd one is split less.
        row = np.empty_like(idx)
        row[rows] = np.arange(rows.size)
        row[high] = row[low]
        # Signed zeros follow the sums H[l, l'] ± H[l, rev l'], whose absent term
        # is +0.0: a pair's even diagonal is d + 0.0, a zero h_x is 0.0 - h_x.
        diag = self._diag_pairs[::2]
        even, odd = np.diag(np.concatenate([diag[mid], diag[low] + 0.0])), np.diag(diag[low])
        for k in range(n):
            cols = rows ^ (1 << k)
            scale = np.where(palindrome[rows] == palindrome[cols], 1.0, np.sqrt(2.0))
            even[np.arange(rows.size), row[cols]] = scale * h_x
            to_pair = ~palindrome[cols[split:]]
            pairs = cols[split:][to_pair]
            odd[to_pair, row[pairs] - split] = np.where(rev[pairs] < pairs, 0.0 - h_x, h_x)
        even_vals, even_vecs = np.linalg.eigh(even)
        del even
        odd_vals, odd_vecs = np.linalg.eigh(odd)
        del odd
        evals = np.concatenate([even_vals, odd_vals])
        order = np.argsort(evals, kind="stable")
        column = np.argsort(order)
        even_cols, odd_cols = column[: rows.size], column[rows.size :]
        evecs = np.zeros((self.dim, self.dim))
        even_vecs[split:] *= np.sqrt(0.5)
        evecs[np.ix_(rows, even_cols)] = even_vecs
        evecs[np.ix_(high, even_cols)] = even_vecs[split:]
        odd_vecs *= np.sqrt(0.5)
        evecs[np.ix_(low, odd_cols)] = odd_vecs
        odd_vecs *= -1.0
        evecs[np.ix_(high, odd_cols)] = odd_vecs
        return evals[order], evecs


def ising_operator(params: IsingParams) -> LinearOperator:
    """Matrix-free Ising chain operator for the given parameters."""
    return IsingOperator(params)


def _check_ensemble_dim(dim: int) -> None:
    if dim < 2:
        raise ValueError("ensemble dimension must be >= 2")
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"ensemble dimension {dim} exceeds cap {MAX_DENSE_DIM}")


def _symmetrize(g: np.ndarray) -> None:
    """``g = (g + g^dagger)/2`` in place, one pair of ``_PANEL`` blocks at a time.

    For each block ``(I, J)`` on or above the diagonal, ``s = g[I,J] +
    g[J,I]^dagger`` is written to ``g[J,I]`` as ``s^dagger`` and then to
    ``g[I,J]``, so a diagonal block keeps ``s`` (and ``+0`` imaginary parts on
    its diagonal), and the whole matrix is halved at the end. Addition
    commutes exactly and conjugation is exact, so the result is bit for bit
    the textbook formula, while no second matrix is held.
    """
    dim = g.shape[0]
    for i in range(0, dim, _PANEL):
        rows = slice(i, i + _PANEL)
        for j in range(i, dim, _PANEL):
            cols = slice(j, j + _PANEL)
            s = np.conjugate(g[cols, rows].T)
            s += g[rows, cols]
            g[cols, rows] = np.conjugate(s.T)
            g[rows, cols] = s
    g /= 2.0


def goe_sample(dim: int, seed: int) -> DenseOperator:
    """Real symmetric (G + G^T)/2 with standard normal G; deterministic per seed.

    The draw is symmetrized in place (:func:`_symmetrize`) and checked in
    panels, so building the sample holds one matrix plus a panel: about
    9.5 MB at D=1024.
    """
    _check_ensemble_dim(dim)
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    _symmetrize(g)
    return DenseOperator(g)


def gue_sample(dim: int, seed: int) -> DenseOperator:
    """Hermitian (G + G^dagger)/2 with complex standard normal G.

    The real parts are drawn before the imaginary parts, each in panels of
    rows written straight into the complex matrix, which is then
    symmetrized in place; construction holds one matrix plus a panel.
    """
    _check_ensemble_dim(dim)
    rng = np.random.default_rng(seed)
    g = np.empty((dim, dim), dtype=np.complex128)
    for part in (g.real, g.imag):
        for start in range(0, dim, _PANEL):
            part[start : start + _PANEL] = rng.standard_normal((min(_PANEL, dim - start), dim))
    _symmetrize(g)
    return DenseOperator(g)


def random_state(dim: int, seed: int) -> np.ndarray:
    """Normalized state with independent complex normal amplitudes."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)
