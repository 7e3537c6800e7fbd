"""Test Hamiltonians and seeded initial states.

The Ising chain is applied bitwise and built dense only for the oracle;
the random-matrix ensembles are dense by construction and capped, since
they exist only to validate estimators. All samplers are pure functions
of (size, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseOperator, LinearOperator

__all__ = [
    "IsingOperator",
    "IsingParams",
    "MAX_ENSEMBLE_DIM",
    "MAX_ISING_SPINS",
    "goe_sample",
    "gue_sample",
    "ising_operator",
    "random_state",
]

MAX_ISING_SPINS = 20
MAX_ENSEMBLE_DIM = 4096
# Adjacent sites whose sx flips one apply treats as a single matmul.
_GROUP = 3


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
    groups of up to three adjacent sites: within a group at bits lo..lo+b-1
    the flips sum to one 2^b x 2^b 0/1 matrix, applied as a single real
    matmul on the float64 view of the vector (real and imaginary parts
    alike), so one apply costs O(n 2^n) in about n/3 BLAS passes. The chain
    is unchanged, bit for bit, when its spin order is reversed, so the dense
    oracle is solved one reflection sector at a time (:meth:`_eigh`).
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
        n, idx = params.n_spins, np.arange(self.dim)
        walls = np.bitwise_count((idx ^ (idx >> 1)) & ((1 << (n - 1)) - 1))
        bonds = (n - 1) - 2.0 * walls
        self._diag = params.h_z * (n - 2.0 * np.bitwise_count(idx)) - params.J * bonds
        # The lowest group right-multiplies rows of (re, im) pairs, hence the
        # kron with I2; a group at bit lo left-multiplies the view reshaped to
        # (-1, 2^b, 2 * 2^lo).
        sizes = [(lo, min(_GROUP, n - lo)) for lo in range(0, n, _GROUP)]
        b = sizes[0][1]
        self._low_group = (2 << b, np.kron(_flip_sum(b), np.eye(2)))
        self._groups = [(1 << b, 2 << lo, _flip_sum(b)) for lo, b in sizes[1:]]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.ascontiguousarray(vec, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} does not match dim {self.dim}")
        out, tmp = np.empty_like(vec), np.empty_like(vec)
        src, acc, part = vec.view(np.float64), out.view(np.float64), tmp.view(np.float64)
        width, flips = self._low_group
        np.matmul(src.reshape(-1, width), flips, out=acc.reshape(-1, width))
        for rows, cols, flips in self._groups:
            np.matmul(flips, src.reshape(-1, rows, cols), out=part.reshape(-1, rows, cols))
            acc += part
        acc *= self.params.h_x
        # Real times real, part by part: mixing real and complex, or
        # broadcasting the diagonal over (re, im) pairs, goes through ufunc
        # buffers as large as the vector.
        np.multiply(vec.real, self._diag, out=tmp.real)
        np.multiply(vec.imag, self._diag, out=tmp.imag)
        acc += part
        return out

    def to_dense(self) -> np.ndarray:
        """Real dense form, entry by entry: the diagonal, then ``h_x`` at each bit flip."""
        dense, idx = np.diag(self._diag), np.arange(self.dim)
        for k in range(self.params.n_spins):
            dense[idx, idx ^ (1 << k)] += self.params.h_x
        return dense

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition one reflection sector at a time: two real ``eigh`` of about D/2.

        Reversing the spin order (the bit reversal ``rev``) leaves H
        unchanged, so H splits over the palindromes ``m`` and the pairs
        ``l < rev(l)``: the even sector, on ``|m>`` and ``(|l> + |rev l>)/√2``,
        has size ``(D + 2^ceil(n/2))/2``; the odd one, on ``(|l> - |rev l>)/√2``,
        the rest. The dense form is freed before the first solve, and each
        sector's eigenvectors are written into their sorted columns of one
        D x D float64 array.
        """
        idx = np.arange(self.dim)
        rev = np.zeros_like(idx)
        for k in range(self.params.n_spins):
            rev |= ((idx >> k) & 1) << (self.params.n_spins - 1 - k)
        mid, low = np.flatnonzero(idx == rev), np.flatnonzero(idx < rev)
        high, split = rev[low], mid.size
        dense = self.to_dense()
        odd, cross = dense[np.ix_(low, low)], dense[np.ix_(low, high)]
        even = np.empty((split + low.size,) * 2)
        even[:split, :split] = dense[np.ix_(mid, mid)]
        even[:split, split:] = np.sqrt(2.0) * dense[np.ix_(mid, low)]
        del dense
        even[split:, :split] = even[:split, split:].T
        np.add(odd, cross, out=even[split:, split:])
        odd -= cross
        del cross
        even_vals, even_vecs = np.linalg.eigh(even)
        del even
        odd_vals, odd_vecs = np.linalg.eigh(odd)
        del odd
        evals = np.concatenate([even_vals, odd_vals])
        order = np.argsort(evals, kind="stable")
        column = np.empty_like(order)
        column[order] = idx
        even_cols, odd_cols = column[: even_vals.size], column[even_vals.size :]
        evecs = np.zeros((self.dim, self.dim))
        evecs[np.ix_(mid, even_cols)] = even_vecs[:split]
        pairs = even_vecs[split:]
        pairs *= np.sqrt(0.5)
        evecs[np.ix_(low, even_cols)] = pairs
        evecs[np.ix_(high, even_cols)] = pairs
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
    if dim > MAX_ENSEMBLE_DIM:
        raise ValueError(f"ensemble dimension {dim} exceeds cap {MAX_ENSEMBLE_DIM}")


def goe_sample(dim: int, seed: int) -> DenseOperator:
    """Real symmetric (G + G^T)/2 with standard normal G; deterministic per seed."""
    _check_ensemble_dim(dim)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    sym = g + g.T
    del g  # hold at most two matrices at once
    sym /= 2.0
    return DenseOperator(sym)


def gue_sample(dim: int, seed: int) -> DenseOperator:
    """Hermitian (G + G^dagger)/2 with complex standard normal G."""
    _check_ensemble_dim(dim)
    rng = np.random.default_rng(seed)
    g = np.empty((dim, dim), dtype=np.complex128)
    g.real = rng.standard_normal((dim, dim))
    g.imag = rng.standard_normal((dim, dim))
    herm = np.conjugate(g.T, order="C")
    herm += g
    del g  # hold at most two matrices at once
    herm /= 2.0
    return DenseOperator(herm)


def random_state(dim: int, seed: int) -> np.ndarray:
    """Normalized state with independent complex normal amplitudes."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)
