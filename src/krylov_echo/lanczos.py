"""Lanczos construction of an orthonormal Krylov basis and its tridiagonal reduction.

The three-term recurrence maps the dynamics of (H, psi) onto a virtual
tight-binding chain: onsite energies on the tridiagonal diagonal, hoppings on
the off-diagonal, and the initial state localized at chain site 0. The
next Lanczos vector and its coupling to the last stored site are kept
because they are exactly what a one-site extension resumes from.

Each new residual is re-projected against every stored vector by classical
Gram-Schmidt. One pass is run, and a second only when the first left less
than 1/sqrt(2) of the residual's norm: the test of Daniel, Gragg, Kaufman &
Stewart (Math. Comp. 30, 1976). A second pass is always enough ("twice is
enough", Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005).

A step works in place on the fresh ``apply`` output: the two recurrence
terms are subtracted from it by axpy, and each Gram-Schmidt pass is two BLAS
matrix-vector products on the stored basis, so a step reads the basis twice
and makes no vector-sized temporary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zaxpy, zgemv

from .linalg import LinearOperator, SymmetricTridiagonal

__all__ = ["BREAKDOWN_RTOL", "KrylovBasis", "extend_one", "lanczos_iterate"]

# Residual norms at or below this fraction of the largest recurrence
# coefficient terminate the basis (the exact algorithm tests beta > 0).
BREAKDOWN_RTOL = 1e-12


@dataclass(eq=False)
class KrylovBasis:
    """Orthonormal Lanczos vectors together with the reduced tridiagonal.

    ``vectors[i]`` is the i-th basis vector (shape ``(size, source_dim)``).
    ``residual_beta`` couples the last stored chain site to the next one; 0.0
    marks ``breakdown``: the residual vanished, the stored span is invariant
    and evolution inside it is exact. ``vectors`` leads ``buffer``, whose row
    ``size`` holds the next Lanczos vector (unless broken down), followed in
    a fresh basis by one spare row that :func:`extend_one` fills in place
    instead of copying the basis. A basis built without a buffer cannot grow.
    """

    vectors: np.ndarray
    tridiag: SymmetricTridiagonal
    residual_beta: float
    source_norm: float
    buffer: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.tridiag.n

    @property
    def source_dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def breakdown(self) -> bool:
        return self.residual_beta == 0.0


def _reorthogonalize(w: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, float]:
    # One Gram-Schmidt pass, a second if the DGKS test fails (see the module
    # docstring); returns w, overwritten, and its norm. Each pass is two zgemv
    # calls on the Fortran-ordered view vecs.T: V^H w (trans=2, no conjugate
    # copy), then w - V c into w itself.
    basis = vecs.T
    norm = np.linalg.norm(w)
    for _ in range(2):
        coeffs = zgemv(1.0, basis, w, trans=2)
        w = zgemv(-1.0, basis, coeffs, beta=1.0, y=w, overwrite_y=True)
        before, norm = norm, float(np.linalg.norm(w))
        if norm * np.sqrt(2.0) >= before:
            break
    return w, norm


def _recurrence_step(
    hamiltonian: LinearOperator, vecs: np.ndarray, j: int, beta: float, scale: float
) -> tuple[float, float, float]:
    """Recurrence at chain site ``j`` of ``vecs``, which ``beta`` couples to site j-1.

    Returns its onsite energy, the residual coupling (0.0 on breakdown) and
    ``scale``, the largest coefficient magnitude, updated; writes the next
    Lanczos vector, the normalized residual, into ``vecs[j + 1]`` unless 0.0.
    """
    w = hamiltonian.apply(vecs[j])
    if np.may_share_memory(w, vecs):  # w is overwritten below; an apply may return its input
        w = w.copy()
    alpha = np.vdot(vecs[j], w).real
    w = zaxpy(vecs[j], w, a=-alpha)
    if j > 0:
        w = zaxpy(vecs[j - 1], w, a=-beta)
    w, residual_beta = _reorthogonalize(w, vecs[: j + 1])
    scale = max(scale, abs(alpha))
    if residual_beta <= BREAKDOWN_RTOL * scale:
        return alpha, 0.0, scale
    np.divide(w, residual_beta, out=vecs[j + 1])
    return alpha, residual_beta, max(scale, residual_beta)


def lanczos_iterate(hamiltonian: LinearOperator, psi: np.ndarray, n_steps: int) -> KrylovBasis:
    """Run the Lanczos recurrence for ``n_steps`` vectors.

    Reorthogonalizing every residual (see the module docstring) keeps the
    orthonormality and reduction invariants at the 1e-10 level for large bases.

    Parameters
    ----------
    hamiltonian : LinearOperator
        Hermitian operator; only ``apply`` is used.
    psi : array
        Starting state; scaled to unit norm internally (its norm is
        remembered for evolution). The zero state and states with NaN or
        inf entries are rejected.
    n_steps : int
        Requested basis size, ``1 <= n_steps <= hamiltonian.dim``.

    Returns
    -------
    KrylovBasis
        Basis of size ``min(n_steps, breakdown point)``. The final residual
        norm is ``residual_beta`` and the next vector waits in ``buffer``;
        a vanished residual is stored as 0.0, which is ``breakdown``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_steps > hamiltonian.dim:
        raise ValueError(f"n_steps {n_steps} exceeds operator dimension {hamiltonian.dim}")
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (hamiltonian.dim,):
        raise ValueError(f"state shape {psi.shape} does not match dim {hamiltonian.dim}")
    source_norm = float(np.linalg.norm(psi))
    if not np.isfinite(source_norm):
        raise ValueError("cannot build a Krylov basis from a state with NaN or inf entries")
    if source_norm == 0.0:
        raise ValueError("cannot build a Krylov basis from the zero state")

    # Rows: the basis, its next vector, one spare; betas[j] couples site j-1 to j.
    dim = hamiltonian.dim
    vecs = np.zeros((min(n_steps + 2, dim + 1), dim), dtype=np.complex128)
    alphas = np.zeros(n_steps)
    betas = np.zeros(n_steps + 1)

    vecs[0] = psi / source_norm
    scale, size = 0.0, n_steps
    for j in range(n_steps):
        alphas[j], betas[j + 1], scale = _recurrence_step(hamiltonian, vecs, j, betas[j], scale)
        if betas[j + 1] == 0.0:
            vecs, size = vecs[: j + 1].copy(), j + 1
            break

    return KrylovBasis(
        vectors=vecs[:size],
        tridiag=SymmetricTridiagonal(alphas[:size], betas[1:size]),
        residual_beta=float(betas[size]),
        source_norm=source_norm,
        buffer=vecs,
    )


def extend_one(basis: KrylovBasis, hamiltonian: LinearOperator) -> KrylovBasis:
    """Grow the basis by one site, resuming the stored recurrence.

    Costs a single operator application and reproduces what
    :func:`lanczos_iterate` with ``n_steps + 1`` would have produced. The new
    site is the next vector already in ``basis.buffer``; its own next vector
    goes into the spare row (the same values on every call), sharing that
    memory. An extension has no spare row and is copied to grow.
    """
    if basis.breakdown:
        raise ValueError(
            "cannot extend: the basis spans an invariant subspace, so Krylov "
            "evolution inside it is already exact"
        )
    if basis.size >= basis.source_dim:
        raise ValueError("basis already spans the full space")
    if basis.buffer is None:
        raise ValueError(
            "cannot extend: the basis holds no next vector (it was built without a buffer)"
        )
    if hamiltonian.dim != basis.source_dim:
        raise ValueError(
            f"operator dimension {hamiltonian.dim} does not match basis source_dim {basis.source_dim}"
        )

    beta, tri, buffer = basis.residual_beta, basis.tridiag, basis.buffer
    if buffer.shape[0] == tri.n + 1:
        buffer = np.vstack([buffer, np.empty_like(buffer[:1])])
    scale = max(float(np.abs(tri.diag).max()), float(tri.offdiag.max(initial=beta)))
    alpha, residual_beta, _ = _recurrence_step(hamiltonian, buffer, tri.n, beta, scale)
    return KrylovBasis(
        vectors=buffer[: tri.n + 1],
        tridiag=tri.append_site(alpha, beta),
        residual_beta=residual_beta,
        source_norm=basis.source_norm,
        buffer=buffer,
    )
