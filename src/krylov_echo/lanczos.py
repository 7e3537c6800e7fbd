"""Lanczos construction of an orthonormal Krylov basis and its tridiagonal reduction.

The three-term recurrence maps the dynamics of (H, psi) onto a virtual
tight-binding chain: onsite energies on the tridiagonal diagonal, hoppings on
the off-diagonal, and the initial state localized at chain site 0. The
residual coupling to the first *unstored* site is kept because it is exactly
the hopping a one-site extension needs.

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
    ``residual_beta`` is the coupling from the last stored chain site to the
    prospective next one; ``residual`` holds the corresponding unnormalized
    residual vector so a later extension can resume the recurrence exactly.
    ``breakdown`` marks that the residual vanished: the stored span is an
    invariant subspace and evolution inside it is exact from then on.
    ``vectors`` leads ``buffer``, where a fresh basis keeps one spare row
    that :func:`extend_one` fills in place instead of copying the basis.
    """

    vectors: np.ndarray
    tridiag: SymmetricTridiagonal
    residual_beta: float
    breakdown: bool
    source_dim: int
    source_norm: float
    residual: np.ndarray | None = field(default=None, repr=False)
    buffer: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.tridiag.n


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
) -> tuple[float, float, np.ndarray | None, float]:
    """Fill chain site ``j`` of ``vecs``, which ``beta`` couples to site j-1.

    Returns its onsite energy, the residual coupling and vector (0.0 and None
    on breakdown) and ``scale``, the largest coefficient magnitude, updated.
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
        return alpha, 0.0, None, scale
    return alpha, residual_beta, w, max(scale, residual_beta)


def lanczos_iterate(hamiltonian: LinearOperator, psi: np.ndarray, n_steps: int) -> KrylovBasis:
    """Run the Lanczos recurrence for ``n_steps`` vectors.

    Every new residual is re-projected against all stored vectors, a second
    time when the DGKS test asks for it (see the module docstring), which is
    what makes the orthonormality and reduction invariants hold at the 1e-10
    level for large bases.

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
        norm is stored as ``residual_beta`` even when the next vector is not;
        if it vanished the basis is flagged as ``breakdown``.
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

    dim = hamiltonian.dim
    vecs = np.zeros((min(n_steps + 1, dim), dim), dtype=np.complex128)
    alphas = np.zeros(n_steps)
    betas = np.zeros(max(n_steps - 1, 0))

    vecs[0] = psi / source_norm
    beta, residual, scale = 0.0, None, 0.0
    size = n_steps
    for j in range(n_steps):
        if j > 0:
            betas[j - 1] = beta
            vecs[j] = residual / beta
        alphas[j], beta, residual, scale = _recurrence_step(hamiltonian, vecs, j, beta, scale)
        if residual is None:
            vecs, size = vecs[: j + 1].copy(), j + 1
            break

    return KrylovBasis(
        vectors=vecs[:size],
        tridiag=SymmetricTridiagonal(alphas[:size], betas[: size - 1]),
        residual_beta=beta,
        breakdown=residual is None,
        source_dim=dim,
        source_norm=source_norm,
        residual=residual,
        buffer=vecs,
    )


def extend_one(basis: KrylovBasis, hamiltonian: LinearOperator) -> KrylovBasis:
    """Grow the basis by one site, resuming the stored recurrence.

    Costs a single operator application and reproduces what
    :func:`lanczos_iterate` with ``n_steps + 1`` would have produced. It writes
    the spare row of ``basis.buffer`` (the same values on every call) and shares
    that memory; an extension has no spare row and is copied to grow.
    """
    if basis.breakdown:
        raise ValueError(
            "cannot extend: the basis spans an invariant subspace, so Krylov "
            "evolution inside it is already exact"
        )
    if basis.size >= basis.source_dim:
        raise ValueError("basis already spans the full space")
    if hamiltonian.dim != basis.source_dim:
        raise ValueError(
            f"operator dimension {hamiltonian.dim} does not match basis source_dim {basis.source_dim}"
        )

    beta = basis.residual_beta
    tri = basis.tridiag
    buffer = basis.vectors if basis.buffer is None else basis.buffer
    if buffer.shape[0] == tri.n:
        buffer = np.vstack([buffer, np.empty_like(buffer[:1])])
    buffer[tri.n] = basis.residual / beta
    scale = max(float(np.abs(tri.diag).max()), float(tri.offdiag.max(initial=beta)))
    alpha, residual_beta, residual, _ = _recurrence_step(hamiltonian, buffer, tri.n, beta, scale)
    return KrylovBasis(
        vectors=buffer[: tri.n + 1],
        tridiag=tri.append_site(alpha, beta),
        residual_beta=residual_beta,
        breakdown=residual is None,
        source_dim=basis.source_dim,
        source_norm=basis.source_norm,
        residual=residual,
        buffer=buffer,
    )
