"""Lanczos construction of an orthonormal Krylov basis and its tridiagonal reduction.

The three-term recurrence maps the dynamics of (H, psi) onto a virtual
tight-binding chain: onsite energies on the tridiagonal diagonal, hoppings on
the off-diagonal, and the initial state localized at chain site 0. The
residual coupling to the first *unstored* site is kept because it is exactly
the hopping a one-site extension needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    """

    vectors: np.ndarray
    tridiag: SymmetricTridiagonal
    residual_beta: float
    breakdown: bool
    source_dim: int
    source_norm: float
    residual: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.tridiag.n


def _reorthogonalize(w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    # Two classical Gram-Schmidt passes keep the basis orthonormal at the
    # 1e-14 level even for sizes in the hundreds.
    for _ in range(2):
        w = w - vecs.T @ (vecs.conj() @ w)
    return w


def _recurrence_step(
    hamiltonian: LinearOperator, vecs: np.ndarray, j: int, beta: float, scale: float
) -> tuple[float, float, np.ndarray | None, float]:
    """Fill chain site ``j`` of ``vecs``, which ``beta`` couples to site j-1.

    Returns its onsite energy, the residual coupling and vector (0.0 and None
    on breakdown) and ``scale``, the largest coefficient magnitude, updated.
    """
    x = hamiltonian.apply(vecs[j])
    alpha = np.vdot(vecs[j], x).real
    w = x - alpha * vecs[j]
    if j > 0:
        w = w - beta * vecs[j - 1]
    w = _reorthogonalize(w, vecs[: j + 1])
    scale = max(scale, abs(alpha))
    residual_beta = float(np.linalg.norm(w))
    if residual_beta <= BREAKDOWN_RTOL * scale:
        return alpha, 0.0, None, scale
    return alpha, residual_beta, w, max(scale, residual_beta)


def lanczos_iterate(hamiltonian: LinearOperator, psi: np.ndarray, n_steps: int) -> KrylovBasis:
    """Run the Lanczos recurrence for ``n_steps`` vectors.

    Every new residual is re-projected against all stored vectors (twice),
    which is what makes the orthonormality and reduction invariants hold at
    the 1e-10 level for large bases.

    Parameters
    ----------
    hamiltonian : LinearOperator
        Hermitian operator; only ``apply`` is used.
    psi : array
        Starting state; normalized internally (its norm is remembered for
        evolution). The zero state and states with NaN or inf entries are
        rejected.
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
    vecs = np.zeros((n_steps, dim), dtype=np.complex128)
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
            size = j + 1
            break

    return KrylovBasis(
        vectors=vecs[:size] if size == n_steps else vecs[:size].copy(),
        tridiag=SymmetricTridiagonal(alphas[:size], betas[: size - 1]),
        residual_beta=beta,
        breakdown=residual is None,
        source_dim=dim,
        source_norm=source_norm,
        residual=residual,
    )


def extend_one(basis: KrylovBasis, hamiltonian: LinearOperator) -> KrylovBasis:
    """Grow the basis by one site, resuming the stored recurrence.

    Costs a single operator application and reproduces what
    :func:`lanczos_iterate` with ``n_steps + 1`` would have produced.
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
    vecs = np.vstack([basis.vectors, (basis.residual / beta)[None, :]])
    scale = max(float(np.abs(tri.diag).max()), float(tri.offdiag.max(initial=beta)))
    alpha, residual_beta, residual, _ = _recurrence_step(hamiltonian, vecs, tri.n, beta, scale)
    return KrylovBasis(
        vectors=vecs,
        tridiag=tri.append_site(alpha, beta),
        residual_beta=residual_beta,
        breakdown=residual is None,
        source_dim=basis.source_dim,
        source_norm=basis.source_norm,
        residual=residual,
    )
