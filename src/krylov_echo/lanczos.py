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

Each pass first measures the projections ``c = V^H w``. When every one is
at most ``ORTHO_RTOL`` of ``||w||``, the update ``w - V c`` is skipped;
otherwise only the contiguous rows from the first to the last projection
above it are subtracted, and the rest stay within ``ORTHO_RTOL`` as a
skipped update leaves them.

Between measurements the overlaps are modelled, not measured. The run
carries Simon's recurrence for them (Math. Comp. 42, 1984; Paige, IMA J.
Appl. Math. 18, 1976), driven by the coefficients it already has plus a
roundoff term ``sqrt(D) u ||T||``, in O(j) scalar work per step. The model
keeps the exact cancellation of the two ``beta_j`` terms against
``<v_{j-1}, v_{j+1}>`` and bounds every other term by its absolute value.
A step measures only when the modelled ``max |<v_k, v_{j+1}>|`` exceeds
``OMEGA_GATE``, and a measurement resets the model to ``ORTHO_RTOL``. This
is the model of partial reorthogonalization, which lets the overlaps grow
to sqrt(u), about 1e-8, before it corrects them; here the gate is 1e-13,
and every measured step is the full measure-update-DGKS pass above.

A step works in the next row of the basis: ``apply`` writes ``H v_j``
straight into row j+1, where the two recurrence terms are subtracted by one
zgemv over rows j-1..j, each Gram-Schmidt pass is one or two BLAS
matrix-vector products on the stored basis, and one multiply by ``1/beta``
normalizes. Every norm is ``sqrt(<w, w>)``, one contiguous pass. On the
adaptive runs of a 14-spin chain about 40 % of the steps skip the
measurement, most measured ones skip the update, and an update reads only
its span, so a step reads the basis about 0.76 times rather than 1.35. A
step makes no vector-sized temporary of its own; the Ising apply takes one
work vector. A caller that builds many bases, such as the adaptive stepper,
passes one buffer to every build, so no basis is allocated after the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dsbmv, idamax, zaxpy, zgemv

from .linalg import LinearOperator, SymmetricTridiagonal

__all__ = [
    "BREAKDOWN_RTOL",
    "KrylovBasis",
    "OMEGA_GATE",
    "ORTHO_RTOL",
    "extend_one",
    "lanczos_iterate",
]

# Residual norms at or below this fraction of the largest recurrence
# coefficient terminate the basis (the exact algorithm tests beta > 0).
BREAKDOWN_RTOL = 1e-12

# Projections of a residual onto the stored basis at or below this fraction
# of its norm are left in place: the Gram-Schmidt update is skipped.
ORTHO_RTOL = 1e-14

# A step whose modelled overlaps are all at or below this is not measured.
OMEGA_GATE = 1e-13


@dataclass(eq=False)
class KrylovBasis:
    """Orthonormal Lanczos vectors together with the reduced tridiagonal.

    ``vectors[i]`` is the i-th basis vector (shape ``(size, source_dim)``).
    ``residual_beta`` couples the last stored chain site to the next one; 0.0
    marks ``breakdown``: the residual vanished, the stored span is invariant
    and evolution inside it is exact. ``vectors`` leads ``buffer``, whose row
    ``size`` holds the next Lanczos vector (on breakdown, the unnormalized
    residual the step built there), followed in a fresh basis by at least
    one spare row that :func:`extend_one` fills in place instead of copying
    the basis. ``buffer`` is allocated by
    :func:`lanczos_iterate` or passed to it by the caller, who may reuse it
    once done with the basis. A basis made with ``buffer=None`` cannot grow.
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


def _norm(w: np.ndarray) -> float:
    """``||w||`` as ``sqrt(<w, w>)``: one contiguous pass."""
    return math.sqrt(np.vdot(w, w).real)


def _reorthogonalize(w: np.ndarray, vecs: np.ndarray, norm: float | None = None) -> float:
    # One Gram-Schmidt pass, a second if the DGKS test fails (see the module
    # docstring); overwrites w in place and returns its norm (passed in when
    # known). Each pass is a zgemv on the Fortran-ordered view vecs.T
    # measuring V^H w (trans=2, no conjugate copy), then, unless every
    # projection is within ORTHO_RTOL, a second one writing
    # w - V[lo:hi] c[lo:hi] into w itself, over the columns lo..hi-1 that
    # span the projections above it.
    basis = vecs.T
    if norm is None:
        norm = _norm(w)
    for _ in range(2):
        coeffs = zgemv(1.0, basis, w, trans=2)
        sizes = np.abs(coeffs)
        if sizes.max() <= ORTHO_RTOL * norm:
            break
        flagged = np.flatnonzero(sizes > ORTHO_RTOL * norm)
        lo, hi = flagged[0], flagged[-1] + 1
        zgemv(-1.0, basis[:, lo:hi], coeffs[lo:hi], beta=1.0, y=w, overwrite_y=True)
        before, norm = norm, _norm(w)
        if norm * np.sqrt(2.0) >= before:
            break
    return norm


class _OverlapModel:
    """Bounds on the overlaps ``|<v_k, v_{j+1}>|`` of one Lanczos run, by Simon's recurrence.

    With ``o_{j,k} = <v_k, v_j>``, the recurrence and its roundoff give, for k < j,
    ``beta_{j+1} o_{j+1,k} = beta_{k+1} o_{j,k+1} + (alpha_k - alpha_j) o_{j,k}
    + beta_k o_{j,k-1} - beta_j o_{j-1,k} + roundoff``. At ``k = j - 1`` the
    two ``beta_j`` terms multiply ``o_{j,j} = o_{j-1,j-1} = 1`` and cancel, so
    they are left out and each row's own entry is stored as 0. Every other
    term is taken in absolute value and the roundoff ``sqrt(D) u ||T||`` is
    added, ``||T||`` bounded by the largest Gershgorin row sum so far: each
    entry then bounds what the recurrence makes of overlaps of any phase.
    Against ``v_j`` itself only the ``beta_j <v_j, v_{j-1}>`` term remains.

    Two preallocated rows hold the bounds for the current and the previous
    vector; each step writes the next vector's over the previous one's with
    one banded matrix-vector product.
    """

    def __init__(self, alphas: np.ndarray, dim: int):
        self.alphas = alphas
        self.prev, self.cur = np.zeros((2, alphas.size + 1))
        # Upper band storage of |T - alpha_j I|: couplings in row 0, onsite in row 1.
        self.band = np.zeros((2, alphas.size), order="F")
        # sqrt(D) u: the typical relative roundoff of a D-term inner product.
        self.dot_roundoff = np.sqrt(dim) * np.finfo(np.float64).eps / 2
        self.tnorm = 0.0

    def needs_measurement(self, j: int, alpha: float, beta: float, norm: float) -> bool:
        """Bound ``|<v_k, w>| / norm`` for k <= j; True unless every bound is within OMEGA_GATE.

        ``alpha`` and ``beta`` are site j's onsite energy and its coupling to
        site j-1, ``alphas[:j]`` the earlier onsite energies, and ``w`` the
        residual before any Gram-Schmidt pass. The bounds become the current row.
        """
        cur, out = self.cur, self.prev
        self.prev, self.cur = cur, out
        self.band[0, j] = beta
        out[j + 1] = 0.0
        if not norm > 0.0:
            return True
        self.tnorm = max(self.tnorm, abs(alpha) + beta + norm)
        out[j] = 0.0
        if j:
            band = self.band[:, :j]
            np.subtract(self.alphas[:j], alpha, out=band[1])
            np.abs(band[1], out=band[1])
            dsbmv(1, 1.0 / norm, band, cur[:j], beta=beta / norm, y=out[:j], overwrite_y=True)
            out[j] = beta * cur[j - 1] / norm
        bounds = out[: j + 1]
        bounds += self.dot_roundoff * self.tnorm / norm
        return not bounds[idamax(bounds)] <= OMEGA_GATE

    def reset(self, j: int) -> None:
        """A measured step left each ``|<v_k, v_{j+1}>|`` at or below ORTHO_RTOL."""
        self.cur[: j + 1] = ORTHO_RTOL


def _recurrence_step(
    hamiltonian: LinearOperator,
    vecs: np.ndarray,
    j: int,
    beta: float,
    scale: float,
    overlaps: _OverlapModel | None = None,
) -> tuple[float, float, float]:
    """Recurrence at chain site ``j`` of ``vecs``, which ``beta`` couples to site j-1.

    Returns its onsite energy, the residual coupling (0.0 on breakdown) and
    ``scale``, the largest coefficient magnitude, updated. The residual is
    built in ``vecs[j + 1]`` itself: ``v_j`` is applied straight into that
    row, the two recurrence terms are subtracted there by one zgemv over rows
    j-1..j, and the row is normalized in place, unless the coupling is 0.0,
    when it keeps the unnormalized residual. The residual is reorthogonalized
    unless ``overlaps`` models it within ``OMEGA_GATE``; without a model it
    always is.
    """
    v, w = vecs[j], vecs[j + 1]
    if hamiltonian.apply(v, out=w) is not w:
        raise ValueError("apply(vec, out=...) must write into out and return it")
    alpha = np.vdot(v, w).real
    if j:
        zgemv(-1.0, vecs[j - 1 : j + 1].T, np.array([beta, alpha]), beta=1.0, y=w, overwrite_y=True)
    else:
        zaxpy(v, w, a=-alpha)
    residual_beta = _norm(w)
    if overlaps is None or overlaps.needs_measurement(j, alpha, beta, residual_beta):
        residual_beta = _reorthogonalize(w, vecs[: j + 1], residual_beta)
        if overlaps is not None:
            overlaps.reset(j)
    scale = max(scale, abs(alpha))
    if residual_beta <= BREAKDOWN_RTOL * scale:
        return alpha, 0.0, scale
    # One real multiply per component, on the float64 view.
    parts = w.view(np.float64)
    parts *= 1.0 / residual_beta
    return alpha, residual_beta, max(scale, residual_beta)


def lanczos_iterate(
    hamiltonian: LinearOperator, psi: np.ndarray, n_steps: int, buffer: np.ndarray | None = None
) -> KrylovBasis:
    """Run the Lanczos recurrence for ``n_steps`` vectors.

    Reorthogonalizing every residual whose modelled overlaps exceed
    ``OMEGA_GATE`` (see the module docstring) keeps the orthonormality and
    reduction invariants at the 1e-10 level for large bases.

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
    buffer : array, optional
        Caller-owned C-contiguous complex128 array of at least
        ``min(n_steps + 2, dim + 1)`` rows of ``dim`` entries. The basis,
        its next vector and the spare row are built in it, with ``psi``
        divided into row 0 first, so ``psi`` may be any row of it; a basis
        that breaks down stays in it. Without one, a zeroed array of that
        many rows is allocated, and a breakdown basis is copied out of it.

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
    rows = min(n_steps + 2, dim + 1)
    if buffer is None:
        vecs = np.zeros((rows, dim), dtype=np.complex128)
    elif not (
        isinstance(buffer, np.ndarray)
        and buffer.dtype == np.complex128
        and buffer.flags.c_contiguous
        and buffer.ndim == 2
        and buffer.shape[0] >= rows
        and buffer.shape[1] == dim
    ):
        raise ValueError(
            f"buffer must be a C-contiguous complex128 array of at least {rows} rows of {dim}"
        )
    else:
        vecs = buffer
    alphas = np.zeros(n_steps)
    betas = np.zeros(n_steps + 1)

    np.divide(psi, source_norm, out=vecs[0])
    overlaps = _OverlapModel(alphas, dim)
    scale, size = 0.0, n_steps
    for j in range(n_steps):
        alphas[j], betas[j + 1], scale = _recurrence_step(
            hamiltonian, vecs, j, betas[j], scale, overlaps
        )
        if betas[j + 1] == 0.0:
            size = j + 1
            if buffer is None:  # release the rows the basis did not use
                vecs = vecs[:size].copy()
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

    Costs a single operator application and reproduces, to roundoff, what
    :func:`lanczos_iterate` with ``n_steps + 1`` would have produced. The
    extension carries no overlap model, so it always measures the new
    residual's projections; a longer run may skip that measurement, so the
    two agree bit for bit only when the run measured that step too. The new
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
