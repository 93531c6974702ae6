"""Semi-Hilbertian structure induced by a positive semidefinite A.

A positive operator A defines the semi-inner product <x,y>_A = <Ax,y> and
the seminorms it induces on vectors and operators. :class:`PsdContext`
packages A together with its eigendecomposition, Moore-Penrose inverse,
range projection and range(A) coordinates; :class:`AOperator` binds an
operator T to that context with its A-adjoint and Cartesian parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    HermEig,
    LinAlgInputError,
    NotPsdError,
    TolerancePolicy,
    as_square_matrix,
    as_vector,
    hermitian_eig,
    spectral_norm,
)


class NotAdjointableError(LinAlgInputError):
    """Raised when an A-adjoint is requested for T outside B_A(H)."""


@dataclass(frozen=True)
class PsdContext:
    """The operator A with everything derived from its spectrum.

    With A = Q diag(lambda) Q* over the r = rank(A) kept eigenpairs,
    ``range_basis`` is Q (n x r) and ``root`` is sqrt(lambda) (length r).
    ``pinv_a``, ``proj`` and :meth:`compress` all share that rank decision:
    spectral components at or below rank_rel_tol * lambda_max are treated
    as exactly zero.
    """

    dim: int
    a: np.ndarray
    eig: HermEig
    rank: int
    range_basis: np.ndarray
    root: np.ndarray
    pinv_a: np.ndarray
    proj: np.ndarray
    tol: TolerancePolicy

    @property
    def lam_max(self) -> float:
        return float(max(self.eig.eigenvalues[-1], 0.0))

    def compress(self, m: np.ndarray) -> np.ndarray:
        """The r x r matrix of A^{1/2} M (A^{1/2})+ in range(A) coordinates:
        Q times it times Q* is the n x n similarity, with the same nonzero
        singular values and spectrum."""
        q = self.range_basis
        return self.root[:, None] * (q.conj().T @ m @ q) / self.root[None, :]


def psd_decompose(a_raw, tol: TolerancePolicy | None = None) -> PsdContext:
    """Validate and spectrally decompose a positive semidefinite A.

    The input is symmetrized; eigenvalues within -rank_rel_tol * lambda_max
    of zero are clamped to 0, anything more negative is an error. A zero
    matrix yields the rank-0 context.
    """
    tol = tol if tol is not None else TolerancePolicy()
    arr = as_square_matrix(a_raw)
    eig = hermitian_eig(arr, asym_rel_tol=tol.check_rel_tol)
    w = eig.eigenvalues
    lam_max = float(max(w[-1], 0.0))
    cutoff = tol.rank_rel_tol * lam_max
    if w[0] < -cutoff:
        raise NotPsdError(
            f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    w = np.clip(w, 0.0, None)
    keep = w > cutoff
    q = eig.eigenvectors[:, keep]
    return PsdContext(
        dim=arr.shape[0],
        a=(arr + arr.conj().T) / 2.0,
        eig=HermEig(eigenvalues=w, eigenvectors=eig.eigenvectors),
        rank=q.shape[1],
        range_basis=q,
        root=np.sqrt(w[keep]),
        pinv_a=(q / w[keep]) @ q.conj().T,
        proj=q @ q.conj().T,
        tol=tol,
    )


def a_inner(ctx: PsdContext, x, y) -> complex:
    """The semi-inner product <x,y>_A = <Ax,y> = y* A x."""
    xv = as_vector(x, ctx.dim)
    yv = as_vector(y, ctx.dim)
    return complex(yv.conj() @ (ctx.a @ xv))


def a_norm_vec(ctx: PsdContext, x) -> float:
    """The seminorm ||x||_A; vanishes on null(A)."""
    xv = as_vector(x, ctx.dim)
    val = (xv.conj() @ (ctx.a @ xv)).real
    return float(np.sqrt(max(val, 0.0)))


def is_adjointable(ctx: PsdContext, t) -> bool:
    """Douglas condition R(T*A) subset R(A), tested as a relative residual.

    Vacuously true when T*A = 0 and whenever A is invertible.
    """
    arr = as_square_matrix(t, ctx.dim)
    ta = arr.conj().T @ ctx.a
    residual = spectral_norm(ta - ctx.proj @ ta)
    scale = max(spectral_norm(ta), ctx.lam_max)
    return residual <= ctx.tol.check_rel_tol * scale if scale > 0.0 else True


def _norm(c: np.ndarray) -> float:
    """Largest singular value of an r x r matrix; 0 when r = 0."""
    return float(np.linalg.svd(c, compute_uv=False).max(initial=0.0))


@dataclass(frozen=True)
class AOperator:
    """An operator T bound to a PsdContext, with its A-adjoint and parts.

    ``compressed`` is the r x r matrix ``ctx.compress(T)`` of
    A^{1/2} T (A^{1/2})+, the similarity under which all A-seminorms become
    ordinary spectral norms; ``h_re``/``h_im`` are its Hermitian and skew
    parts, i.e. the compressions of Re_A(T) and Im_A(T). Every A-seminorm is
    computed on these r x r matrices, so its cost follows rank(A), not dim.
    The norms every bound needs are computed on first use and cached.
    """

    ctx: PsdContext
    t: np.ndarray
    sharp: np.ndarray
    re_a: np.ndarray
    im_a: np.ndarray
    compressed: np.ndarray = field(repr=False)
    h_re: np.ndarray = field(repr=False)
    h_im: np.ndarray = field(repr=False)
    seminorm: float

    @cached_property
    def part_norms(self) -> tuple[float, float, float, float]:
        """||Re_A(T)||_A, ||Im_A(T)||_A, ||Re + Im||_A and ||Re - Im||_A, via
        the compressed Hermitian parts (exact images of the Cartesian parts)."""
        return (
            _norm(self.h_re),
            _norm(self.h_im),
            _norm(self.h_re + self.h_im),
            _norm(self.h_re - self.h_im),
        )

    @cached_property
    def form_norm(self) -> float:
        """||T#A T + T T#A||_A, computed as ||C*C + CC*|| in compressed form."""
        c = self.compressed
        return _norm(c.conj().T @ c + c @ c.conj().T)


def make_a_operator(ctx: PsdContext, t) -> AOperator:
    """Construct the A-adjoint T#A = A+ T* A and the Cartesian parts of T.

    Raises NotAdjointableError when T violates the Douglas condition, so
    every AOperator is adjointable.
    """
    arr = as_square_matrix(t, ctx.dim)
    if not is_adjointable(ctx, arr):
        raise NotAdjointableError("T admits no A-adjoint (R(T*A) not within R(A))")
    sharp = ctx.pinv_a @ arr.conj().T @ ctx.a
    re_a = (arr + sharp) / 2.0
    im_a = (arr - sharp) * (-0.5j)
    compressed = ctx.compress(arr)
    h_re = (compressed + compressed.conj().T) / 2.0
    h_im = (compressed - compressed.conj().T) * (-0.5j)
    return AOperator(
        ctx=ctx,
        t=arr,
        sharp=sharp,
        re_a=re_a,
        im_a=im_a,
        compressed=compressed,
        h_re=h_re,
        h_im=h_im,
        seminorm=_norm(compressed),
    )


def seminorm_mat(ctx: PsdContext, m) -> float:
    """A-seminorm of a raw matrix, without building a full AOperator."""
    arr = as_square_matrix(m, ctx.dim)
    return _norm(ctx.compress(arr))


def is_a_selfadjoint(ctx: PsdContext, t) -> bool:
    """True iff AT = T*A within the relative check tolerance."""
    arr = as_square_matrix(t, ctx.dim)
    at = ctx.a @ arr
    residual = spectral_norm(at - arr.conj().T @ ctx.a)
    scale = max(spectral_norm(at), ctx.lam_max)
    return residual <= ctx.tol.check_rel_tol * scale if scale > 0.0 else True
