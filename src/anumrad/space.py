"""Semi-Hilbertian structure induced by a positive semidefinite A.

A positive operator A defines the semi-inner product <x,y>_A = <Ax,y> and
the seminorms it induces on vectors and operators. :class:`PsdContext`
stores A, lambda_max and range(A) coordinates; :class:`AOperator` stores T
and its compression to them. Everything else is computed on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
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
    """The operator A, its largest eigenvalue and its range(A) coordinates.

    With A = Q diag(lambda) Q* over the r = rank(A) kept eigenpairs,
    ``range_basis`` is Q (n x r) and ``root`` is sqrt(lambda) (length r).
    :meth:`compress` and the n x n ``pinv_a`` and ``proj``, built on first
    read, treat components at or below rank_rel_tol * lam_max as zero.
    """

    dim: int
    a: np.ndarray
    lam_max: float
    rank: int
    range_basis: np.ndarray
    root: np.ndarray
    tol: TolerancePolicy

    @cached_property
    def pinv_a(self) -> np.ndarray:
        return (self.range_basis / self.root**2) @ self.range_basis.conj().T

    @cached_property
    def proj(self) -> np.ndarray:
        return self.range_basis @ self.range_basis.conj().T

    def compress(self, m: np.ndarray) -> np.ndarray:
        """The r x r matrix of A^{1/2} M (A^{1/2})+ in range(A) coordinates:
        Q times it times Q* is the n x n similarity, with the same nonzero
        singular values and spectrum."""
        q = self.range_basis
        return self.root[:, None] * (q.conj().T @ m @ q) / self.root[None, :]


def psd_decompose(a_raw, tol: TolerancePolicy | None = None) -> PsdContext:
    """Validate and spectrally decompose a positive semidefinite A.

    The input is symmetrized; eigenvalues within -rank_rel_tol * lambda_max
    of zero count as 0, anything more negative is an error. A zero matrix
    yields the rank-0 context.
    """
    tol = tol if tol is not None else TolerancePolicy()
    arr = as_square_matrix(a_raw)
    eig = hermitian_eig(arr, asym_rel_tol=tol.check_rel_tol)
    w = eig.eigenvalues
    lam_max = float(max(w[-1], 0.0))
    cutoff = tol.rank_rel_tol * lam_max
    if w[0] < -cutoff:
        raise NotPsdError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    keep = w > cutoff
    q = eig.eigenvectors[:, keep]
    return PsdContext(
        dim=arr.shape[0],
        a=(arr + arr.conj().T) / 2.0,
        lam_max=lam_max,
        rank=q.shape[1],
        range_basis=q,
        root=np.sqrt(w[keep]),
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

    True when rank(A) is 0 or n. Otherwise ||(I - QQ*)T*AQ||, which equals
    ||(I - QQ*)T*A|| as A = AQQ*, against max(||T*AQ||, lambda_max).
    """
    arr = as_square_matrix(t, ctx.dim)
    if ctx.rank in (0, ctx.dim):
        return True
    q = ctx.range_basis
    taq = arr.conj().T @ (ctx.a @ q)
    residual = _norm(taq - q @ (q.conj().T @ taq))
    return residual <= ctx.tol.check_rel_tol * max(_norm(taq), ctx.lam_max)


def _norm(c: np.ndarray) -> float:
    """Largest singular value of a matrix; 0 when it has no entries."""
    return float(np.linalg.svd(c, compute_uv=False).max(initial=0.0))


@dataclass(frozen=True)
class AOperator:
    """An adjointable operator T bound to a PsdContext.

    Only T and ``compressed`` = ``ctx.compress(T)`` are stored: the r x r
    A^{1/2} T (A^{1/2})+, whose spectral norms are the A-seminorms. Its parts
    ``h_re``/``h_im`` (the compressions of Re_A(T), Im_A(T)), the norms and
    the n x n ``sharp`` = A+ T* A, ``re_a``, ``im_a`` are cached on first read.
    """

    ctx: PsdContext
    t: np.ndarray
    compressed: np.ndarray = field(repr=False)

    @cached_property
    def sharp(self) -> np.ndarray:
        return self.ctx.pinv_a @ self.t.conj().T @ self.ctx.a

    @cached_property
    def re_a(self) -> np.ndarray:
        return (self.t + self.sharp) / 2.0

    @cached_property
    def im_a(self) -> np.ndarray:
        return (self.t - self.sharp) * (-0.5j)

    @cached_property
    def h_re(self) -> np.ndarray:
        return (self.compressed + self.compressed.conj().T) / 2.0

    @cached_property
    def h_im(self) -> np.ndarray:
        return (self.compressed - self.compressed.conj().T) * (-0.5j)

    @cached_property
    def seminorm(self) -> float:
        return _norm(self.compressed)

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
    """Bind T to ctx, storing T and its compression.

    Raises NotAdjointableError when T violates the Douglas condition, so
    every AOperator is adjointable.
    """
    arr = as_square_matrix(t, ctx.dim)
    if not is_adjointable(ctx, arr):
        raise NotAdjointableError("T admits no A-adjoint (R(T*A) not within R(A))")
    return AOperator(ctx=ctx, t=arr, compressed=ctx.compress(arr))


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
