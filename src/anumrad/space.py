"""Semi-Hilbertian structure induced by a positive semidefinite A.

A positive operator A defines the semi-inner product <x,y>_A = <Ax,y> and
the seminorms it induces on vectors and operators. :class:`PsdContext`
stores A, lambda_max and range(A) coordinates; :class:`AOperator` stores T
and its compression to them. Everything else is computed on first read.
f(theta) = ||Re_A(e^{i theta}T)||_A has one kernel here, ``_extremes``: the
Cartesian-part norms are f at four angles, and ``radius`` reads f through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    SCALE_MAX,
    SCALE_MIN,
    LinAlgInputError,
    NotHermitianError,
    NotPsdError,
    ScaleRangeError,
    TolerancePolicy,
    as_square_matrix,
    as_vector,
    sigma_max,
)


class NotAdjointableError(LinAlgInputError):
    """Raised when an A-adjoint is requested for T outside B_A(H)."""


@dataclass(frozen=True)
class PsdContext:
    """The operator A, its largest eigenvalue and its range(A) coordinates.

    With A = Q diag(lambda) Q* over the r = rank(A) kept eigenpairs,
    ``range_basis`` is Q (n x r) and ``root`` is sqrt(lambda) (length r).
    :meth:`compress` and the n x n ``pinv_a`` and ``proj``, built on first
    read, treat the eigenvalues at or below eps_A = 32 n eps lam_max as zero
    (see :func:`psd_decompose`).
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

    An asymmetry max|A - A*| above check_rel_tol max|A| raises
    NotHermitianError; otherwise (A + A*)/2 is formed once, stored and
    decomposed. One rounding bound decides rank and PSD-ness:
    eps_A = 32 n eps lambda_max, a multiple of the normwise backward error
    of ``eigh`` on n x n A (numpy's ``matrix_rank`` cuts at n eps sigma_max).
    Eigenvalues above eps_A are kept, below -eps_A raise NotPsdError, and
    the rest count as 0; a zero A yields the rank-0 context. The factor 32
    is 38 times the largest noise eigenvalue measured (0.835 n eps
    lambda_max) over 13,437 generated singular A, whose signal eigenvalues
    were all >= 1.9e-6 lambda_max. Clamping -1e-14 at n = 2 needs a
    factor of 23 or more; a graded A with lambda_min = 2.27e-12 lambda_max
    at n = 4 keeps full rank for any factor below 2,600.
    """
    tol = tol if tol is not None else TolerancePolicy()
    arr = as_square_matrix(a_raw)
    scale = float(np.abs(arr).max())
    asym = float(np.abs(arr - arr.conj().T).max())
    if scale > 0.0 and asym > tol.check_rel_tol * scale:
        raise NotHermitianError(
            f"matrix is materially non-Hermitian (asymmetry {asym:.3e}, scale {scale:.3e})"
        )
    a = (arr + arr.conj().T) / 2.0
    w, u = np.linalg.eigh(a)
    lam_max = float(max(w[-1], 0.0))
    if lam_max != 0.0 and not SCALE_MIN <= lam_max <= SCALE_MAX:
        raise ScaleRangeError(f"lambda_max(A) = {lam_max:.3e} lies outside [2^-500, 2^500]")
    cutoff = 32 * arr.shape[0] * np.finfo(float).eps * lam_max
    if w[0] < -cutoff:
        raise NotPsdError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    keep = w > cutoff
    q = u[:, keep]
    return PsdContext(
        dim=arr.shape[0],
        a=a,
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
    """The seminorm ||x||_A = sqrt(<x,x>_A); vanishes on null(A)."""
    return float(np.sqrt(max(a_inner(ctx, x, x).real, 0.0)))


def _unit_scaled(t: np.ndarray) -> np.ndarray:
    """T times the power of two 2^e that puts the largest |Re| or |Im| entry
    in [1/2, 1), so that products with A (lambda_max <= 2^500) cannot
    overflow; exact for every entry that stays a normal float. 2^e is
    applied in two halves: 2.0**e alone overflows for the e = 1073 of a
    subnormal max|T| and is subnormal for the e = -1024 of the largest."""
    top = max(float(np.abs(t.real).max()), float(np.abs(t.imag).max()))
    if top == 0.0:
        return t
    e = -math.frexp(top)[1]
    return t * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)


def is_adjointable(ctx: PsdContext, t) -> bool:
    """Douglas condition R(T*A) subset R(A), tested as a relative residual.

    True when rank(A) is 0 or n. Otherwise ||(I - QQ*)T*AQ||, which equals
    ||(I - QQ*)T*A|| as A = AQQ*, against check_rel_tol * lambda_max * ||T||,
    which bounds ||T*AQ|| and its rounding, so rescaling T or A keeps the
    verdict. The verdict is homogeneous in T, so T is first scaled by a power
    of two (``_unit_scaled``) and T*AQ cannot overflow.
    """
    arr = as_square_matrix(t, ctx.dim)
    if ctx.rank in (0, ctx.dim):
        return True
    arr = _unit_scaled(arr)
    q = ctx.range_basis
    taq = arr.conj().T @ (ctx.a @ q)
    residual = sigma_max(taq - q @ (q.conj().T @ taq))
    return residual <= ctx.tol.check_rel_tol * ctx.lam_max * sigma_max(arr)


_ENDS = np.array([0, -1])  # the columns of lambda_min and lambda_max in eigvalsh's output
# For part_norms: H(0) = H_re, H(pi/2) = -H_im, H(3 pi/4) = -(H_re + H_im)/sqrt 2, H(pi/4) = (H_re - H_im)/sqrt 2.
_PART_ANGLES = np.array([0.0, 0.5, 0.75, 0.25]) * math.pi
_PART_WEIGHTS = np.array([1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)])


def _support_pencils(op: AOperator, th: np.ndarray) -> np.ndarray:
    """The stack H(theta) = cos(theta) H_re - sin(theta) H_im, the
    compressions of Re_A(e^{i theta}T), one r x r matrix per angle."""
    return np.cos(th)[:, None, None] * op.h_re - np.sin(th)[:, None, None] * op.h_im


def _extremes(op: AOperator, th: np.ndarray) -> np.ndarray:
    """lambda_min and lambda_max of H(theta) for each angle of th, one row
    per angle, from one batched eigvalsh; zero rows when rank(A) = 0. Every
    eigensolve of f goes through here, the Cartesian-part norms included."""
    if op.ctx.rank == 0:
        return np.zeros((th.size, 2))
    return np.linalg.eigvalsh(_support_pencils(op, th))[:, _ENDS]


def _magnitude(lam: np.ndarray) -> np.ndarray:
    """f = max(|lambda_min|, |lambda_max|) = ||H(theta)|| from ``_extremes`` rows."""
    return np.abs(lam).max(axis=-1)


@dataclass(frozen=True)
class AOperator:
    """An adjointable operator T bound to a PsdContext.

    Only T and ``compressed`` = ``ctx.compress(T)`` are stored: the r x r
    A^{1/2} T (A^{1/2})+, whose spectral norms are the A-seminorms; a product's
    is the product of the factors' (``bounds._commutator_radius``). Its parts
    ``h_re``/``h_im`` (the compressions of Re_A(T), Im_A(T)), the norms and
    the n x n ``sharp`` = A+ T* A, ``re_a``, ``im_a`` are cached on first read.
    No eigenvalue of the support pencils is kept: each caller solves the
    angles it reads.
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
        return sigma_max(self.compressed)

    @cached_property
    def part_norms(self) -> tuple[float, float, float, float]:
        """||Re_A(T)||_A, ||Im_A(T)||_A, ||Re + Im||_A and ||Re - Im||_A: f at
        0 and pi/2 and sqrt 2 f at 3 pi/4 and pi/4, the angles that the
        refined bounds' proofs pass through, from one batched eigensolve. A
        zero part reads a rounding below eps ||T||_A, as cos(pi/2) = 6.1e-17."""
        return tuple(float(x) for x in _magnitude(_extremes(self, _PART_ANGLES)) * _PART_WEIGHTS)

    @cached_property
    def form_norm(self) -> float:
        """||T#A T + T T#A||_A, computed as ||C*C + CC*|| in compressed form."""
        c = self.compressed
        return sigma_max(c.conj().T @ c + c @ c.conj().T)


def make_a_operator(ctx: PsdContext, t) -> AOperator:
    """Bind T to ctx, storing T and its compression.

    Raises NotAdjointableError when T violates the Douglas condition, so
    every AOperator is adjointable, and ScaleRangeError when the compression
    C is nonzero with max|C| < SCALE_MIN or rank(A) max|C| > SCALE_MAX.
    """
    arr = as_square_matrix(t, ctx.dim)
    if not is_adjointable(ctx, arr):
        raise NotAdjointableError("T admits no A-adjoint (R(T*A) not within R(A))")
    c = ctx.compress(arr)
    m = float(np.abs(c).max(initial=0.0))
    if m != 0.0 and not (SCALE_MIN <= m and ctx.rank * m <= SCALE_MAX):
        raise ScaleRangeError(
            f"T's compression has max|C| = {m:.3e} at rank(A) = {ctx.rank}; certification needs "
            "max|C| >= 2^-500 and rank(A) max|C| <= 2^500"
        )
    return AOperator(ctx=ctx, t=arr, compressed=c)


def seminorm_mat(ctx: PsdContext, m) -> float:
    """||M||_A of a raw matrix; raises as :func:`make_a_operator` does, so a
    matrix outside B_A(H), where ||M||_A can be unbounded, is refused."""
    return make_a_operator(ctx, m).seminorm


def is_a_selfadjoint(ctx: PsdContext, t) -> bool:
    """True iff ||AT - T*A|| <= check_rel_tol * lambda_max * ||T||, the
    residual in the units of AT, evaluated on T scaled by a power of two as
    in :func:`is_adjointable`."""
    arr = _unit_scaled(as_square_matrix(t, ctx.dim))
    residual = sigma_max(ctx.a @ arr - arr.conj().T @ ctx.a)
    return residual <= ctx.tol.check_rel_tol * ctx.lam_max * sigma_max(arr)
