"""Dense complex-matrix primitives with an explicit tolerance policy.

Everything downstream (seminorms, adjoints, radius scans) is built on the
operations here: the spectral norm and validation helpers.
:class:`TolerancePolicy` holds the tolerances of the verdicts, each
comparing two quantities relative to the larger of their magnitudes; the
rank cutoff of A is not a tolerance but a rounding bound worked out from A
itself (``space.psd_decompose``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


class LinAlgInputError(ValueError):
    """Raised when a matrix or vector argument violates a precondition."""


class NotHermitianError(LinAlgInputError):
    """Raised when a matrix expected to be Hermitian is materially not."""


class NotPsdError(LinAlgInputError):
    """Raised when a Hermitian matrix has a materially negative eigenvalue."""


class DimensionMismatchError(LinAlgInputError):
    """Raised when operand dimensions are incompatible."""


class ScaleRangeError(LinAlgInputError):
    """Raised when lambda_max(A) or the compression of T has a nonzero scale
    outside [SCALE_MIN, SCALE_MAX], where the certificate's arithmetic could
    overflow or underflow."""


# Nonzero scales the certificate carries. With lambda_max(A) in this range
# every kept eigenvalue of A (above 32 n eps lambda_max) is a normal float;
# A's scale cancels in T's compression C but not in A's own eigensolve. C
# with max|C| >= SCALE_MIN and rank(A) max|C| <= SCALE_MAX has SCALE_MIN <=
# ||C|| <= SCALE_MAX, so w_A(T)^2, ||D||_A and the squared Cartesian-part
# norms stay below 2^1002, w_A(T)^2 and ||D||_A above 2^-1004, and the
# scan's guard, floored at 8 r eps of its maximum best >= ||C|| / 2.1, above
# 2^-552: normal floats for every grid_n.
SCALE_MIN, SCALE_MAX = 2.0**-500, 2.0**500


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative tolerances shared across the toolkit.

    check_rel_tol: tolerance for residual and inequality verdicts.
    equality_rel_tol: looser tolerance for declaring an inequality tight;
        equality cases pass through eigendecompositions twice.

    The one rule: a verdict compares x with y relative to max(|x|, |y|),
    through :meth:`at_most` or :meth:`close`, so it does not change when
    T or A is rescaled. The rank of A has no setting here: its cutoff is
    a rounding bound of the eigensolve, see ``space.psd_decompose``.
    """

    check_rel_tol: float = 1e-8
    equality_rel_tol: float = 1e-6

    def __post_init__(self):
        for name in ("check_rel_tol", "equality_rel_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")

    def at_most(self, x: float, y: float) -> bool:
        """x <= y + check_rel_tol * max(|x|, |y|)."""
        return bool(x <= y + self.check_rel_tol * max(abs(x), abs(y)))

    def close(self, x, y):
        """|x - y| <= equality_rel_tol * max(|x|, |y|), elementwise."""
        return np.abs(x - y) <= self.equality_rel_tol * np.maximum(np.abs(x), np.abs(y))


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-d complex128 array, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise LinAlgInputError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise LinAlgInputError("matrix contains non-finite entries")
    return arr


def as_square_matrix(m, dim: int | None = None) -> np.ndarray:
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


def as_count(value, name: str, least: int = 0) -> int:
    """value as an int >= least: bools and non-integers raise TypeError,
    smaller integers ValueError."""
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count < least:
                raise ValueError(f"{name} must be >= {least}, got {count}")
            return count
    raise TypeError(f"{name} must be an integer, got {value!r}")


def as_vector(x, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise LinAlgInputError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise LinAlgInputError("vector contains non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected length {dim}, got {arr.shape[0]}")
    return arr


def sigma_max(c: np.ndarray) -> float:
    """Largest singular value of an unchecked matrix; 0 when it has no entries."""
    return float(np.linalg.svd(c, compute_uv=False).max(initial=0.0))


def spectral_norm(m) -> float:
    """Largest singular value of ``m``; 0 for the zero matrix."""
    return sigma_max(as_matrix(m))
