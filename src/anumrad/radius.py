"""A-numerical radius with certified enclosures.

w_A(T) equals the supremum over theta of f(theta) = ||Re_A(e^{i theta}T)||_A,
a periodic support-type function that is the upper envelope of rectified
cosinusoids |r cos(theta + phi)|, one per point of the A-numerical range.
A uniform grid therefore under-reads the supremum by at most the factor
cos(half grid spacing), which turns the scan into a certified enclosure.
The same cosine argument bounds f on each grid cell from its two endpoint
values, so the scan runs on nested grids and refines only the cells whose
bound still exceeds the largest value seen, with the enclosure of the full
uniform grid or a tighter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LinAlgInputError, as_count
from .space import AOperator

_BRACKET = np.array([-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])  # probe offsets, in steps


class DegenerateRankError(LinAlgInputError):
    """Raised when an operation needs rank(A) >= 1 but A = 0."""


@dataclass(frozen=True)
class RadiusEstimate:
    """Certified enclosure lower <= w_A(T) <= upper.

    theta_star is the (refined) maximizer of f on [0, pi). grid_n is the
    finest spacing pi / grid_n that the nested, pruned scan reaches: lower
    comes from the maximum of f over that uniform grid, raised by a bracket
    search around its argmax, and upper from the larger of that maximum and
    the bounds of the finest surviving cells, never above the uniform grid's
    certificate, which keeps upper <= lower / cos(pi / (2 grid_n)).
    """

    lower: float
    upper: float
    theta_star: float
    grid_n: int
    method: str


@dataclass(frozen=True)
class RangeCloud:
    """Sampled points of W_A(T); boundary points carry their support angle,
    interior samples carry theta = nan."""

    points: np.ndarray
    thetas: np.ndarray


@dataclass(frozen=True)
class DiskTestResult:
    """Verdict of the constant-support-function test: f(theta) = k for all
    theta iff W_A(T) is the origin-centered disk of radius k."""

    is_disk: bool
    radius_k: float
    max_deviation: float


def _support_pencils(op: AOperator, th: np.ndarray) -> np.ndarray:
    """The stack cos(theta) H_re - sin(theta) H_im, the compressions of
    Re_A(e^{i theta}T), one r x r matrix per angle."""
    return (
        np.cos(th)[:, None, None] * op.h_re[None, :, :]
        - np.sin(th)[:, None, None] * op.h_im[None, :, :]
    )


def phase_profile(op: AOperator, thetas) -> np.ndarray:
    """f(theta) = ||Re_A(e^{i theta}T)||_A evaluated on an array of angles.

    In range(A) coordinates this is the spectral norm of the r x r Hermitian
    pencil cos(theta) H_re - sin(theta) H_im, evaluated batched; f = 0 when
    rank(A) = 0.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    return np.abs(np.linalg.eigvalsh(_support_pencils(op, th))).max(axis=-1, initial=0.0)


def _cell_bounds(fa: np.ndarray, fb: np.ndarray, width: float) -> np.ndarray:
    """Upper bound on f over each cell [t, t + width] from its endpoint
    values fa = f(t) and fb = f(t + width); valid for any width below pi/2.

    On a cell, sup f is an endpoint value or the peak r of one rectified
    cosinusoid inside it, and then both endpoint values dominate
    r cos(distance to the peak). Maximizing the weaker of the two bounds
    over the peak position bounds r; the bound is exact when f is locally a
    single cosinusoid.
    """
    cos_d, sin_d = math.cos(width), math.sin(width)
    with np.errstate(divide="ignore", invalid="ignore"):
        tan_a = (fb - fa * cos_d) / (fa * sin_d)
        a = np.arctan(tan_a)
        crossing = fa / np.cos(a)
    interior = (fa > 0.0) & (a >= 0.0) & (a <= width)
    cell = np.where(interior, crossing, np.maximum(fa, fb))
    return np.maximum(cell, np.maximum(fa, fb))


def radius_theta_scan(op: AOperator, grid_n: int = 720, refine: bool = True) -> RadiusEstimate:
    """Certified enclosure of w_A(T) via a nested, pruned theta scan over [0, pi).

    f has period pi (negating Re_A(e^{i theta}T) preserves the seminorm).
    Every angle is k pi/grid_n for an integer k. The scan starts on the
    coarsest grid of grid_n/2^j points that is still >= 32 (j = 0 when
    grid_n is odd or below 64) and halves the spacing per level down to
    pi/grid_n, the finest spacing. Each level bounds f on every live cell
    with ``_cell_bounds``, drops the cells whose bound is <= the largest
    grid value so far, and evaluates the midpoints of the rest in one
    batch; it stops at the finest level or when no cell is left.

    Why this stays certified: a cell's bound caps f on that cell, so a
    dropped cell cannot beat the grid maximum. Hence the largest evaluated
    value is the maximum over the whole uniform grid, and sup f is at most
    the larger of it and the bounds of the surviving finest cells. Those
    cells are a subset of the uniform grid's cells, so ``upper`` is never
    above the uniform grid's certificate. A profile with nothing to drop (a
    flat one) evaluates each grid angle exactly once.

    The grid maximum is a certified lower bound. Refinement, a batched
    bracket search around the grid argmax (42 angles in 7 calls), can only
    raise it and never touches the grid-based upper certificate, since
    pruning reads grid values only. refine=False is for callers that read
    only ``upper``, which does not depend on it.
    """
    grid_n = as_count(grid_n, "grid_n", 4)
    delta = math.pi / grid_n
    n_coarse = grid_n
    while n_coarse % 2 == 0 and n_coarse // 2 >= 32:
        n_coarse //= 2
    step = grid_n // n_coarse
    vals = np.full(grid_n, -np.inf)  # f at k delta; -inf where not evaluated
    left = new = np.arange(0, grid_n, step)  # left ends of the live cells
    while True:
        vals[new] = phase_profile(op, new * delta)
        # f has period pi, so the last cell ends at f(0).
        bounds = _cell_bounds(vals[left], vals[(left + step) % grid_n], step * delta)
        left = left[bounds > vals.max()]
        if step == 1 or left.size == 0:
            break
        step //= 2
        new = left + step
        left = np.concatenate([left, new])
    j = int(np.argmax(vals))  # ties broken by smallest theta
    grid_max = float(vals[j])
    # Guard of order grid_max / grid_n^2, subtracted from the lower bound and
    # added to the upper: orders of magnitude above eigh rounding noise yet
    # far below the certificate width, it absorbs evaluation noise so that
    # the enclosure stays valid and doubling the grid never loosens it.
    guard = grid_max * (delta / math.pi) ** 2 * 1e-3
    theta_star, best, h = j * delta, grid_max, delta
    if refine and grid_max > 0.0:
        for _ in range(7):
            probes = theta_star + h * _BRACKET
            probed = phase_profile(op, probes)
            k = int(np.argmax(probed))
            if probed[k] > best:
                theta_star, best = float(probes[k]), float(probed[k])
            h /= 4.0
    lower = max(best - guard, 0.0)
    upper = max(max(grid_max, float(bounds.max())) + guard, lower)
    return RadiusEstimate(
        lower=lower,
        upper=upper,
        theta_star=theta_star % math.pi,
        grid_n=grid_n,
        method="theta_scan",
    )


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real matrix [[Re m, -Im m], [Im m, Re m]], which acts on stacked
    (Re x, Im x) as m acts on x."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def radius_sampling(op: AOperator, n_samples: int = 10_000, seed: int = 0) -> float:
    """Monte-Carlo lower oracle: max |<Tx,x>_A| over random unit-A-norm x.

    Draws u ~ CN(0, I_r) in range(A) coordinates and takes
    x = Q diag(1/root) u, so <Ax,x> = |u|^2 and <ATx,x> = u* C u with
    C = ``op.compressed``. These x have the law of (A^{1/2})+ z for
    z ~ CN(0, I_n), since Q* z ~ CN(0, I_r) when Q*Q = I_r, but no draw or
    product has n rows: the cost follows rank(A). The arithmetic is real:
    each chunk of draws is one (2r, m) array whose first r rows are Re u and
    last r rows Im u (the same draws as two (r, m) calls), and C acts through
    its real form, so Cu comes as stacked real and imaginary parts.
    Deterministic for a fixed integer seed; the stream differs from that of
    earlier versions, which drew z in C^n. Never exceeds the true radius
    beyond rounding. Returns 0 for rank(A) = 0.
    """
    n_samples = as_count(n_samples, "n_samples")
    seed = as_count(seed, "seed")
    r = op.ctx.rank
    if r == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    c_real = _real_form(op.compressed)
    best = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(remaining, 50_000)
        remaining -= m
        u = rng.standard_normal((2 * r, m))
        w = c_real @ u
        nsq = np.einsum("ij,ij->j", u, u)
        ok = nsq > 0.0
        if not ok.any():
            continue
        # u* (Cu) with u = a + ib and Cu = p + iq: (a.p + b.q) + i (a.q - b.p).
        re = np.einsum("ij,ij->j", u, w)
        im = np.einsum("ij,ij->j", u[:r], w[r:]) - np.einsum("ij,ij->j", u[r:], w[:r])
        vals = np.hypot(re, im)
        best = max(best, float((vals[ok] / nsq[ok]).max()))
    return best


def range_cloud(op: AOperator, n_theta: int = 360, seed: int = 0) -> RangeCloud:
    """Point cloud of W_A(T): boundary support points plus random interior.

    For each direction theta_k = 2 pi k / n_theta the top eigenvector v of
    the r x r support pencil H(theta_k) realizes the boundary point v* C v
    maximizing Re(e^{i theta} z) over W_A(T). Since H(theta + pi) = -H(theta),
    the bottom eigenvector of H(theta) serves the direction theta + pi, so one
    batched eigensolve over the distinct angles (2 pi k / n_theta) mod pi
    covers every direction: n_theta / 2 matrices for even n_theta, n_theta
    for odd. Random unit vectors in range(A) supply interior points (theta
    recorded as nan).
    """
    n_theta = as_count(n_theta, "n_theta", 1)
    seed = as_count(seed, "seed")
    ctx = op.ctx
    if ctx.rank == 0:
        raise DegenerateRankError("W_A(T) is empty when A = 0")
    c = op.compressed
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    twice = 2 * np.arange(n_theta)
    top = twice < n_theta  # theta_k in [0, pi): top eigenvector of H(theta_k)
    angles, pair = np.unique(twice % n_theta, return_inverse=True)
    _, u = np.linalg.eigh(_support_pencils(op, math.pi * angles / n_theta))
    v = np.where(top[:, None], u[pair, :, -1], u[pair, :, 0])
    boundary = np.einsum("ki,ij,kj->k", v.conj(), c, v)

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((ctx.rank, n_theta)) + 1j * rng.standard_normal((ctx.rank, n_theta))
    z /= np.linalg.norm(z, axis=0)
    interior = np.einsum("ij,ik,kj->j", z.conj(), c, z)

    return RangeCloud(
        points=np.concatenate([boundary, interior]),
        thetas=np.concatenate([thetas, np.full(n_theta, np.nan)]),
    )


def disk_test(op: AOperator, n_theta: int = 360) -> DiskTestResult:
    """Constant-support-function test for W_A(T) being an origin disk."""
    n_theta = as_count(n_theta, "n_theta", 8)
    return _disk_verdict(op, phase_profile(op, np.arange(n_theta) * (math.pi / n_theta)))


def _disk_verdict(op: AOperator, vals: np.ndarray) -> DiskTestResult:
    """Disk verdict from profile values on a uniform grid over [0, pi)."""
    radius_k = float(vals.mean())
    max_dev = float(np.abs(vals - radius_k).max())
    return DiskTestResult(bool(op.ctx.tol.close(vals, radius_k).all()), radius_k, max_dev)
