"""A-numerical radius with certified enclosures.

w_A(T) equals the supremum over theta of f(theta) = ||Re_A(e^{i theta}T)||_A.
In range(A) coordinates f is the support function of conv(W u -W), where
W = W_A(T) is the numerical range of T's compression, so that set lies
inside the wedge cut by its support lines at the two ends of any grid cell,
and f is at most the distance of their meeting vertex on the cell: the
outer polygon of C. R. Johnson (SIAM J. Numer. Anal. 15, 1978). A cell of
width d whose end values are at most M therefore holds f <= M / cos(d / 2),
which turns the scan into a certified enclosure. The scan runs on nested
grids and refines only the cells whose vertex bound still exceeds the
largest value seen, with the enclosure of the full uniform grid or a
tighter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LinAlgInputError, as_count
from .space import AOperator

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of a side, 0.381966...


class DegenerateRankError(LinAlgInputError):
    """Raised when an operation needs rank(A) >= 1 but A = 0."""


@dataclass(frozen=True)
class RadiusEstimate:
    """Certified enclosure lower <= w_A(T) <= upper.

    theta_star is the (refined) maximizer of f on [0, pi). grid_n is the
    finest spacing pi / grid_n that the nested, pruned scan reaches: lower
    comes from the maximum of f over that uniform grid, raised by a parabolic
    search around its argmax, and upper from the larger of that maximum and
    the support-line vertices of the finest surviving cells, never above the
    uniform grid's certificate, which keeps upper <= lower / cos(pi / (2 grid_n)).
    """

    lower: float
    upper: float
    theta_star: float
    grid_n: int


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

    f is the support function of conv(W u -W), so over the cell f is at most
    the distance to the vertex (fa, x) where the support lines at t and
    t + width meet, in the frame of the first normal (Johnson, 1978); if the
    vertex lies outside the cell's cone, max(fa, fb) bounds f instead.
    """
    cos_w = math.cos(width)
    x = (fb - fa * cos_w) / math.sin(width)
    inside = (x >= 0.0) & (fa >= fb * cos_w)
    return np.where(inside, np.hypot(fa, x), np.maximum(fa, fb))


def _polish(op: AOperator, x: float, delta: float, fa: float, fx: float, fb: float) -> tuple[float, float]:
    """The angle and value of the largest f found near the grid argmax x.

    Safeguarded successive parabolic interpolation (R. P. Brent, Algorithms
    for Minimization without Derivatives, 1973) on the bracket
    [x - delta, x + delta], seeded with fa, fx and fb, the values of f at
    x - delta, x and x + delta. The bracket a < x < b keeps its best point x
    inside, so the parabola through the three points is concave and peaks in
    the bracket. Each step evaluates f at one angle: the parabola's vertex
    when it lies more than 1e-6 delta from x but less than half the step
    before last, and predicts a gain above eps f(x); otherwise the
    golden-section point of the larger side. The search stops once the
    bracket is narrower than delta / 8 and the parabola predicts a gain of
    at most eps f(x), or once the bracket is 4e-6 delta wide.
    """
    eps = np.finfo(float).eps
    a, b = x - delta, x + delta
    theta_star, best = max((x, fx), (a, fa), (b, fb), key=lambda p: p[1])
    moves = (2.0 * delta, 2.0 * delta)  # the last two steps, the older first
    while b - a > 4e-6 * delta:
        da, db = a - x, b - x
        sa, sb = (fa - fx) / da, (fb - fx) / db
        curv = (sb - sa) / (db - da)  # the parabola is fx + slope t + curv t^2
        slope = sa - curv * da
        if curv < 0.0:
            t = -slope / (2.0 * curv)
            gain = 0.5 * slope * t
        else:  # not concave: it peaks at an end, which is already evaluated
            t, gain = math.inf, 0.0
        if b - a < delta / 8.0 and gain <= eps * fx:
            break
        if da < t < db and 1e-6 * delta < abs(t) < 0.5 * moves[0] and gain > eps * fx:
            u, moves = x + t, (moves[1], abs(t))
        else:
            side = db if db > -da else da
            u, moves = x + _GOLDEN * side, (moves[1], abs(side))
        fu = float(phase_profile(op, [u])[0])
        if fu > best:
            theta_star, best = u, fu
        if fu > fx:  # u is the new best point; x becomes an end
            if u < x:
                b, fb = x, fx
            else:
                a, fa = x, fx
            x, fx = u, fu
        elif u < x:
            a, fa = u, fu
        else:
            b, fb = u, fu
    return theta_star, best


def radius_theta_scan(op: AOperator, grid_n: int = 720, refine: bool = True) -> RadiusEstimate:
    """Certified enclosure of w_A(T) via a nested, pruned theta scan over [0, pi).

    f has period pi (negating Re_A(e^{i theta}T) preserves the seminorm).
    Every angle is k pi/grid_n for an integer k. The scan starts on the
    coarsest grid of grid_n/2^j points that is still >= 32 (j = 0 when
    grid_n is odd or below 64) and halves the spacing per level down to
    pi/grid_n, the finest spacing. Each level bounds f on every live cell
    by the vertex where the support lines at its two ends meet
    (``_cell_bounds``), drops the cells whose bound is <= the largest grid
    value so far, and evaluates the midpoints of the rest in one batch; it
    stops at the finest level or when no cell is left.

    Why this stays certified: conv(W u -W) lies inside each cell's wedge of
    support lines, so the vertex bound caps f on that cell and a
    dropped cell cannot beat the grid maximum. Hence the largest evaluated
    value is the maximum over the whole uniform grid, and sup f is at most
    the larger of it and the bounds of the surviving finest cells. Those
    cells are a subset of the uniform grid's cells, so ``upper`` is never
    above the uniform grid's certificate. A profile with nothing to drop (a
    flat one) evaluates each grid angle exactly once.

    The grid maximum is a certified lower bound. Refinement, a parabolic
    search seeded by the grid argmax and its two neighbours (``_polish``,
    about five single-angle calls), can only raise it and never touches the
    grid-based upper certificate, since pruning reads grid values only. refine=False is for callers that read
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
    theta_star, best = j * delta, grid_max
    if refine and grid_max > 0.0:
        # Seed the polish with the grid's own neighbours of the argmax and
        # evaluate, in one call, whichever of them pruning skipped.
        ends = (j + np.array([-1, 1])) % grid_n
        f_ends = vals[ends]
        skipped = np.isneginf(f_ends)
        if skipped.any():
            f_ends[skipped] = phase_profile(op, ends[skipped] * delta)
        theta_star, best = _polish(op, theta_star, delta, float(f_ends[0]), grid_max, float(f_ends[1]))
    lower = max(best - guard, 0.0)
    upper = max(max(grid_max, float(bounds.max())) + guard, lower)
    return RadiusEstimate(
        lower=lower,
        upper=upper,
        theta_star=theta_star % math.pi,
        grid_n=grid_n,
    )


def witness_value(op: AOperator, theta: float) -> float:
    """|<ATx, x>| / <Ax, x> for the witness vector x of the angle theta.

    v is the eigenvector of the r x r support pencil H(theta) whose
    eigenvalue has the largest modulus (f(theta) can be attained at
    lambda_min), mapped back to C^n as x = Q diag(1/root) v, so that
    A^{1/2} x = Q v. The value is computed from the n x n A and T, never
    from the compression, so it checks the enclosure against the raw
    operator: it is at least f(theta) and at most w_A(T), up to rounding.
    Returns 0 for rank(A) = 0.
    """
    ctx = op.ctx
    if ctx.rank == 0:
        return 0.0
    lam, vecs = np.linalg.eigh(_support_pencils(op, np.array([float(theta)]))[0])
    v = vecs[:, np.argmax(np.abs(lam))]
    x = ctx.range_basis @ (v / ctx.root)
    ax = ctx.a @ x
    return float(abs(np.vdot(ax, op.t @ x)) / np.vdot(x, ax).real)


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
        # u* (Cu) with u = a + ib and Cu = p + iq: (a.p + b.q) + i (a.q - b.p).
        re = np.einsum("ij,ij->j", u, w)
        im = np.einsum("ij,ij->j", u[:r], w[r:]) - np.einsum("ij,ij->j", u[r:], w[:r])
        vals = np.hypot(re, im)
        best = max(best, float((vals[ok] / nsq[ok]).max(initial=0.0)))
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
