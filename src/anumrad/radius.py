"""A-numerical radius with certified enclosures.

w_A(T) equals the supremum over theta of f(theta) = ||Re_A(e^{i theta}T)||_A.
The scan solves f at 8 seed angles, polishes the best of them, and
certifies that maximum plus a guard as the upper end by one level-set check
(Mengi & Overton, IMA J. Numer. Anal. 25, 2005; Uhlig, Numer. Algorithms
52, 2009): no real theta makes that level an eigenvalue of H(theta). Else
the check runs at a grid's maximum, or the grid certifies. In range(A)
coordinates f is the support function of conv(W u -W), where W = W_A(T) is
the numerical range of T's compression, so that set lies inside the wedge
cut by its support lines at the two ends of any grid cell, and f is at most
the distance of their meeting vertex on the cell: the outer polygon of C.
R. Johnson (SIAM J. Numer. Anal. 15, 1978). A cell of width d whose end
values are at most M therefore holds f <= M / cos(d / 2). The fallback runs
on nested grids and refines only the cells whose vertex bound still
exceeds the largest value seen, with the enclosure of the full uniform grid
or a tighter one.

Whether W is an origin disk is decided without a grid, from the
enclosure and the support function at four fixed directions (``_is_disk``).
No operator keeps the angles solved on it. Every eigensolve of f goes
through ``space._extremes``, and every point u*Cu / |u|^2 of W (sampled,
boundary or interior) through ``_quadratic_forms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LinAlgInputError, as_count
from .space import AOperator, _extremes, _magnitude, _support_pencils

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of a side, 0.381966...
_DISK_ANGLES = np.array([0.7, 2.1])  # where _is_disk reads H(theta); irrational multiples of pi, off every grid


class DegenerateRankError(LinAlgInputError):
    """Raised when an operation needs rank(A) >= 1 but A = 0."""


@dataclass(frozen=True)
class RadiusEstimate:
    """Certified enclosure lower <= w_A(T) <= upper.

    theta_star is the polished maximizer of f on [0, pi), and lower is f
    there minus the guard. grid_n sets the guard, (1 / grid_n)^2 1e-3 of
    that maximum, and the finest spacing pi / grid_n of the fallback grid.
    When the level-set check passes, upper is the maximum plus the guard,
    2e-3 / grid_n^2 relative above lower at most; the seed's maximum does
    not depend on grid_n, so a finer grid never loosens what it certifies.
    If the check fails at the grid's maximum too, upper is the larger of the
    grid maximum and the finest surviving cells' support-line vertices,
    never above the uniform grid's certificate: upper <= lower / cos(pi / (2 grid_n)).
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
    """is_disk says that W = W_A(T) is the origin disk of radius radius_k,
    up to equality_rel_tol, decided without a grid (``_is_disk``)."""

    is_disk: bool
    radius_k: float


def phase_profile(op: AOperator, thetas) -> np.ndarray:
    """f(theta) = ||Re_A(e^{i theta}T)||_A evaluated on an array of angles.

    In range(A) coordinates this is the spectral norm of the r x r Hermitian
    pencil cos(theta) H_re - sin(theta) H_im, evaluated batched; f = 0 when
    rank(A) = 0. thetas is 0-d or 1-d and finite, else LinAlgInputError.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    if th.ndim != 1:
        raise LinAlgInputError(f"expected a 0-d or 1-d array of angles, got shape {th.shape}")
    if not np.isfinite(th).all():
        raise LinAlgInputError("angles must be finite")
    return _magnitude(_extremes(op, th))


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
    at most eps f(x) or peaks within 1e-6 delta of x, or once the bracket is
    4e-6 delta wide. A vertex that close is not worth a step: f'' >= -f for
    a support function, so it gains at most f (1e-6 delta)^2 / 2 over x.
    An end can beat x by rounding when x is the argmax of a coarser grid, as
    on a flat profile; a vertex near that end can then round onto it, and
    such a u only updates the end's value, so that a < x < b holds.
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
        if b - a < delta / 8.0 and (gain <= eps * fx or abs(t) <= 1e-6 * delta):
            break
        if da < t < db and 1e-6 * delta < abs(t) < 0.5 * moves[0] and gain > eps * fx:
            u, moves = x + t, (moves[1], abs(t))
        else:
            side = db if db > -da else da
            u, moves = x + _GOLDEN * side, (moves[1], abs(side))
        fu = float(_magnitude(_extremes(op, np.array([u])))[0])
        if fu > best:
            theta_star, best = u, fu
        if fu > fx and a < u < b:  # u is the new best point; x becomes an end
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


def _level_clear(op: AOperator, gamma: float, anchor: float = 0.0) -> bool:
    """True when no real theta makes gamma an eigenvalue of H(theta), given
    P + gamma I positive definite for P = H(anchor) (else False, as its
    Cholesky fails), which any gamma > f(anchor) meets; then f < gamma on
    [0, pi).

    P and Q = -H(anchor + pi/2) are the Cartesian parts of the compression
    of e^{i anchor} T, so H(anchor + psi) = cos(psi) P - sin(psi) Q. Why the
    check suffices: lambda_max(H(theta)) is continuous on [0, 2 pi), below
    gamma at theta = anchor + pi, where H = -P, and never equal to it, so
    it stays below gamma, and f(theta) = max(lambda_max(H(theta)),
    lambda_max(H(theta + pi))). The substitution s = tan(psi / 2) covers
    every theta but anchor + pi. Multiplied by 1 + s^2,
    H(anchor + psi) - gamma I becomes the quadratic pencil
    (P - gamma I) - 2 s Q - s^2 (P + gamma I). P + gamma I = L L*, and the
    congruence by L^-1 turns the pencil into B0 + s B1 - s^2 I with
    B0 = I - 2 gamma L^-1 L^-*, B1 = -2 L^-1 Q L^-*, whose eigenvalues s
    are those of the 2r x 2r companion C = [[0, I], [B0, B1]]. A crossing is
    a real s.

    Any anchor gives the same answer in exact arithmetic, but a nearly
    singular P + gamma I blows up ||C||_F and with it the bound tau below.
    P = cos(anchor) H_re - sin(anchor) H_im and Q = sin(anchor) H_re +
    cos(anchor) H_im round by a few eps ||H||, and by Weyl so does each
    eigenvalue of the pencil: far below any guard. At anchor 0 they are
    H_re and H_im themselves.

    How far off the real axis a crossing can be computed: eigvals (LAPACK
    geev, balancing and the QR algorithm) returns the exact eigenvalues of
    C + E with ||E||_F <= u ||C||_F, u = 2r eps, a modest multiple of the
    unit roundoff. A real root s0 of multiplicity m moves by about
    (kappa ||E||)^(1/m), kappa its condition number. A simple crossing thus
    moves by kappa u ||C||_F, and the two roots that meet where gamma just
    touches a peak of the profile split by about (u ||C||_F)^(1/2) =: rho,
    the larger of the two whenever u ||C||_F < 1 and kappa is of order one.
    The imaginary part of psi = 2 arctan s is atanh(q) with
    q = 2 |Im s| / (1 + |s|^2), and a root s0 + ds with real s0 has
    q <= 2 |ds|. So every crossing is computed with q <= tau = 2 rho, and
    the check passes only when every s has q > tau. A needless fallback costs
    only a scan; a missed crossing would be a narrow, wrong enclosure, which
    is why tau takes the square-root law even for simple roots.

    The roots of a level that should pass lie far from that bound. An origin
    disk W (AT^2 = 0, the shift J_n) makes the spectrum of H(theta) the same
    at every complex theta, so its roots sit at s = +-i, q = 1, and the
    rounding spreads them only to q >= 0.14 for J_64 (tau = 1.1e-2 there,
    where ||C||_F ~ 2 gamma / (gamma - ||H_re||) ~ 1e9 at every anchor). Where
    gamma lies g above a sharp peak of f, the nearest roots have
    q ~ (2 g / gamma)^(1/2), since f'' >= -f for a support function: 6.2e-5
    for the scan's guard at grid_n = 720. A peak that close to gamma passes
    only when tau is below that; otherwise the scan falls back to its grid.
    """
    r = op.ctx.rank
    p, q = op.h_re, op.h_im
    if anchor:
        cos_a, sin_a = math.cos(anchor), math.sin(anchor)
        p, q = cos_a * p - sin_a * q, sin_a * p + cos_a * q
    try:
        chol = np.linalg.cholesky(p + gamma * np.eye(r))
    except np.linalg.LinAlgError:  # gamma <= -lambda_min(P) up to rounding
        return False
    inv = np.linalg.inv(chol)
    b0 = np.eye(r) - (2.0 * gamma) * (inv @ inv.conj().T)
    b1 = -2.0 * (inv @ q @ inv.conj().T)
    companion = np.block([[np.zeros((r, r)), np.eye(r)], [b0, b1]])
    roots = np.linalg.eigvals(companion)
    tau = 2.0 * math.sqrt(2 * r * np.finfo(float).eps * np.linalg.norm(companion))
    return bool((2.0 * np.abs(roots.imag) > tau * (1.0 + np.abs(roots) ** 2)).all())


def _guard(value: float, grid_n: int) -> float:
    """value (1 / grid_n)^2 1e-3, taken from lower and added to upper: far
    above eigh rounding noise and far below the grid certificate's width."""
    return value * (math.pi / grid_n / math.pi) ** 2 * 1e-3


def radius_theta_scan(op: AOperator, grid_n: int = 720) -> RadiusEstimate:
    """Certified enclosure of w_A(T) from a small seed, a polish and one
    level-set check, with a pruned grid scan as the fallback.

    The scan solves the 8 angles k pi / 8 in one batch, polishes the best of
    them inside its +-pi/8 bracket (``_polish``) to best = f(theta_star),
    and asks ``_level_clear`` whether any real theta makes
    gamma = best + guard an eigenvalue of H(theta). If none does, f < gamma
    everywhere and the enclosure is [best - guard, best + guard]. The
    check's anchor is the seed direction (an angle or its antipode) whose H
    has the largest lambda_min, so H(anchor) + gamma I is as far from
    singular as the seed shows. When the check finds a crossing, or f is 0
    at every seed angle, the polished seed is dropped for ``_grid_scan``,
    whose polished maximum meets the same check: if it passes, upper drops
    to that maximum plus the guard, else the grid's enclosure stands.

    grid_n sets the guard, best (1 / grid_n)^2 1e-3, and so the certified
    width, and it sets the fallback's finest grid. The seed does not depend
    on grid_n, so best is the same at every grid: when the seed certifies
    both scans, doubling the grid only narrows the enclosure.
    """
    grid_n = as_count(grid_n, "grid_n", 4)
    step = math.pi / 8
    lam = _extremes(op, np.arange(8) * step)
    vals = _magnitude(lam)
    j = int(np.argmax(vals))
    # lambda_min of H(k pi / 8) for k < 8, then of H(k pi / 8 + pi) = -H(k pi / 8).
    anchor = int(np.argmax(np.concatenate([lam[:, 0], -lam[:, 1]]))) * step
    if vals[j] > 0.0:
        theta_star, best = _polish(op, j * step, step, float(vals[j - 1]), float(vals[j]), float(vals[(j + 1) % 8]))
        guard = _guard(best, grid_n)
        if _level_clear(op, best + guard, anchor):
            return RadiusEstimate(max(best - guard, 0.0), best + guard, theta_star % math.pi, grid_n)
    grid, best = _grid_scan(op, grid_n)
    guard = _guard(best, grid_n)
    if best + guard < grid.upper and _level_clear(op, best + guard, anchor):
        return RadiusEstimate(grid.lower, best + guard, grid.theta_star, grid_n)
    return grid


def _grid_scan(op: AOperator, grid_n: int) -> tuple[RadiusEstimate, float]:
    """The fallback of ``radius_theta_scan``: a nested, pruned theta scan's
    enclosure and its polished maximum f(theta_star).

    f has period pi, and every angle is k pi/grid_n for an integer k. The scan starts on the
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
    above the uniform grid's certificate.

    The grid maximum is a certified lower bound. A parabolic search seeded
    by the grid argmax and its two neighbours at spacing pi / grid_n
    (``_polish``, about five single-angle calls) can only raise it and never
    touches the upper certificate, which reads grid values only.
    """
    delta = math.pi / grid_n
    n_coarse = grid_n
    while n_coarse % 2 == 0 and n_coarse // 2 >= 32:
        n_coarse //= 2
    step = grid_n // n_coarse

    def profile(index: np.ndarray) -> np.ndarray:
        return _magnitude(_extremes(op, index * delta))

    vals = np.full(grid_n, -np.inf)  # f at k delta; -inf where not evaluated
    left = new = np.arange(0, grid_n, step)  # left ends of the live cells
    vals[new] = profile(new)
    while True:
        # f has period pi, so the last cell ends at f(0).
        bounds = _cell_bounds(vals[left], vals[(left + step) % grid_n], step * delta)
        left = left[bounds > vals.max()]
        if step == 1 or left.size == 0:
            break
        step //= 2
        new = left + step
        left = np.concatenate([left, new])
        vals[new] = profile(new)
    j = int(np.argmax(vals))  # ties broken by smallest theta
    grid_max = float(vals[j])
    theta_star, best = j * delta, grid_max
    if grid_max > 0.0:
        # Seed the polish with the grid's own neighbours of the argmax,
        # solving in one call whichever of them the scan skipped.
        ends = (j + np.array([-1, 1])) % grid_n
        f_ends = vals[ends]
        skipped = np.isneginf(f_ends)
        if skipped.any():
            f_ends[skipped] = profile(ends[skipped])
        theta_star, best = _polish(op, theta_star, delta, float(f_ends[0]), grid_max, float(f_ends[1]))
    guard = _guard(grid_max, grid_n)
    lower = max(best - guard, 0.0)
    upper = max(max(grid_max, float(bounds.max())) + guard, lower)
    return RadiusEstimate(lower, upper, theta_star % math.pi, grid_n), best


def witness_value(op: AOperator, theta: float) -> float:
    """|<ATx, x>| / <Ax, x> for the witness vector x of the angle theta.

    v is the eigenvector of the r x r support pencil H(theta) whose
    eigenvalue has the largest modulus (f(theta) can be attained at
    lambda_min), mapped back to C^n as x = Q diag(1/root) v, so that
    A^{1/2} x = Q v. The value is computed from the n x n A and T, never
    from the compression, so it checks the enclosure against the raw
    operator: it is at least f(theta) and at most w_A(T), up to rounding.
    Returns 0 for rank(A) = 0. A theta that is not one finite angle raises
    LinAlgInputError.
    """
    th = np.asarray(theta, dtype=float)
    if th.ndim != 0 or not np.isfinite(th):
        raise LinAlgInputError(f"theta must be one finite angle, got {theta!r}")
    ctx = op.ctx
    if ctx.rank == 0:
        return 0.0
    lam, vecs = np.linalg.eigh(_support_pencils(op, th[None])[0])
    v = vecs[:, np.argmax(np.abs(lam))]
    x = ctx.range_basis @ (v / ctx.root)
    ax = ctx.a @ x
    return float(abs(np.vdot(ax, op.t @ x)) / np.vdot(x, ax).real)


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real matrix [[Re m, -Im m], [Im m, Re m]], which acts on stacked
    (Re x, Im x) as m acts on x."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _quadratic_forms(c_real: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re u*Cu, Im u*Cu and |u|^2 for each column of the (2r, m) array
    u = [Re u; Im u], with C given by its real form ``c_real``, so that Cu
    comes as stacked real and imaginary parts: the one formulation of the
    point u*Cu / |u|^2 of W_A(T)."""
    r = u.shape[0] // 2
    w = c_real @ u
    # u* (Cu) with u = a + ib and Cu = p + iq: (a.p + b.q) + i (a.q - b.p).
    re = np.einsum("ij,ij->j", u, w)
    im = np.einsum("ij,ij->j", u[:r], w[r:]) - np.einsum("ij,ij->j", u[r:], w[:r])
    return re, im, np.einsum("ij,ij->j", u, u)


def radius_sampling(op: AOperator, n_samples: int = 10_000, seed: int = 0) -> float:
    """Monte-Carlo lower oracle: max |<Tx,x>_A| over random unit-A-norm x.

    Draws u ~ CN(0, I_r) in range(A) coordinates and takes
    x = Q diag(1/root) u, so <Ax,x> = |u|^2 and <ATx,x> = u* C u with
    C = ``op.compressed``. These x have the law of (A^{1/2})+ z for
    z ~ CN(0, I_n), since Q* z ~ CN(0, I_r) when Q*Q = I_r, but no draw or
    product has n rows: the cost follows rank(A). The arithmetic is real:
    each chunk of draws is one (2r, m) array whose first r rows are Re u and
    last r rows Im u (the same draws as two (r, m) calls), read by
    ``_quadratic_forms``. Deterministic for a fixed integer seed; the
    stream differs from that of earlier versions, which drew z in C^n.
    Never exceeds the true radius beyond rounding. Returns 0 for rank(A) = 0.
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
        re, im, nsq = _quadratic_forms(c_real, rng.standard_normal((2 * r, m)))
        ok = nsq > 0.0
        best = max(best, float((np.hypot(re, im)[ok] / nsq[ok]).max(initial=0.0)))
    return best


def range_cloud(op: AOperator, n_theta: int = 360, seed: int = 0) -> RangeCloud:
    """Point cloud of W_A(T): boundary support points plus random interior.

    For each direction theta_k = 2 pi k / n_theta the top eigenvector v of
    the r x r support pencil H(theta_k) realizes the boundary point v* C v
    maximizing Re(e^{i theta} z) over W_A(T). Since H(theta + pi) = -H(theta),
    the bottom eigenvector of H(theta) serves the direction theta + pi, so the
    pencils on the grid j pi / m, m = n_theta / 2 for even n_theta and
    n_theta for odd, cover every direction. Their lambda_max and lambda_min
    come from one batched eigvalsh of that grid (``_extremes``), and each
    vector from two steps of shifted inverse iteration (I. C. F. Ipsen, SIAM
    Review 39, 1997) from a fixed random vector, one batched solve per step:
    with H - sigma I, sigma = lambda_max + 4 r eps ||C|| for a top vector and
    lambda_min - 4 r eps ||C|| for a bottom one, so that the shifted matrix
    is definite and no solve meets a singular one. C = 0 gives zero boundary
    points. Interior points (theta recorded as nan) are u*Cu / |u|^2 for
    u ~ CN(0, I_r), drawn as one (2r, n_theta) array of Re u over Im u. Every
    point, boundary and interior, comes from ``_quadratic_forms``.
    """
    n_theta = as_count(n_theta, "n_theta", 1)
    seed = as_count(seed, "seed")
    ctx = op.ctx
    if ctx.rank == 0:
        raise DegenerateRankError("W_A(T) is empty when A = 0")
    c_real = _real_form(op.compressed)
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    m = n_theta // 2 if n_theta % 2 == 0 else n_theta
    steps = np.arange(n_theta) * (2 * m // n_theta)  # theta_k = pi steps_k / m
    pencil = steps % m
    top = steps < m  # theta_k in [0, pi): top eigenvector of H(theta_k)
    norm = op.seminorm
    v = np.ones((n_theta, ctx.rank, 1))  # C = 0: every point is 0
    if norm != 0.0:
        grid = np.arange(m) * (math.pi / m)
        lam = _extremes(op, grid)[pencil]
        margin = 4 * ctx.rank * np.finfo(float).eps * norm
        shift = np.where(top, lam[:, 1] + margin, lam[:, 0] - margin)
        h = _support_pencils(op, grid)[pencil]
        h -= shift[:, None, None] * np.eye(ctx.rank)
        # A fixed random start, as LAPACK's inverse iteration uses: the
        # constant vector is orthogonal to eigenvectors such as (1, -1), the
        # bottom one of H(0) for the 2 x 2 Jordan block.
        start = np.random.default_rng(0).standard_normal((2, ctx.rank))
        v = (start[0] + 1j * start[1])[None, :, None]
        for _ in range(2):
            # The solve scales by at most about 1 / margin, so the right-hand
            # side times margin keeps v near unit length at every scale of C.
            v = np.linalg.solve(h, margin * v)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
    # The boundary vectors as [Re v; Im v] columns, then the interior draws.
    rng = np.random.default_rng(seed)
    u = np.hstack([np.vstack([v.real.T[0], v.imag.T[0]]), rng.standard_normal((2 * ctx.rank, n_theta))])
    re, im, nsq = _quadratic_forms(c_real, u)
    return RangeCloud(
        points=(re + 1j * im) / nsq,
        thetas=np.concatenate([thetas, np.full(n_theta, np.nan)]),
    )


def _is_disk(op: AOperator, k: float, rad: RadiusEstimate | None = None) -> bool:
    """Whether W = W_A(T) is the origin disk of radius k, to within
    tol = equality_rel_tol, decided by one eigensolve rather than a grid.

    W is that disk exactly when its support function h(theta) =
    lambda_max(H(theta)) = -lambda_min(H(theta + pi)) is k everywhere, as
    for J_n (Haagerup & de la Harpe, Proc. AMS 115, 1992). The eigenvalues
    of H(theta) are r branches analytic in theta (Kato, Perturbation Theory
    for Linear Operators, ch. II sec. 6), so given (i) w_A(T) <= k, h = k
    on an interval puts one branch at k everywhere, and W is the disk;
    otherwise h = k in finitely many directions. So (ii) h = k in four
    fixed directions, theta = 0.7, 2.1 and those plus pi, off every grid,
    decides, unless W meets the circle in all four by coincidence (a
    polygon inscribed there with those vertices passes).

    (i) is read as w_A(T) <= k (1 + tol): False when rad.lower exceeds that
    level, True when rad.upper does not, else ``_level_clear`` decides; a
    k < 0 fails, as w_A(T) >= 0. (ii) is read as h >= k (1 - tol), from
    one eigvalsh of H(0.7) and H(2.1). Hermitian eigenvalues are perfectly
    conditioned (Weyl): they round by a few r eps ||H||, far below tol k.
    det(H(z) - k I) = 0 at a non-real z would not be: H(z) is far from
    normal (for J_64 its eigenvectors have condition about e^50), so a
    small sigma_min there only puts k in a pseudospectrum. tol, not a
    rounding bound, makes the verdict measure nearness as
    ``equality_holds`` does: for J_2 + eps G both read of order eps.

    k = 0: W = {0} exactly when C = 0, as for rank(A) = 0, and
    op.seminorm == 0.0 decides without a solve.
    """
    if k == 0.0:
        return op.seminorm == 0.0
    tol = op.ctx.tol.equality_rel_tol
    level = k * (1.0 + tol)
    if rad is not None and rad.lower > level:
        return False
    if (rad is None or rad.upper > level) and not _level_clear(op, level):
        return False
    support = _extremes(op, _DISK_ANGLES) * np.array([-1.0, 1.0])  # h(theta + pi) and h(theta)
    return bool((support >= k * (1.0 - tol)).all())


def disk_test(op: AOperator) -> DiskTestResult:
    """Whether W_A(T) is the origin disk of radius radius_k =
    lambda_max(H_re), the support function of W_A(T) at theta = 0
    (``_is_disk``); radius_k = 0 when rank(A) = 0."""
    k = float(_extremes(op, np.zeros(1))[0, 1])
    return DiskTestResult(_is_disk(op, k), k)
