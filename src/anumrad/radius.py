"""A-numerical radius with certified enclosures.

w_A(T) equals the supremum over theta of f(theta) = ||Re_A(e^{i theta}T)||_A.
The scan solves f at 8 seed angles, polishes the best of them, and
certifies that maximum plus a guard as the upper end by one level-set check
(Mengi & Overton, IMA J. Numer. Anal. 25, 2005; Uhlig, Numer. Algorithms
52, 2009): no real theta makes that level an eigenvalue of H(theta). When
the check finds crossings instead, they are the criss-cross iteration's
next step: f at the midpoints of the arcs between them shows where f
exceeds the level, the best such arc is polished, and the check repeats at
the higher maximum. A level stuck by rounding just above a flat or sharp
peak climbs rungs of the same loop instead, capped by ||T||_A. In range(A)
coordinates f is the support function of conv(W u -W), where W = W_A(T)
is the numerical range of T's compression, so f'' >= -f (``_polish``).

Whether W is an origin disk is decided without a grid, from the
enclosure and the support function at four fixed directions (``_is_disk``).
No operator keeps the angles solved on it. Every eigensolve of f goes
through ``space._extremes``, and every point u*Cu / |u|^2 of W (sampled,
boundary or interior) through ``_quadratic_forms``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import LinAlgInputError, as_count
from .space import AOperator, _extremes, _magnitude, _support_pencils

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of a side, 0.381966...
_DISK_ANGLES = np.array([0.7, 2.1])  # where _is_disk reads H(theta); irrational multiples of pi, off any k pi / m


class DegenerateRankError(LinAlgInputError):
    """Raised when an operation needs rank(A) >= 1 but A = 0."""


@dataclass(frozen=True)
class RadiusEstimate:
    """Certified enclosure lower <= w_A(T) <= upper.

    theta_star is the polished maximizer of f on [0, pi), and lower is f
    there minus the guard. grid_n sets only the guard, (1 / grid_n)^2 1e-3
    of that maximum, floored at 8 r eps of it; no grid is solved. When the
    level-set check clears at the maximum plus the guard, that is upper; the
    seed's maximum does not depend on grid_n, so a finer grid never loosens
    what the seed certifies. A level stuck by rounding makes upper the first
    clear rung of best + guard 4^rung, or ||T||_A widened by its rounding
    bound (``radius_theta_scan``).
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


def _polish(op: AOperator, x: float, delta: float, fa: float, fx: float, fb: float) -> tuple[float, float]:
    """The angle and value of the largest f found near x, the best point
    of a bracket: the best seed angle, or the midpoint of an arc where f
    exceeds the level (``radius_theta_scan``).

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
    An end can beat x by rounding, as on a flat profile, or when the end is
    a crossing of the level and f there is the level up to rounding; a
    vertex near that end can then round onto it, and such a u only updates
    the end's value, so that a < x < b holds.
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


def _crossings(op: AOperator, gamma: float, anchor: float = 0.0) -> np.ndarray:
    """The sorted angles theta in [0, pi) at which gamma is an eigenvalue of
    H(theta) or of -H(theta); empty when the level is clear, f < gamma on
    [0, pi). If P + gamma I, P = H(anchor), has no Cholesky factor, then
    f(anchor) >= gamma up to rounding, and the array is the one cut point
    anchor mod pi: not clear, and a cut point only splits an arc.

    P and Q = -H(anchor + pi/2) are the Cartesian parts of the compression
    of e^{i anchor} T, so H(anchor + psi) = cos(psi) P - sin(psi) Q. Why no
    crossing suffices: lambda_max(H(theta)) is continuous on [0, 2 pi),
    below gamma at theta = anchor + pi, where H = -P, and never equal to
    it, so it stays below gamma, and f(theta) = max(lambda_max(H(theta)),
    lambda_max(H(theta + pi))). The substitution s = tan(psi / 2) covers
    every theta but anchor + pi. Multiplied by 1 + s^2,
    H(anchor + psi) - gamma I becomes the quadratic pencil
    (P - gamma I) - 2 s Q - s^2 (P + gamma I). P + gamma I = L L*, and the
    congruence by L^-1 turns the pencil into B0 + s B1 - s^2 I with
    B0 = I - 2 gamma L^-1 L^-*, B1 = -2 L^-1 Q L^-*, whose eigenvalues s
    are those of the 2r x 2r companion C = [[0, I], [B0, B1]]. A crossing is
    a real s, at theta = anchor + 2 arctan(s); taken mod pi, it covers
    gamma as an eigenvalue of H(theta + pi) = -H(theta) too.

    Any anchor gives the same crossings in exact arithmetic, but a nearly
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
    every s with q <= tau is returned as one. A spurious crossing costs
    only a criss-cross pass or a rung of ``radius_theta_scan``; a
    missed one would be a narrow, wrong enclosure, which is why tau takes
    the square-root law even for simple roots.

    The roots of a level that should clear lie far from that bound. An
    origin disk W (AT^2 = 0, the shift J_n) makes the spectrum of H(theta)
    the same at every complex theta, so its roots sit at s = +-i, q = 1,
    and the rounding spreads them only to q >= 0.14 for J_64 (tau = 1.1e-2
    there, where ||C||_F ~ 2 gamma / (gamma - ||H_re||) ~ 1e9 at every
    anchor). Where gamma lies g above a sharp peak of f, the nearest roots
    have q ~ (2 g / gamma)^(1/2), since f'' >= -f for a support function:
    6.2e-5 for the scan's guard at grid_n = 720. A peak that close to gamma
    clears only when tau is below that; otherwise its two near-real roots
    come back as crossings, with f below gamma between them.
    """
    r = op.ctx.rank
    p, q = op.h_re, op.h_im
    if anchor:
        cos_a, sin_a = math.cos(anchor), math.sin(anchor)
        p, q = cos_a * p - sin_a * q, sin_a * p + cos_a * q
    try:
        chol = np.linalg.cholesky(p + gamma * np.eye(r))
    except np.linalg.LinAlgError:  # gamma <= -lambda_min(P) up to rounding
        return np.array([anchor % math.pi])
    inv = np.linalg.inv(chol)
    b0 = np.eye(r) - (2.0 * gamma) * (inv @ inv.conj().T)
    b1 = -2.0 * (inv @ q @ inv.conj().T)
    companion = np.block([[np.zeros((r, r)), np.eye(r)], [b0, b1]])
    roots = np.linalg.eigvals(companion)
    tau = 2.0 * math.sqrt(2 * r * np.finfo(float).eps * np.linalg.norm(companion))
    near = 2.0 * np.abs(roots.imag) <= tau * (1.0 + np.abs(roots) ** 2)
    return np.sort((anchor + 2.0 * np.arctan(roots[near].real)) % math.pi)


def _guard(value: float, grid_n: int) -> float:
    """value (1 / grid_n)^2 1e-3, the guard's grid term, which
    ``radius_theta_scan`` floors at 8 r eps value. grid_n is clamped at
    2^64, where the floor dominates, so no grid_n overflows a float."""
    n = min(grid_n, 2**64)
    return value * (math.pi / n / math.pi) ** 2 * 1e-3


def radius_theta_scan(op: AOperator, grid_n: int = 720) -> RadiusEstimate:
    """Certified enclosure of w_A(T) from a small seed, a polish and one
    loop of level-set checks at the levels best + guard 4^rung.

    The scan solves the 8 angles k pi / 8 in one batch, polishes the best of
    them inside its +-pi/8 bracket (``_polish``) to best = f(theta_star),
    and asks ``_crossings`` where the level gamma, rung 0 first, is an
    eigenvalue of +-H(theta). If nowhere, f < gamma everywhere and the
    enclosure is [best - guard, gamma]. The check's anchor is the seed
    direction (an angle or its antipode) whose H has the largest lambda_min,
    so H(anchor) + gamma I is as far from singular as the seed shows.
    Otherwise the crossings cut the circle of period pi into arcs, on each
    of which f - gamma keeps one sign (Mengi & Overton, 2005). f is solved
    at the crossings and the arc midpoints in one batch, and the arc with
    the highest midpoint above gamma is polished, the arc itself the
    bracket: best rises by more than a guard, and the loop checks again.

    When no midpoint is above gamma, the level is stuck: its crossings are
    near-real roots within the rounding bound just above a flat or sharp
    peak, or the cut point of a failed Cholesky factor. It climbs one rung,
    unless best + guard 4^rung reaches the cap ||T||_A (1 + rho),
    rho = 8 r eps, which is then upper: ||T||_A >= w_A(T), and LAPACK's
    SVD computes it within a modest multiple of r eps ||T||_A. The cap is
    read only on a climb, so it never clamps rung 0. Every upper comes from
    a clear check or the cap; lower is best - guard.

    grid_n sets only the guard, best (1 / grid_n)^2 1e-3 floored at
    rho best, and so the certified width, 2e-3 / grid_n^2 relative when
    rung 0 clears above the floor; nothing of size grid_n is solved or
    stored. The floor ends the climb for every grid_n: the seed lies within
    pi/16 of the maximizer, so best >= w_A(T) cos(pi/16), and ||T||_A <=
    2 w_A(T), so at most ceil(log4(1.05 / rho)) + 1 <= 26 rungs are climbed.
    The seed does not depend on grid_n: when it certifies both scans,
    doubling the grid only narrows the enclosure around the same best.
    """
    grid_n = as_count(grid_n, "grid_n", 4)
    step = math.pi / 8
    lam = _extremes(op, np.arange(8) * step)
    vals = _magnitude(lam)
    j = int(np.argmax(vals))
    if vals[j] == 0.0:  # f(0) = ||H_re|| and f(pi/2) = ||H_im|| are 0, so C = 0
        return RadiusEstimate(0.0, 0.0, 0.0, grid_n)
    # lambda_min of H(k pi / 8) for k < 8, then of H(k pi / 8 + pi) = -H(k pi / 8).
    anchor = int(np.argmax(np.concatenate([lam[:, 0], -lam[:, 1]]))) * step
    theta_star, best = _polish(op, j * step, step, float(vals[j - 1]), float(vals[j]), float(vals[(j + 1) % 8]))
    rho = 8 * op.ctx.rank * sys.float_info.epsilon
    rung = 0
    while True:
        guard = max(_guard(best, grid_n), rho * best)
        level = best + guard * 4**rung
        cross = _crossings(op, level, anchor)
        if not cross.size:
            return RadiusEstimate(best - guard, level, theta_star % math.pi, grid_n)
        half = np.diff(np.append(cross, cross[0] + math.pi)) / 2.0  # the last arc wraps around
        mids = cross + half
        f_cross, f_mid = np.split(_magnitude(_extremes(op, np.concatenate([cross, mids]))), 2)
        k = int(np.argmax(f_mid))
        if f_mid[k] > level:
            fa, fb = float(f_cross[k]), float(f_cross[(k + 1) % cross.size])
            theta_star, best = _polish(op, float(mids[k]), float(half[k]), fa, float(f_mid[k]), fb)
            continue
        rung += 1
        cap = op.seminorm * (1.0 + rho)
        if best + guard * 4**rung >= cap:
            return RadiusEstimate(best - guard, cap, theta_star % math.pi, grid_n)


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
    fixed directions, theta = 0.7, 2.1 and those plus pi, off the seed's
    angles k pi / 8,
    decides, unless W meets the circle in all four by coincidence (a
    polygon inscribed there with those vertices passes).

    (i) is read as w_A(T) <= k (1 + tol): False when rad.lower exceeds that
    level, True when rad.upper does not, else it holds when ``_crossings``
    returns no angle (nor the cut point of a failed factor) for that level;
    a k < 0 fails, as w_A(T) >= 0. (ii) is read as h >= k (1 - tol), from
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
    if rad is None or rad.upper > level:
        if _crossings(op, level).size:
            return False
    support = _extremes(op, _DISK_ANGLES) * np.array([-1.0, 1.0])  # h(theta + pi) and h(theta)
    return bool((support >= k * (1.0 - tol)).all())


def disk_test(op: AOperator) -> DiskTestResult:
    """Whether W_A(T) is the origin disk of radius radius_k =
    lambda_max(H_re), the support function of W_A(T) at theta = 0
    (``_is_disk``); radius_k = 0 when rank(A) = 0."""
    k = float(_extremes(op, np.zeros(1))[0, 1])
    return DiskTestResult(_is_disk(op, k), k)
