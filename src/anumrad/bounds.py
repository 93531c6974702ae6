"""Inequality evaluators: classical bounds, refinements, equality
characterizations, and commutator upper bounds.

The evaluators read the per-operator norms cached on :class:`AOperator`
(``seminorm``, ``form_norm``, and ``part_norms``, f at the angles of
th1-th4's proofs), so each is computed once per operator however many
bounds use it. The commutator bounds take T's enclosure and its grid. The
radius of each product M = TX +- YT is first bounded by w_A(M) <= ||M||_A,
sigma_max of its compression. M gets a radius scan at T's grid (its upper
end is what the bounds read) only when that norm cannot show each bound it
meets to hold and not be tight. The two equality diagnostics read no
profile: ``radius._is_disk`` decides each from T's enclosure and, unless
that lies above the target, from one eigvalsh of two r x r matrices
H(theta) at fixed angles.

``inequality_reports`` assembles every inequality of the paper for one T,
the comparison of the refined commutator bounds included, for both the
suite and ``anumrad bounds``. Every check is emitted as a
:class:`BoundReport` whose slack is oriented so that "holds" always means
slack >= -check_rel_tol * max(|lhs|, |rhs|). Where w_A(T) appears on a
side of an inequality, the enclosure is used conservatively: the lower
estimate on the large side of >=, the upper estimate on the small side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, TolerancePolicy, sigma_max
from .radius import (
    DiskTestResult,
    RadiusEstimate,
    _is_disk,
    phase_profile,  # noqa: F401  (unused here; bench/test_bench.py reads bounds.phase_profile)
    radius_theta_scan,
)
from .space import AOperator, PsdContext

SQRT2 = math.sqrt(2.0)


class ContextMismatchError(DimensionMismatchError):
    """Raised when operators bound to different PsdContexts are combined."""


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance with its verdict.

    slack is rhs - lhs for upper bounds and lhs - rhs for lower bounds;
    scale is max(|lhs|, |rhs|), the unit of both tolerances; tight
    additionally requires the verdict to hold.
    """

    formula_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tight: bool
    scale: float


@dataclass(frozen=True)
class EqualityDiagnostic:
    """Necessity checks attached to an equality characterization: when it
    holds, the Re/Im profile must be constant at the target and W_A(T) must
    be the origin disk of that radius. The two are one statement (see
    ``radius._is_disk``), so re_im_constant and disk.is_disk carry one
    verdict, and disk.radius_k is the target."""

    case_id: str
    equality_holds: bool
    re_im_constant: bool
    disk: DiskTestResult
    target: float


@dataclass(frozen=True)
class CommutatorComparison:
    """Both refined commutator bounds next to the 2*sqrt(2)*min of norm-radius
    products they improve on, plus upper ends w_plus and w_minus of the radii
    of TS + ST and TS - ST (see ``_commutator_radius``): ||M||_A where that
    alone shows w_A(M) below min(refined31, refined32), not close to it, and
    otherwise the certified upper end of the scan. ``inequality_reports``
    checks it as the reports cmp_refined, cmp_w_plus and cmp_w_minus."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    zamani_bound: float
    refined31: float
    refined32: float
    w_plus: float
    w_minus: float


def _report(formula_id: str, lhs: float, rhs: float, tol: TolerancePolicy, kind: str) -> BoundReport:
    small, large = (lhs, rhs) if kind == "upper" else (rhs, lhs)
    holds = tol.at_most(small, large)
    tight = holds and bool(tol.close(lhs, rhs))
    return BoundReport(formula_id, lhs, rhs, large - small, holds, tight, max(abs(lhs), abs(rhs)))


def classic_bounds(op: AOperator, rad: RadiusEstimate) -> list[BoundReport]:
    """The four classical sandwich checks:
    ||T||_A/2 <= w_A(T) <= ||T||_A and ||D||_A/4 <= w_A^2(T) <= ||D||_A/2
    with D = T#A T + T T#A."""
    norm = op.seminorm
    dnorm = op.form_norm
    tol = op.ctx.tol
    return [
        _report("eqv_lower", rad.lower, norm / 2.0, tol, "lower"),
        _report("eqv_upper", rad.upper, norm, tol, "upper"),
        _report("eqv1_lower", rad.lower**2, dnorm / 4.0, tol, "lower"),
        _report("eqv1_upper", rad.upper**2, dnorm / 2.0, tol, "upper"),
    ]


def bound_th1(op: AOperator, rad: RadiusEstimate) -> BoundReport:
    """w_A(T) >= ||T||_A/2 + | ||Re_A(T)||_A - ||Im_A(T)||_A | / 2."""
    re_n, im_n, _, _ = op.part_norms
    rhs = op.seminorm / 2.0 + abs(re_n - im_n) / 2.0
    return _report("th1", rad.lower, rhs, op.ctx.tol, "lower")


def bound_th2(op: AOperator, rad: RadiusEstimate) -> BoundReport:
    """w_A(T) >= sqrt(||D||_A/4 + | ||Re_A(T)||^2 - ||Im_A(T)||^2 | / 2)."""
    re_n, im_n, _, _ = op.part_norms
    rhs = math.sqrt(op.form_norm / 4.0 + abs(re_n**2 - im_n**2) / 2.0)
    return _report("th2", rad.lower, rhs, op.ctx.tol, "lower")


def bound_th3(op: AOperator, rad: RadiusEstimate) -> BoundReport:
    """w_A(T) >= ||T||_A/2 + | ||Re+Im||_A - ||Re-Im||_A | / (2 sqrt 2)."""
    _, _, sum_n, diff_n = op.part_norms
    rhs = op.seminorm / 2.0 + abs(sum_n - diff_n) / (2.0 * SQRT2)
    return _report("th3", rad.lower, rhs, op.ctx.tol, "lower")


def bound_th4(op: AOperator, rad: RadiusEstimate) -> BoundReport:
    """w_A(T) >= sqrt(||D||_A/4 + | ||Re+Im||^2 - ||Re-Im||^2 | / 4)."""
    _, _, sum_n, diff_n = op.part_norms
    rhs = math.sqrt(op.form_norm / 4.0 + abs(sum_n**2 - diff_n**2) / 4.0)
    return _report("th4", rad.lower, rhs, op.ctx.tol, "lower")


def equality_diagnostics(op: AOperator, rad: RadiusEstimate) -> tuple[EqualityDiagnostic, EqualityDiagnostic]:
    """Diagnose w_A(T) = ||T||_A / 2 and w_A(T) = sqrt(||T#A T + T T#A||_A / 4):
    each forces W_A(T) to be the origin disk of its target k, that is the Re
    and Im profiles to sit at k for every theta, which ``_is_disk`` decides."""
    out = []
    for case_id, k in (("half_norm", op.seminorm / 2.0), ("quarter_form", math.sqrt(op.form_norm / 4.0))):
        disk = _is_disk(op, k, rad)
        holds = bool(op.ctx.tol.close(rad.lower, k))
        out.append(EqualityDiagnostic(case_id, holds, disk, DiskTestResult(disk, k), k))
    return tuple(out)


def equality_half_norm(op: AOperator, rad: RadiusEstimate, grid_n: int = 180) -> EqualityDiagnostic:
    """The w_A(T) = ||T||_A / 2 element of ``equality_diagnostics``. grid_n
    is ignored: the benchmark's ``sharp_lowrank`` workload (bench/run.py)
    still passes it; delete it with the next change to bench/."""
    return equality_diagnostics(op, rad)[0]


def _require_same_context(*ops: AOperator) -> PsdContext:
    ctx = ops[0].ctx
    for other in ops[1:]:
        if other.ctx is not ctx and not np.array_equal(other.ctx.a, ctx.a):
            raise ContextMismatchError("operators are bound to different A contexts")
    return ctx


def _commutator_radius(op_t, op_x, op_y, s, grid_n, rhs) -> float:
    """An upper end of w_A(M), M = TX + sYT, that decides every upper bound
    r in rhs as a grid scan would. w_A(M) <= ||M||_A = sigma, so sigma is
    returned when it is at most each r and close to none: then each report
    holds and is not tight. Otherwise it is the certified upper end of a
    scan of M at grid_n; nothing reads its lower end. B_A(H) is
    an algebra and an adjointable T maps null(A) into null(A), so
    compress(TX) = compress(T) compress(X) needs no second Douglas check."""
    tol = op_t.ctx.tol
    c_t, c_x, c_y = op_t.compressed, op_x.compressed, op_y.compressed
    c = c_t @ c_x + s * (c_y @ c_t)
    sigma = sigma_max(c)
    if all(tol.at_most(sigma, r) and not tol.close(sigma, r) for r in rhs):
        return sigma
    prod = AOperator(op_t.ctx, op_t.t @ op_x.t + s * (op_y.t @ op_t.t), c)
    return radius_theta_scan(prod, grid_n).upper


def _reduced_radii(op: AOperator, w: float) -> tuple[float, float]:
    """sqrt(w^2 - | ||Re||^2 - ||Im||^2 | / 2) and
    sqrt(w^2 - | ||Re+Im||^2 - ||Re-Im||^2 | / 4) for w = w_A(T). Each
    radicand is clamped at zero (it is >= 0 in exact arithmetic, negativity
    is rounding noise)."""
    re_n, im_n, sum_n, diff_n = op.part_norms
    return (
        math.sqrt(max(w**2 - abs(re_n**2 - im_n**2) / 2.0, 0.0)),
        math.sqrt(max(w**2 - abs(sum_n**2 - diff_n**2) / 4.0, 0.0)),
    )


def commutator_th5(
    op_t: AOperator, op_x: AOperator, op_y: AOperator, rad_t: RadiusEstimate
) -> tuple[BoundReport, ...]:
    """The three upper bounds on w_A(TX + YT), then the same three on
    w_A(TX - YT): lem1, max(||X||_A, ||Y||_A) sqrt(2 ||T#A T + T T#A||_A),
    then the two refined bounds th5_i and th5_ii, which read w_A(T) from
    rad_t. Each triple's lhs comes from one ``_commutator_radius`` against
    its three rhs: ||M||_A where that shows all three held and not tight,
    else the upper end of a radius scan at rad_t's grid. So an lhs is not
    the near-exact w_A(M) where the norm decided; ``anumrad radius`` on the
    product gives that."""
    tol = _require_same_context(op_t, op_x, op_y).tol
    norm_xy = max(op_x.seminorm, op_y.seminorm)
    factor = 2.0 * SQRT2 * norm_xy
    red_i, red_ii = _reduced_radii(op_t, rad_t.upper)
    rhs = (
        ("lem1", norm_xy * math.sqrt(2.0 * op_t.form_norm)),
        ("th5_i", factor * red_i),
        ("th5_ii", factor * red_ii),
    )
    reports = []
    for s in (1.0, -1.0):
        lhs = _commutator_radius(op_t, op_x, op_y, s, rad_t.grid_n, [r for _, r in rhs])
        reports += [_report(formula_id, lhs, r, tol, "upper") for formula_id, r in rhs]
    return tuple(reports)


def commutator_compare(op_t: AOperator, op_s: AOperator, rad_t: RadiusEstimate) -> CommutatorComparison:
    """Refined bounds 2 sqrt2 min(alpha1, alpha2) and 2 sqrt2 min(beta1, beta2)
    for w_A(TS +- ST), next to 2 sqrt2 min(||T|| w_A(S), ||S|| w_A(T)). S is
    scanned at rad_t's grid, since its w_A(S) enters the bounds as a value.
    w_plus and w_minus come from ``_commutator_radius`` against
    min(refined31, refined32), the bound ``inequality_reports`` checks them
    against: ||TS +- ST||_A where that decides the check, else a scan at
    rad_t's grid."""
    _require_same_context(op_t, op_s)
    grid_n = rad_t.grid_n
    wt, ws = rad_t.upper, radius_theta_scan(op_s, grid_n).upper
    nt, ns = op_t.seminorm, op_s.seminorm
    red_t, red_s = _reduced_radii(op_t, wt), _reduced_radii(op_s, ws)
    alpha1, beta1 = ns * red_t[0], ns * red_t[1]
    alpha2, beta2 = nt * red_s[0], nt * red_s[1]
    refined31, refined32 = 2.0 * SQRT2 * min(alpha1, alpha2), 2.0 * SQRT2 * min(beta1, beta2)
    rhs = [min(refined31, refined32)]
    return CommutatorComparison(
        alpha1=alpha1,
        alpha2=alpha2,
        beta1=beta1,
        beta2=beta2,
        zamani_bound=2.0 * SQRT2 * min(nt * ws, ns * wt),
        refined31=refined31,
        refined32=refined32,
        w_plus=_commutator_radius(op_t, op_s, op_s, 1.0, grid_n, rhs),
        w_minus=_commutator_radius(op_t, op_s, op_s, -1.0, grid_n, rhs),
    )


def inequality_reports(
    op: AOperator,
    rad: RadiusEstimate,
    xy: tuple[AOperator, AOperator] | None = None,
    s: AOperator | None = None,
) -> tuple[list[BoundReport], CommutatorComparison | None]:
    """Every inequality report for T, in order: the four classical sandwich
    checks, th1-th4, then the six th5 reports when xy = (X, Y) is given.
    With S, also the comparison of the refined commutator bounds and its
    three checks: cmp_refined, max(refined31, refined32) <= zamani_bound,
    then cmp_w_plus and cmp_w_minus, w_plus and w_minus each <=
    min(refined31, refined32). The comparison is None without S."""
    reports = classic_bounds(op, rad)
    reports += [bound(op, rad) for bound in (bound_th1, bound_th2, bound_th3, bound_th4)]
    if xy is not None:
        reports.extend(commutator_th5(op, *xy, rad))
    if s is None:
        return reports, None
    cmp = commutator_compare(op, s, rad)
    tol = op.ctx.tol
    refined = (cmp.refined31, cmp.refined32)
    reports.append(_report("cmp_refined", max(refined), cmp.zamani_bound, tol, "upper"))
    reports += [
        _report(formula_id, w, min(refined), tol, "upper")
        for formula_id, w in (("cmp_w_plus", cmp.w_plus), ("cmp_w_minus", cmp.w_minus))
    ]
    return reports, cmp
