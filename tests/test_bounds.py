import json
import math

import numpy as np
import pytest

from anumrad import (
    ContextMismatchError,
    InstanceSpec,
    RadiusEstimate,
    bound_th1,
    bound_th2,
    bound_th3,
    bound_th4,
    classic_bounds,
    commutator_compare,
    commutator_th5,
    disk_test,
    equality_diagnostics,
    equality_half_norm,
    gen_instance,
    gen_partner,
    inequality_reports,
    make_a_operator,
    phase_profile,
    psd_decompose,
    radius_theta_scan,
    spectral_norm,
)
from anumrad import bounds
from anumrad.io import to_dict
from anumrad.linalg import TolerancePolicy

from test_radius import NEAR_DISKS, count_mats

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SQRT2 = math.sqrt(2.0)


def prepared(a, t):
    op = make_a_operator(psd_decompose(a), t)
    return op, radius_theta_scan(op)


class TestCartesianFormNorm:
    def test_jordan(self):
        op, _ = prepared(np.eye(2), JORDAN)
        # T*T + TT* = I so the norm is 1
        assert op.form_norm == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        op, _ = prepared(np.eye(2), np.diag([1.0 + 1.0j, 0.0]))
        assert op.form_norm == pytest.approx(4.0, rel=1e-12)

    def test_norms_cached_on_operator(self):
        op, _ = prepared(np.diag([2.0, 1.0]), np.array([[1.0, 2.0j], [0.5, -1.0]]))
        assert op.form_norm is op.form_norm
        assert op.part_norms is op.part_norms
        # f at the angles the refined bounds' proofs pass through, sqrt 2 f
        # at 3 pi / 4 and pi / 4, from the one kernel that computes f
        f = phase_profile(op, [0.0, math.pi / 2, 3 * math.pi / 4, math.pi / 4])
        assert op.part_norms == (f[0], f[1], SQRT2 * f[2], SQRT2 * f[3])
        # against an independent oracle: sigma_max of the Cartesian parts
        oracle = (op.h_re, op.h_im, op.h_re + op.h_im, op.h_re - op.h_im)
        for got, part in zip(op.part_norms, oracle):
            want = spectral_norm(part)
            assert abs(got - want) <= 4 * op.ctx.rank * np.finfo(float).eps * want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vanishing_parts_read_below_eps(self, seed):
        # At A = I, Im_A(H) of a Hermitian H is 0, and so (to the rounding
        # of (1 -+ i) H) are Re + Im of (1 - i) H and Re - Im of (1 + i) H.
        # sigma_max read those as 0; f reads cos(pi/2) = 6.1e-17 times
        # ||Re||, and cos and sin at pi/4 and 3 pi/4 differ by one ulp, so
        # each is a rounding below eps ||T||_A.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = g + g.conj().T
        ctx = psd_decompose(np.eye(5))
        assert not make_a_operator(ctx, h).h_im.any()
        for t, k in ((h, 1), ((1 - 1j) * h, 2), ((1 + 1j) * h, 3)):
            op = make_a_operator(ctx, t)
            assert op.part_norms[k] <= np.finfo(float).eps * op.seminorm


class TestClassicBounds:
    def test_jordan_lower_tight(self):
        op, rad = prepared(np.eye(2), JORDAN)
        reports = {r.formula_id: r for r in classic_bounds(op, rad)}
        assert all(r.holds for r in reports.values())
        assert reports["eqv_lower"].tight  # w = ||T||/2 for this nilpotent
        assert reports["eqv1_lower"].tight
        assert not reports["eqv_upper"].tight

    def test_selfadjoint_upper_tight(self):
        op, rad = prepared(np.eye(2), np.diag([1.0, -1.0]))
        reports = {r.formula_id: r for r in classic_bounds(op, rad)}
        assert all(r.holds for r in reports.values())
        assert reports["eqv_upper"].tight
        assert reports["eqv1_upper"].tight
        assert not reports["eqv_lower"].tight

    def test_zero_operator_all_tight(self):
        op, rad = prepared(np.eye(2), np.zeros((2, 2)))
        for report in classic_bounds(op, rad):
            assert report.holds and report.tight
            assert report.slack == 0.0


class TestRefinedLowerBounds:
    def test_th1_selfadjoint_tight(self):
        # ||Re|| = 1, ||Im|| = 0 pushes the bound all the way to w = 1
        op, rad = prepared(np.eye(2), np.diag([1.0, -1.0]))
        rep = bound_th1(op, rad)
        assert rep.rhs == pytest.approx(1.0, rel=1e-12)
        assert rep.holds and rep.tight

    def test_th1_jordan_tight(self):
        op, rad = prepared(np.eye(2), JORDAN)
        rep = bound_th1(op, rad)
        assert rep.rhs == pytest.approx(0.5, rel=1e-12)
        assert rep.holds and rep.tight

    def test_th2_selfadjoint_tight(self):
        op, rad = prepared(np.eye(2), np.diag([1.0, -1.0]))
        rep = bound_th2(op, rad)
        assert rep.rhs == pytest.approx(1.0, rel=1e-12)
        assert rep.holds and rep.tight

    def test_th3_selfadjoint_not_tight(self):
        # ||Re + Im|| = ||Re - Im|| = 1 so th3 falls back to ||T||/2
        op, rad = prepared(np.eye(2), np.diag([1.0, -1.0]))
        rep = bound_th3(op, rad)
        assert rep.rhs == pytest.approx(0.5, rel=1e-12)
        assert rep.holds and not rep.tight

    def test_th3_normal_gap(self):
        op, rad = prepared(np.eye(2), np.diag([1.0, 1.0j]))
        rep = bound_th3(op, rad)
        assert rep.lhs == pytest.approx(1.0, rel=1e-8)
        assert rep.rhs == pytest.approx(0.5, rel=1e-12)
        assert rep.holds and not rep.tight

    def test_th3_tight_on_skew_diagonal(self):
        # T = diag(1+i, 0): ||T|| = sqrt 2, ||Re + Im|| = 2 and ||Re - Im|| = 0,
        # so rhs = sqrt 2 / 2 + 2 / (2 sqrt 2) = sqrt 2 = w. Unlike the two
        # tests above, the refinement term is not zero here: it is half of rhs.
        op, rad = prepared(np.eye(2), np.diag([1.0 + 1.0j, 0.0]))
        rep = bound_th3(op, rad)
        assert rep.rhs == pytest.approx(SQRT2, rel=1e-12)
        assert rep.holds and rep.tight

    def test_th4_tight_on_skew_diagonal(self):
        # T = diag(1+i, 0): radicand (4/4 + 4/4) gives rhs = sqrt 2 = w
        op, rad = prepared(np.eye(2), np.diag([1.0 + 1.0j, 0.0]))
        rep = bound_th4(op, rad)
        assert rep.rhs == pytest.approx(SQRT2, rel=1e-12)
        assert rep.holds and rep.tight

    def test_refinements_dominate_classical(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            op, rad = prepared(np.eye(n), t)
            half = op.seminorm / 2.0
            quarter = op.form_norm / 4.0
            assert bound_th1(op, rad).rhs >= half - 1e-12
            assert bound_th3(op, rad).rhs >= half - 1e-12
            assert bound_th2(op, rad).rhs ** 2 >= quarter - 1e-12
            assert bound_th4(op, rad).rhs ** 2 >= quarter - 1e-12
            for rep in (bound_th1(op, rad), bound_th2(op, rad), bound_th3(op, rad), bound_th4(op, rad)):
                assert rep.holds


class TestEqualityDiagnostics:
    def test_jordan_half_norm_case(self):
        op, rad = prepared(np.eye(2), JORDAN)
        diag = equality_half_norm(op, rad)
        assert diag.equality_holds
        assert diag.re_im_constant
        assert diag.disk.is_disk
        assert diag.target == pytest.approx(0.5, rel=1e-12)

    def test_selfadjoint_half_norm_fails(self):
        # w = 1 lies above the target 1/2, which the enclosure shows alone;
        # f = |cos| is not constant, and disk_test agrees
        op, rad = prepared(np.eye(2), np.diag([1.0, -1.0]))
        diag = equality_half_norm(op, rad)
        assert not diag.equality_holds
        assert diag.re_im_constant is False and diag.disk.is_disk is False
        assert not disk_test(op).is_disk

    def test_jordan_quarter_form_case(self):
        op, rad = prepared(np.eye(2), JORDAN)
        diag = equality_diagnostics(op, rad)[1]
        assert diag.equality_holds
        assert diag.re_im_constant and diag.disk.is_disk
        assert diag.target == pytest.approx(0.5, rel=1e-12)

    def test_zero_operator_degenerate(self):
        op, rad = prepared(np.eye(2), np.zeros((2, 2)))
        diag = equality_diagnostics(op, rad)[1]
        assert diag.equality_holds
        assert diag.re_im_constant and diag.disk.is_disk

    def test_selfadjoint_quarter_form_fails(self):
        # ||D||_A = 2 gives target 1/sqrt 2 < w = 1, and f = |cos| is not flat
        op, rad = prepared(np.eye(2), np.diag([1.0, -1.0]))
        diag = equality_diagnostics(op, rad)[1]
        assert diag.target == pytest.approx(1.0 / SQRT2, rel=1e-12)
        assert not diag.equality_holds
        assert diag.re_im_constant is False and diag.disk.is_disk is False
        assert not disk_test(op).is_disk

    def test_jordan_verdicts_on_small_even_grid(self, monkeypatch):
        # At grid_n = 8 the guard, 1.6e-5 of w, exceeds equality_rel_tol, so
        # the enclosure shows neither equality nor w <= k (1 + tol); the
        # level-set check shows the latter, and W(J_2) is still the disk.
        op = make_a_operator(psd_decompose(np.eye(2)), JORDAN)
        rad = radius_theta_scan(op, 8)
        checks = count_mats(monkeypatch, "eigvals")
        for diag in equality_diagnostics(op, rad):
            assert rad.lower < diag.target < rad.upper
            assert not diag.equality_holds and diag.re_im_constant and diag.disk.is_disk
        assert checks[0] == 2

    @pytest.mark.parametrize("t", [JORDAN, np.diag([1.0, -1.0]), np.diag([1.0 + 1.0j, 0.0])])
    def test_pair_matches_single_diagnostics(self, t):
        op, rad = prepared(np.eye(2), t)
        pair = equality_diagnostics(op, rad)
        # equality_half_norm ignores its grid argument
        for grid_n in (8, 180):
            assert pair[0] == equality_half_norm(op, rad, grid_n)
        assert [d.case_id for d in pair] == ["half_norm", "quarter_form"]
        assert pair[1].target == math.sqrt(op.form_norm / 4.0)
        for d in pair:
            assert d.re_im_constant == d.disk.is_disk and d.disk.radius_k == d.target

    def test_half_norm_converse_witness(self):
        # ||Re_A T||_A = ||Im_A T||_A = ||T||_A / 2 at theta = 0 does not force
        # w_A(T) = ||T||_A / 2: T = J_2 + 0.45(1 + i) at A = I_3 has
        # ||T||_A = 1 and both part norms 1/2, yet w_A(T) = 0.45 sqrt 2, the
        # modulus of the scalar block, exceeds w(J_2) = 1/2.
        t = np.zeros((3, 3), dtype=complex)
        t[:2, :2] = JORDAN
        t[2, 2] = 0.45 * (1.0 + 1.0j)
        op, rad = prepared(np.eye(3), t)
        assert op.seminorm == pytest.approx(1.0, rel=1e-15)
        assert op.part_norms[:2] == pytest.approx((0.5, 0.5), rel=1e-15)
        assert rad.lower <= 0.45 * SQRT2 <= rad.upper
        assert not equality_diagnostics(op, rad)[0].equality_holds

    @pytest.mark.parametrize("case", ["16-gon", "half-octagon", "bump"])
    def test_near_disks_are_not_disks(self, case):
        # W is a polygon or a disk with a point just outside: no target is a
        # disk radius, although the former grid verdict passed each of them
        op, rad = prepared(*NEAR_DISKS[case])
        for diag in equality_diagnostics(op, rad):
            assert not diag.equality_holds and not diag.re_im_constant and not diag.disk.is_disk

    @pytest.mark.parametrize("eps, near", [(1e-9, True), (1e-7, True), (1e-5, False)])
    def test_near_equality_reads_like_equality_holds(self, eps, near):
        # T = J_2 + eps G: lower / k - 1 and 1 - h / k, the support
        # function's deficit at the fixed directions, are both of order
        # eps, so the two verdicts agree at
        # equality_rel_tol = 1e-6. A threshold of a few rounding units
        # would call eps = 1e-9 no disk while its equality held, and the
        # suite would report that as a violation.
        rng = np.random.default_rng(0)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op, rad = prepared(np.eye(2), JORDAN + eps * g)
        for diag in equality_diagnostics(op, rad):
            assert diag.equality_holds is near and diag.disk.is_disk is near
        assert all(report.holds for report in inequality_reports(op, rad)[0])

    @pytest.mark.parametrize("construction", ["random", "nilpotent_half", "shared_eigenbasis_selfadjoint"])
    def test_scanned_operator_gives_the_fresh_diagnostics(self, construction):
        spec = InstanceSpec(dim=6, rank_a=4, construction=construction, seed=4)
        fresh, scanned = (make_a_operator(psd_decompose(a), t) for a, t in [gen_instance(spec)] * 2)
        rad = radius_theta_scan(scanned)
        assert equality_diagnostics(scanned, rad) == equality_diagnostics(fresh, rad)

    def test_flat_profile_solves_no_equality_grid(self, monkeypatch):
        # A nilpotent T has a flat profile: its enclosure shows w <= k (1 +
        # tol) for both targets, so each verdict costs one eigvalsh of two
        # r x r matrices, no level-set check and no grid.
        a, t = gen_instance(InstanceSpec(dim=8, rank_a=5, construction="nilpotent_half", seed=1))
        op = make_a_operator(psd_decompose(a), t)
        rad = radius_theta_scan(op)
        _ = op.seminorm, op.form_norm  # the targets' norms, cached before counting
        counted, checks, svds = (count_mats(monkeypatch, name) for name in ("eigvalsh", "eigvals", "svd"))
        diags = equality_diagnostics(op, rad)
        assert (counted[0], checks[0], svds[0]) == (4, 0, 0)
        assert all(d.equality_holds and d.re_im_constant and d.disk.is_disk for d in diags)

    def test_unattainable_targets_read_no_profile(self, monkeypatch):
        # T = diag(1 + i, 0): w = sqrt 2 against the targets sqrt 2 / 2 and
        # 1, both below the enclosure, so nothing is solved and both
        # verdicts serialize as false
        op, rad = prepared(np.eye(2), np.diag([1.0 + 1.0j, 0.0]))
        _ = op.seminorm, op.form_norm  # the targets' norms, cached before counting
        counted, checks, svds = (count_mats(monkeypatch, name) for name in ("eigvalsh", "eigvals", "svd"))
        pair = equality_diagnostics(op, rad)
        assert (counted[0], checks[0], svds[0]) == (0, 0, 0)
        for diag in pair:
            assert diag.target < rad.lower
            out = json.loads(json.dumps(to_dict(diag)))
            assert out["equality_holds"] is False
            assert out["re_im_constant"] is False
            assert out["disk"] == {"is_disk": False, "radius_k": diag.target}

    def test_target_inside_the_enclosure_reads_the_profile(self):
        # T = diag(1, -1) (w = 1) against a wide enclosure [0.4, 0.6]: the
        # half-norm target 1/2 lies in it without equality_holds, so the
        # level-set check reads the profile |cos| for both diagnostics, and
        # finds it above each target
        op, _ = prepared(np.eye(2), np.diag([1.0, -1.0]))
        wide = RadiusEstimate(lower=0.4, upper=0.6, theta_star=0.0, grid_n=720)
        for diag in equality_diagnostics(op, wide):
            assert not diag.equality_holds
            assert diag.re_im_constant is False
            assert not diag.disk.is_disk

    def test_serialized_keys(self):
        op, rad = prepared(np.eye(2), JORDAN)
        out = to_dict(equality_half_norm(op, rad))
        assert list(out) == ["case_id", "equality_holds", "re_im_constant", "disk", "target"]
        assert list(out["disk"]) == ["is_disk", "radius_k"]
        assert out["case_id"] == "half_norm"
        assert out["disk"]["is_disk"] is True
        assert json.loads(json.dumps(out)) == out


class TestCommutatorBounds:
    def setup_method(self):
        ctx = psd_decompose(np.eye(2))
        self.ctx = ctx
        self.op_t = make_a_operator(ctx, JORDAN)
        self.op_x = make_a_operator(ctx, JORDAN.conj().T)
        self.op_y = make_a_operator(ctx, JORDAN.conj().T)
        self.rad_t = radius_theta_scan(self.op_t, 720)

    def test_reports_come_plus_then_minus(self):
        ident = make_a_operator(self.ctx, np.eye(2))
        reports = commutator_th5(self.op_t, ident, ident, self.rad_t)
        assert [r.formula_id for r in reports] == ["lem1", "th5_i", "th5_ii"] * 2
        # T + T = 2T has radius 1, T - T = 0 radius 0
        assert reports[0].lhs == pytest.approx(1.0, rel=1e-5)
        assert reports[3].lhs == 0.0

    def test_lemma_example(self):
        # TX - YT = diag(1, -1): lhs = 1 against rhs = sqrt(2)
        rep = commutator_th5(self.op_t, self.op_x, self.op_y, self.rad_t)[3]
        assert rep.lhs == pytest.approx(1.0, rel=1e-6)
        assert rep.rhs == pytest.approx(SQRT2, rel=1e-12)
        assert rep.holds and not rep.tight

    def test_lemma_zero_partners(self):
        zero = make_a_operator(self.ctx, np.zeros((2, 2)))
        rep = commutator_th5(self.op_t, zero, zero, self.rad_t)[0]
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.holds and rep.tight

    def test_th5_example(self):
        rep_i, rep_ii = commutator_th5(self.op_t, self.op_x, self.op_y, self.rad_t)[4:]
        assert rep_i.formula_id == "th5_i"
        assert rep_ii.formula_id == "th5_ii"
        # both radicands reduce to w^2 = 1/4 here, so both bounds are sqrt 2
        assert rep_i.rhs == pytest.approx(SQRT2, rel=1e-5)
        assert rep_ii.rhs == pytest.approx(SQRT2, rel=1e-5)
        assert rep_i.holds and rep_ii.holds

    def test_th5_identity_partners_anticommutator(self):
        ident = make_a_operator(self.ctx, np.eye(2))
        rep_i = commutator_th5(self.op_t, ident, ident, self.rad_t)[1]
        # lhs = w(2T) = 1, rhs = 2 sqrt2 sqrt(1/4) = sqrt 2
        assert rep_i.lhs == pytest.approx(1.0, rel=1e-5)
        assert rep_i.holds

    def test_compare_example(self):
        cmp = commutator_compare(self.op_t, self.op_x, self.rad_t)
        assert cmp.zamani_bound == pytest.approx(SQRT2, rel=1e-5)
        assert cmp.alpha1 == pytest.approx(0.5, rel=1e-5)
        assert cmp.refined31 == pytest.approx(SQRT2, rel=1e-5)
        assert cmp.refined32 == pytest.approx(SQRT2, rel=1e-5)
        assert cmp.w_minus == pytest.approx(1.0, rel=1e-5)
        assert cmp.w_plus == pytest.approx(1.0, rel=1e-5)

    def test_compare_refined_never_exceeds_baseline(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            ctx = psd_decompose(np.eye(n))
            op_t = make_a_operator(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            op_s = make_a_operator(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            cmp = commutator_compare(op_t, op_s, radius_theta_scan(op_t, 720))
            slack = 1e-10 * cmp.zamani_bound
            assert cmp.refined31 <= cmp.zamani_bound + slack
            assert cmp.refined32 <= cmp.zamani_bound + slack
            assert cmp.w_plus <= min(cmp.refined31, cmp.refined32) + slack
            assert cmp.w_minus <= min(cmp.refined31, cmp.refined32) + slack

    def test_context_mismatch_rejected(self):
        other = make_a_operator(psd_decompose(np.diag([2.0, 1.0])), JORDAN)
        with pytest.raises(ContextMismatchError):
            commutator_th5(self.op_t, other, other, self.rad_t)
        with pytest.raises(ContextMismatchError):
            commutator_compare(self.op_t, other, self.rad_t)


@pytest.mark.parametrize("construction", ["random", "nilpotent_half", "shared_eigenbasis_selfadjoint"])
def test_inequality_reports_are_the_evaluators_in_order(construction):
    a, t = gen_instance(InstanceSpec(dim=4, rank_a=3, construction=construction, seed=31))
    ctx = psd_decompose(a)
    op_t, op_s = make_a_operator(ctx, t), gen_partner(ctx, [31, 1])
    xy = gen_partner(ctx, [31, 2]), gen_partner(ctx, [31, 3])
    rad = radius_theta_scan(op_t)
    expected = classic_bounds(op_t, rad)
    expected += [f(op_t, rad) for f in (bound_th1, bound_th2, bound_th3, bound_th4)]
    assert inequality_reports(op_t, rad) == (expected, None)
    expected += commutator_th5(op_t, *xy, rad)
    assert inequality_reports(op_t, rad, xy) == (expected, None)
    reports, cmp = inequality_reports(op_t, rad, xy, op_s)
    assert cmp == commutator_compare(op_t, op_s, rad)
    assert reports[:-3] == expected
    refined = (cmp.refined31, cmp.refined32)
    assert [(r.formula_id, r.lhs, r.rhs) for r in reports[-3:]] == [
        ("cmp_refined", max(refined), cmp.zamani_bound),
        ("cmp_w_plus", cmp.w_plus, min(refined)),
        ("cmp_w_minus", cmp.w_minus, min(refined)),
    ]
    assert all(r.holds and r.slack == r.rhs - r.lhs for r in reports[-3:])


@pytest.mark.parametrize("construction", ["random", "nilpotent_half", "shared_eigenbasis_selfadjoint"])
@pytest.mark.parametrize("rank_a", [4, 2])
def test_commutator_radii_share_one_unrefined_path(construction, rank_a):
    seed = 120 + rank_a
    a, t = gen_instance(InstanceSpec(dim=4, rank_a=rank_a, construction=construction, seed=seed))
    ctx = psd_decompose(a)
    op_t = make_a_operator(ctx, t)
    op_s = gen_partner(ctx, [seed, 1])
    # TS +- ST is TX +- YT with X = Y = S, bit for bit.
    rad_t = radius_theta_scan(op_t, 720)
    cmp = commutator_compare(op_t, op_s, rad_t)
    reports = commutator_th5(op_t, op_s, op_s, rad_t)
    assert cmp.w_plus == reports[0].lhs
    assert cmp.w_minus == reports[3].lhs


@pytest.mark.parametrize("grid_n", [90, 720])
def test_commutator_scans_run_at_the_grid_of_rad_t(monkeypatch, grid_n):
    grids = []
    scan = bounds.radius_theta_scan

    def recording(op, grid, *args, **kwargs):
        grids.append(grid)
        return scan(op, grid, *args, **kwargs)

    monkeypatch.setattr(bounds, "radius_theta_scan", recording)
    a, t = gen_instance(InstanceSpec(dim=4, rank_a=3, seed=5))
    # An equality tolerance near 1 puts every rhs close to sigma_max of its
    # product, so sigma decides nothing and every product is scanned.
    for tol, n_scans in ((TolerancePolicy(), 1), (TolerancePolicy(equality_rel_tol=0.999), 5)):
        grids.clear()
        ctx = psd_decompose(a, tol)
        op_t = make_a_operator(ctx, t)
        op_x, op_y = gen_partner(ctx, [5, 2]), gen_partner(ctx, [5, 3])
        rad_t = scan(op_t, grid_n)
        commutator_th5(op_t, op_x, op_y, rad_t)
        commutator_compare(op_t, op_x, rad_t)
        # S alone where sigma decides; else two products for th5, then S
        # and its two products for the comparison
        assert grids == [grid_n] * n_scans


def test_th5_family_on_a_closed_form():
    # rank(A) = 1 and every compression a scalar: T = 3 + i, X = 2, Y = i.
    # ||D||_A = 2 |T|^2 = 20, w_A(T) = sqrt 10, ||Re|| = 3, ||Im|| = 1,
    # ||Re + Im|| = 4 and ||Re - Im|| = 2, so the reduced radii are
    # sqrt(10 - 8/2) = sqrt 6 and sqrt(10 - 12/4) = sqrt 7.
    ctx = psd_decompose(np.diag([1.0, 0.0]))
    op_t = make_a_operator(ctx, np.diag([3.0 + 1.0j, 0.0]))
    op_x, op_y = make_a_operator(ctx, np.diag([2.0, 0.0])), make_a_operator(ctx, np.diag([1.0j, 0.0]))
    reports = commutator_th5(op_t, op_x, op_y, radius_theta_scan(op_t))
    rhs = {"lem1": 4.0 * math.sqrt(10.0), "th5_i": 8.0 * math.sqrt(3.0), "th5_ii": 4.0 * math.sqrt(14.0)}
    for rep in reports:
        assert rep.rhs == pytest.approx(rhs[rep.formula_id], rel=1e-8)
        # TX + YT = 5 + 5i and TX - YT = 7 - i, both of modulus 5 sqrt 2
        assert rep.lhs == pytest.approx(5.0 * SQRT2, rel=1e-8)
        assert rep.holds and not rep.tight


def test_attaining_commutator_is_still_scanned(monkeypatch):
    # rank(A) = 1, T = 3, X = Y = S = s: w(TS + ST) = 6|s| equals the lem1
    # and th5_i rhs and min(refined31, refined32), so sigma_max = 6|s|
    # cannot decide them and the product is scanned; TS - ST = 0 is decided
    # by its zero norm.
    s = 0.7
    ctx = psd_decompose(np.diag([1.0, 0.0]))
    op_t, op_s = make_a_operator(ctx, np.diag([3.0, 0.0])), make_a_operator(ctx, np.diag([s, 0.0]))
    rad_t = radius_theta_scan(op_t)
    # Each part_norms is one eigvalsh of four matrices; read (and cache)
    # them first, so the counts below see scans only.
    _ = (op_t.part_norms, op_s.part_norms)
    counted = count_mats(monkeypatch, "eigvalsh")
    reports = {(i // 3, r.formula_id): r for i, r in enumerate(commutator_th5(op_t, op_s, op_s, rad_t))}
    assert counted[0] > 0
    for fid in ("lem1", "th5_i"):
        assert reports[0, fid].rhs == pytest.approx(6.0 * s, rel=1e-8)
        assert reports[0, fid].holds and reports[0, fid].tight
    assert reports[1, "lem1"].lhs == 0.0
    before = counted[0]
    cmp = commutator_compare(op_t, op_s, rad_t)
    compare_mats = counted[0] - before
    before = counted[0]
    radius_theta_scan(op_s, rad_t.grid_n)
    # S's own scan, then a scan of TS + ST
    assert compare_mats > counted[0] - before
    assert cmp.w_plus == reports[0, "lem1"].lhs
    assert cmp.w_plus == pytest.approx(min(cmp.refined31, cmp.refined32), rel=1e-6)
    assert cmp.w_minus == 0.0
