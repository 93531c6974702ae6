import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anumrad import (
    CONSTRUCTIONS,
    DegenerateRankError,
    InstanceSpec,
    LinAlgInputError,
    SuiteConfig,
    disk_test,
    gen_instance,
    is_adjointable,
    make_a_operator,
    phase_profile,
    psd_decompose,
    radius_sampling,
    radius_theta_scan,
    range_cloud,
    run_suite,
    witness_value,
)
from anumrad import radius

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
ADJOINTABLE = ("random", "nilpotent_half", "shared_eigenbasis_selfadjoint")
BAD_ANGLES = [np.nan, np.inf, -np.inf, [0.1, np.nan], [[0.1]], [[0.1, 0.2]]]
BAD_SEEDS = [(None, TypeError), (True, TypeError), (1.5, TypeError), ("3", TypeError), (-1, ValueError)]


def make_op(a, t):
    return make_a_operator(psd_decompose(a), t)


def uniform_reference(op, grid_n):
    """The scan on the full uniform grid: argmax, guard, the parabolic polish
    seeded with the argmax's two grid neighbours, and the largest
    support-line vertex bound over all grid_n cells."""
    delta = math.pi / grid_n
    thetas = np.arange(grid_n) * delta
    vals = phase_profile(op, thetas)
    j = int(np.argmax(vals))
    grid_max = float(vals[j])
    guard = grid_max * (delta / math.pi) ** 2 * 1e-3
    theta_star, best = j * delta, grid_max
    if grid_max > 0.0:
        theta_star, best = radius._polish(op, j * delta, delta, vals[j - 1], grid_max, vals[(j + 1) % grid_n])
    lower = max(best - guard, 0.0)
    fa, fb = vals, np.roll(vals, -1)
    x = (fb - fa * math.cos(delta)) / math.sin(delta)
    inside = (x >= 0.0) & (fa >= fb * math.cos(delta))
    certificate = float(np.max(np.where(inside, np.hypot(fa, x), np.maximum(fa, fb))))
    return lower, max(certificate + guard, lower), theta_star % math.pi


def bracket_oracle(op, grid_n, rounds=25):
    """High-effort reference for the refined lower end and the maximum it
    is read from: the former bracket search, six probes at quarter steps
    around the best point per round, the step quartered each round, run for
    25 rounds instead of 7."""
    delta = math.pi / grid_n
    vals = phase_profile(op, np.arange(grid_n) * delta)
    j = int(np.argmax(vals))
    grid_max = float(vals[j])
    guard = grid_max * (delta / math.pi) ** 2 * 1e-3
    theta_star, best, h = j * delta, grid_max, delta
    if grid_max > 0.0:
        for _ in range(rounds):
            probes = theta_star + h * np.array([-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])
            probed = phase_profile(op, probes)
            k = int(np.argmax(probed))
            if probed[k] > best:
                theta_star, best = float(probes[k]), float(probed[k])
            h /= 4.0
    return max(best - guard, 0.0), best


def complex_sampling_reference(op, n_samples, seed):
    """The sampling oracle in complex arithmetic: u = x + iy in C^r from two
    (r, m) draws per chunk and |u* C u| / |u|^2 over the nonzero draws."""
    r = op.ctx.rank
    if r == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = int(n_samples)
    while remaining > 0:
        m = min(remaining, 50_000)
        remaining -= m
        u = rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m))
        nsq = np.einsum("ij,ij->j", u.conj(), u).real
        ok = nsq > 0.0
        if not ok.any():
            continue
        vals = np.abs(np.einsum("ij,ij->j", u.conj(), op.compressed @ u))
        best = max(best, float((vals[ok] / nsq[ok]).max()))
    return best


def cloud_reference(op, n_theta, seed):
    """The range cloud with one eigensolve per direction: thetas, boundary
    points and interior points."""
    c = op.compressed
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    _, u = np.linalg.eigh(radius._support_pencils(op, thetas))
    v = u[:, :, -1]
    boundary = np.einsum("ki,ij,kj->k", v.conj(), c, v)
    rng = np.random.default_rng(seed)
    r = op.ctx.rank
    z = rng.standard_normal((r, n_theta)) + 1j * rng.standard_normal((r, n_theta))
    z /= np.linalg.norm(z, axis=0)
    interior = np.einsum("ij,ik,kj->j", z.conj(), c, z)
    return thetas, boundary, interior


def support_spectra(op, thetas):
    """Eigenvalues of H(theta) = Re(e^{i theta} C), one eigvalsh per angle,
    built from C directly rather than from the Cartesian parts."""
    c = op.compressed
    spectra = []
    for th in thetas:
        rotated = np.exp(1j * th) * c
        spectra.append(np.linalg.eigvalsh((rotated + rotated.conj().T) / 2.0))
    return np.array(spectra)


def flat_at_45_angles(op):
    """Whether f at the 45 angles k pi / 45, the coarsest level of the
    former 720-angle grid scan, is flat: every value tol.close to their
    maximum M > 0."""
    vals = phase_profile(op, np.arange(45) * (math.pi / 45))
    return vals.max() > 0.0 and bool(op.ctx.tol.close(vals, vals.max()).all())


def clear(op, gamma, anchor=0.0):
    """Whether the level-set check finds no crossing of gamma."""
    return radius._crossings(op, gamma, anchor).size == 0


def factor_fails(op, gamma, anchor):
    """Whether P + gamma I has no Cholesky factor, P = H(anchor) built as
    the level-set check builds it."""
    p = math.cos(anchor) * op.h_re - math.sin(anchor) * op.h_im
    try:
        np.linalg.cholesky(p + gamma * np.eye(op.ctx.rank))
    except np.linalg.LinAlgError:
        return True
    return False


def record_profile_calls(monkeypatch):
    """Patch radius._extremes, through which every eigensolve of f in radius
    passes (the scan's seed and criss-cross batches and the polish's single
    angles), to record the angle count of each call. part_norms
    calls space._extremes directly, so its solve is not recorded."""
    calls = []
    extremes = radius._extremes

    def recording(op, th):
        calls.append(int(np.size(th)))
        return extremes(op, th)

    monkeypatch.setattr(radius, "_extremes", recording)
    return calls


def count_mats(monkeypatch, name):
    """Patch np.linalg.<name> to count the matrices it is given."""
    counted = [0]
    solver = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        counted[0] += int(np.prod(np.shape(a)[:-2]))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return counted


class TestThetaScan:
    def test_jordan_half(self):
        rad = radius_theta_scan(make_op(np.eye(2), JORDAN))
        assert rad.lower <= 0.5 <= rad.upper
        assert rad.upper - rad.lower <= 1e-5

    def test_hermitian_equals_norm(self):
        rad = radius_theta_scan(make_op(np.eye(2), np.diag([1.0, -1.0])))
        assert rad.lower == pytest.approx(1.0, rel=1e-8)
        assert rad.lower <= 1.0
        assert rad.upper >= rad.lower
        assert rad.theta_star == pytest.approx(0.0, abs=1e-9)

    def test_weighted_nilpotent(self):
        # w_A(T) = ||T||_A / 2 = sqrt(2)/2 since AT^2 = 0
        rad = radius_theta_scan(make_op(np.diag([2.0, 1.0]), JORDAN))
        assert rad.lower <= 1.0 / math.sqrt(2.0) <= rad.upper
        assert rad.upper - rad.lower <= 1e-5

    def test_normal_matrix_spectral_radius(self):
        # for a normal T with A = I the radius is max |eigenvalue|
        t = np.diag([1.0 + 1.0j, -0.5, 0.25j])
        op = make_op(np.eye(3), t)
        rad = radius_theta_scan(op)
        assert rad.lower == pytest.approx(abs(1.0 + 1.0j), rel=1e-8)
        # lower sits one guard below f(theta_star): test the maximizer itself.
        for grid_n in (64, 720):
            theta_star = radius_theta_scan(op, grid_n).theta_star
            assert phase_profile(op, [theta_star])[0] == pytest.approx(math.sqrt(2.0), rel=1e-12, abs=0.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(17)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        base = radius_theta_scan(make_op(np.eye(4), t))
        rotated = radius_theta_scan(make_op(np.eye(4), np.exp(0.7j) * t))
        assert rotated.lower == pytest.approx(base.lower, rel=1e-8)
        assert rotated.upper == pytest.approx(base.upper, rel=1e-5)

    def test_enclosure_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rad = radius_theta_scan(make_op(np.eye(n), t))
            assert rad.lower <= rad.upper
            assert rad.upper <= rad.lower / math.cos(math.pi / (2 * rad.grid_n))

    def test_zero_operator(self):
        rad = radius_theta_scan(make_op(np.eye(2), np.zeros((2, 2))))
        assert rad.lower == 0.0
        assert rad.upper == 0.0

    def test_refine_only_raises_lower(self, monkeypatch):
        # pick an operator whose maximizer falls between the seed angles: the
        # polish raises the lower end above the seed maximum's, and the first
        # level-set check clears at the polished maximum
        t = np.exp(0.123j) * np.diag([1.0, -1.0]).astype(complex)
        op = make_op(np.eye(2), t)
        seed_max = float(phase_profile(op, np.arange(8) * (math.pi / 8)).max())
        coarse_lower = seed_max - radius._guard(seed_max, 64)
        checks = count_mats(monkeypatch, "eigvals")
        refined = radius_theta_scan(op, 64)
        assert checks[0] == 1
        assert refined.lower >= coarse_lower
        assert refined.lower == pytest.approx(1.0, abs=1e-6)
        assert refined.lower > coarse_lower
        for grid_n in (64, 720):
            theta_star = radius_theta_scan(op, grid_n).theta_star
            assert phase_profile(op, [theta_star])[0] == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            radius_theta_scan(make_op(np.eye(2), JORDAN), grid_n=3)

    @pytest.mark.parametrize("grid_n", [720.0, 180.5, True, "720", None])
    def test_rejects_non_integer_grid_before_solving(self, monkeypatch, grid_n):
        op = make_op(np.eye(2), JORDAN)
        counted = count_mats(monkeypatch, "eigvalsh")
        with pytest.raises(TypeError, match="grid_n must be an integer"):
            radius_theta_scan(op, grid_n)
        assert counted[0] == 0

    def test_accepts_numpy_integer_grid(self):
        op = make_op(np.diag([2.0, 1.0]), JORDAN)
        assert radius_theta_scan(op, np.int64(64)) == radius_theta_scan(op, 64)


@pytest.mark.parametrize("grid_n", [8, 64, 181, 720])
def test_refinement_call_budget(monkeypatch, grid_n):
    # The polish adds one angle per call to the scan's 8-angle seed and
    # criss-cross batches: at most 42 angles in all, which the former
    # bracket search spent on every operator, and at most 12 from grid 181
    # on. A scan that the seed certifies makes no other call.
    calls = record_profile_calls(monkeypatch)
    checks = count_mats(monkeypatch, "eigvals")
    for construction in ADJOINTABLE:
        for seed in range(3):
            op = make_op(*gen_instance(InstanceSpec(dim=5, rank_a=4, construction=construction, seed=seed)))
            calls.clear()
            checks[0] = 0
            radius_theta_scan(op, grid_n)
            assert calls[0] == 8
            assert calls.count(1) <= (12 if grid_n >= 181 else 42)
            if checks[0] == 1:  # certified by the level set
                assert all(n == 1 for n in calls[1:]) and len(calls) <= 1 + 12


def test_polish_stops_at_a_vertex_on_the_best_point(monkeypatch):
    # At grid 8 the parabola's vertex can sit within 1e-6 delta of the best
    # point while it still predicts a gain above eps f; the polish stops
    # there instead of taking golden steps down to the 4e-6 delta floor
    # (21, 21, 17, 7, 4, 21, 15, 21, 21, 21 single-angle calls before).
    calls = record_profile_calls(monkeypatch)
    steps = []
    for seed in range(10):
        op = make_op(*gen_instance(InstanceSpec(dim=5, rank_a=5, construction="random", seed=seed)))
        calls.clear()
        radius_theta_scan(op, 8)
        steps.append(calls.count(1))
    assert steps == [7, 9, 6, 7, 4, 9, 3, 9, 9, 6]


@pytest.mark.parametrize("construction", ADJOINTABLE)
@pytest.mark.parametrize("rank_a", [5, 3])
@pytest.mark.parametrize("grid_n", [8, 64, 181, 720, 1440])
def test_polish_matches_bracket_oracle(monkeypatch, construction, rank_a, grid_n):
    # The scan's parabolic polish reaches the maximum of the 25-round bracket
    # search around the uniform grid's argmax to 1e-13 relative, so its
    # lower end is that maximum minus its guard and is not below the
    # uniform grid's unpolished lower end (on a flat profile the grid's
    # 720 values beat the polish by rounding, 3e-16 relative), and it adds
    # at most 12 single-angle eigensolves from grid 181 on, 42 at every grid.
    calls = record_profile_calls(monkeypatch)
    for seed in range(3):
        op = make_op(*gen_instance(InstanceSpec(dim=5, rank_a=rank_a, construction=construction, seed=seed)))
        calls.clear()
        rad = radius_theta_scan(op, grid_n)
        assert calls.count(1) <= (12 if grid_n >= 181 else 42)
        grid_max = float(phase_profile(op, np.arange(grid_n) * (math.pi / grid_n)).max())
        assert rad.lower >= grid_max - radius._guard(grid_max, grid_n) - 1e-13 * rad.upper
        _, best = bracket_oracle(op, grid_n)
        assert abs(rad.lower - (best - radius._guard(best, grid_n))) <= 1e-13 * rad.upper
        assert abs(phase_profile(op, rad.theta_star)[0] - best) <= 1e-13 * rad.upper


@pytest.mark.parametrize("construction", ADJOINTABLE)
@pytest.mark.parametrize("rank_a", [5, 3])
@pytest.mark.parametrize("grid_n", [8, 64, 181, 720, 1440])
def test_pruned_scan_matches_uniform_reference(construction, rank_a, grid_n):
    # The scan's enclosure lies within the full uniform grid's certified
    # one, flat profiles included, up to 1e-13 relative and the move of the
    # guard's argument from the grid maximum to the polished one, which the
    # uniform bound puts at most upper (1 - cos(pi / (2 grid_n))) apart.
    for seed in range(3):
        op = make_op(*gen_instance(InstanceSpec(dim=5, rank_a=rank_a, construction=construction, seed=seed)))
        lower, upper, _ = uniform_reference(op, grid_n)
        scan = radius_theta_scan(op, grid_n)
        slack = 1e-13 * upper + radius._guard(upper, grid_n) * (1.0 - math.cos(math.pi / (2 * grid_n)))
        assert lower - slack <= scan.lower <= scan.upper <= upper + slack


def shift(n):
    """The shift J_n: w(J_n) = cos(pi / (n + 1)), and W(J_n) is that origin
    disk (Haagerup & de la Harpe, Proc. AMS 115, 1992)."""
    return np.diag(np.ones(n - 1), 1).astype(complex)


def direct_sum(x, y):
    out = np.zeros((x.shape[0] + y.shape[0],) * 2, dtype=complex)
    out[: x.shape[0], : x.shape[0]] = x
    out[x.shape[0] :, x.shape[0] :] = y
    return out


# W is the regular 16-gon, half of it (its vertices j = 0..8), and the disk
# W(J_2) with the point lambda = (1 + 2e-5) e^{-i pi / 360} / 2 just outside.
NEAR_DISKS = {
    "16-gon": (np.eye(16), np.diag(np.exp(1j * math.pi * np.arange(16) / 8))),
    "half-octagon": (np.eye(9), np.diag(np.exp(1j * math.pi * np.arange(9) / 8))),
    "bump": (np.eye(3), direct_sum(JORDAN, np.array([[0.5 * (1 + 2e-5) * np.exp(-1j * math.pi / 360)]]))),
}


class TestFlatProfile:
    """A flat profile is certified by one level-set check: upper is the
    polished seed maximum plus the guard, 2 guards above lower at most, from
    8 + 12 eigvalsh matrices and one eigvals call at grid 720."""

    @staticmethod
    def assert_certified(monkeypatch, op, w):
        counted, calls = count_mats(monkeypatch, "eigvalsh"), count_mats(monkeypatch, "eigvals")
        rad = radius_theta_scan(op)
        assert counted[0] <= 8 + 12 and calls[0] == 1
        assert rad.lower <= w <= rad.upper
        assert rad.upper - rad.lower <= 2e-3 * rad.upper / 720**2 + 4 * math.ulp(rad.upper)
        assert rad.grid_n == 720
        # W is the origin disk of radius w: lambda_max(H_re) = w
        disk = disk_test(op)
        assert disk.is_disk and abs(disk.radius_k - w) <= 1e-12 * w

    @pytest.mark.parametrize("n", [2, 8, 33, 64])
    def test_shift(self, monkeypatch, n):
        self.assert_certified(monkeypatch, make_op(np.eye(n), shift(n)), math.cos(math.pi / (n + 1)))

    @pytest.mark.parametrize("n", [2, 8, 33, 64])
    def test_shift_in_the_range_of_a_singular_weight(self, monkeypatch, n):
        # A = I_n + 0_n: J_n acts on range(A), and w_A(J_n + 0) = w(J_n).
        a = direct_sum(np.eye(n), np.zeros((n, n)))
        op = make_op(a, direct_sum(shift(n), np.zeros((n, n))))
        assert op.ctx.rank == n
        self.assert_certified(monkeypatch, op, math.cos(math.pi / (n + 1)))

    @pytest.mark.parametrize("dim, rank_a", [(4, 2), (16, 8), (64, 16)])
    @pytest.mark.parametrize("seed", range(2))
    def test_nilpotent_half(self, monkeypatch, dim, rank_a, seed):
        # AT^2 = 0 gives w_A(T) = ||T||_A / 2.
        op = make_op(*gen_instance(InstanceSpec(dim=dim, rank_a=rank_a, construction="nilpotent_half", seed=seed)))
        self.assert_certified(monkeypatch, op, op.seminorm / 2.0)


class TestFlatProfileFallback:
    """Profiles flat at the 45 angles k pi / 45, where the former grid
    scan's first level found nothing to prune. The scan needs no grid on
    them: a seed check that finds crossings is followed by one criss-cross
    pass and a check that clears."""

    def test_bump_between_coarse_angles(self, monkeypatch):
        # J_2 + lambda at A = I_3: W is the disk of radius 1/2 and the point
        # lambda, 2e-5 outside it halfway between two coarse angles, where
        # the 45-angle profile is flat to 3.3e-16. The seed's polish stops
        # on the disk, its check finds the bump's crossings, and the pass
        # polishes the bump: the former grid scan's enclosure, bit for bit,
        # from 2 eigvals calls and fewer eigvalsh matrices than its first
        # level of 45 angles.
        op = make_op(np.eye(3), direct_sum(JORDAN, np.array([[0.5 * (1 + 2e-5) * np.exp(-1j * math.pi / 360)]])))
        assert flat_at_45_angles(op)
        counted, calls = count_mats(monkeypatch, "eigvalsh"), count_mats(monkeypatch, "eigvals")
        rad = radius_theta_scan(op)
        assert calls[0] == 2 and counted[0] < 45
        assert (rad.lower, rad.upper) == (0.5000099990354745, 0.5000100009645254)
        assert rad.lower <= 0.50001 <= rad.upper

    @pytest.mark.parametrize("phi", [math.pi / 90, math.pi / 180])
    def test_regular_polygon_off_the_coarse_grid(self, monkeypatch, phi):
        # The regular 45-gon diag(e^{i (2 pi k / 45 + phi)}): its vertices
        # lie off the angles k pi / 45, so every such value is below w = 1,
        # and the former grid scan ran to its finest level, with the
        # enclosure (0.9999999980709878, 1.0000000019290125). The scan
        # polishes a vertex and certifies it from its seed.
        t = np.diag(np.exp(1j * (2 * math.pi * np.arange(45) / 45 + phi)))
        op = make_op(np.eye(45), t)
        assert flat_at_45_angles(op)
        counted, calls = count_mats(monkeypatch, "eigvalsh"), count_mats(monkeypatch, "eigvals")
        rad = radius_theta_scan(op)
        assert counted[0] <= 8 + 12 and calls[0] == 1
        assert rad.lower <= 1.0 <= rad.upper
        assert 0.9999999980709878 - 1e-13 <= rad.lower and rad.upper <= 1.0000000019290125 + 1e-13


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 8), st.floats(-12.0, -4.0), st.integers(0, 2**32 - 1))
@example(6, -11.5, 2)  # a fine neighbour of the coarse argmax beats it by rounding
@example(7, -6.5, 0)  # flat to 1e-6 but not to the guard: the seed's check finds crossings
def test_perturbed_shift_upper_covers_the_profile(n, log_eps, seed):
    # J_n + eps G, G a complex Gaussian, eps log-uniform in [1e-12, 1e-4]:
    # profiles flat to rounding, flat to equality_rel_tol only, and not flat.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op = make_op(np.eye(n), shift(n) + 10.0**log_eps * g)
    rad = radius_theta_scan(op)
    assert rad.upper >= phase_profile(op, np.linspace(0.0, math.pi, 20_001)).max()


class TestAnchoredLevelCheck:
    """At A = I_2 and T = diag(1, -1), H(theta) = cos(theta) T: H(0) + gamma I
    = diag(1 + gamma, gamma - 1) is within a guard of singular at
    gamma = 1 + guard, while H(pi/2) + gamma I = gamma I is not."""

    OP_ARGS = (np.eye(2), np.diag([1.0, -1.0]))

    def test_anchor_clears_what_angle_zero_cannot(self):
        op = make_op(*self.OP_ARGS)
        gamma = 1.0 + radius._guard(1.0, 720)
        assert not clear(op, gamma)
        assert clear(op, gamma, math.pi / 2)

    def test_scan_certifies_without_a_grid(self, monkeypatch):
        # The seed's lambda_min is largest at pi / 2, so the scan anchors
        # there: one eigvals, no criss-cross pass, and the former grid
        # scan's enclosure bit for bit, since f(0) = 1 is a seed angle and
        # the guard reads it.
        op = make_op(*self.OP_ARGS)
        calls = record_profile_calls(monkeypatch)
        checks = count_mats(monkeypatch, "eigvals")
        rad = radius_theta_scan(op)
        assert calls[0] == 8 and all(n == 1 for n in calls[1:]) and len(calls) <= 1 + 12
        assert checks[0] == 1
        assert (rad.lower, rad.upper, rad.theta_star) == (0.9999999980709876, 1.0000000019290123, 0.0)

    @pytest.mark.parametrize("construction", ADJOINTABLE)
    def test_every_seed_anchor_decides_alike(self, construction):
        # The anchor changes the pencil, not its real roots: a level below
        # w_A(T) is crossed from each of the 16 seed directions, and a level
        # 1e-3 above upper, where P + gamma I is at least 1e-3 gamma from
        # singular, is cleared from each.
        for seed in range(4):
            op = make_op(*gen_instance(InstanceSpec(dim=6, rank_a=5, construction=construction, seed=seed)))
            rad = radius_theta_scan(op)
            for k in range(16):
                assert not clear(op, rad.lower * (1.0 - 1e-7), k * math.pi / 8)
                assert clear(op, rad.upper * (1.0 + 1e-3), k * math.pi / 8)

    def test_fallback_maximum_is_certified(self, monkeypatch):
        # Seed-7 suite instance 106: f has local maxima 0.72116 and 0.72335,
        # and the seed's polish finds the lower one, so its check finds
        # crossings. One criss-cross pass polishes the higher peak, and its
        # maximum clears at the same anchor: the width of a seed-certified
        # scan. The lower end is the former grid scan's, 0.7233452132145826,
        # to 2.5e-15 relative.
        op = make_op(*gen_instance(InstanceSpec(dim=3, rank_a=2, construction="random", seed=7000127)))
        checks = count_mats(monkeypatch, "eigvals")
        rad = radius_theta_scan(op)
        assert checks[0] == 2
        assert (rad.lower, rad.upper, rad.theta_star) == (0.7233452132145808, 0.7233452160052645, 2.1369431062500994)
        assert rad.upper - rad.lower <= 2e-3 * rad.upper / 720**2 + 4 * math.ulp(rad.upper)
        assert rad.lower <= witness_value(op, rad.theta_star) <= rad.upper


class TestEigensolveBudget:
    """Eigensolves per certified digit: a certified scan costs its 8-angle
    seed, a polish and one level-set check instead of the former pruned
    grid."""

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_certified_dim_64_scan(self, monkeypatch, seed):
        # 2.4e-6 wide from about 149 eigvalsh matrices at the grid, 3.9e-9
        # wide from at most 16, one Cholesky factor and one 128 x 128 eigvals.
        op = make_op(*gen_instance(InstanceSpec(dim=64, rank_a=64, construction="random", seed=seed)))
        _ = op.h_re, op.h_im
        counted, factors, checks = (count_mats(monkeypatch, name) for name in ("eigvalsh", "cholesky", "eigvals"))
        rad = radius_theta_scan(op)
        assert (counted[0] <= 16, factors[0], checks[0]) == (True, 1, 1)
        assert rad.upper - rad.lower <= 2e-3 * rad.upper / 720**2 + 4 * math.ulp(rad.upper)

    def test_suite_instance(self, monkeypatch):
        # The seed-42 suite, every stage of it: 119.2 eigvalsh matrices per
        # instance with a grid scan per radius, 36.4 with the level-set check.
        counted = count_mats(monkeypatch, "eigvalsh")
        suite = run_suite(SuiteConfig(seed=42))
        assert counted[0] <= 40 * len(suite.evaluations)


@pytest.fixture(scope="module")
def levels_below_the_radius():
    """(op, gamma) for every adjointable instance with lower > 0 of the
    default suites at seeds 42 and 7, over the four constructions, with
    gamma = lower (1 - 1e-7) below w_A(T)."""
    levels = []
    for seed in (42, 7):
        for construction in CONSTRUCTIONS:
            for spec in SuiteConfig(seed=seed, constructions=(construction,)).instance_specs():
                a, t = gen_instance(spec)
                ctx = psd_decompose(a)
                if not is_adjointable(ctx, t):
                    continue
                op = make_a_operator(ctx, t)
                lower = radius_theta_scan(op).lower
                if lower > 0.0:
                    levels.append((op, lower * (1.0 - 1e-7)))
    return levels


def test_level_check_finds_every_crossing_below_the_radius(levels_below_the_radius):
    # gamma lies below w_A(T), so some angle reaches it and the check must
    # find a crossing. Where gamma is at most f(0) the crossing is at
    # theta = 0 or pi already; 400 of the 1,200 have gamma above f(0), as
    # the scan calls it.
    reached = 0
    for op, gamma in levels_below_the_radius:
        assert not clear(op, gamma)
        reached += bool(phase_profile(op, 0.0)[0] < gamma)
    assert reached >= 300


def test_every_crossing_is_a_crossing(levels_below_the_radius):
    # Each angle that the check returns makes gamma an eigenvalue of H(theta)
    # or of -H(theta), H built from C directly: to within 32 r eps ||H(theta)||,
    # at the anchors 0 and 3 pi / 8 (where P + gamma I has no Cholesky
    # factor the check returns the anchor's cut point, which
    # test_failed_factor_returns_the_anchor_cut_point covers). The worst of
    # 2,798 angles reads 15.7 r eps, 7.0e-15 relative. A rotation of the
    # wrong sign, theta = anchor - 2 arctan(s), misses by far more.
    eps = np.finfo(float).eps
    angles = 0
    for op, gamma in levels_below_the_radius:
        for anchor in (0.0, 3 * math.pi / 8):
            if factor_fails(op, gamma, anchor):
                continue
            cross = radius._crossings(op, gamma, anchor)
            assert np.all(np.diff(cross) >= 0.0) and np.all((0.0 <= cross) & (cross < math.pi))
            spectra = support_spectra(op, cross)
            norms = np.abs(spectra).max(axis=1)
            miss = np.minimum(np.abs(spectra - gamma).min(axis=1), np.abs(spectra + gamma).min(axis=1))
            assert (miss <= 32 * op.ctx.rank * eps * norms).all()
            angles += cross.size
    assert angles >= 2_000


def test_failed_factor_returns_the_anchor_cut_point(levels_below_the_radius):
    # Where P + gamma I has no Cholesky factor, the check returns exactly the
    # cut point anchor mod pi, and the level is not clear there: f(anchor)
    # reaches gamma up to rounding. The Hermitian diag(1, -1) at gamma = 1/2
    # fails at the anchors 0 and 9 pi / 8, the latter taken mod pi.
    eps = np.finfo(float).eps
    herm = make_op(np.eye(2), np.diag([1.0, -1.0]))
    cases = [(herm, 0.5, 0.0), (herm, 0.5, 9 * math.pi / 8)]
    for op, gamma in levels_below_the_radius:
        cases += [(op, gamma, anchor) for anchor in (0.0, 3 * math.pi / 8) if factor_fails(op, gamma, anchor)]
    assert len(cases) > 2
    for op, gamma, anchor in cases:
        assert factor_fails(op, gamma, anchor)
        assert radius._crossings(op, gamma, anchor).tolist() == [anchor % math.pi]
        assert phase_profile(op, anchor)[0] >= gamma * (1.0 - 32 * op.ctx.rank * eps)


class TestLadder:
    """A level stuck just above a flat profile: at grid_n = 10**5 the guard
    is 1e-13 relative, and the seed-42 suite's first nilpotent_half
    instance, whose f is w = ||T||_A / 2 at every angle, leaves near-real
    roots within the rounding bound with f below the level between them.
    upper climbs the rungs best + guard 4^rung to the first clear one."""

    SPEC = InstanceSpec(dim=2, rank_a=2, construction="nilpotent_half", seed=42000126)

    def test_stuck_level_climbs_to_a_clear_rung(self, monkeypatch):
        # 2 rungs here, under a bound of 10; each costs one eigvals.
        op = make_op(*gen_instance(self.SPEC))
        levels, crossings = [], radius._crossings

        def recording(op, gamma, anchor=0.0):
            levels.append((gamma, crossings(op, gamma, anchor)))
            return levels[-1][1]

        monkeypatch.setattr(radius, "_crossings", recording)
        checks = count_mats(monkeypatch, "eigvals")
        rad = radius_theta_scan(op, 10**5)
        rungs = len(levels) - 1
        assert 1 <= rungs <= 10 and checks[0] == 1 + rungs
        assert all(cross.size for _, cross in levels[:-1])
        assert levels[-1][1].size == 0 and rad.upper == levels[-1][0]
        gammas = np.array([gamma for gamma, _ in levels])
        guard = radius._guard(gammas[0], 10**5)
        steps = np.diff(gammas) / (guard * 4.0 ** np.arange(rungs))
        assert np.allclose(steps, 3.0, rtol=1e-3)  # guard (4^k - 4^(k-1))
        assert rad.lower <= op.seminorm / 2.0 <= rad.upper
        assert rad.lower <= witness_value(op, rad.theta_star) <= rad.upper

    def test_huge_grid_allocates_nothing_of_its_size(self):
        # 10**7 float64 values would take 80 MB; the scan's peak is kilobytes.
        op = make_op(*gen_instance(self.SPEC))
        tracemalloc.start()
        try:
            rad = radius_theta_scan(op, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert rad.lower <= rad.upper and rad.upper >= op.seminorm / 2.0


class TestGuardFloor:
    """Past grid_n ~ 10**6 the grid term of the guard sinks below the
    rounding bound 8 r eps of the cap, and the guard stays at that floor:
    the enclosure stops narrowing, and the rung count stays bounded."""

    @pytest.mark.parametrize("grid_n", [10**6, 10**7])
    def test_witness_inside_the_enclosure(self, grid_n):
        # A guard below rounding put lower above the raw witness value, as
        # lower 2.2322971840812396 > 2.232297184081239 at grid_n = 10**6.
        # Compared raw, with no tolerance.
        op = make_op(*gen_instance(InstanceSpec(dim=6, rank_a=3, construction="random", seed=42000130)))
        rad = radius_theta_scan(op, grid_n)
        assert rad.lower <= witness_value(op, rad.theta_star) <= rad.upper

    def test_huge_grid_is_narrow_and_cheap(self, monkeypatch):
        # At grid_n = 10**150 the guard is the floor on every scan: each
        # enclosure stays 1e-10 relative wide at most (1.5e-11 is the widest
        # of the 600 seed-42 adjointable scans), in at most 8 eigvals calls.
        # Without the floor the widest of those 600 read 0.50, and one took 66.
        calls = count_mats(monkeypatch, "eigvals")
        for construction in ADJOINTABLE:
            for spec in SuiteConfig(seed=42, constructions=(construction,)).instance_specs()[:10]:
                op = make_op(*gen_instance(spec))
                calls[0] = 0
                rad = radius_theta_scan(op, 10**150)
                assert rad.upper - rad.lower <= 1e-10 * rad.upper
                assert calls[0] <= 8

    def test_grid_beyond_float_range(self):
        # 10**400 has no float; the grid term is taken at grid_n = 2^64.
        op = make_op(*gen_instance(TestLadder.SPEC))
        rad = radius_theta_scan(op, 10**400)
        assert rad.grid_n == 10**400
        assert 0.0 < rad.upper - rad.lower <= 1e-10 * rad.upper
        assert rad.lower <= op.seminorm / 2.0 <= rad.upper


class TestPruning:
    """Angles the scan's seed does not solve still count: the criss-cross
    pass and the level-set check see the whole profile."""

    @pytest.mark.parametrize("grid_n", [181, 720, 1440])
    def test_off_grid_peak_is_not_pruned(self, grid_n):
        # Two nearly equal peaks: the lower one sits on the grid at theta = 0
        # and wins the grid argmax, the higher one (at pi - 0.3) falls between
        # grid angles; the closed form w = max |lambda| must stay enclosed.
        t = np.diag([1.0 - 1e-7, np.exp(0.3j)])
        rad = radius_theta_scan(make_op(np.eye(2), t), grid_n)
        assert rad.lower <= 1.0 <= rad.upper
        assert rad.upper <= rad.lower / math.cos(math.pi / (2 * grid_n))

    def test_flat_profile_evaluates_each_angle_once(self, monkeypatch):
        # A flat profile stops the scan at its level-set check: the seed's 8
        # angles in one call, the polish's single angles, each solved once,
        # and one eigvals call.
        op = make_op(np.eye(2), JORDAN)
        solved = []
        extremes = radius._extremes

        def recording(op, th):
            solved.extend(np.atleast_1d(th).tolist())
            return extremes(op, th)

        monkeypatch.setattr(radius, "_extremes", recording)
        calls = count_mats(monkeypatch, "eigvals")
        radius_theta_scan(op, 720)
        assert solved[:8] == (np.arange(8) * (math.pi / 8)).tolist()
        assert len(set(solved)) == len(solved) <= 8 + 12 and calls[0] == 1


@pytest.mark.parametrize("construction", ADJOINTABLE)
@pytest.mark.parametrize("rank_a", [4, 2])
def test_scan_scales_with_t_and_ignores_a_scale(construction, rank_a):
    # w_A(cT) = |c| w_A(T) and w_{cA}(T) = w_A(T). A power of two scales
    # every floating-point step on T exactly; on A it goes through the
    # eigendecomposition of A, so the enclosure agrees up to rounding.
    a, t = gen_instance(InstanceSpec(dim=4, rank_a=rank_a, construction=construction, seed=31))
    ctx = psd_decompose(a)
    base = radius_theta_scan(make_a_operator(ctx, t))
    for k in (-400, -100, 100, 400):
        c = 2.0**k
        scaled = radius_theta_scan(make_a_operator(ctx, c * t))
        assert scaled.lower == c * base.lower
        assert scaled.upper == c * base.upper
        assert scaled.theta_star == base.theta_star
        reweighted = radius_theta_scan(make_op(c * a, t))
        assert reweighted.lower == pytest.approx(base.lower, rel=1e-12, abs=0.0)
        assert reweighted.upper == pytest.approx(base.upper, rel=1e-12, abs=0.0)


class TestPhaseProfile:
    def test_periodicity_and_symmetry(self):
        op = make_op(np.diag([2.0, 1.0]), JORDAN)
        th = np.linspace(0.0, math.pi, 50, endpoint=False)
        f = phase_profile(op, th)
        assert np.allclose(phase_profile(op, th + math.pi), f, atol=1e-12)

    def test_hermitian_profile_is_cosine(self):
        op = make_op(np.eye(2), np.diag([1.0, -1.0]))
        th = np.linspace(0.0, math.pi, 37)
        assert np.allclose(phase_profile(op, th), np.abs(np.cos(th)), atol=1e-12)

    @pytest.mark.parametrize("diag_a", [[2.0, 1.0, 0.5, 3.0], [2.0, 0.0, 1.0, 0.0]])
    def test_im_profile_is_re_profile_rolled(self, diag_a):
        # Im_A(e^{i theta}T) = Re_A(e^{i(theta - pi/2)}T): on an even grid the
        # Im profile is the Re profile shifted by n/2 steps, for full-rank
        # and singular A alike.
        a = np.diag(diag_a)
        ctx = psd_decompose(a)
        rng = np.random.default_rng(3)
        t = ctx.proj @ (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) @ ctx.proj
        op = make_a_operator(ctx, t)
        for n in (8, 180, 720):
            th = np.arange(n) * (math.pi / n)
            re_vals = phase_profile(op, th)
            im_vals = phase_profile(op, th - math.pi / 2.0)
            assert np.allclose(im_vals, np.roll(re_vals, n // 2), rtol=0.0, atol=1e-12)

    def test_accepts_scalar_and_vector(self):
        op = make_op(np.diag([2.0, 1.0]), JORDAN)
        assert phase_profile(op, 0.3).shape == (1,)
        assert np.array_equal(phase_profile(op, 0.3), phase_profile(op, [0.3]))

    @pytest.mark.parametrize("thetas", BAD_ANGLES)
    @pytest.mark.parametrize("rank_a", [2, 3, 5, 8])
    def test_rejects_bad_angles_before_solving(self, monkeypatch, thetas, rank_a):
        # Once nan reached eigvalsh: silently at rank 2, as LinAlgError at
        # ranks 3, 5 and 8; a 2-d input failed in a broadcast.
        op = make_op(*gen_instance(InstanceSpec(dim=8, rank_a=rank_a, construction="random", seed=1)))
        counted, vectors = count_mats(monkeypatch, "eigvalsh"), count_mats(monkeypatch, "eigh")
        with pytest.raises(LinAlgInputError):
            phase_profile(op, thetas)
        assert counted[0] == 0 and vectors[0] == 0


class TestSampling:
    def test_identity_operator(self):
        val = radius_sampling(make_op(np.eye(3), np.eye(3)), 1000, seed=1)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_jordan_band(self):
        val = radius_sampling(make_op(np.eye(2), JORDAN), 100_000, seed=7)
        assert 0.49 < val <= 0.5 + 1e-12

    def test_never_exceeds_certificate(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            op = make_op(np.eye(n), t)
            rad = radius_theta_scan(op)
            assert radius_sampling(op, 5000, seed=3) <= rad.upper * (1.0 + 1e-12)

    def test_zero_rank_weight(self):
        op = make_op(np.zeros((2, 2)), JORDAN)
        assert radius_sampling(op, 100, seed=0) == 0.0

    def test_sample_count(self):
        op = make_op(np.eye(2), JORDAN)
        assert radius_sampling(op, 0) == 0.0
        with pytest.raises(ValueError):
            radius_sampling(op, -5)

    def test_deterministic(self):
        op = make_op(np.diag([2.0, 1.0]), JORDAN)
        assert radius_sampling(op, 2000, seed=5) == radius_sampling(op, 2000, seed=5)

    @pytest.mark.parametrize("n_samples", [0.5, 2.0, True, False, "10", None])
    def test_rejects_non_integer_count(self, n_samples):
        op = make_op(np.eye(2), JORDAN)
        with pytest.raises(TypeError):
            radius_sampling(op, n_samples)

    def test_accepts_numpy_integer_count(self):
        op = make_op(np.diag([2.0, 1.0]), JORDAN)
        assert radius_sampling(op, np.int64(500), seed=2) == radius_sampling(op, 500, seed=2)

    @pytest.mark.parametrize("rank_a", [0, 2])
    @pytest.mark.parametrize("seed, error", BAD_SEEDS)
    def test_rejects_bad_seed(self, rank_a, seed, error):
        # Checked before the rank-0 return: a bad seed never passes silently.
        op = make_op(np.diag([2.0, 1.0][:rank_a] + [0.0] * (2 - rank_a)), JORDAN)
        with pytest.raises(error):
            radius_sampling(op, 100, seed)

    def test_accepts_numpy_integer_seed(self):
        op = make_op(np.diag([2.0, 1.0]), JORDAN)
        assert radius_sampling(op, 500, seed=np.int64(2)) == radius_sampling(op, 500, seed=2)

    def test_draws_only_in_range_coordinates(self):
        # Padding A and T with a zero block leaves rank(A) and C unchanged,
        # so an oracle whose draws have r rows, not n, returns the same bits.
        # Distinct diagonal entries keep eigh's kept basis in the same order.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            d = rng.uniform(0.5, 3.0, n)
            assert np.unique(d).size == n
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            pad_a = np.zeros((n + k, n + k))
            pad_a[:n, :n] = np.diag(d)
            pad_t = np.zeros((n + k, n + k), dtype=complex)
            pad_t[:n, :n] = t
            plain = radius_sampling(make_op(np.diag(d), t), 3000, seed=seed)
            padded = radius_sampling(make_op(pad_a, pad_t), 3000, seed=seed)
            assert padded == plain


@pytest.mark.parametrize("construction", ADJOINTABLE)
def test_sampling_matches_complex_reference(construction):
    # Same draws, same filter: the real-arithmetic oracle agrees with the
    # complex one up to rounding, at every rank including 0 and full.
    for dim in range(2, 9):
        for rank_a in range(dim + 1):
            spec = InstanceSpec(dim=dim, rank_a=rank_a, construction=construction, seed=10 * dim + rank_a)
            op = make_op(*gen_instance(spec))
            expected = complex_sampling_reference(op, 2000, seed=dim)
            assert radius_sampling(op, 2000, seed=dim) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("dim, rank_a, n_samples", [(64, 16, 10_000), (64, 64, 10_000), (3, 2, 120_001)])
def test_sampling_matches_complex_reference_large(dim, rank_a, n_samples):
    # Dim 64 at deficient and full rank; 120,001 samples make three chunks,
    # the last one partial.
    for construction in ADJOINTABLE:
        op = make_op(*gen_instance(InstanceSpec(dim=dim, rank_a=rank_a, construction=construction, seed=4)))
        expected = complex_sampling_reference(op, n_samples, seed=11)
        assert radius_sampling(op, n_samples, seed=11) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestWitness:
    @pytest.mark.parametrize(
        "a, t, expected",
        [
            (np.eye(2), JORDAN, 0.5),
            (np.diag([2.0, 1.0]), JORDAN, math.sqrt(2.0) / 2.0),
            (np.eye(3), np.diag([1.0 + 1.0j, -0.5, 0.25j]), math.sqrt(2.0)),
        ],
    )
    def test_closed_forms(self, a, t, expected):
        op = make_op(a, t)
        theta_star = radius_theta_scan(op).theta_star
        assert witness_value(op, theta_star) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_rank_zero_and_zero_operator(self):
        assert witness_value(make_op(np.zeros((2, 2)), JORDAN), 0.3) == 0.0
        assert witness_value(make_op(np.eye(3), np.zeros((3, 3))), 0.3) == 0.0

    @pytest.mark.parametrize("theta", BAD_ANGLES)
    @pytest.mark.parametrize("rank_a", [0, 2, 3, 5, 8])
    def test_rejects_bad_angle_before_solving(self, monkeypatch, theta, rank_a):
        a, t = gen_instance(InstanceSpec(dim=8, rank_a=max(rank_a, 1), construction="random", seed=1))
        op = make_op(a if rank_a else np.zeros((8, 8)), t)
        counted, vectors = count_mats(monkeypatch, "eigvalsh"), count_mats(monkeypatch, "eigh")
        with pytest.raises(LinAlgInputError):
            witness_value(op, theta)
        assert counted[0] == 0 and vectors[0] == 0

    def test_eigenvalue_of_largest_modulus(self):
        # f(0) = 2 is attained at lambda_min = -2 of H(0) = T.
        op = make_op(np.eye(2), np.diag([1.0, -2.0]))
        assert witness_value(op, 0.0) == 2.0

    @pytest.mark.parametrize("construction", ADJOINTABLE)
    @pytest.mark.parametrize("rank_a", [5, 3])
    @pytest.mark.parametrize("grid_n", [8, 64, 720])
    def test_inside_the_enclosure(self, construction, rank_a, grid_n):
        for seed in range(3):
            op = make_op(*gen_instance(InstanceSpec(dim=5, rank_a=rank_a, construction=construction, seed=seed)))
            rad = radius_theta_scan(op, grid_n)
            assert rad.lower <= witness_value(op, rad.theta_star) <= rad.upper

    @pytest.mark.parametrize("construction", ADJOINTABLE)
    @pytest.mark.parametrize("rank_a", [5, 3])
    def test_diagonal_congruence(self, construction, rank_a):
        # A' = DAD, T' = D^-1 T D with D = diag(2^-e) is exact in floating
        # point, and <A'T'x, x> = <AT Dx, Dx>, <A'x, x> = <A Dx, Dx>.
        d = 2.0 ** -np.array([0.0, 1.0, 2.0, 3.0, 5.0])
        for seed in range(3):
            a, t = gen_instance(InstanceSpec(dim=5, rank_a=rank_a, construction=construction, seed=seed))
            op = make_op(a, t)
            theta_star = radius_theta_scan(op).theta_star
            graded = make_op(a * d[:, None] * d[None, :], t * d[None, :] / d[:, None])
            base = witness_value(op, theta_star)
            assert witness_value(graded, theta_star) == pytest.approx(base, rel=1e-12, abs=0.0)


class TestRangeCloud:
    def test_jordan_boundary_circle(self):
        # W(T) for the 2x2 nilpotent Jordan block is the closed disk |z| <= 1/2
        cloud = range_cloud(make_op(np.eye(2), JORDAN), n_theta=90, seed=0)
        boundary = cloud.points[~np.isnan(cloud.thetas)]
        interior = cloud.points[np.isnan(cloud.thetas)]
        assert np.allclose(np.abs(boundary), 0.5, atol=1e-10)
        assert (np.abs(interior) <= 0.5 + 1e-10).all()

    def test_hermitian_real_segment(self):
        cloud = range_cloud(make_op(np.eye(2), np.diag([1.0, -1.0])), n_theta=64, seed=0)
        assert np.abs(cloud.points.imag).max() <= 1e-10
        assert cloud.points.real.min() >= -1.0 - 1e-10
        assert cloud.points.real.max() <= 1.0 + 1e-10

    def test_identity_collapses_to_point(self):
        cloud = range_cloud(make_op(np.diag([1.0, 1.0, 0.0]), np.eye(3)), n_theta=32, seed=0)
        assert np.allclose(cloud.points, 1.0, atol=1e-10)

    def test_cloud_inside_radius_certificate(self):
        rng = np.random.default_rng(21)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = make_op(np.eye(4), t)
        rad = radius_theta_scan(op)
        cloud = range_cloud(op, n_theta=120, seed=2)
        assert np.abs(cloud.points).max() <= rad.upper * (1.0 + 1e-10)

    def test_rank_zero_rejected(self):
        with pytest.raises(DegenerateRankError):
            range_cloud(make_op(np.zeros((2, 2)), JORDAN))

    @pytest.mark.parametrize("n_theta", [1, 2, 90])
    def test_zero_operator_gives_zero_boundary(self, n_theta):
        # C = 0 at rank(A) > 0: no shift can make H - sigma I definite, so no
        # solve is made (a warning would fail the test).
        cloud = range_cloud(make_op(np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3))), n_theta, seed=0)
        assert np.array_equal(cloud.points, np.zeros(2 * n_theta))

    @pytest.mark.parametrize("t", [JORDAN, np.array([[0.0, 1.0], [1.0, 0.0]])])
    @pytest.mark.parametrize("n_theta", [1, 2, 8, 90])
    def test_start_vector_orthogonal_to_constant(self, t, n_theta):
        # The bottom eigenvector of H(0) is (1, -1) / sqrt 2 for both, which
        # the constant start vector cannot reach in two steps.
        op = make_op(np.eye(2), t)
        cloud = range_cloud(op, n_theta, seed=0)
        thetas, points = cloud.thetas[:n_theta], cloud.points[:n_theta]
        support = (np.exp(1j * thetas) * points).real
        assert np.abs(support - support_spectra(op, thetas)[:, -1]).max() <= 1e-14

    @pytest.mark.parametrize("scale", [2.0**-499, 2.0**498])
    def test_extreme_scales(self, scale):
        # The inverse-iteration shift is 4 r eps ||C|| wide at every
        # certified scale of C, and v stays near unit length.
        op = make_op(np.eye(2), scale * JORDAN)
        boundary = range_cloud(op, 90, seed=0).points[:90]
        assert np.abs(np.abs(boundary) / scale - 0.5).max() <= 1e-14

    @pytest.mark.parametrize("n_theta", [2.5, 4.0, True, "8", None])
    def test_rejects_non_integer_count_before_solving(self, monkeypatch, n_theta):
        op = make_op(np.eye(2), JORDAN)
        counted = count_mats(monkeypatch, "eigh")
        with pytest.raises(TypeError):
            range_cloud(op, n_theta)
        assert counted[0] == 0

    @pytest.mark.parametrize("seed, error", BAD_SEEDS)
    def test_rejects_bad_seed_before_solving(self, monkeypatch, seed, error):
        op = make_op(np.eye(2), JORDAN)
        counted = count_mats(monkeypatch, "eigh")
        with pytest.raises(error):
            range_cloud(op, 8, seed)
        assert counted[0] == 0

    def test_accepts_numpy_integer_seed(self):
        op = make_op(np.diag([2.0, 1.0]), JORDAN)
        a, b = range_cloud(op, 8, seed=np.int64(2)), range_cloud(op, 8, seed=2)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("construction", ADJOINTABLE)
    @pytest.mark.parametrize("n_theta", [1, 2, 3, 37, 90, 360])
    def test_boundary_points_attain_support_function(self, construction, n_theta):
        # Re(e^{i theta} p) = lambda_max(H(theta)) at every direction, also
        # where the top eigenvalue is multiple (A-self-adjoint T at 3 pi / 2),
        # since every top eigenvector attains it.
        for dim, rank_a in ((2, 2), (5, 3), (8, 8)):
            op = make_op(*gen_instance(InstanceSpec(dim=dim, rank_a=rank_a, construction=construction, seed=dim)))
            cloud = range_cloud(op, n_theta, seed=3)
            thetas, points = cloud.thetas[:n_theta], cloud.points[:n_theta]
            lam_max = support_spectra(op, thetas)[:, -1]
            support = (np.exp(1j * thetas) * points).real
            assert np.abs(support - lam_max).max() <= 1e-12 * op.seminorm

    @pytest.mark.parametrize("n_theta, solved", [(1, 1), (2, 1), (3, 3), (37, 37), (90, 45), (360, 180)])
    def test_one_eigensolve_per_antipodal_pair(self, monkeypatch, n_theta, solved):
        # On a fresh operator: one eigvalsh per pencil, and the vectors come
        # from inverse iteration, not from eigh.
        op = make_op(*gen_instance(InstanceSpec(dim=6, rank_a=4, construction="random", seed=2)))
        counted = count_mats(monkeypatch, "eigvalsh")
        vectors = count_mats(monkeypatch, "eigh")
        range_cloud(op, n_theta, seed=0)
        assert counted[0] == solved
        assert vectors[0] == 0

    @pytest.mark.parametrize("construction", ADJOINTABLE)
    @pytest.mark.parametrize("n_theta", [1, 2, 3, 37, 90, 360])
    def test_matches_one_solve_per_direction(self, construction, n_theta):
        # thetas bit for bit; interior points from the same draws to
        # rounding (the real-form arithmetic against the complex reference);
        # boundary points to rounding wherever the top eigenvalue is simple
        # (there the support point is unique).
        for dim, rank_a in ((2, 2), (5, 3), (8, 8)):
            op = make_op(*gen_instance(InstanceSpec(dim=dim, rank_a=rank_a, construction=construction, seed=dim)))
            cloud = range_cloud(op, n_theta, seed=3)
            thetas, boundary, interior = cloud_reference(op, n_theta, seed=3)
            assert np.array_equal(cloud.thetas[:n_theta], thetas)
            assert np.isnan(cloud.thetas[n_theta:]).all()
            moved = np.abs(cloud.points[n_theta:] - interior)
            assert moved.max() <= 4 * op.ctx.rank * np.finfo(float).eps * op.seminorm
            spectra = support_spectra(op, thetas)
            simple = spectra[:, -1] - spectra[:, -2] > 1e-3 * op.seminorm
            moved = np.abs(cloud.points[:n_theta] - boundary)[simple]
            assert moved.max(initial=0.0) <= 1e-13 * op.seminorm


class TestScanLeavesNoState:
    """An operator keeps none of the grids solved on it, so a scan leaves
    nothing behind that changes a later read: disk_test and range_cloud
    give a scanned operator's outputs bit for bit as a fresh one's, and
    each solves its own angles."""

    @staticmethod
    def fresh_and_scanned(construction, grid_n=720):
        spec = InstanceSpec(dim=6, rank_a=4, construction=construction, seed=4)
        fresh, scanned = (make_op(*gen_instance(spec)) for _ in range(2))
        radius_theta_scan(scanned, grid_n)
        return fresh, scanned

    @pytest.mark.parametrize("construction", ADJOINTABLE)
    @pytest.mark.parametrize("grid_n", [720, 90, 181])
    def test_disk_and_cloud_as_on_a_fresh_operator(self, construction, grid_n):
        fresh, scanned = self.fresh_and_scanned(construction, grid_n)
        assert disk_test(scanned) == disk_test(fresh)
        for n_theta in (1, 37, 90, 360):
            a, b = range_cloud(scanned, n_theta, seed=1), range_cloud(fresh, n_theta, seed=1)
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.thetas, b.thetas, equal_nan=True)

    def test_flat_profile_grid_is_solved_once(self, monkeypatch):
        # The range cloud solves its 180-angle grid once per call; the disk
        # test solves no grid: one eigvalsh of H_re for its radius, one
        # level-set check and one eigvalsh of two r x r matrices.
        _, op = self.fresh_and_scanned("nilpotent_half")
        counted, vectors = count_mats(monkeypatch, "eigvalsh"), count_mats(monkeypatch, "eigh")
        checks, svds = count_mats(monkeypatch, "eigvals"), count_mats(monkeypatch, "svd")
        range_cloud(op, 360, seed=0)
        assert (counted[0], vectors[0], checks[0]) == (180, 0, 0)
        before = svds[0]
        assert disk_test(op).is_disk
        assert (counted[0], vectors[0], checks[0], svds[0] - before) == (183, 0, 1, 0)


class TestDiskTest:
    def test_jordan_is_disk(self):
        res = disk_test(make_op(np.eye(2), JORDAN))
        assert res.is_disk
        assert res.radius_k == pytest.approx(0.5, abs=1e-9)

    def test_hermitian_is_not_disk(self):
        res = disk_test(make_op(np.eye(2), np.diag([1.0, -1.0])))
        assert not res.is_disk

    def test_zero_operator_degenerate_disk(self):
        res = disk_test(make_op(np.eye(2), np.zeros((2, 2))))
        assert res.is_disk
        assert res.radius_k == 0.0

    @pytest.mark.parametrize("case", ["16-gon", "half-octagon", "bump"])
    def test_near_disks_are_not_disks(self, case):
        # Each passed the former sampled test: the regular 16-gon and the
        # half-octagon at 8 angles, whose every value is 1, and J_2 + lambda
        # at 180 angles, lambda 2e-5 outside the disk W(J_2) between two of
        # them. Their profiles are flat on those grids, not everywhere.
        op = make_op(*NEAR_DISKS[case])
        res = disk_test(op)
        assert not res.is_disk
        assert res.radius_k == pytest.approx(0.5 if case == "bump" else 1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [33, 64])
    @pytest.mark.parametrize("c", [1e-3, 1e-2])
    def test_shifted_off_the_origin_is_not_disk(self, n, c):
        # W(J_n + c I) is the disk of radius cos(pi / (n + 1)) centred at c,
        # so h(0) = k = c + cos(pi / (n + 1)) and w <= k hold exactly, but h
        # falls short of k by c (1 - cos theta) elsewhere. H(z) - k I at a
        # non-real z is far from normal here: its sigma_min / sigma_max
        # reads about e^{-n Im z}, so a singular-value test of
        # det(H(z) - k I) = 0 would pass this off-centre disk.
        res = disk_test(make_op(np.eye(n), shift(n) + c * np.eye(n)))
        assert not res.is_disk
        assert res.radius_k == pytest.approx(c + math.cos(math.pi / (n + 1)), rel=1e-12)
