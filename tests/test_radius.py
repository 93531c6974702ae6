import math

import numpy as np
import pytest

from anumrad import (
    DegenerateRankError,
    InstanceSpec,
    disk_test,
    gen_instance,
    make_a_operator,
    phase_profile,
    psd_decompose,
    radius_sampling,
    radius_theta_scan,
    range_cloud,
    witness_value,
)
from anumrad import radius

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
ADJOINTABLE = ("random", "nilpotent_half", "shared_eigenbasis_selfadjoint")
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
    """High-effort reference for the refined lower end: the former bracket
    search, six probes at quarter steps around the best point per round,
    the step quartered each round, run for 25 rounds instead of 7."""
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
    return max(best - guard, 0.0)


def cosine_cell_bounds(fa, fb, width):
    """The cell bound by the cosine construction: the peak of a rectified
    cosinusoid r cos(theta - t - a) through both endpoint values, at angle
    a = arctan((fb - fa cos w) / (fa sin w)) into the cell, is fa / cos(a)
    when 0 <= a <= width, else the larger endpoint value bounds the cell."""
    cos_d, sin_d = math.cos(width), math.sin(width)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.arctan((fb - fa * cos_d) / (fa * sin_d))
        crossing = fa / np.cos(a)
    interior = (fa > 0.0) & (a >= 0.0) & (a <= width)
    cell = np.where(interior, crossing, np.maximum(fa, fb))
    return np.maximum(cell, np.maximum(fa, fb))


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


def record_profile_calls(monkeypatch):
    """Patch the scan's phase_profile to record the angle count of each call."""
    calls = []
    profile = radius.phase_profile

    def recording(op, thetas):
        calls.append(int(np.size(thetas)))
        return profile(op, thetas)

    monkeypatch.setattr(radius, "phase_profile", recording)
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

    def test_refine_only_raises_lower(self):
        # pick an operator whose maximizer falls off the grid
        t = np.exp(0.123j) * np.diag([1.0, -1.0]).astype(complex)
        op = make_op(np.eye(2), t)
        coarse = radius_theta_scan(op, grid_n=64, refine=False)
        refined = radius_theta_scan(op, grid_n=64, refine=True)
        assert refined.lower >= coarse.lower
        assert refined.upper == coarse.upper
        assert refined.lower == pytest.approx(1.0, abs=1e-6)
        assert refined.lower > coarse.lower
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
    # The polish adds at most one call for the argmax's grid neighbours that
    # pruning skipped, then one angle per call: at most 42 angles in all,
    # which the former bracket search spent on every operator, and at most
    # 12 from grid 181 on.
    calls = record_profile_calls(monkeypatch)
    for construction in ADJOINTABLE:
        for seed in range(3):
            op = make_op(*gen_instance(InstanceSpec(dim=5, rank_a=4, construction=construction, seed=seed)))
            calls.clear()
            radius_theta_scan(op, grid_n, refine=False)
            unrefined = list(calls)
            calls.clear()
            radius_theta_scan(op, grid_n)
            added = calls[len(unrefined) :]
            assert calls[: len(unrefined)] == unrefined
            assert all(n == 1 for n in added[1:]) and added[:1] in ([], [1], [2])
            assert sum(added) <= (12 if grid_n >= 181 else 42)


@pytest.mark.parametrize("construction", ADJOINTABLE)
@pytest.mark.parametrize("rank_a", [5, 3])
@pytest.mark.parametrize("grid_n", [8, 64, 181, 720, 1440])
def test_polish_matches_bracket_oracle(monkeypatch, construction, rank_a, grid_n):
    # The parabolic polish reaches the 25-round bracket search's lower end to
    # 1e-13 relative, never lowers the grid's lower end, leaves upper alone,
    # and adds at most 12 eigensolves from grid 181 on, 42 at every grid.
    counted = count_mats(monkeypatch, "eigvalsh")
    for seed in range(3):
        op = make_op(*gen_instance(InstanceSpec(dim=5, rank_a=rank_a, construction=construction, seed=seed)))
        counted[0] = 0
        coarse = radius_theta_scan(op, grid_n, refine=False)
        unrefined = counted[0]
        counted[0] = 0
        refined = radius_theta_scan(op, grid_n)
        assert counted[0] - unrefined <= (12 if grid_n >= 181 else 42)
        assert refined.lower >= coarse.lower
        assert refined.upper == coarse.upper
        assert abs(refined.lower - bracket_oracle(op, grid_n)) <= 1e-13 * refined.upper


@pytest.mark.parametrize("construction", ADJOINTABLE)
@pytest.mark.parametrize("rank_a", [5, 3])
@pytest.mark.parametrize("grid_n", [8, 64, 181, 720, 1440])
def test_pruned_scan_matches_uniform_reference(construction, rank_a, grid_n):
    # Pruning evaluates a subset of the uniform grid's angles, bit for bit,
    # and keeps a subset of its cells: same lower end, upper never above.
    for seed in range(3):
        op = make_op(*gen_instance(InstanceSpec(dim=5, rank_a=rank_a, construction=construction, seed=seed)))
        rad = radius_theta_scan(op, grid_n)
        lower, upper, theta_star = uniform_reference(op, grid_n)
        assert rad.lower == lower
        assert rad.theta_star == theta_star
        assert upper - 2 * math.ulp(upper) <= rad.upper <= upper


class TestCellBounds:
    """The support-line vertex equals the cosine construction's peak."""

    @staticmethod
    def assert_matches_cosine(fa, fb, width):
        # fa / cos(a) loses tan(a) ulps to the rounding of cos near a = pi/2,
        # so the allowance grows with the width past pi/4; the scan's cells
        # are never wider than pi/4 (grid_n >= 4), where it is 4 ulps.
        got, ref = radius._cell_bounds(fa, fb, width), cosine_cell_bounds(fa, fb, width)
        ulps = np.abs(got - ref) / np.spacing(np.maximum(np.abs(got), np.abs(ref)))
        assert ulps.max() <= 4.0 * max(1.0, math.tan(width))

    def test_random_cells(self):
        rng = np.random.default_rng(11)
        widths = np.concatenate(
            [math.pi / 2 * np.geomspace(1e-6, 1.0 - 1e-9, 40), math.pi / np.array([4, 32, 45, 720, 1440])]
        )
        for width in widths:
            fa = rng.uniform(0.0, 2.0, 500)
            # Ratios fb/fa on both sides of the cone edges cos(w) and 1/cos(w).
            fb = fa * rng.uniform(0.0, 1.2 / math.cos(width), 500)
            self.assert_matches_cosine(fa, fb, width)
            self.assert_matches_cosine(fb, fa, width)

    @pytest.mark.parametrize("width", [math.pi / 720, math.pi / 32, math.pi / 4, 1.5])
    def test_edge_cases(self, width):
        c = math.cos(width)
        fa = np.array([0.0, 0.0, 1.0, 1.0, 0.7, 1.0, c])
        fb = np.array([0.0, 1.0, 0.0, 1.0, 0.7, c, 1.0])  # vertex on the left end, then the right
        self.assert_matches_cosine(fa, fb, width)
        np.testing.assert_array_equal(radius._cell_bounds(fa[:3], fb[:3], width), [0.0, 1.0, 1.0])

    def test_single_cosinusoid_is_exact(self):
        # f = r |cos(theta - phi)| with its peak inside the cell: the bound is r.
        r, t, width = 2.5, 0.1, math.pi / 45
        for phi in t + width * np.array([0.0, 0.3, 0.5, 0.9, 1.0]):
            fa, fb = r * abs(math.cos(t - phi)), r * abs(math.cos(t + width - phi))
            got = float(radius._cell_bounds(np.array([fa]), np.array([fb]), width)[0])
            assert got == pytest.approx(r, rel=4e-16, abs=0.0)


class TestPruning:
    @pytest.mark.parametrize("grid_n", [181, 720, 1440])
    def test_off_grid_peak_is_not_pruned(self, grid_n):
        # Two nearly equal peaks: the lower one sits on the grid at theta = 0
        # and wins the grid argmax, the higher one (at pi - 0.3) falls between
        # grid angles; the closed form w = max |lambda| must stay enclosed.
        t = np.diag([1.0 - 1e-7, np.exp(0.3j)])
        rad = radius_theta_scan(make_op(np.eye(2), t), grid_n)
        assert rad.lower <= 1.0 <= rad.upper
        assert rad.upper <= rad.lower / math.cos(math.pi / (2 * grid_n))

    def test_random_operator_evaluates_few_angles(self, monkeypatch):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        op = make_op(np.eye(16), t)
        counted = count_mats(monkeypatch, "eigvalsh")
        radius_theta_scan(op, 720, refine=False)
        assert counted[0] <= 240

    def test_flat_profile_evaluates_each_angle_once(self, monkeypatch):
        op = make_op(np.eye(2), JORDAN)
        counted = count_mats(monkeypatch, "eigvalsh")
        radius_theta_scan(op, 720, refine=False)
        assert counted[0] == 720

    def test_odd_grid_is_one_uniform_level(self, monkeypatch):
        rng = np.random.default_rng(5)
        op = make_op(np.eye(4), rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        counted = count_mats(monkeypatch, "eigvalsh")
        radius_theta_scan(op, 181, refine=False)
        assert counted[0] == 181


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
        op = make_op(*gen_instance(InstanceSpec(dim=6, rank_a=4, construction="random", seed=2)))
        counted = count_mats(monkeypatch, "eigh")
        range_cloud(op, n_theta, seed=0)
        assert counted[0] == solved

    @pytest.mark.parametrize("construction", ADJOINTABLE)
    @pytest.mark.parametrize("n_theta", [1, 2, 3, 37, 90, 360])
    def test_matches_one_solve_per_direction(self, construction, n_theta):
        # thetas and interior points bit for bit; boundary points to rounding
        # wherever the top eigenvalue is simple (there the support point is
        # unique).
        for dim, rank_a in ((2, 2), (5, 3), (8, 8)):
            op = make_op(*gen_instance(InstanceSpec(dim=dim, rank_a=rank_a, construction=construction, seed=dim)))
            cloud = range_cloud(op, n_theta, seed=3)
            thetas, boundary, interior = cloud_reference(op, n_theta, seed=3)
            assert np.array_equal(cloud.thetas[:n_theta], thetas)
            assert np.isnan(cloud.thetas[n_theta:]).all()
            assert np.array_equal(cloud.points[n_theta:], interior)
            spectra = support_spectra(op, thetas)
            simple = spectra[:, -1] - spectra[:, -2] > 1e-3 * op.seminorm
            moved = np.abs(cloud.points[:n_theta] - boundary)[simple]
            assert moved.max(initial=0.0) <= 1e-13 * op.seminorm


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

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            disk_test(make_op(np.eye(2), JORDAN), n_theta=4)

    @pytest.mark.parametrize("n_theta", [100.5, 360.0, True, "360"])
    def test_rejects_non_integer_grid_before_solving(self, monkeypatch, n_theta):
        # 100.5 used to evaluate 101 angles spaced pi / 100.5
        op = make_op(np.eye(2), JORDAN)
        counted = count_mats(monkeypatch, "eigvalsh")
        with pytest.raises(TypeError, match="n_theta must be an integer"):
            disk_test(op, n_theta)
        assert counted[0] == 0
