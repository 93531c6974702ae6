import numpy as np
import pytest

from anumrad import (
    InstanceSpec,
    NotAdjointableError,
    a_inner,
    a_norm_vec,
    commutator_compare,
    commutator_th5,
    equality_half_norm,
    gen_instance,
    is_a_selfadjoint,
    is_adjointable,
    make_a_operator,
    psd_decompose,
    radius_theta_scan,
    seminorm_mat,
    spectral_norm,
)
from anumrad import bounds

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_psd(rng, n, rank):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, u = np.linalg.eigh(g @ g.conj().T)
    w[: n - rank] = 0.0
    return (u * w) @ u.conj().T


def random_adjointable(rng, n, rank):
    ctx = psd_decompose(random_psd(rng, n, rank))
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if rank < n:
        t = ctx.proj @ t @ ctx.proj
    return ctx, make_a_operator(ctx, t)


class TestInnerAndNorm:
    def test_inner_matches_weighted_form(self):
        ctx = psd_decompose(np.diag([2.0, 1.0]))
        x = np.array([1.0, 1j])
        y = np.array([1.0, 1.0])
        # <x,y>_A = y* A x
        assert a_inner(ctx, x, y) == pytest.approx(2.0 + 1j)
        assert a_norm_vec(ctx, [1.0, 1.0]) == pytest.approx(np.sqrt(3.0))

    def test_null_direction_has_zero_seminorm(self):
        ctx = psd_decompose(np.diag([1.0, 0.0]))
        assert a_norm_vec(ctx, [0.0, 1.0]) == 0.0
        assert a_inner(ctx, [0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_sesquilinearity(self):
        rng = np.random.default_rng(7)
        ctx, _ = random_adjointable(rng, 4, 4)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = a_inner(ctx, (2.0 + 1j) * x, y)
        assert lhs == pytest.approx((2.0 + 1j) * a_inner(ctx, x, y))
        assert a_inner(ctx, x, y) == pytest.approx(np.conj(a_inner(ctx, y, x)))


class TestAdjointability:
    def test_invertible_a_everything_adjointable(self):
        ctx = psd_decompose(np.eye(2))
        assert is_adjointable(ctx, JORDAN)

    def test_douglas_violation(self):
        ctx = psd_decompose(np.diag([1.0, 0.0]))
        assert not is_adjointable(ctx, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_diagonal_t_against_singular_a(self):
        ctx = psd_decompose(np.diag([1.0, 0.0]))
        assert is_adjointable(ctx, np.diag([1.0, 2.0]))

    def test_zero_a_vacuous(self):
        ctx = psd_decompose(np.zeros((2, 2)))
        assert is_adjointable(ctx, JORDAN)


def douglas_nxn(ctx, t):
    """The n x n form of the Douglas test: ||(I - P)T*A|| against
    max(||T*A||, lambda_max), with P the range projection of A."""
    ta = t.conj().T @ ctx.a
    residual = spectral_norm(ta - ctx.proj @ ta)
    scale = max(spectral_norm(ta), ctx.lam_max)
    return residual <= ctx.tol.check_rel_tol * scale if scale > 0.0 else True


class TestAdjointabilityVerdicts:
    """is_adjointable works on n x r matrices; its verdicts match the n x n
    residual."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_rank(self, n):
        rng = np.random.default_rng(300 + n)
        for rank in range(n + 1):
            ctx = psd_decompose(random_psd(rng, n, rank))
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for m in (t, ctx.proj @ t @ ctx.proj):
                assert is_adjointable(ctx, m) == douglas_nxn(ctx, m)
            # a Gaussian T maps null(A) out of null(A) unless rank is 0 or n
            assert is_adjointable(ctx, t) == (rank in (0, n))
            assert is_adjointable(ctx, ctx.proj @ t @ ctx.proj)

    def test_probe_draws(self):
        for seed in range(50):
            n = 2 + seed % 7
            spec = InstanceSpec(
                dim=n, rank_a=1 + seed % (n - 1), construction="nonadjointable_probe", seed=seed
            )
            a, t = gen_instance(spec)
            ctx = psd_decompose(a)
            assert not is_adjointable(ctx, t)
            assert not douglas_nxn(ctx, t)

    @pytest.mark.parametrize("rel, expected", [(1e-4, False), (1e-12, True)])
    def test_leak_from_null_into_range(self, rel, expected):
        # T = PT0P plus rel ||PT0P|| x y* with x in range(A) and y in null(A):
        # the leak sends null(A) into range(A), so it breaks the Douglas
        # condition by rel, far on either side of check_rel_tol = 1e-8
        rng = np.random.default_rng(17)
        for n in range(2, 9):
            for rank in range(1, n):
                ctx = psd_decompose(random_psd(rng, n, rank))
                t0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                t = ctx.proj @ t0 @ ctx.proj
                x = ctx.range_basis @ rng.standard_normal(rank)
                y = (np.eye(n) - ctx.proj) @ rng.standard_normal(n)
                leak = np.outer(x / np.linalg.norm(x), (y / np.linalg.norm(y)).conj())
                m = t + rel * spectral_norm(t) * leak
                assert is_adjointable(ctx, m) == douglas_nxn(ctx, m) == expected


@pytest.fixture
def count_svd(monkeypatch):
    """Patch np.linalg.svd to record the shape of every matrix it is given."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


class TestNoEagerWork:
    LAZY = ("sharp", "re_a", "im_a", "seminorm")

    def test_full_rank_needs_no_svd(self, count_svd):
        rng = np.random.default_rng(8)
        ctx = psd_decompose(random_psd(rng, 6, 6))
        make_a_operator(ctx, rng.standard_normal((6, 6)))
        assert count_svd == []

    def test_deficient_rank_needs_two_n_by_r_svds(self, count_svd):
        rng = np.random.default_rng(9)
        ctx = psd_decompose(random_psd(rng, 6, 4))
        make_a_operator(ctx, ctx.proj @ rng.standard_normal((6, 6)) @ ctx.proj)
        assert count_svd == [(6, 4), (6, 4)]

    def test_nothing_derived_before_first_read(self):
        rng = np.random.default_rng(10)
        ctx, op = random_adjointable(rng, 5, 3)
        assert not set(self.LAZY) & set(vars(op))
        assert not {"pinv_a", "proj"} & set(vars(psd_decompose(ctx.a)))
        sharp = ctx.pinv_a @ op.t.conj().T @ ctx.a
        assert np.array_equal(op.sharp, sharp)
        assert np.array_equal(op.re_a, (op.t + sharp) / 2.0)
        assert np.array_equal(op.im_a, (op.t - sharp) * (-0.5j))
        assert op.seminorm == spectral_norm(op.compressed)
        assert set(self.LAZY) <= set(vars(op))

    def test_commutator_products_keep_seminorm_unread(self, monkeypatch):
        products = []
        build = bounds.make_a_operator

        def recording(ctx, t):
            products.append(build(ctx, t))
            return products[-1]

        monkeypatch.setattr(bounds, "make_a_operator", recording)
        rng = np.random.default_rng(11)
        ctx, op_t = random_adjointable(rng, 4, 3)
        op_x = make_a_operator(ctx, ctx.proj @ rng.standard_normal((4, 4)) @ ctx.proj)
        op_y = make_a_operator(ctx, ctx.proj @ rng.standard_normal((4, 4)) @ ctx.proj)
        for sign in ("+", "-"):
            commutator_th5(op_t, op_x, op_y, sign, grid_n=90)
        commutator_compare(op_t, op_x, grid_n=90)
        assert len(products) == 4
        assert not any("seminorm" in vars(prod) for prod in products)


class TestSharp:
    def test_identity_weight_gives_plain_adjoint(self):
        ctx = psd_decompose(np.eye(2))
        op = make_a_operator(ctx, JORDAN)
        assert np.allclose(op.sharp, JORDAN.conj().T)
        assert np.allclose(op.re_a, np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert np.allclose(op.im_a, np.array([[0.0, -0.5j], [0.5j, 0.0]]))

    def test_weighted_adjoint(self):
        ctx = psd_decompose(np.diag([2.0, 1.0]))
        op = make_a_operator(ctx, JORDAN)
        assert np.abs(op.sharp - np.array([[0.0, 0.0], [2.0, 0.0]])).max() <= 1e-14

    def test_sharp_of_identity_is_range_projection(self):
        ctx = psd_decompose(np.diag([1.0, 1.0, 0.0]))
        op = make_a_operator(ctx, np.eye(3))
        assert np.allclose(op.sharp, ctx.proj)

    def test_rejects_non_adjointable(self):
        ctx = psd_decompose(np.diag([1.0, 0.0]))
        with pytest.raises(NotAdjointableError):
            make_a_operator(ctx, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestSeminorm:
    def test_identity_weight(self):
        ctx = psd_decompose(np.eye(2))
        assert make_a_operator(ctx, JORDAN).seminorm == pytest.approx(1.0)

    def test_weighted_nilpotent(self):
        # ||T||_A = sigma_max(A^{1/2} T A^{-1/2}) = sqrt(2) for A = diag(2,1)
        ctx = psd_decompose(np.diag([2.0, 1.0]))
        op = make_a_operator(ctx, JORDAN)
        assert op.seminorm == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_vanishes_iff_ata_zero(self):
        ctx = psd_decompose(np.diag([1.0, 0.0]))
        op = make_a_operator(ctx, np.diag([0.0, 5.0]))
        assert op.seminorm == 0.0

    def test_seminorm_mat_agrees(self):
        rng = np.random.default_rng(5)
        ctx, op = random_adjointable(rng, 5, 3)
        assert seminorm_mat(ctx, op.t) == pytest.approx(op.seminorm, rel=1e-12)


class TestSelfadjoint:
    def test_hermitian_with_identity_weight(self):
        ctx = psd_decompose(np.eye(2))
        assert is_a_selfadjoint(ctx, np.array([[1.0, 1j], [-1j, 0.0]]))
        assert not is_a_selfadjoint(ctx, JORDAN)

    def test_non_hermitian_but_a_selfadjoint(self):
        # AT = T*A for A = diag(2,1), T = [[0,1],[2,0]] though T is not Hermitian
        ctx = psd_decompose(np.diag([2.0, 1.0]))
        t = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert is_a_selfadjoint(ctx, t)
        assert not np.allclose(t, t.conj().T)


class TestOperatorInvariants:
    def test_randomized_identities(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(1, n + 1))
            ctx, op = random_adjointable(rng, n, rank)
            a, pinv, proj = ctx.a, ctx.pinv_a, ctx.proj
            t, sharp = op.t, op.sharp
            scale = max(spectral_norm(t), spectral_norm(sharp), ctx.lam_max)

            # defining property: A T# = T* A
            assert spectral_norm(a @ sharp - t.conj().T @ a) <= 1e-10 * scale

            # involution up to the range projection: (T#)# = P T P
            sharp2 = pinv @ sharp.conj().T @ a
            assert spectral_norm(sharp2 - proj @ t @ proj) <= 1e-9 * scale

            # C*-identity: ||T# T||_A = ||T||_A^2
            csharp = seminorm_mat(ctx, sharp @ t)
            assert abs(csharp - op.seminorm**2) <= 1e-9 * max(op.seminorm**2, ctx.lam_max)

            # Cartesian parts are A-selfadjoint and recombine to T on range(A)
            assert is_a_selfadjoint(ctx, op.re_a)
            assert is_a_selfadjoint(ctx, op.im_a)
            recomb = op.re_a + 1j * op.im_a
            assert spectral_norm(a @ (recomb - t)) <= 1e-10 * scale

    def test_reverse_order_and_submultiplicativity(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, n + 1))
            ctx, op = random_adjointable(rng, n, rank)
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if rank < n:
                s = ctx.proj @ s @ ctx.proj
            op_s = make_a_operator(ctx, s)
            prod = make_a_operator(ctx, op.t @ op_s.t)
            scale = max(spectral_norm(prod.sharp), ctx.lam_max, 1.0)
            assert spectral_norm(prod.sharp - op_s.sharp @ op.sharp) <= 1e-8 * scale
            assert prod.seminorm <= op.seminorm * op_s.seminorm * (1.0 + 1e-10)

    def test_seminorm_duality(self):
        # sup over A-unit x of ||Tx||_A / ||x||_A equals ||T||_A; sampled
        # values never exceed it and approach it at small dimension
        rng = np.random.default_rng(2024)
        for n in (2, 3):
            ctx, op = random_adjointable(rng, n, n)
            z = rng.standard_normal((n, 20_000)) + 1j * rng.standard_normal((n, 20_000))
            q = ctx.range_basis
            x = (q / ctx.root) @ q.conj().T @ z
            num = np.einsum("ij,ij->j", (op.t @ x).conj(), ctx.a @ (op.t @ x)).real
            den = np.einsum("ij,ij->j", x.conj(), ctx.a @ x).real
            ratios = np.sqrt(np.clip(num, 0.0, None) / den)
            assert ratios.max() <= op.seminorm * (1.0 + 1e-10)
            assert ratios.max() >= 0.95 * op.seminorm

    def test_zero_weight_context(self):
        ctx = psd_decompose(np.zeros((3, 3)))
        op = make_a_operator(ctx, np.arange(9.0).reshape(3, 3))
        assert op.seminorm == 0.0
        assert not op.sharp.any()
        # rank(A) = 0: every A-quantity lives on 0 x 0 matrices and is 0
        assert op.compressed.shape == op.h_re.shape == op.h_im.shape == (0, 0)
        assert op.part_norms == (0.0, 0.0, 0.0, 0.0)
        assert op.form_norm == 0.0
        assert seminorm_mat(ctx, np.ones((3, 3)) + 1j) == 0.0
        rad = radius_theta_scan(op)
        assert rad.lower == rad.upper == 0.0
        diag = equality_half_norm(op, rad, 180)
        assert diag.equality_holds and diag.re_im_constant and diag.disk.is_disk
        assert diag.target == diag.disk.radius_k == diag.disk.max_deviation == 0.0

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_compress_is_the_sqrt_similarity(self, rank):
        # Q compress(T) Q* = A^{1/2} T (A^{1/2})+, with the reference square
        # roots built here from a separate eigendecomposition of A
        rng = np.random.default_rng(40 + rank)
        n = 5
        g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        a = g @ g.conj().T
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, u = np.linalg.eigh(a)
        keep = w > 1e-10 * w[-1]
        uk, sk = u[:, keep], np.sqrt(w[keep])
        expected = (uk * sk) @ uk.conj().T @ t @ (uk / sk) @ uk.conj().T
        ctx = psd_decompose(a)
        q = ctx.range_basis
        c = ctx.compress(t)
        assert c.shape == (rank, rank)
        assert np.abs(q @ c @ q.conj().T - expected).max() <= 1e-12 * np.abs(expected).max()
