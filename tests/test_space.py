import numpy as np
import pytest

from anumrad import (
    NotAdjointableError,
    a_inner,
    a_norm_vec,
    equality_half_norm,
    is_a_selfadjoint,
    is_adjointable,
    make_a_operator,
    psd_decompose,
    radius_theta_scan,
    seminorm_mat,
    spectral_norm,
)

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_adjointable(rng, n, rank):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, u = np.linalg.eigh(g @ g.conj().T)
    w[: n - rank] = 0.0
    ctx = psd_decompose((u * w) @ u.conj().T)
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
