import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anumrad import (
    LinAlgInputError,
    NotHermitianError,
    NotPsdError,
    TolerancePolicy,
    hermitian_eig,
    psd_decompose,
    spectral_norm,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_psd(rng, n, rank):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T


class TestTolerancePolicy:
    def test_defaults(self):
        tol = TolerancePolicy()
        assert tol.rank_rel_tol == 1e-10
        assert tol.check_rel_tol == 1e-8
        assert tol.equality_rel_tol == 1e-6

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_rel_tol=bad)


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])
        u = eig.eigenvectors
        assert np.allclose(u.conj().T @ u, np.eye(2))

    def test_pauli_x(self):
        eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 5)
        eig = hermitian_eig(m)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.abs(rebuilt - m).max() < 1e-12
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.abs(gram - np.eye(5)).max() < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(LinAlgInputError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(LinAlgInputError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_material_asymmetry(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_single_singular_value(self):
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_scaled_nilpotent(self):
        m = np.array([[0.0, np.sqrt(2.0)], [0.0, 0.0]])
        # independent route: largest eigenvalue of M*M
        oracle = np.sqrt(hermitian_eig(m.conj().T @ m).eigenvalues[-1])
        assert spectral_norm(m) == pytest.approx(oracle, rel=1e-14)
        assert spectral_norm(m) == pytest.approx(1.4142135623730951, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
        arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
    )
    def test_adjoint_invariance(self, re, im):
        m = re + 1j * im
        assert spectral_norm(m) == pytest.approx(spectral_norm(m.conj().T), rel=1e-10, abs=1e-12)


class TestPsdDecompose:
    def test_identity(self):
        ctx = psd_decompose(np.eye(3))
        assert ctx.rank == 3
        assert np.allclose(ctx.pinv_a, np.eye(3))
        assert np.allclose(ctx.proj, np.eye(3))

    def test_diagonal(self):
        ctx = psd_decompose(np.diag([2.0, 1.0]))
        q = ctx.range_basis
        assert np.allclose((q * ctx.root) @ q.conj().T, np.diag([np.sqrt(2.0), 1.0]))
        assert np.allclose(ctx.pinv_a, np.diag([0.5, 1.0]))

    def test_singular_diagonal(self):
        ctx = psd_decompose(np.diag([1.0, 0.0]))
        assert ctx.rank == 1
        assert np.allclose(ctx.pinv_a, np.diag([1.0, 0.0]))
        assert np.allclose(ctx.proj, np.diag([1.0, 0.0]))

    def test_zero_matrix_rank_zero(self):
        ctx = psd_decompose(np.zeros((4, 4)))
        assert ctx.rank == 0
        assert not ctx.pinv_a.any()

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            psd_decompose(np.diag([1.0, -1.0]))

    def test_clamps_tiny_negative_eigenvalues(self):
        a = np.diag([1.0, -1e-14])
        ctx = psd_decompose(a)
        assert ctx.rank == 1
        assert ctx.lam_max == 1.0
        assert (ctx.root > 0).all()

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_penrose_identities(self, n):
        rng = np.random.default_rng(11 * n)
        for rank in range(1, n + 1):
            a = random_psd(rng, n, rank)
            ctx = psd_decompose(a)
            assert ctx.rank == rank
            pinv = ctx.pinv_a
            scale = n * 1e-12 * spectral_norm(a)
            assert spectral_norm(a @ pinv @ a - a) <= scale
            assert spectral_norm(pinv @ a @ pinv - pinv) <= scale
            assert np.abs(a @ pinv - (a @ pinv).conj().T).max() <= scale
            assert np.abs(pinv @ a - (pinv @ a).conj().T).max() <= scale
            q = ctx.range_basis
            sqrt_a = (q * ctx.root) @ q.conj().T
            pinv_sqrt_a = (q / ctx.root) @ q.conj().T
            assert spectral_norm(sqrt_a @ sqrt_a - a) <= scale
            assert spectral_norm(pinv_sqrt_a @ pinv_sqrt_a - pinv) <= scale
