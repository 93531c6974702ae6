import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anumrad import (
    DimensionMismatchError,
    LinAlgInputError,
    NotHermitianError,
    NotPsdError,
    ScaleRangeError,
    TolerancePolicy,
    psd_decompose,
    spectral_norm,
)
from anumrad.linalg import as_matrix, as_square_matrix, as_vector


def random_psd(rng, n, rank):
    """GG* for a complex Gaussian n x rank G: PSD of that rank."""
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T


class TestTolerancePolicy:
    def test_defaults(self):
        tol = TolerancePolicy()
        assert tol.check_rel_tol == 1e-8
        assert tol.equality_rel_tol == 1e-6

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_out_of_range(self, bad):
        for name in ("check_rel_tol", "equality_rel_tol"):
            with pytest.raises(ValueError):
                TolerancePolicy(**{name: bad})

    @pytest.mark.parametrize("c", [1.0, 2.0**-500, 2.0**500])
    def test_rules_are_relative_to_the_larger_magnitude(self, c):
        tol = TolerancePolicy()
        assert tol.at_most(c, c) and tol.at_most(c, 2 * c)
        assert tol.at_most(c * (1 + 0.5e-8), c) and not tol.at_most(c * (1 + 2e-8), c)
        assert tol.at_most(-c, -c * (1 + 0.5e-8)) and not tol.at_most(-c, -c * (1 + 2e-8))
        assert tol.close(c, c * (1 - 0.5e-6)) and not tol.close(c, c * (1 - 2e-6))
        assert tol.at_most(0.0, 0.0) and tol.close(0.0, 0.0) and not tol.close(0.0, c)

    def test_close_is_elementwise(self):
        tol = TolerancePolicy()
        vals = np.array([1.0, 1.0 + 0.5e-6, 1.0 + 2e-6, 0.0])
        assert tol.close(vals, 1.0).tolist() == [True, True, False, False]


class TestHermitianEig:
    """The checked Hermitian eigensolve inside ``psd_decompose``."""

    def test_identity(self):
        ctx = psd_decompose(np.eye(2))
        assert np.allclose(ctx.root, [1.0, 1.0])
        q = ctx.range_basis
        assert np.allclose(q.conj().T @ q, np.eye(2))

    def test_pauli_x(self):
        # I + X has eigenvalues 0 and 2, eigenvector (1, 1)/sqrt 2 for 2
        ctx = psd_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert ctx.rank == 1
        assert ctx.root**2 == pytest.approx([2.0])
        assert np.allclose(np.abs(ctx.range_basis[:, 0]), [2.0**-0.5, 2.0**-0.5])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        m = random_psd(rng, 5, 5)
        ctx = psd_decompose(m)
        assert np.array_equal(ctx.a, (m + m.conj().T) / 2.0)
        q = ctx.range_basis
        rebuilt = (q * ctx.root**2) @ q.conj().T
        assert np.abs(rebuilt - m).max() < 1e-12 * np.abs(m).max()
        assert np.abs(q.conj().T @ q - np.eye(5)).max() < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(LinAlgInputError):
            psd_decompose(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(LinAlgInputError):
            psd_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_material_asymmetry(self):
        with pytest.raises(NotHermitianError):
            psd_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestInputValidation:
    """The coercions refuse what no computation can use, each with its own
    error type."""

    @pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2)), np.zeros((0, 2)), np.zeros((2, 0))])
    def test_matrix_must_be_nonempty_2d(self, m):
        with pytest.raises(LinAlgInputError, match="nonempty 2-d") as exc:
            as_matrix(m)
        assert exc.type is LinAlgInputError

    def test_square_matrix_of_the_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError, match="expected dimension 3, got 2"):
            as_square_matrix(np.eye(2), 3)

    @pytest.mark.parametrize(
        "x, dim, error, match",
        [
            (np.ones((2, 2)), None, LinAlgInputError, "1-d"),
            ([1.0, np.nan], None, LinAlgInputError, "non-finite"),
            ([1.0, np.inf], 2, LinAlgInputError, "non-finite"),
            ([1.0, 2.0], 3, DimensionMismatchError, "expected length 3, got 2"),
        ],
    )
    def test_vector_shape_entries_and_length(self, x, dim, error, match):
        with pytest.raises(error, match=match) as exc:
            as_vector(x, dim)
        assert exc.type is error


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_single_singular_value(self):
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_scaled_nilpotent(self):
        m = np.array([[0.0, np.sqrt(2.0)], [0.0, 0.0]])
        # independent route: largest eigenvalue of M*M
        oracle = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m)[-1])
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

    @pytest.mark.parametrize("k", [-501, 501, 1000])
    def test_rejects_lambda_max_outside_the_scale_range(self, k):
        with pytest.raises(ScaleRangeError, match="lambda_max"):
            psd_decompose(np.diag([2.0**k, 0.0, 2.0**k / 3]))

    @pytest.mark.parametrize("k", [-500, 500])
    def test_accepts_lambda_max_at_the_scale_range_ends(self, k):
        ctx = psd_decompose(np.diag([2.0**k, 0.0, 2.0**k / 3]))
        assert ctx.rank == 2 and ctx.lam_max == 2.0**k

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

    @staticmethod
    def _graded(n, last):
        """diag(3, 1, ..., 1, last * eps_A) with eps_A = 32 n eps lambda_max."""
        lam = np.ones(n)
        lam[0] = 3.0
        lam[-1] = last * 32 * n * np.finfo(float).eps * 3.0
        return np.diag(lam)

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_clamps_negative_eigenvalue_at_half_the_rounding_bound(self, n):
        ctx = psd_decompose(self._graded(n, -0.5))
        assert ctx.rank == n - 1
        assert ctx.lam_max == 3.0
        assert (ctx.root > 0).all()

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_rejects_negative_eigenvalue_at_twice_the_rounding_bound(self, n):
        with pytest.raises(NotPsdError):
            psd_decompose(self._graded(n, -2.0))

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_keeps_positive_eigenvalue_at_twice_the_rounding_bound(self, n):
        assert psd_decompose(self._graded(n, 2.0)).rank == n
        assert psd_decompose(self._graded(n, 0.5)).rank == n - 1

    def test_keeps_eigenvalues_above_the_rounding_bound(self):
        # lambda_min / lambda_max = 1e-12 was dropped by a cutoff of 1e-10 lambda_max
        ctx = psd_decompose(np.diag([1.0, 1e-12]))
        assert ctx.rank == 2
        assert ctx.root[0] ** 2 == 1e-12
        with pytest.raises(NotPsdError):
            psd_decompose(np.diag([1.0, -1e-12]))

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
