"""Metamorphic checks. Every inequality and equality case is homogeneous in T,
unchanged when A is rescaled and unchanged under a unitary change of basis,
so no verdict may move under T -> cT, A -> cA or (A, T) -> (U*AU, U*TU).
The exact oracles at the end hold w_A(T) itself fixed: diagonal congruence,
permutation similarity, entrywise conjugation, direct sums and rotation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anumrad import (
    InstanceSpec,
    ScaleRangeError,
    bound_th1,
    bound_th2,
    bound_th3,
    bound_th4,
    classic_bounds,
    commutator_th5,
    disk_test,
    equality_diagnostics,
    gen_instance,
    gen_partner,
    is_adjointable,
    make_a_operator,
    psd_decompose,
    radius_theta_scan,
    spectral_norm,
)


def _cases(dims):
    """Generic full and deficient rank, nilpotent with AT^2 = 0, and
    A-self-adjoint, as (construction, dim, rank_a)."""
    for n in dims:
        yield from (
            ("random", n, n),
            ("random", n, max(1, n // 2)),
            ("nilpotent_half", n, n),
            ("shared_eigenbasis_selfadjoint", n, n - 1),
        )


def _lower_bounds(op, rad):
    return classic_bounds(op, rad) + [th(op, rad) for th in (bound_th1, bound_th2, bound_th3, bound_th4)]


def _verdicts(a, t, seed):
    """Every verdict on (A, T), and slack/scale of every report, with the
    commutator partners X, Y drawn for A as the suite draws them."""
    ctx = psd_decompose(a)
    op = make_a_operator(ctx, t)
    rad = radius_theta_scan(op)
    reports = _lower_bounds(op, rad)
    op_x, op_y = gen_partner(ctx, [seed, 2]), gen_partner(ctx, [seed, 3])
    reports += commutator_th5(op, op_x, op_y, rad)
    verdicts = {
        "adjointable": is_adjointable(ctx, t),
        "reports": [(r.formula_id, r.holds, r.tight) for r in reports],
        "diagnostics": [(d.equality_holds, d.re_im_constant, d.disk.is_disk) for d in equality_diagnostics(op, rad)],
        "disk": disk_test(op).is_disk,
    }
    return verdicts, np.array([r.slack / r.scale for r in reports])


@pytest.mark.parametrize("construction, n, rank", list(_cases(range(2, 8))))
def test_verdicts_are_scale_invariant(construction, n, rank):
    seed = 31 * n + rank
    a, t = gen_instance(InstanceSpec(dim=n, rank_a=rank, construction=construction, seed=seed))
    verdicts, ratios = _verdicts(a, t, seed)
    # powers of two scale every float exactly, so the ratios must agree too
    for k in (20, -20, 100, -100, 400, -400):
        scaled, scaled_ratios = _verdicts(a, t * 2.0**k, seed)
        assert scaled == verdicts, k
        assert np.abs(scaled_ratios - ratios).max() <= 1e-12, k
    for k in (50, -50):
        assert _verdicts(a * 4.0**k, t, seed)[0] == verdicts, k


def test_verdicts_ignore_the_size_of_t():
    # dim 4, rank(A) 4, seed 3 (lambda_max(A) = 14.5): a tolerance floored at
    # lambda_max read every classic, th1 and th2 report tight and every
    # equality verdict True once T was scaled by 1e-7
    spec = InstanceSpec(dim=4, rank_a=4, construction="random", seed=3)
    a, t = gen_instance(spec)
    a_small, t_small = gen_instance(InstanceSpec(dim=4, rank_a=4, construction="random", seed=3, scale=1e-7))
    assert np.array_equal(a, a_small)
    assert _verdicts(a_small, t_small, 3)[0] == _verdicts(a, t, 3)[0]


@pytest.mark.parametrize("n", range(3, 8))
def test_non_adjointable_verdict_is_scale_invariant(n):
    a, t = gen_instance(InstanceSpec(dim=n, rank_a=n - 2, construction="nonadjointable_probe", seed=n))
    ctx = psd_decompose(a)
    assert not is_adjointable(ctx, t)
    for k in (20, -20, 100, -100, 400, -400):
        assert not is_adjointable(ctx, t * 2.0**k), k
    for k in (50, -50):
        assert not is_adjointable(psd_decompose(a * 4.0**k), t), k


@pytest.mark.parametrize("t, w", [(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5), (np.diag([1.0, -1.0]), 1.0)])
def test_power_of_two_sweep_is_certified_or_refused(t, w):
    # w_A(2^k T) = 2^k w exactly for A = I_2, and max|C| = 2^k at rank 2.
    # Outside the certified range ||D||_A overflows (2^512 J) or the guard
    # underflows (2^-1054 J), so make_a_operator must refuse the operator.
    ctx = psd_decompose(np.eye(2))
    op_x = make_a_operator(ctx, np.array([[1.0, 2.0], [-1.0, 0.5j]]))
    op_y = make_a_operator(ctx, np.array([[0.0, 1j], [3.0, -1.0]]))
    for k in range(-1074, 1024):
        scaled = t * 2.0**k
        if not -500 <= k <= 499:
            with pytest.raises(ScaleRangeError):
                make_a_operator(ctx, scaled)
            continue
        op = make_a_operator(ctx, scaled)
        rad = radius_theta_scan(op)
        assert rad.lower <= w * 2.0**k <= rad.upper, k
        reports = _lower_bounds(op, rad) + list(commutator_th5(op, op_x, op_y, rad))
        assert all(r.holds for r in reports), (k, [r.formula_id for r in reports if not r.holds])


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("construction, n, rank", list(_cases(range(2, 9))))
def test_unitary_similarity(construction, n, rank):
    # w_{U*AU}(U*TU) = w_A(T), and so for every norm the bounds read
    seed = 17 * n + rank
    a, t = gen_instance(InstanceSpec(dim=n, rank_a=rank, construction=construction, seed=seed))
    u = _random_unitary(np.random.default_rng(seed), n)
    uh = u.conj().T
    results = []
    for aa, tt in ((a, t), (uh @ a @ u, uh @ t @ u)):
        op = make_a_operator(psd_decompose(aa), tt)
        rad = radius_theta_scan(op)
        results.append((rad, [(r.formula_id, r.holds) for r in _lower_bounds(op, rad)]))
    (rad, holds), (rad_u, holds_u) = results
    assert abs(rad_u.lower - rad.lower) <= 1e-12 * rad.upper
    assert abs(rad_u.upper - rad.upper) <= 1e-12 * rad.upper
    assert holds_u == holds


@pytest.mark.parametrize("n", range(2, 9))
def test_shift_stays_a_disk(n):
    # W(J_n) is the origin disk of radius cos(pi / (n + 1)). A unitary
    # similarity at A = I keeps it; so does the exact congruence A = D^2,
    # T = D^-1 J_n D with D = diag(2^-e), e in [-8, 0] in random order,
    # mild enough that rank(A) is not in question.
    rng = np.random.default_rng(n)
    j = np.diag(np.ones(n - 1), 1).astype(complex)
    u = _random_unitary(rng, n)
    exponents = rng.permutation(np.round(np.linspace(-8.0, 0.0, n)))
    for a, t in ((np.eye(n), u @ j @ u.conj().T), _congruence(np.eye(n), j, exponents)):
        disk = disk_test(make_a_operator(psd_decompose(a), t))
        assert disk.is_disk
        assert abs(disk.radius_k - math.cos(math.pi / (n + 1))) <= 1e-12


EXACT = settings(derandomize=True, deadline=None, max_examples=40)
ADJOINTABLE = ("random", "nilpotent_half", "shared_eigenbasis_selfadjoint")


@st.composite
def instances(draw, max_dim=6):
    """(A, T) from an adjointable construction at full or deficient rank."""
    construction = draw(st.sampled_from(ADJOINTABLE))
    n = draw(st.integers(2, max_dim))
    rank = n if draw(st.booleans()) else max(1, n // 2)
    seed = draw(st.integers(0, 2**16))
    return gen_instance(InstanceSpec(dim=n, rank_a=rank, construction=construction, seed=seed))


def _enclosure(a, t):
    ctx = psd_decompose(a)
    return ctx.rank, radius_theta_scan(make_a_operator(ctx, t))


def _assert_same(base, other, t, rel=1e-12):
    """Same rank, and the same enclosure to rel relative to w_A(T), or to
    32 n eps ||T|| when that is larger: forming C rounds at that level in T's
    units, and that is all that is left when w_A(T) = 0 exactly."""
    (rank, rad), (rank_o, rad_o) = base, other
    atol = max(rel * rad.upper, 32 * t.shape[0] * np.finfo(float).eps * spectral_norm(t))
    assert rank_o == rank
    assert abs(rad_o.lower - rad.lower) <= atol
    assert abs(rad_o.upper - rad.upper) <= atol


def _intersects(rad, lower, upper):
    return rad.lower <= upper and lower <= rad.upper


def _congruence(a, t, exponents):
    """A' = DAD and T' = D^-1 T D for D = diag(2^-e): exact in floating point,
    with w_{A'}(T') = w_A(T)."""
    d = 2.0 ** -np.asarray(exponents, dtype=float)
    return a * d[:, None] * d[None, :], t * d[None, :] / d[:, None]


def _graded(a, t, exponents):
    """The (rank, enclosure) pairs of (A, T) and of its ``_congruence``, for
    exponents whose smallest kept eigenvalue of A' stays >= 10^3 eps_A
    (eps_A = 32 n eps lambda_max, the rank cutoff), so that rank(A') is not
    in question."""
    base = _enclosure(a, t)
    a2, t2 = _congruence(a, t, exponents)
    n = a.shape[0]
    w = np.linalg.eigvalsh(a2)
    assume(w[n - base[0]] >= 1e3 * 32 * n * np.finfo(float).eps * w[-1])
    return base, _enclosure(a2, t2)


def test_graded_congruence_keeps_the_smallest_eigenvalue():
    # D = diag(2^0, 2^-7, 2^-13, 2^-20): lambda_min / lambda_max(A') = 2.3e-12.
    # A cutoff of 1e-10 lambda_max dropped it, kept rank 3 and returned
    # [3.2839392, 3.2839410], 6.5% below w_A(T) in [3.5124152, 3.5124194].
    a, t = gen_instance(InstanceSpec(dim=4, rank_a=4, seed=0))
    base, graded = _enclosure(a, t), _enclosure(*_congruence(a, t, (0, 7, 13, 20)))
    assert graded[0] == 4
    _assert_same(base, graded, t)


exponent_lists = st.lists(st.integers(0, 20), min_size=8, max_size=8)


@EXACT
@given(instances(), exponent_lists)
def test_graded_downward_congruence_is_exact(instance, exponents):
    # A' graded from large to small down the diagonal
    a, t = instance
    _assert_same(*_graded(a, t, sorted(exponents)[: a.shape[0]]), t)


@EXACT
@given(instances(), exponent_lists)
def test_congruence_in_any_order_keeps_rank_and_enclosure(instance, exponents):
    # In any other order the rank holds, but eigh loses relative accuracy in
    # the small eigenpairs (up to 1.9e-7 relative on w at n <= 6), so only
    # the certified intervals must agree.
    a, t = instance
    (rank, rad), (rank_g, rad_g) = _graded(a, t, exponents[: a.shape[0]])
    assert rank_g == rank
    assert _intersects(rad_g, rad.lower, rad.upper)


@EXACT
@given(instances(), st.data())
def test_permutation_similarity(instance, data):
    a, t = instance
    p = np.array(data.draw(st.permutations(range(a.shape[0]))))
    _assert_same(_enclosure(a, t), _enclosure(a[p][:, p], t[p][:, p]), t)


@EXACT
@given(instances())
def test_entrywise_conjugation(instance):
    # W_{conj A}(conj T) is the mirror image of W_A(T)
    a, t = instance
    _assert_same(_enclosure(a, t), _enclosure(a.conj(), t.conj()), t)


def _direct_sum(x, y):
    out = np.zeros((x.shape[0] + y.shape[0],) * 2, dtype=complex)
    out[: x.shape[0], : x.shape[0]] = x
    out[x.shape[0] :, x.shape[0] :] = y
    return out


@EXACT
@given(instances(max_dim=4), instances(max_dim=4))
def test_direct_sum_takes_the_larger_radius(first, second):
    # W_{A+B}(T+S) is the convex hull of W_A(T) and W_B(S)
    (a, t), (b, s) = first, second
    rad_t, rad_s = _enclosure(a, t)[1], _enclosure(b, s)[1]
    _, rad = _enclosure(_direct_sum(a, b), _direct_sum(t, s))
    assert _intersects(rad, max(rad_t.lower, rad_s.lower), max(rad_t.upper, rad_s.upper))


@EXACT
@given(instances())
def test_rotation_by_half_a_grid_step(instance):
    # e^{i phi} T rotates W_A(T); phi = pi / 1440 moves every grid angle of
    # the 720-angle scan to a cell midpoint
    a, t = instance
    rad = _enclosure(a, t)[1]
    rotated = _enclosure(a, t * np.exp(1j * math.pi / 1440))[1]
    assert _intersects(rotated, rad.lower, rad.upper)
