"""Metamorphic checks. Every inequality and equality case is homogeneous in T,
unchanged when A is rescaled and unchanged under a unitary change of basis,
so no verdict may move under T -> cT, A -> cA or (A, T) -> (U*AU, U*TU)."""

import numpy as np
import pytest

from anumrad import (
    InstanceSpec,
    bound_th1,
    bound_th2,
    bound_th3,
    bound_th4,
    classic_bounds,
    commutator_th5,
    disk_test,
    equality_half_norm,
    equality_quarter_form,
    gen_instance,
    gen_partner,
    is_adjointable,
    make_a_operator,
    psd_decompose,
    radius_theta_scan,
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
    for sign in ("+", "-"):
        reports += commutator_th5(op, op_x, op_y, sign, rad)
    diags = [equality_half_norm(op, rad, 180), equality_quarter_form(op, rad, 180)]
    verdicts = {
        "adjointable": is_adjointable(ctx, t),
        "reports": [(r.formula_id, r.holds, r.tight) for r in reports],
        "diagnostics": [(d.equality_holds, d.re_im_constant, d.disk.is_disk) for d in diags],
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
