"""Acceptance gate: the nine release criteria, one test each, each printing
a single PASS/FAIL line. The shared fixture runs the default 200-instance
verification ensemble once (dims 2 through 8, random ranks, seed 42)."""

import json
import math
import time

import numpy as np
import pytest

from anumrad import (
    InstanceSpec,
    SuiteConfig,
    classic_bounds,
    disk_test,
    gen_instance,
    make_a_operator,
    psd_decompose,
    radius_sampling,
    radius_theta_scan,
    run_suite,
    seminorm_mat,
    spectral_norm,
)
from anumrad.cli import EXIT_OK, main

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.fixture(scope="module")
def suite():
    return run_suite(SuiteConfig())


def _verdict(number: int, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nacceptance criterion {number}: {status}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:10])


def test_criterion_1_jordan_ground_truth():
    failures = []
    start = time.perf_counter()
    op = make_a_operator(psd_decompose(np.eye(2)), JORDAN)
    rad = radius_theta_scan(op)
    if abs(op.seminorm - 1.0) > 1e-12:
        failures.append(f"seminorm {op.seminorm} != 1")
    if not (rad.lower <= 0.5 <= rad.upper):
        failures.append(f"enclosure [{rad.lower}, {rad.upper}] misses 0.5")
    if rad.upper - rad.lower > 1e-5:
        failures.append(f"enclosure width {rad.upper - rad.lower} > 1e-5")
    if abs(spectral_norm(op.h_re) - 0.5) > 1e-12 or abs(spectral_norm(op.h_im) - 0.5) > 1e-12:
        failures.append("Cartesian part norms differ from 0.5")
    reports = {r.formula_id: r for r in classic_bounds(op, rad)}
    for fid in ("eqv_lower", "eqv1_lower"):
        if not reports[fid].tight:
            failures.append(f"{fid} not tight (slack {reports[fid].slack})")
    disk = disk_test(op)
    if not disk.is_disk or abs(disk.radius_k - 0.5) > 1e-6:
        failures.append(f"disk test {disk}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(1, failures)


def test_criterion_2_weighted_variant():
    failures = []
    op = make_a_operator(psd_decompose(np.diag([2.0, 1.0])), JORDAN)
    rad = radius_theta_scan(op)
    target = 1.0 / math.sqrt(2.0)
    if np.abs(op.sharp - np.array([[0.0, 0.0], [2.0, 0.0]])).max() > 1e-14:
        failures.append(f"sharp deviates: {op.sharp}")
    if abs(op.seminorm - math.sqrt(2.0)) > 1e-10:
        failures.append(f"seminorm {op.seminorm} != sqrt2")
    if not (rad.lower - 1e-5 <= target <= rad.upper + 1e-5):
        failures.append(f"enclosure [{rad.lower}, {rad.upper}] misses 1/sqrt2")
    sampled = radius_sampling(op, 1_000_000, seed=0)
    if not (target - 1e-2 <= sampled <= rad.upper + 1e-12):
        failures.append(f"sampling oracle {sampled} outside [target - 1e-2, upper]")
    _verdict(2, failures)


def test_criterion_3_sharpness_constructions():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(3)

    for i in range(50):
        dim = 2 + i % 5
        rank = int(rng.integers(2, dim + 1))
        a, t = gen_instance(InstanceSpec(dim=dim, rank_a=rank, construction="nilpotent_half", seed=300 + i))
        op = make_a_operator(psd_decompose(a), t)
        report = classic_bounds(op, radius_theta_scan(op))[0]
        if not report.tight:
            failures.append(f"nilpotent {i} eqv_lower slack {report.slack:.3e} of scale {report.scale:.3e}")

    for i in range(50):
        dim = 2 + i % 5
        rank = int(rng.integers(1, dim + 1))
        a, t = gen_instance(
            InstanceSpec(dim=dim, rank_a=rank, construction="shared_eigenbasis_selfadjoint", seed=600 + i)
        )
        op = make_a_operator(psd_decompose(a), t)
        report = classic_bounds(op, radius_theta_scan(op))[1]
        if not report.tight:
            failures.append(f"selfadjoint {i} eqv_upper slack {report.slack:.3e} of scale {report.scale:.3e}")

    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.1f}s >= 20s")
    _verdict(3, failures)


def test_criterion_4_full_suite(suite, tmp_path):
    failures = []
    for ev in suite.evaluations:
        for report in ev.reports:
            if not report.holds:
                failures.append(f"[{ev.index}] {report.formula_id} slack {report.slack:.3e}")
    if suite.counterexamples:
        failures.append(f"counterexamples: {suite.counterexamples[:5]}")
    if suite.wall_time >= 60.0:
        failures.append(f"suite wall time {suite.wall_time:.1f}s >= 60s")

    out = tmp_path / "suite.json"
    code = main(["verify", "--n", "200", "--dims", "2..8", "--seed", "42", "--out", str(out)])
    if code != EXIT_OK:
        failures.append(f"verify exit code {code}")
    else:
        payload = json.loads(out.read_text())
        if payload["counterexamples"]:
            failures.append(f"CLI counterexamples: {payload['counterexamples'][:5]}")
    _verdict(4, failures)


def test_criterion_5_refinement_dominance(suite):
    failures = []
    for ev in suite.evaluations:
        reports = {r.formula_id: r for r in ev.reports}
        half = ev.op.seminorm / 2.0
        quarter = ev.op.form_norm / 4.0
        lam = ev.ctx.lam_max
        for fid, base in (("th1", half), ("th3", half)):
            rep = reports[fid]
            if rep.rhs < base - 1e-10 * max(rep.scale, lam):
                failures.append(f"[{ev.index}] {fid} rhs below classical bound")
        for fid in ("th2", "th4"):
            rep = reports[fid]
            if rep.rhs**2 < quarter - 1e-10 * max(rep.scale, lam):
                failures.append(f"[{ev.index}] {fid} rhs^2 below classical bound")
    _verdict(5, failures)


def test_criterion_6_commutator_comparison(suite):
    failures = []
    pairs = [ev for ev in suite.evaluations if ev.comparison is not None][:100]
    if len(pairs) < 100:
        failures.append(f"only {len(pairs)} comparison pairs available")
    for ev in pairs:
        cmp = ev.comparison
        slack = 1e-10 * max(cmp.zamani_bound, ev.ctx.lam_max)
        if cmp.refined31 > cmp.zamani_bound + slack:
            failures.append(f"[{ev.index}] refined31 {cmp.refined31} > zamani {cmp.zamani_bound}")
        if cmp.refined32 > cmp.zamani_bound + slack:
            failures.append(f"[{ev.index}] refined32 {cmp.refined32} > zamani {cmp.zamani_bound}")
        for label, w in (("w_plus", cmp.w_plus), ("w_minus", cmp.w_minus)):
            if w > cmp.refined31 + slack or w > cmp.refined32 + slack:
                failures.append(f"[{ev.index}] {label} {w} exceeds a refined bound")
    _verdict(6, failures)


def test_criterion_7_oracle_consistency(suite):
    failures = []
    hits = total = 0
    for ev in suite.evaluations:
        scale = max(ev.rad.upper, ev.ctx.lam_max)
        if ev.sampled > ev.rad.upper + 1e-9 * scale:
            failures.append(f"[{ev.index}] sampled {ev.sampled} exceeds upper {ev.rad.upper}")
        if ev.spec.dim <= 3:
            total += 1
            dense = radius_sampling(ev.op, 100_000, seed=ev.spec.seed + 5)
            if dense >= 0.98 * ev.rad.lower:
                hits += 1
    if total == 0 or hits < 0.95 * total:
        failures.append(f"dense sampling hit rate {hits}/{total} below 95%")
    _verdict(7, failures)


def test_criterion_8_enclosure_doubling(suite):
    failures = []
    for ev in suite.evaluations:
        fine = radius_theta_scan(ev.op, grid_n=1440)
        if fine.lower < ev.rad.lower:
            failures.append(f"[{ev.index}] lower decreased by {ev.rad.lower - fine.lower:.3e}")
        if fine.upper > ev.rad.upper:
            failures.append(f"[{ev.index}] upper increased by {fine.upper - ev.rad.upper:.3e}")
        width = fine.upper - fine.lower
        if fine.upper > 0.0 and width / fine.upper > 3e-6:
            failures.append(f"[{ev.index}] relative width {width / fine.upper:.3e} > 3e-6")
    _verdict(8, failures)


def test_criterion_9_structural_identities(suite):
    failures = []
    for ev in suite.evaluations:
        ctx, op = ev.ctx, ev.op
        a, pinv, proj = ctx.a, ctx.pinv_a, ctx.proj
        lam = ctx.lam_max
        if spectral_norm(a @ pinv @ a - a) > 1e-9 * lam:
            failures.append(f"[{ev.index}] Penrose 1 fails")
        if spectral_norm(pinv @ a @ pinv - pinv) > 1e-9 * max(spectral_norm(pinv), lam):
            failures.append(f"[{ev.index}] Penrose 2 fails")
        for prod in (a @ pinv, pinv @ a):
            if spectral_norm(prod - prod.conj().T) > 1e-9 * max(1.0, lam):
                failures.append(f"[{ev.index}] Penrose Hermitianness fails")

        scale_t = max(spectral_norm(op.t), spectral_norm(op.sharp), lam)
        sharp2 = pinv @ op.sharp.conj().T @ a
        if spectral_norm(sharp2 - proj @ op.t @ proj) > 1e-9 * scale_t:
            failures.append(f"[{ev.index}] double adjoint deviates from PTP")

        partner = ev.partner
        prod_sharp = pinv @ (op.t @ partner.t).conj().T @ a
        scale_p = max(spectral_norm(prod_sharp), spectral_norm(partner.sharp @ op.sharp), lam)
        if spectral_norm(prod_sharp - partner.sharp @ op.sharp) > 1e-9 * scale_p:
            failures.append(f"[{ev.index}] reverse-order law fails")

        cstar = seminorm_mat(ctx, op.sharp @ op.t)
        if abs(cstar - op.seminorm**2) > 1e-9 * max(op.seminorm**2, lam):
            failures.append(f"[{ev.index}] C*-identity residual {abs(cstar - op.seminorm**2):.3e}")
    _verdict(9, failures)
