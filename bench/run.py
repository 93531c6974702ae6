#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of anumrad.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_small --seed 1 --seconds 25 --trace 0

Each workload is a closed loop: one process evaluates one item at a time,
and the next item starts when the previous one has finished. Inputs come
from ``--seed`` only. Every item's output is checked; an exception or a
violated check counts the item as failed. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the environment and run details.

``--trace 0`` loops for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` repeats one fixed pass of items, first untraced and then
traced, until ``--seconds`` have passed, and reports per-layer metrics per
pass (see README.md in this directory for what each one should move).

The library is imported from ``src/`` of the same checkout and driven only
through its public functions; BLAS runs at its default thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "cpu_s_per_item": "s",
    "peak_rss_mb": "MB",
    "enclosure_relwidth_max": "ratio",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "radius.grid.s": "s",
    "radius.grid.eig_mats": "count",
    "radius.refine.s": "s",
    "radius.refine.evals": "count",
    "radius.theta_scan.calls": "count",
    "radius.theta_scan.self_s": "s",
    "bounds.commutator.s": "s",
    "bounds.commutator.scans": "count",
    "bounds.equality.s": "s",
    "bounds.equality.eig_mats": "count",
    "radius.disk_test.s": "s",
    "radius.disk_test.eig_mats": "count",
    "radius.sampling.s": "s",
    "radius.range_cloud.s": "s",
    "radius.range_cloud.eig_mats": "count",
    "space.psd_decompose.s": "s",
    "space.make_a_operator.s": "s",
    "space.make_a_operator.calls": "count",
    "space.is_adjointable.s": "s",
    "bounds.sandwich.s": "s",
    "bounds.sandwich.svd_mats": "count",
    "harness.gen_instance.s": "s",
    "harness.gen_partner.s": "s",
    "harness.evaluate_instance.self_s": "s",
    "io.serialize.s": "s",
    "io.serialize.bytes": "bytes",
    "linalg.eigvalsh_mats": "count",
    "linalg.eigh_mats": "count",
    "linalg.svd_mats": "count",
    "trace.overhead_frac": "ratio",
}


def import_library():
    """Import anumrad from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "anumrad", "__init__.py")):
        raise SystemExit(f"bench: anumrad sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import anumrad
    from anumrad import bounds, harness, io, radius, space

    if os.path.dirname(os.path.abspath(anumrad.__file__)) != os.path.join(SRC, "anumrad"):
        raise SystemExit(f"bench: anumrad imported from {anumrad.__file__}, not {SRC}")
    return bounds, harness, io, radius, space


bounds, harness, aio, radius, space = import_library()

from layers import Tracer  # noqa: E402  (needs numpy only; kept beside this file)

# Every module that binds a traced function; see layers.SPAN_OF.
LIBRARY_MODULES = (bounds, harness, radius, space)


# ---------------------------------------------------------------- checks


def a_seminorm(a, t) -> float:
    """||T||_A from an eigendecomposition of A made here, independent of
    ``AOperator.seminorm``: sigma_max(L^{1/2} Q* T Q L^{-1/2}) with
    A = Q L Q* on range(A). Valid for A-adjointable T, which maps null(A)
    into null(A)."""
    w, u = np.linalg.eigh((a + a.conj().T) / 2.0)
    keep = w > 1e-10 * w[-1]
    q, r = u[:, keep], np.sqrt(w[keep])
    m = r[:, None] * (q.conj().T @ t @ q) / r[None, :]
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _slack_tol(ctx, value: float) -> float:
    return ctx.tol.check_rel_tol * max(value, ctx.lam_max)


def _check_reports(reports) -> list[str]:
    return [f"{r.formula_id} violated (slack {r.slack:.3e})" for r in reports if not r.holds]


def _check_oracle(ctx, rad, sampled) -> list[str]:
    if sampled > rad.upper + _slack_tol(ctx, rad.upper):
        return [f"sampling oracle {sampled!r} above upper {rad.upper!r}"]
    return []


# ------------------------------------------------------------- workloads


class VerifySmall:
    """The ``anumrad verify`` ensemble with ``SuiteConfig`` defaults. Item i
    is instance i mod 200 of the suite for seed ``seed + pass * 100_003``;
    one pass is one default suite."""

    name = "verify_small"
    pass_items = harness.SuiteConfig().n_instances
    warmup_items = len(harness.SuiteConfig().dims)  # one per shape (dimension)

    def __init__(self, seed: int):
        self.seed = seed
        self.suites = {}
        self.evaluations = []
        self.suite_start = time.perf_counter()

    def prepare(self, i: int):
        p, k = divmod(i, self.pass_items)
        if p not in self.suites:
            config = harness.SuiteConfig(seed=self.seed + p * 100_003)
            self.suites[p] = (config, config.instance_specs())
        config, specs = self.suites[p]
        return config, specs[k], k

    def run(self, item):
        config, spec, index = item
        ev = harness.evaluate_instance(spec, config, index)
        self.evaluations.append(ev)
        failures = list(ev.violations)
        if not ev.adjointable:
            return math.nan, math.nan, failures + ["instance not adjointable"]
        failures += _check_oracle(ev.ctx, ev.rad, ev.sampled)
        return ev.rad.lower, ev.rad.upper, failures

    def finish(self, tracer) -> list[str]:
        """Serialize the suite report of the items evaluated since the last
        call, as ``anumrad verify --out`` does, and drop them, so that
        memory does not grow with the number of items a run reaches."""
        if not self.evaluations:
            return []
        config = self.suites[max(self.suites)][0]
        counterexamples = [v for ev in self.evaluations for v in ev.violations]
        wall_s = time.perf_counter() - self.suite_start
        report = harness.SuiteReport(config, self.evaluations, counterexamples, wall_s)
        if tracer is None:
            text = json.dumps(aio.suite_report_to_dict(report))
        else:
            with tracer.span("io.serialize"):
                text = json.dumps(aio.suite_report_to_dict(report))
                tracer.count("bytes", len(text))
        n_serialized = json.loads(text)["n_instances"]
        self.evaluations = []
        self.suite_start = time.perf_counter()
        if n_serialized != len(report.evaluations):
            return ["serialized suite report lost instances"]
        return []


class CertifyN64:
    """Full-rank A and Gaussian T at dim 64 through the ``radius`` and
    ``bounds`` CLI path."""

    name = "certify_n64"
    dim = 64
    rank_a = 64
    pass_items = 8
    warmup_items = 1

    def __init__(self, seed: int):
        self.seed = seed

    def construction(self, i: int) -> str:
        return "random"

    def prepare(self, i: int):
        spec = harness.InstanceSpec(
            dim=self.dim, rank_a=self.rank_a, construction=self.construction(i),
            seed=self.seed * 1_000_003 + i,
        )
        a, t = harness.gen_instance(spec)
        return spec, a, t

    def certify(self, spec, a, t):
        ctx = space.psd_decompose(a)
        op = space.make_a_operator(ctx, t)
        rad = radius.radius_theta_scan(op)
        sampled = radius.radius_sampling(op, 10_000, seed=spec.seed + 1)
        reports = bounds.classic_bounds(op, rad)
        failures = _check_reports(reports) + _check_oracle(ctx, rad, sampled)
        return ctx, op, rad, reports, failures

    def run(self, item):
        spec, a, t = item
        ctx, op, rad, reports, failures = self.certify(spec, a, t)
        refined = [f(op, rad) for f in (bounds.bound_th1, bounds.bound_th2, bounds.bound_th3, bounds.bound_th4)]
        failures += _check_reports(refined)
        return rad.lower, rad.upper, failures

    def finish(self, tracer) -> list[str]:
        return []


class SharpLowrank(CertifyN64):
    """Dim 64, rank(A) = 16; items alternate between the two sharpness
    families, whose radius is known in closed form."""

    name = "sharp_lowrank"
    rank_a = 16
    # family -> (closed form w_A(T) / ||T||_A, classic reports expected tight)
    FAMILIES = {
        "nilpotent_half": (0.5, ("eqv_lower", "eqv1_lower")),
        "shared_eigenbasis_selfadjoint": (1.0, ("eqv_upper", "eqv1_upper")),
    }

    def construction(self, i: int) -> str:
        return tuple(self.FAMILIES)[i % 2]

    def run(self, item):
        spec, a, t = item
        ctx, op, rad, reports, failures = self.certify(spec, a, t)
        diag = bounds.equality_half_norm(op, rad, 180)
        cloud = radius.range_cloud(op)

        ratio, tight_ids = self.FAMILIES[spec.construction]
        expected = ratio * a_seminorm(a, t)
        if not rad.lower <= expected <= rad.upper:
            failures.append(f"closed form {expected!r} outside [{rad.lower!r}, {rad.upper!r}]")
        tight = {r.formula_id for r in reports if r.tight}
        failures += [f"{fid} not tight" for fid in tight_ids if fid not in tight]
        if spec.construction == "nilpotent_half" and not (diag.re_im_constant and diag.disk.is_disk):
            failures.append("half-norm equality without constant Re/Im profile or disk")
        reach = float(abs(cloud.points).max())
        if reach > rad.upper + _slack_tol(ctx, rad.upper):
            failures.append(f"range cloud point at |z| = {reach!r} above upper {rad.upper!r}")
        return rad.lower, rad.upper, failures


WORKLOADS = {w.name: w for w in (VerifySmall, CertifyN64, SharpLowrank)}


# ---------------------------------------------------------------- running


def run_checked(workload, item):
    """One item; an exception is recorded as the item's failure, and every
    failure is reported on standard error."""
    try:
        lower, upper, failures = workload.run(item)
    except Exception as exc:  # noqa: BLE001  (the loop must go on and count it)
        traceback.print_exc(file=sys.stderr)
        lower, upper, failures = math.nan, math.nan, [f"exception: {exc!r}"]
    if failures:
        print(f"bench: {workload.name} item failed: {failures}", file=sys.stderr)
    return lower, upper, failures


def warm_up(make, seed: int) -> list[str]:
    """Build a workload and evaluate one item of each matrix shape it uses."""
    w = make(seed)
    failures = []
    for i in range(w.warmup_items):
        failures += run_checked(w, w.prepare(i))[2]
    return failures


def measure_setup(make, seed: int):
    """Median wall time of ``SETUP_REPS`` warm-ups, and their failures."""
    times, failures = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        failures += warm_up(make, seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times), failures


def tail_index(n: int) -> int:
    """Index into n ascending samples of the highest percentile with at
    least ten samples beyond it (the maximum when n <= 10)."""
    return n - 11 if n > 10 else n - 1


def relwidth_max(enclosures) -> float:
    return max(
        ((up - lo) / up for lo, up in enclosures if up > 0.0 and not math.isnan(up)),
        default=math.nan,
    )


def timed_run(make, seed: int, seconds: float):
    setup_s, setup_failures = measure_setup(make, seed)
    w = make(seed)
    latencies, enclosures, failed, finish_failures = [], [], 0, []
    cpu0 = os.times()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        item = w.prepare(i)
        t0 = time.perf_counter()
        lower, upper, failures = run_checked(w, item)
        latencies.append(time.perf_counter() - t0)
        enclosures.append((lower, upper))
        failed += bool(failures)
        i += 1
        if i % w.pass_items == 0:
            finish_failures += w.finish(None)
    finish_failures += w.finish(None)
    wall = time.perf_counter() - start
    cpu1 = os.times()

    n = len(latencies)
    ordered = sorted(latencies)
    k = tail_index(n)
    cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": n / wall,
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_tail": 1e3 * ordered[k],
        "cpu_s_per_item": cpu_s / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "enclosure_relwidth_max": relwidth_max(enclosures),
        "ok_frac": (n - failed) / n,
    }
    details = {
        "items": n,
        "failed_frac": failed / n,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_items_beyond": n - 1 - k,
        "wall_s": wall,
        "cpu_per_wall": cpu_s / wall,
        "setup_failures": setup_failures,
        "finish_failures": finish_failures,
    }
    correct = failed == 0 and not setup_failures and not finish_failures
    return correct, n, failed, metrics, END_TO_END_UNITS, details


def run_pass(w, tracer):
    """One fixed pass of ``w.pass_items`` items; returns enclosures,
    failed-item count, finish failures and wall time."""
    enclosures, failed = [], 0
    start = time.perf_counter()
    for i in range(w.pass_items):
        lower, upper, failures = run_checked(w, w.prepare(i))
        enclosures.append((lower, upper))
        failed += bool(failures)
    finish_failures = w.finish(tracer)
    return enclosures, failed, finish_failures, time.perf_counter() - start


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values of one traced pass (``trace.overhead_frac`` aside).
    Counts made by the benchmark itself, outside any library span, are
    excluded from the ``linalg`` totals."""
    t, c = tr.total_s, tr.counts
    return {
        "radius.grid.s": t["radius.grid"],
        "radius.grid.eig_mats": c[("radius.grid", "eigvalsh")],
        "radius.refine.s": t["radius.refine"],
        "radius.refine.evals": tr.calls["radius.refine"],
        "radius.theta_scan.calls": tr.calls["radius.theta_scan"],
        "radius.theta_scan.self_s": tr.self_s["radius.theta_scan"],
        "bounds.commutator.s": t["bounds.commutator"],
        "bounds.commutator.scans": tr.edges[("bounds.commutator", "radius.theta_scan")],
        "bounds.equality.s": t["bounds.equality"],
        "bounds.equality.eig_mats": c[("bounds.equality", "eigvalsh")],
        "radius.disk_test.s": t["radius.disk_test"],
        "radius.disk_test.eig_mats": c[("radius.disk_test", "eigvalsh")],
        "radius.sampling.s": t["radius.sampling"],
        "radius.range_cloud.s": t["radius.range_cloud"],
        "radius.range_cloud.eig_mats": c[("radius.range_cloud", "eigh")],
        "space.psd_decompose.s": t["space.psd_decompose"],
        "space.make_a_operator.s": t["space.make_a_operator"],
        "space.make_a_operator.calls": tr.calls["space.make_a_operator"],
        "space.is_adjointable.s": t["space.is_adjointable"],
        "bounds.sandwich.s": t["bounds.sandwich"],
        "bounds.sandwich.svd_mats": c[("bounds.sandwich", "svd")],
        "harness.gen_instance.s": t["harness.gen_instance"],
        "harness.gen_partner.s": t["harness.gen_partner"],
        "harness.evaluate_instance.self_s": tr.self_s["harness.evaluate_instance"],
        "io.serialize.s": t["io.serialize"],
        "io.serialize.bytes": c[("io.serialize", "bytes")],
        "linalg.eigvalsh_mats": tr.count_total("eigvalsh"),
        "linalg.eigh_mats": tr.count_total("eigh"),
        "linalg.svd_mats": tr.count_total("svd"),
    }


def traced_run(make, seed: int, seconds: float):
    """Alternate an untraced and a traced pass over the same items until
    ``seconds`` have passed. Times are medians over traced passes; counts
    must repeat exactly from pass to pass, and the traced enclosures must
    equal the untraced ones bit for bit."""
    failures = warm_up(make, seed)
    passes, walls_plain, walls_traced = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain, failed_plain, finish_plain, wall_plain = run_pass(make(seed), None)
        tracer = Tracer()
        with tracer.installed(LIBRARY_MODULES):
            traced, failed_traced, finish_traced, wall_traced = run_pass(make(seed), tracer)
        if tracer.stack:
            failures.append("unbalanced trace spans")
        if plain != traced:
            failures.append("traced enclosures differ from untraced ones")
        failures += finish_plain + finish_traced
        attempted += len(plain) + len(traced)
        failed += failed_plain + failed_traced
        walls_plain.append(wall_plain)
        walls_traced.append(wall_traced)
        passes.append(layer_metrics(tracer))

    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if PER_LAYER_UNITS[name] == "count":
            if len(set(values)) != 1:
                failures.append(f"count {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = sum(walls_traced) / sum(walls_plain) - 1.0
    details = {
        "passes": len(passes),
        "items_per_pass": make(seed).pass_items,
        "wall_plain_s": walls_plain,
        "wall_traced_s": walls_traced,
        "failures": failures,
    }
    correct = failed == 0 and not failures
    return correct, attempted, failed, metrics, PER_LAYER_UNITS, details


# ------------------------------------------------------------ environment


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; ``unknown`` when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info():
    """BLAS vendor and version as numpy reports them, and OpenBLAS's current
    thread count when numpy bundles OpenBLAS (None otherwise)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        vendor = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return vendor, threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    vendor, threads = blas_info()
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


# -------------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    make = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    correct, attempted, failed, values, units, details = run(make, args.seed, args.seconds)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), **details}
    print(json.dumps(info))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
