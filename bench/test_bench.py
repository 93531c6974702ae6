"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import io
import json
import os
from contextlib import redirect_stdout

import numpy as np

import run
from layers import ROOT_SPAN, Tracer

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_children():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    tr = Tracer(clock=FakeClock([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0]))
    tr.enter("outer")
    tr.enter("a")
    tr.count("eigvalsh", 3)
    tr.exit()
    tr.enter("b")
    tr.enter("c")
    tr.count("eigvalsh", 2)
    tr.exit()
    tr.exit()
    tr.exit()
    tr.count("eigvalsh", 100)  # outside every span: not the library's work
    assert not tr.stack
    assert tr.total_s == {"outer": 10.0, "a": 3.0, "b": 4.0, "c": 1.0}
    assert tr.self_s == {"outer": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    assert tr.edges[("outer", "b")] == 1 and tr.edges[("b", "c")] == 1
    assert tr.counts[("a", "eigvalsh")] == 3 and tr.counts[("c", "eigvalsh")] == 2
    assert tr.counts[(ROOT_SPAN, "eigvalsh")] == 100
    assert tr.count_total("eigvalsh") == 5


def test_nested_span_of_same_name_counts_once_inclusive():
    tr = Tracer(clock=FakeClock([0.0, 2.0, 3.0, 5.0]))
    with tr.span("x"):
        with tr.span("x"):
            pass
    assert tr.total_s["x"] == 5.0
    assert tr.self_s["x"] == 5.0
    assert tr.calls["x"] == 2


def test_theta_scan_eigensolve_count_and_restore():
    a, t = run.harness.gen_instance(run.harness.InstanceSpec(dim=4, rank_a=4, seed=3))
    op = run.space.make_a_operator(run.space.psd_decompose(a), t)
    originals = (np.linalg.eigvalsh, run.radius.radius_theta_scan, run.bounds.phase_profile)
    tr = Tracer()
    with tr.installed(run.LIBRARY_MODULES):
        rad = run.radius.radius_theta_scan(op, grid_n=720)
    assert (np.linalg.eigvalsh, run.radius.radius_theta_scan, run.bounds.phase_profile) == originals
    assert tr.count_total("eigvalsh") == 770
    assert tr.counts[("radius.grid", "eigvalsh")] == 720
    assert tr.calls["radius.refine"] == 50
    assert rad == run.radius.radius_theta_scan(op, grid_n=720)


def test_tail_index_leaves_ten_beyond():
    assert run.tail_index(50) == 39
    assert run.tail_index(11) == 0
    assert run.tail_index(5) == 4


def _main(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_untraced_smoke_run_reports_every_end_to_end_metric():
    info, result = _main("--workload", "sharp_lowrank", "--seed", "5", "--seconds", "0.01")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["numpy"] == np.__version__


def test_traced_counts_repeat_exactly(monkeypatch):
    monkeypatch.setattr(run.VerifySmall, "pass_items", 7)
    runs = [_main("--workload", "verify_small", "--seed", "9", "--seconds", "0.01", "--trace", "1")[1]
            for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["attempted"] == 14
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER_UNITS
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    # 8 scans of 720 + 50 and two equality checks of 3 x 180 per instance.
    assert counts[0]["linalg.eigvalsh_mats"] == 7 * (8 * 770 + 2 * 540)
    assert counts[0]["bounds.commutator.scans"] == 7 * 6


def test_benchmark_json_matches_the_script():
    with open(BENCHMARK_JSON) as fp:
        spec = json.load(fp)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
