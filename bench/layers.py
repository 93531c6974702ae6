"""Outside-in layer trace for the anumrad benchmark.

The library has no tracing of its own, so the benchmark wraps its public
functions at every module binding that callers use (``harness`` and
``bounds`` import by name), plus ``numpy.linalg.eigvalsh``/``eigh``/``svd``
to count matrices. Spans are aggregated in memory per name: inclusive time,
self time (inclusive minus the time covered by child spans), call counts,
parent->child call counts, and per-span counters. Counters are attributed
to the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import numpy as np

ROOT_SPAN = "root"

# Public function -> span name. Each wraps every module binding of the
# function, so both in-library calls and the benchmark's own calls are seen.
SPAN_OF = {
    "psd_decompose": "space.psd_decompose",
    "make_a_operator": "space.make_a_operator",
    "is_adjointable": "space.is_adjointable",
    "radius_theta_scan": "radius.theta_scan",
    "radius_sampling": "radius.sampling",
    "range_cloud": "radius.range_cloud",
    "disk_test": "radius.disk_test",
    "classic_bounds": "bounds.sandwich",
    "bound_th1": "bounds.sandwich",
    "bound_th2": "bounds.sandwich",
    "bound_th3": "bounds.sandwich",
    "bound_th4": "bounds.sandwich",
    "equality_half_norm": "bounds.equality",
    "equality_quarter_form": "bounds.equality",
    "commutator_lemma": "bounds.commutator",
    "commutator_th5": "bounds.commutator",
    "commutator_compare": "bounds.commutator",
    "gen_instance": "harness.gen_instance",
    "gen_partner": "harness.gen_partner",
    "evaluate_instance": "harness.evaluate_instance",
}

LINALG_COUNTED = ("eigvalsh", "eigh", "svd")


class Tracer:
    """Span stack plus aggregate tables; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames [name, start, child_seconds]
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.edges = Counter()  # (parent, child) -> calls
        self.counts = Counter()  # (span, kind) -> amount

    @property
    def current(self) -> str:
        return self.stack[-1][0] if self.stack else ROOT_SPAN

    def enter(self, name: str) -> None:
        self.edges[(self.current, name)] += 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self.stack.pop()
        dur = self.clock() - start
        # A span nested in one of its own name is already inside that
        # span's inclusive time; count it only once there.
        if all(frame[0] != name for frame in self.stack):
            self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, kind: str, amount: int = 1) -> None:
        self.counts[(self.current, kind)] += amount

    def count_total(self, kind: str) -> int:
        """Total of one counter over all spans, leaving out the root: work
        done outside every traced call is not the library's."""
        return sum(v for (span, k), v in self.counts.items() if k == kind and span != ROOT_SPAN)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def wrap_phase_profile(self, fn):
        """Under a theta scan, a multi-angle call is the grid and a
        single-angle call is one refinement step; elsewhere (equality and
        disk checks) the call belongs to the enclosing span."""

        @functools.wraps(fn)
        def traced(op, thetas):
            if self.current != "radius.theta_scan":
                return fn(op, thetas)
            name = "radius.grid" if np.size(thetas) > 1 else "radius.refine"
            self.enter(name)
            try:
                return fn(op, thetas)
            finally:
                self.exit()

        return traced

    def wrap_linalg(self, fn, kind: str):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            self.count(kind, int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
            return fn(a, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, modules):
        """Patch every binding of the traced functions in ``modules`` and in
        ``numpy.linalg``; restore the originals on exit."""
        patches = []
        for mod in modules:
            for attr, name in SPAN_OF.items():
                if hasattr(mod, attr):
                    patches.append((mod, attr, self.wrap(getattr(mod, attr), name)))
            if hasattr(mod, "phase_profile"):
                patches.append((mod, "phase_profile", self.wrap_phase_profile(mod.phase_profile)))
        for kind in LINALG_COUNTED:
            patches.append((np.linalg, kind, self.wrap_linalg(getattr(np.linalg, kind), kind)))
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapped in patches:
                setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, original in originals:
                setattr(mod, attr, original)
