"""Instance generation and suite execution.

Constructions cover the sharpness regimes: block-nilpotent T with AT^2 = 0
(radius equals half the seminorm), simultaneously diagonalizable A and
Hermitian-spectrum T with AT = T*A (radius equals the seminorm), plus
generic random adjointable instances and deliberate non-adjointable probes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    BoundReport,
    CommutatorComparison,
    EqualityDiagnostic,
    equality_diagnostics,
    inequality_reports,
)
from .linalg import TolerancePolicy, as_count
from .radius import RadiusEstimate, radius_theta_scan, witness_value
from .space import (
    AOperator,
    NotAdjointableError,
    PsdContext,
    is_adjointable,
    make_a_operator,
    psd_decompose,
)

# Dimensions an instance may have, inclusive.
_DIM_MIN, _DIM_MAX = 2, 64

CONSTRUCTIONS = (
    "random",
    "nilpotent_half",
    "shared_eigenbasis_selfadjoint",
    "nonadjointable_probe",
)


class ProbeRetryError(RuntimeError):
    """Raised when a non-adjointable probe draw turns out adjointable."""


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one (A, T) pair."""

    dim: int
    rank_a: int
    construction: str = "random"
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        for name in ("dim", "rank_a", "seed"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if isinstance(self.scale, bool):
            raise TypeError(f"scale must be a number, got {self.scale!r}")
        if not _DIM_MIN <= self.dim <= _DIM_MAX:
            raise ValueError(f"dim must be in {_DIM_MIN}..{_DIM_MAX}, got {self.dim}")
        if not 0 <= self.rank_a <= self.dim:
            raise ValueError(f"rank_a must be in 0..dim, got {self.rank_a}")
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}")
        if self.construction == "nonadjointable_probe" and not 0 < self.rank_a < self.dim:
            raise ValueError("nonadjointable_probe requires 0 < rank_a < dim")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


def _complex_gaussian(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (scale / np.sqrt(2.0))


def _random_unitary(rng, n):
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_psd(rng, n, rank):
    """A = GG* truncated to the requested rank via its eigendecomposition."""
    if rank == 0:
        return np.zeros((n, n), dtype=np.complex128)
    g = _complex_gaussian(rng, (n, n))
    w, u = np.linalg.eigh(g @ g.conj().T)
    w[: n - rank] = 0.0  # eigenvalues ascending; drop the smallest
    a = (u * w) @ u.conj().T
    return (a + a.conj().T) / 2.0


def gen_instance(spec: InstanceSpec):
    """Generate (A, T) deterministically from the spec.

    random: rank-truncated Gaussian PSD A; Gaussian T compressed to
        P T P when A is singular so the instance stays adjointable.
    nilpotent_half: T = [[0, B], [0, 0]] in a 2-block split with A block
        diagonal and B = M* A2, so T^2 = 0 holds exactly in floating point,
        AT^2 = 0, and R(T*A) lands inside R(A) by construction.
    shared_eigenbasis_selfadjoint: A and T share a random unitary
        eigenbasis with real T-spectrum, so AT = T*A.
    nonadjointable_probe: Gaussian T against A of rank 0 < r < n, one draw;
        such a T fails the Douglas condition, and ProbeRetryError is raised
        should the draw pass it.
    """
    rng = np.random.default_rng(spec.seed)
    n, rank = spec.dim, spec.rank_a

    if spec.construction == "random":
        a = _random_psd(rng, n, rank)
        t = _complex_gaussian(rng, (n, n), spec.scale)
        if rank < n:
            p = psd_decompose(a).proj
            t = p @ t @ p
        return a, t

    if spec.construction == "nilpotent_half":
        k = n // 2
        m2 = n - k
        if rank >= 2:
            r1 = min(max(1, rank - m2), k)
            r2 = rank - r1
        else:
            r1, r2 = 0, rank
        a1 = _random_psd(rng, k, r1)
        a2 = _random_psd(rng, m2, r2)
        a = np.zeros((n, n), dtype=np.complex128)
        a[:k, :k] = a1
        a[k:, k:] = a2
        b = _complex_gaussian(rng, (m2, k)).conj().T @ a2 * spec.scale
        t = np.zeros((n, n), dtype=np.complex128)
        t[:k, k:] = b
        return a, t

    if spec.construction == "shared_eigenbasis_selfadjoint":
        u = _random_unitary(rng, n)
        lam = np.zeros(n)
        lam[:rank] = rng.uniform(0.1, 2.0, size=rank)
        lam = lam[rng.permutation(n)]
        mu = rng.standard_normal(n) * spec.scale
        a = (u * lam) @ u.conj().T
        a = (a + a.conj().T) / 2.0
        t = (u * mu) @ u.conj().T
        return a, t

    # nonadjointable_probe
    a = _random_psd(rng, n, rank)
    t = _complex_gaussian(rng, (n, n), spec.scale)
    if is_adjointable(psd_decompose(a), t):
        raise ProbeRetryError(f"the non-adjointable probe draw for {spec} is adjointable")
    return a, t


def gen_partner(ctx: PsdContext, seed) -> AOperator:
    """A Gaussian operator made adjointable for ctx by range compression."""
    rng = np.random.default_rng(seed)
    t = _complex_gaussian(rng, (ctx.dim, ctx.dim))
    if ctx.rank < ctx.dim:
        t = ctx.proj @ t @ ctx.proj
    return make_a_operator(ctx, t)


@dataclass(frozen=True)
class SuiteConfig:
    n_instances: int = 200
    dims: tuple = tuple(range(2, 9))
    seed: int = 42
    grid_n: int = 720
    constructions: tuple = ("random",)
    tol: TolerancePolicy = field(default_factory=TolerancePolicy)

    def __post_init__(self):
        for name, least in (("n_instances", 0), ("seed", 0), ("grid_n", 4)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, least))
        object.__setattr__(self, "dims", tuple(as_count(d, "each of dims") for d in self.dims))
        if not self.dims:
            raise ValueError("dims must not be empty")
        bad = [d for d in self.dims if not _DIM_MIN <= d <= _DIM_MAX]
        if bad:
            raise ValueError(f"dims must be in {_DIM_MIN}..{_DIM_MAX}, got {bad}")
        if not self.constructions:
            raise ValueError("constructions must not be empty")

    def instance_specs(self) -> list[InstanceSpec]:
        rng = np.random.default_rng(self.seed)
        specs = []
        for i in range(self.n_instances):
            dim = self.dims[i % len(self.dims)]
            construction = self.constructions[i % len(self.constructions)]
            low = 2 if construction == "nilpotent_half" else 1
            high = dim - 1 if construction == "nonadjointable_probe" else dim
            rank = int(rng.integers(low, high + 1))
            specs.append(
                InstanceSpec(
                    dim=dim,
                    rank_a=rank,
                    construction=construction,
                    seed=self.seed * 1_000_003 + i,
                )
            )
        return specs


@dataclass
class InstanceEvaluation:
    """Everything computed for one instance; `violations` lists any failed
    verdicts, each as a short identifier string. `witness_value` is the
    value of the scan's witness vector at `rad.theta_star`."""

    index: int
    spec: InstanceSpec
    adjointable: bool
    ctx: PsdContext | None = None
    op: AOperator | None = None
    partner: AOperator | None = None
    rad: RadiusEstimate | None = None
    witness_value: float | None = None
    reports: list[BoundReport] = field(default_factory=list)
    diagnostics: list[EqualityDiagnostic] = field(default_factory=list)
    comparison: CommutatorComparison | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def sampled(self) -> float | None:
        """Read-only alias of `witness_value`, kept because the benchmark's
        `verify_small` workload (bench/run.py) still reads `ev.sampled`;
        delete it with the next change to bench/."""
        return self.witness_value


def evaluate_instance(spec: InstanceSpec, config: SuiteConfig, index: int = 0) -> InstanceEvaluation:
    a, t = gen_instance(spec)
    ctx = psd_decompose(a, config.tol)
    try:
        op = make_a_operator(ctx, t)
    except NotAdjointableError:
        ev = InstanceEvaluation(index=index, spec=spec, adjointable=False, ctx=ctx)
        if spec.construction != "nonadjointable_probe":
            ev.violations.append(f"[{index}] unexpected non-adjointable instance")
        return ev

    rad = radius_theta_scan(op, config.grid_n)
    w = witness_value(op, rad.theta_star)
    partner = gen_partner(ctx, [spec.seed, 1])
    xy = gen_partner(ctx, [spec.seed, 2]), gen_partner(ctx, [spec.seed, 3])
    reports, comparison = inequality_reports(op, rad, xy, partner)
    ev = InstanceEvaluation(
        index=index, spec=spec, adjointable=True, ctx=ctx, op=op, partner=partner, rad=rad,
        witness_value=w, reports=reports, comparison=comparison,
    )

    if not (config.tol.at_most(rad.lower, w) and config.tol.at_most(w, rad.upper)):
        ev.violations.append(f"[{index}] witness value outside the certified enclosure")

    for diag in equality_diagnostics(op, rad):
        ev.diagnostics.append(diag)
        if diag.equality_holds and not diag.disk.is_disk:
            ev.violations.append(f"[{index}] equality {diag.case_id} without its necessity conditions")

    for report in ev.reports:
        if not report.holds:
            ev.violations.append(f"[{index}] {report.formula_id} violated (slack {report.slack:.3e})")
    return ev


@dataclass
class SuiteReport:
    config: SuiteConfig
    evaluations: list[InstanceEvaluation]
    counterexamples: list[str]
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Evaluate every instance of the configured ensemble and collect any
    violated verdicts as counterexamples (expected: none)."""
    config = config if config is not None else SuiteConfig()
    start = time.perf_counter()
    evaluations = [
        evaluate_instance(spec, config, index=i)
        for i, spec in enumerate(config.instance_specs())
    ]
    counterexamples = [v for ev in evaluations for v in ev.violations]
    return SuiteReport(
        config=config,
        evaluations=evaluations,
        counterexamples=counterexamples,
        wall_time=time.perf_counter() - start,
    )

