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
    bound_th1,
    bound_th2,
    bound_th3,
    bound_th4,
    classic_bounds,
    commutator_compare,
    commutator_th5,
    equality_half_norm,
    equality_quarter_form,
)
from .linalg import TolerancePolicy
from .radius import RadiusEstimate, radius_sampling, radius_theta_scan
from .space import (
    AOperator,
    NotAdjointableError,
    PsdContext,
    is_adjointable,
    make_a_operator,
    psd_decompose,
)

CONSTRUCTIONS = (
    "random",
    "nilpotent_half",
    "shared_eigenbasis_selfadjoint",
    "nonadjointable_probe",
)


class ProbeRetryError(RuntimeError):
    """Raised when the non-adjointable probe exhausts its retry budget."""


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one (A, T) pair."""

    dim: int
    rank_a: int
    construction: str = "random"
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        if not 2 <= self.dim <= 64:
            raise ValueError(f"dim must be in 2..64, got {self.dim}")
        if not 0 <= self.rank_a <= self.dim:
            raise ValueError(f"rank_a must be in 0..dim, got {self.rank_a}")
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}")
        if self.construction == "nonadjointable_probe" and self.rank_a >= self.dim:
            raise ValueError("nonadjointable_probe requires rank_a < dim")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


def _complex_gaussian(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (scale / np.sqrt(2.0))


def _random_unitary(rng, n):
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_psd(rng, n, rank, scale=1.0):
    """A = GG* truncated to the requested rank via its eigendecomposition."""
    if rank == 0:
        return np.zeros((n, n), dtype=np.complex128)
    g = _complex_gaussian(rng, (n, n), scale)
    w, u = np.linalg.eigh(g @ g.conj().T)
    w = w.copy()
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
    nonadjointable_probe: Gaussian T against singular A, regenerated until
        the Douglas condition fails (budget 100 attempts).
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
    for _ in range(100):
        a = _random_psd(rng, n, rank)
        ctx = psd_decompose(a)
        t = _complex_gaussian(rng, (n, n), spec.scale)
        if not is_adjointable(ctx, t):
            return a, t
    raise ProbeRetryError("failed to generate a non-adjointable probe in 100 attempts")


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
    n_samples: int = 10_000
    constructions: tuple = ("random",)
    tol: TolerancePolicy = field(default_factory=TolerancePolicy)
    equality_grid_n: int = 180

    def __post_init__(self):
        if not self.dims:
            raise ValueError("dims must not be empty")
        if not self.constructions:
            raise ValueError("constructions must not be empty")
        if self.n_instances < 0:
            raise ValueError(f"n_instances must be >= 0, got {self.n_instances}")

    def instance_specs(self) -> list[InstanceSpec]:
        rng = np.random.default_rng(self.seed)
        specs = []
        for i in range(self.n_instances):
            dim = int(self.dims[i % len(self.dims)])
            construction = self.constructions[i % len(self.constructions)]
            low = 2 if construction == "nilpotent_half" and dim >= 2 else 1
            high = dim - 1 if construction == "nonadjointable_probe" else dim
            rank = int(rng.integers(low, max(high, low) + 1))
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
    verdicts, each as a short identifier string."""

    index: int
    spec: InstanceSpec
    adjointable: bool
    ctx: PsdContext | None = None
    op: AOperator | None = None
    partner: AOperator | None = None
    op_x: AOperator | None = None
    op_y: AOperator | None = None
    rad: RadiusEstimate | None = None
    sampled: float | None = None
    reports: list[BoundReport] = field(default_factory=list)
    diagnostics: list[EqualityDiagnostic] = field(default_factory=list)
    comparison: CommutatorComparison | None = None
    violations: list[str] = field(default_factory=list)


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

    rad = radius_theta_scan(op, config.grid_n, refine=True)
    sampled = radius_sampling(op, config.n_samples, seed=spec.seed + 1)
    ev = InstanceEvaluation(
        index=index, spec=spec, adjointable=True, ctx=ctx, op=op, rad=rad, sampled=sampled
    )

    ev.reports.extend(classic_bounds(op, rad))
    ev.reports.append(bound_th1(op, rad))
    ev.reports.append(bound_th2(op, rad))
    ev.reports.append(bound_th3(op, rad))
    ev.reports.append(bound_th4(op, rad))

    scale = max(rad.upper, ctx.lam_max)
    if sampled > rad.upper + config.tol.check_rel_tol * scale:
        ev.violations.append(f"[{index}] sampling oracle exceeds certified upper bound")

    for diag in (
        equality_half_norm(op, rad, config.equality_grid_n),
        equality_quarter_form(op, rad, config.equality_grid_n),
    ):
        ev.diagnostics.append(diag)
        if diag.equality_holds and not (diag.re_im_constant and diag.disk.is_disk):
            ev.violations.append(f"[{index}] equality {diag.case_id} without its necessity conditions")

    ev.partner = gen_partner(ctx, [spec.seed, 1])
    ev.op_x = gen_partner(ctx, [spec.seed, 2])
    ev.op_y = gen_partner(ctx, [spec.seed, 3])
    for sign in ("+", "-"):
        ev.reports.extend(commutator_th5(op, ev.op_x, ev.op_y, sign, rad, config.grid_n))
    cmp = commutator_compare(op, ev.partner, rad, grid_n=config.grid_n)
    ev.comparison = cmp
    tolc = config.tol.check_rel_tol * max(cmp.zamani_bound, ctx.lam_max)
    if cmp.refined31 > cmp.zamani_bound + tolc or cmp.refined32 > cmp.zamani_bound + tolc:
        ev.violations.append(f"[{index}] refined commutator bound exceeds baseline")
    for w in (cmp.w_plus, cmp.w_minus):
        if w > min(cmp.refined31, cmp.refined32) + tolc:
            ev.violations.append(f"[{index}] commutator radius exceeds refined bound")

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


def search_half_norm_converse(
    dims=(2, 3, 4), n_trials: int = 200, seed: int = 0, grid_n: int = 720
) -> list[InstanceSpec]:
    """Randomized search for instances where ||Re_A(T)||_A = ||Im_A(T)||_A
    = ||T||_A / 2 at theta = 0 yet w_A(T) > ||T||_A / 2, i.e. witnesses that
    the single-angle condition does not imply the equality. Findings are
    reported, never asserted; an empty result at small dimension is a valid
    outcome.
    """
    found = []
    rng = np.random.default_rng(seed)
    tol = TolerancePolicy()
    for trial in range(n_trials):
        dim = int(rng.choice(dims))
        spec = InstanceSpec(dim=dim, rank_a=dim, construction="random", seed=seed + 7919 * trial)
        a, t = gen_instance(spec)
        ctx = psd_decompose(a, tol)
        op = make_a_operator(ctx, t)
        half = op.seminorm / 2.0
        if half == 0.0:
            continue
        re_n, im_n = op.part_norms[:2]
        margin = tol.equality_rel_tol * max(half, ctx.lam_max)
        if abs(re_n - half) > margin or abs(im_n - half) > margin:
            continue
        rad = radius_theta_scan(op, grid_n)
        if rad.lower > half + tol.check_rel_tol * max(half, ctx.lam_max):
            found.append(spec)
    return found
