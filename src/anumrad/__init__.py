"""Toolkit for operators on semi-Hilbertian spaces (H, <.,.>_A).

Computes A-adjoints, A-seminorms and the A-numerical radius with certified
enclosures, and verifies the associated lower bounds, equality
characterizations and commutator upper bounds on randomized ensembles.
"""

from .bounds import (
    BoundReport,
    CommutatorComparison,
    ContextMismatchError,
    EqualityDiagnostic,
    bound_th1,
    bound_th2,
    bound_th3,
    bound_th4,
    classic_bounds,
    commutator_compare,
    commutator_th5,
    equality_diagnostics,
    equality_half_norm,
    inequality_reports,
)
from .harness import (
    CONSTRUCTIONS,
    InstanceEvaluation,
    InstanceSpec,
    ProbeRetryError,
    SuiteConfig,
    SuiteReport,
    evaluate_instance,
    gen_instance,
    gen_partner,
    run_suite,
)
from .linalg import (
    DimensionMismatchError,
    LinAlgInputError,
    NotHermitianError,
    NotPsdError,
    ScaleRangeError,
    TolerancePolicy,
    spectral_norm,
)
from .radius import (
    DegenerateRankError,
    DiskTestResult,
    RadiusEstimate,
    RangeCloud,
    disk_test,
    phase_profile,
    radius_sampling,
    radius_theta_scan,
    range_cloud,
    witness_value,
)
from .space import (
    AOperator,
    NotAdjointableError,
    PsdContext,
    a_inner,
    a_norm_vec,
    is_a_selfadjoint,
    is_adjointable,
    make_a_operator,
    psd_decompose,
    seminorm_mat,
)

__version__ = "0.1.0"
