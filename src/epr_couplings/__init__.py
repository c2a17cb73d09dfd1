"""Exact compatibility analysis between EPR outcome vectors and imposed
marginal constraints, over explicit 256-entry couplings."""

from .scalars import (
    DEFAULT_TOLERANCE,
    SQRT2,
    Scalar,
    ScalarModeError,
    ScalarParseError,
    as_scalar,
)
from .model import (
    ConnectionVector,
    CouplingTable,
    MarginalSpec,
    OutcomeVector,
    VariableId,
    connection_marginals,
    decode,
    index_of,
    outcome_marginals,
)
from .stats import (
    Compliance,
    CorrelationQuad,
    SPair,
    chsh_satisfied,
    compatible,
    enumerate_E0,
    noforcing_counterexample,
    qm_compliant,
    realize_s_pair,
    s_pair,
    tsirelson_satisfied,
)
from .lp import (
    ConflictingMarginalsError,
    ConstraintSystem,
    FeasibilityResult,
    InfeasibleSystemError,
    build_system,
    feasible,
    optimize,
)

__version__ = "0.1.0"

__all__ = [
    "Scalar",
    "ScalarModeError",
    "ScalarParseError",
    "as_scalar",
    "SQRT2",
    "DEFAULT_TOLERANCE",
    "VariableId",
    "OutcomeVector",
    "ConnectionVector",
    "CouplingTable",
    "MarginalSpec",
    "index_of",
    "decode",
    "connection_marginals",
    "outcome_marginals",
    "Compliance",
    "CorrelationQuad",
    "SPair",
    "s_pair",
    "chsh_satisfied",
    "tsirelson_satisfied",
    "qm_compliant",
    "compatible",
    "enumerate_E0",
    "realize_s_pair",
    "noforcing_counterexample",
    "ConstraintSystem",
    "ConflictingMarginalsError",
    "InfeasibleSystemError",
    "FeasibilityResult",
    "build_system",
    "feasible",
    "optimize",
    "__version__",
]
