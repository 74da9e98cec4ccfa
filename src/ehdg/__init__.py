"""Exponentially convergent element-local fixed-point solvers for
hybridized DG transport and linearized shallow water discretizations."""

from .basis import TensorBasis, gauss_quadrature, gll_nodes
from .driver import (
    ERROR_DIFFERENCE,
    STOPPING_MODES,
    SUCCESSIVE_DIFFERENCE,
    TRACE_RESIDUAL,
    ConvergenceFailure,
    ConvergenceLog,
    IterationConfig,
    RateFit,
    fit_exponential_rate,
    iterate_to_fixed_point,
    solve,
    transport_error_eval,
    volume_l2,
)
from .mesh import MeshError, StructuredMesh, build_mesh
from .oracle import (
    GlobalTraceSystem,
    OracleSizeError,
    assemble_trace_system,
    direct_solve,
    flux_jump_residual,
    verify_cell,
)
from .problems import (
    ProblemCase,
    build_case,
    case_identifiers,
    catalog,
    convergence_study,
    run_cell,
)
from .shallow import (
    ContractionReport,
    ShallowOperators,
    ShallowProblem,
    contraction_constants,
)
from .transport import (
    AssemblyError,
    LocalOperators,
    TraceField,
    TransportOperators,
    TransportProblem,
)

__all__ = [
    "AssemblyError",
    "ContractionReport",
    "ConvergenceFailure",
    "ConvergenceLog",
    "ERROR_DIFFERENCE",
    "GlobalTraceSystem",
    "IterationConfig",
    "LocalOperators",
    "MeshError",
    "OracleSizeError",
    "ProblemCase",
    "RateFit",
    "STOPPING_MODES",
    "SUCCESSIVE_DIFFERENCE",
    "ShallowOperators",
    "ShallowProblem",
    "StructuredMesh",
    "TRACE_RESIDUAL",
    "TensorBasis",
    "TraceField",
    "TransportOperators",
    "TransportProblem",
    "assemble_trace_system",
    "build_case",
    "build_mesh",
    "case_identifiers",
    "catalog",
    "contraction_constants",
    "convergence_study",
    "direct_solve",
    "fit_exponential_rate",
    "flux_jump_residual",
    "gauss_quadrature",
    "gll_nodes",
    "iterate_to_fixed_point",
    "run_cell",
    "solve",
    "transport_error_eval",
    "verify_cell",
    "volume_l2",
]

__version__ = "0.1.0"
