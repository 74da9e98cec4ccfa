"""Exponentially convergent element-local fixed-point solvers for
hybridized DG transport and linearized shallow water discretizations."""

from .basis import TensorBasis
from .driver import (
    ConvergenceFailure,
    ConvergenceLog,
    IterationConfig,
    iterate_to_fixed_point,
    solve,
)
from .mesh import MeshError
from .operators import AssemblyError, LocalOperators, OperatorSizeError
from .oracle import (
    OracleSizeError,
    assemble_trace_system,
    direct_solve,
    flux_jump_residual,
    verify_cell,
)
from .problems import build_case, catalog, convergence_study, run_cell
from .shallow import ShallowOperators
from .transport import TransportOperators

__all__ = [
    "AssemblyError",
    "ConvergenceFailure",
    "ConvergenceLog",
    "IterationConfig",
    "LocalOperators",
    "MeshError",
    "OperatorSizeError",
    "OracleSizeError",
    "ShallowOperators",
    "TensorBasis",
    "TransportOperators",
    "assemble_trace_system",
    "build_case",
    "catalog",
    "convergence_study",
    "direct_solve",
    "flux_jump_residual",
    "iterate_to_fixed_point",
    "run_cell",
    "solve",
    "verify_cell",
]

__version__ = "0.1.0"
