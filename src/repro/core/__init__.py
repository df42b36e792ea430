"""Core contribution: Theorem 4.4 pipeline, Theorem 4.5 compiler, solver."""

from .mso_to_datalog import (
    ANSWER_PREDICATE,
    CompiledQuery,
    CompilerLimitError,
    CompilerStats,
    MSOToDatalogCompiler,
    grid_graph_filter,
    undirected_graph_filter,
)
from .quasi_guarded import QuasiGuardedEvaluator, QuasiGuardedResult
from .solver import CourcelleSolver
from .typealg import (
    TypeAlgebra,
    TypeEntry,
    TypeTable,
    fold_partition,
    reduce_witness,
)

__all__ = [
    "ANSWER_PREDICATE",
    "CompiledQuery",
    "CompilerLimitError",
    "CompilerStats",
    "CourcelleSolver",
    "MSOToDatalogCompiler",
    "QuasiGuardedEvaluator",
    "QuasiGuardedResult",
    "TypeAlgebra",
    "TypeEntry",
    "TypeTable",
    "fold_partition",
    "grid_graph_filter",
    "reduce_witness",
    "undirected_graph_filter",
]
