"""Persistent solver service: the Theorem 4.5 serving layer.

Theorem 4.5's amortization claim -- compile once, solve any number of
width-w structures in linear data complexity -- only pays off in
production if the per-batch costs go to zero too.  This package keeps
long-lived worker processes resident (each rebuilt once from the
:class:`~repro.core.solver.CourcelleSolver` pickle handoff: compiled
program, prepared grounding plans and demand-relevance set --
compilation never happens on the request path) behind an asynchronous
batch scheduler that coalesces individual solve requests per compiled
program into shards, dispatches them to idle workers, and resolves one
future per request in input order.

The serving layer is fault-tolerant: per-request deadlines
(:class:`DeadlineExceeded`), capped retries with exponential backoff
and shard splitting, poison-input quarantine (:class:`PoisonInput`),
cooperative solve budgets (:class:`repro.datalog.SolveBudget` /
:class:`repro.datalog.BudgetExceeded`), and a deterministic
fault-injection harness (:mod:`repro.service.faults`, armed only by
``SolverService(faults=)``).  See the "Failure semantics"
section of ``README.md`` in this directory for the contract, and
``benchmarks/bench_solver_service.py`` for the throughput + resilience
harness that CI gates (``service_throughput`` / ``service_resilience``
in ``BENCH_engine.json``).
"""

from .faults import FaultPlan, FaultSpec
from .service import (
    DeadlineExceeded,
    PoisonInput,
    ProgramHandle,
    QuarantineRecord,
    ServiceClosed,
    ServiceSaturated,
    ServiceStats,
    ShardFailed,
    SolverService,
    coalesce,
    default_worker_count,
    structure_fingerprint,
)

__all__ = [
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpec",
    "PoisonInput",
    "ProgramHandle",
    "QuarantineRecord",
    "ServiceClosed",
    "ServiceSaturated",
    "ServiceStats",
    "ShardFailed",
    "SolverService",
    "coalesce",
    "default_worker_count",
    "structure_fingerprint",
]
