"""The Theorem 4.4 evaluation pipeline.

A quasi-guarded program P over a structure A is evaluated in
O(|P| * |A|): instantiate each rule's guard against the database (at
most |A| instantiations, each determining every variable of the rule),
then solve the resulting ground program by linear-time unit resolution.
This module packages the two halves
(:mod:`repro.datalog.grounding` + :mod:`repro.datalog.horn`) behind a
checked facade and is what the generic Theorem 4.5 programs run on.

Grounding is streamed (the solve path of
:class:`repro.core.solver.CourcelleSolver`): a push-based emitter
feeding an online LTUR (:class:`~repro.datalog.horn.StreamingHorn`) --
ground rules are instantiated on demand as their driving intensional
atoms derive, whole rules are demand-pruned relative to ``demand``
(backward reachability from the demanded predicates,
:func:`~repro.datalog.grounding.relevant_predicates`), and peak
live-rule residency is the waiting frontier, not the ground program.
Its conformance oracles are the independent generic engines behind
:func:`repro.datalog.solve` (``semi-naive`` and its ``naive``
reference).

One :class:`~repro.datalog.interning.InternPool` is threaded from
structure load through grounding, unit resolution, and result decoding
-- a fact is interned exactly once per solve, the grounding -> horn
boundary is pure integers, and :class:`QuasiGuardedResult` decodes
lazily on access (a ``query()`` for one unary predicate never
materializes the rest of the model).
"""

from __future__ import annotations

import dataclasses
import pickle

from ..datalog.ast import Program
from ..datalog.budget import as_meter
from ..datalog.builtins import BuiltinRegistry, standard_registry
from ..datalog.evaluate import Database
from ..datalog.grounding import (
    GroundingStats,
    ground_program_streamed,
    prepare_grounding,
    resolve_demand,
)
from ..datalog.guards import (
    KeyDependency,
    is_quasi_guarded,
    key_cost_model,
    td_key_dependencies,
)
from ..datalog.interning import InternPool
from ..datalog.setengine import SetDatabase
from ..structures.structure import Fact, Structure


class QuasiGuardedResult:
    """The derived intensional model of one Theorem 4.4 solve.

    The model is kept as dense atom ids (``pool`` + ``flags``) and
    decoded **lazily**: ``holds`` and ``unary_answers`` answer straight
    off the interned model, and the full ``facts`` set is only
    materialized on first access.

    A *demand-pruned* solve (``demand`` set) is exact only for the
    demanded predicates and their relevance cone; predicates outside it
    are simply absent from the model.

    ``stats`` carries the solve's :class:`GroundingStats` (ground
    rules, pruning and residency counters).
    """

    __slots__ = ("pool", "stats", "_flags", "_facts")

    def __init__(
        self,
        pool: InternPool,
        flags: bytearray,
        stats: GroundingStats | None = None,
    ):
        #: the solve's shared interning context
        self.pool = pool
        self.stats = stats
        self._flags = flags
        self._facts: frozenset[Fact] | None = None

    @property
    def facts(self) -> frozenset[Fact]:
        """The derived facts, decoded (and cached) on first access."""
        if self._facts is None:
            decode = self.pool.decode_atom
            self._facts = frozenset(
                decode(i) for i, flag in enumerate(self._flags) if flag
            )
        return self._facts

    def holds(self, predicate: str, *args) -> bool:
        id_of = self.pool.interner.id_of
        ids = []
        for value in args:
            ident = id_of(value)
            if ident is None:  # value never occurred in this solve
                return False
            ids.append(ident)
        atom = self.pool.lookup_atom(predicate, tuple(ids))
        return atom is not None and bool(self._flags[atom])

    def unary_answers(self, predicate: str) -> frozenset:
        """The elements ``x`` with ``predicate(x)`` in the model.

        Raises :class:`ValueError` if the model holds a fact of
        ``predicate`` with arity != 1 -- silently truncating a
        non-unary fact to its first argument would mask a compiler or
        program bug.
        """
        pool = self.pool
        value_of = pool.interner.value_of
        return frozenset(
            value_of(i)
            for i in pool.unary_arg_ids(predicate, self._flags)
        )


class QuasiGuardedEvaluator:
    """Evaluate a quasi-guarded program per Theorem 4.4.

    ``dependencies`` are the key constraints used to witness functional
    dependence (Definition 4.3); they default to the ``A_td``
    constraints for the given bag arity.  ``demand`` restricts grounding
    to rules relevant to the given query predicate(s); the result is
    then exact only for those predicates and their relevance cone.

    The per-rule join orders are planned once per program under the
    static cost model of the same ``dependencies``
    (:func:`~repro.datalog.guards.key_cost_model`): key probes of
    ``child1``/``child2`` before ``bag``, ``leaf``/``root`` before the
    ``bag`` scan.  With no dependencies the plans keep the textual
    tie-break.  The plans are made once, here; each solve only binds
    the program's distinct join steps to the structure (see
    :class:`~repro.datalog.grounding.PreparedGrounding`).

    The evaluator pickles with its plans and its resolved demand, so a
    service worker that loads it neither re-plans, re-resolves demand
    nor re-checks quasi-guardedness.  The standard built-in registry
    (``registry=None``) holds closures: it is left out of the pickle
    and attached again on load.  An evaluator given its own
    ``registry`` refuses to pickle rather than come back with another.
    """

    def __init__(
        self,
        program: Program,
        bag_arity: int | None = None,
        dependencies: tuple[KeyDependency, ...] | None = None,
        registry: BuiltinRegistry | None = None,
        require_quasi_guarded: bool = True,
        demand=None,
    ):
        self.program = program
        if dependencies is None:
            dependencies = (
                td_key_dependencies(bag_arity) if bag_arity is not None else ()
            )
        self.registry = registry
        self.demand = demand
        if require_quasi_guarded and not is_quasi_guarded(program, dependencies):
            raise ValueError(
                "program is not quasi-guarded under the declared key "
                "dependencies (Definition 4.3)"
            )
        # body ordering is per-program work: do it once, here
        self._prepared = prepare_grounding(
            program, registry, cost=key_cost_model(dependencies)
        )
        # demand resolution (the backward relevance traversal) is also
        # per-program work: resolve it here, not per structure
        self._relevant = resolve_demand(program, demand)

    def __getstate__(self):
        if self.registry is not None:
            raise pickle.PicklingError(
                "a QuasiGuardedEvaluator with its own built-in registry "
                "cannot be pickled: only the standard registry is "
                "attached again on load"
            )
        bare = dataclasses.replace(self._prepared, registry=None)
        return self.demand, bare, self._relevant

    def __setstate__(self, state):
        self.demand, bare, self._relevant = state
        self.program = bare.program
        self.registry = None
        self._prepared = dataclasses.replace(
            bare, registry=standard_registry()
        )

    def evaluate(
        self, data: Structure | Database | SetDatabase, budget=None
    ) -> QuasiGuardedResult:
        """Evaluate over one structure/database.

        ``budget`` -- a :class:`~repro.datalog.budget.SolveBudget` (armed
        here) or an already-armed
        :class:`~repro.datalog.budget.BudgetMeter` (so one clock can
        span decompose -> encode -> solve) -- makes the grounding and
        propagation loops raise
        :class:`~repro.datalog.budget.BudgetExceeded` cooperatively
        instead of running away on a pathological input."""
        meter = as_meter(budget)
        stats = GroundingStats()
        # one interning context per solve: structure load, grounding,
        # horn, and result decoding all share sdb.interner via the pool
        sdb = (
            data
            if isinstance(data, SetDatabase)
            else SetDatabase.from_edb(data)
        )
        pool = InternPool(sdb.interner)
        sink = ground_program_streamed(
            self._prepared,
            sdb,
            pool,
            stats=stats,
            relevant=self._relevant,
            meter=meter,
        )
        flags = sink.flags(len(pool))
        return QuasiGuardedResult(pool, flags, stats)
