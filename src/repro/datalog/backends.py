"""The generic evaluation engines behind :func:`solve`, and the
compiled-program cache.

:func:`solve` is the one entry to the generic engines; its ``backend=``
names one of four:

* ``naive``            -- Jacobi-style re-derivation each round
                          (ablation baseline);
* ``semi-naive``       -- stratified delta-driven fixpoint executed
                          set-at-a-time (:mod:`repro.datalog.setengine`:
                          interned constants, columnar batches,
                          relation-level hash joins, bitset unary
                          relations); the default engine;
* ``semi-naive-tuple`` -- the tuple-at-a-time execution of the same
                          plans (:class:`SemiNaiveEvaluator`); kept as
                          the ablation baseline for the set-at-a-time
                          speedup benchmark;
* ``magic``            -- magic-set / demand transformation relative to
                          a query atom (:mod:`repro.datalog.magic`)
                          followed by set-at-a-time semi-naive
                          evaluation of the rewritten program:
                          goal-directed, derives only query-relevant
                          facts.

All of them share :class:`ProgramCache`, keyed by the program
fingerprint and the built-in registry (plus the query pattern for
magic rewrites), so repeated solves over different structures skip
rule planning, stratification, and the magic rewriting itself -- the
per-program cost that Theorem 4.5 amortizes over "any number of
structures".
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from .ast import Atom, Program, Variable
from .builtins import BuiltinRegistry, standard_registry
from .evaluate import (
    Database,
    EvaluationStats,
    PreparedProgram,
    SemiNaiveEvaluator,
    naive_least_fixpoint,
    prepare_program,
)
from .grounding import PreparedGrounding, prepare_grounding
from .guards import KeyDependency, key_cost_model
from .magic import MagicRewrite, magic_rewrite, normalize_query
from .setengine import SetDatabase, SetSemiNaiveEvaluator

#: the registry that ``registry=None`` resolves to inside the cache, so
#: default callers share cache entries instead of each fresh
#: ``standard_registry()`` object keying its own.
_SHARED_STANDARD = standard_registry()


# ----------------------------------------------------------------------
# Program fingerprinting and the compiled-program cache
# ----------------------------------------------------------------------


def _value_key(value) -> str:
    """A canonical, type-discriminating encoding of a constant value.

    ``str()``/``repr()`` alone are ambiguous (``0`` vs ``"0"``) or
    order-unstable (frozensets), which would let distinct programs
    collide in the cache; this recurses through the container values
    the set-valued programs of Section 5 use.
    """
    if isinstance(value, frozenset):
        return "fs{" + ",".join(sorted(map(_value_key, value))) + "}"
    if isinstance(value, tuple):
        return "t(" + ",".join(map(_value_key, value)) + ")"
    return f"{type(value).__qualname__}:{value!r}"


def _term_key(term) -> str:
    if isinstance(term, Variable):
        return f"v:{term.name}"
    return f"c:{_value_key(term.value)}"


def _atom_key(atom: Atom) -> str:
    return atom.predicate + "(" + ",".join(map(_term_key, atom.args)) + ")"


def _query_key(query: Atom) -> str:
    """Like :func:`_atom_key` but alpha-invariant: a free argument slot
    contributes only its position, so ``path(0, Y)`` and ``path(0, Z)``
    share one magic rewrite (variable names never reach the rewrite --
    only the adornment and the bound constants do)."""
    slots = (
        "f" if isinstance(arg, Variable) else "b:" + _value_key(arg.value)
        for arg in query.args
    )
    return query.predicate + "(" + ",".join(slots) + ")"


def program_fingerprint(program: Program) -> str:
    """A stable content hash of a program.

    Two programs with the same rules (in order) and built-in names get
    the same fingerprint regardless of object identity, so re-parsed or
    re-compiled programs hit the cache; constants of different types
    that print alike do not collide.
    """
    digest = hashlib.sha256()
    for rule in program.rules:
        digest.update(_atom_key(rule.head).encode())
        for literal in rule.body:
            digest.update(
                ("+" if literal.positive else "-").encode()
            )
            digest.update(_atom_key(literal.atom).encode())
        digest.update(b"\x00")
    for name in sorted(program.builtin_names):
        digest.update(name.encode())
        digest.update(b"\x01")
    return digest.hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: lookups that missed, built, and then found the entry already
    #: inserted by a concurrent thread (the build ran outside the lock,
    #: so two simultaneous first lookups may both pay it; the earlier
    #: insert wins and the later build is discarded -- and counted here)
    duplicate_builds: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class ProgramCache:
    """LRU cache of per-program compilation artifacts.

    Entries are keyed by ``(kind, program fingerprint, registry)``; the
    grounding kind adds the key dependencies its plans are ordered
    under and the magic-rewrite kind the query pattern (predicate,
    adornment, bound constants).

    Built-in registries enter the key by *identity*: two registries
    with the same predicate names may give them different semantics
    (``primality_registry`` bakes the schema into its built-ins), so
    name-based sharing would cross-contaminate.  ``registry=None``
    resolves to one shared standard registry, so default callers still
    share entries.  Cached artifacts keep their registry alive, which
    is what makes identity keys safe against id reuse.

    The cache is **thread-safe**: ``default_cache()`` is one
    process-wide instance and the solver service's scheduler threads
    hit it concurrently, so every touch of the LRU ``OrderedDict``s
    (get / ``move_to_end`` / insert / evict) happens under one
    re-entrant lock.  Builds run *outside* the lock -- planning a
    program can be expensive and must not serialize unrelated lookups
    -- so two threads racing on the same cold key may both build; the
    insert is re-checked under the lock, the first entry wins, and the
    loser is counted in ``stats.duplicate_builds``.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        # fingerprint memo keyed by object identity; holding the
        # Program pins its id, so entries can never be misattributed
        self._fingerprints: OrderedDict[int, tuple[Program, str]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._fingerprints.clear()
            self.stats = CacheStats()

    def __getstate__(self):
        # locks don't pickle; a cache crossing a process boundary (the
        # service worker handoff) starts empty on the other side
        return {"maxsize": self.maxsize}

    def __setstate__(self, state):
        self.__init__(state["maxsize"])

    def _fingerprint_of(self, program: Program) -> str:
        """Per-lookup fingerprinting would re-hash the whole program on
        every solve -- exactly the per-structure cost this cache
        amortizes -- so memoize by identity."""
        with self._lock:
            entry = self._fingerprints.get(id(program))
            if entry is not None:
                self._fingerprints.move_to_end(id(program))
                return entry[1]
        fingerprint = program_fingerprint(program)
        with self._lock:
            self._fingerprints[id(program)] = (program, fingerprint)
            if len(self._fingerprints) > self.maxsize:
                self._fingerprints.popitem(last=False)
        return fingerprint

    def _get_or_build(self, key: tuple, build: Callable[[], object]):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.stats.misses += 1
        entry = build()  # outside the lock: builds must not serialize
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # a concurrent thread built and inserted first; keep
                # its entry (callers may already hold references to it)
                self.stats.duplicate_builds += 1
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    @staticmethod
    def _resolve_registry(
        registry: BuiltinRegistry | None,
    ) -> BuiltinRegistry:
        return registry if registry is not None else _SHARED_STANDARD

    def prepared(
        self, program: Program, registry: BuiltinRegistry | None = None
    ) -> PreparedProgram:
        """Stratification + join plans, computed once per program."""
        registry = self._resolve_registry(registry)
        key = ("prepared", self._fingerprint_of(program), id(registry))
        return self._get_or_build(
            key, lambda: prepare_program(program, registry)
        )

    def grounding(
        self,
        program: Program,
        registry: BuiltinRegistry | None = None,
        *,
        dependencies: tuple[KeyDependency, ...] = (),
    ) -> PreparedGrounding:
        """Extensional join orders for the Theorem 4.4 pipeline, keyed
        like :meth:`prepared` plus the key ``dependencies`` the plans
        are ordered under (:func:`~repro.datalog.guards.key_cost_model`)
        -- one program planned with and without them is two entries."""
        registry = self._resolve_registry(registry)
        dependencies = tuple(dependencies)
        key = (
            "grounding",
            self._fingerprint_of(program),
            dependencies,
            id(registry),
        )
        return self._get_or_build(
            key,
            lambda: prepare_grounding(
                program, registry, cost=key_cost_model(dependencies)
            ),
        )

    def magic(
        self,
        program: Program,
        query: Atom,
        registry: BuiltinRegistry | None = None,
    ) -> tuple[MagicRewrite, PreparedProgram]:
        """The magic rewrite for (program, query), plus its prepared form."""
        registry = self._resolve_registry(registry)
        key = (
            "magic",
            self._fingerprint_of(program),
            _query_key(query),
            id(registry),
        )

        def build() -> tuple[MagicRewrite, PreparedProgram]:
            rewrite = magic_rewrite(program, query, registry)
            return rewrite, prepare_program(rewrite.program, registry)

        return self._get_or_build(key, build)


_DEFAULT_CACHE = ProgramCache()


def default_cache() -> ProgramCache:
    """The process-wide compiled-program cache."""
    return _DEFAULT_CACHE


# ----------------------------------------------------------------------
# The engines
# ----------------------------------------------------------------------

#: the engine names :func:`solve` accepts
_ENGINES = ("naive", "semi-naive", "semi-naive-tuple", "magic")


def _semi_naive_interned(
    program: Program,
    edb,
    *,
    registry: BuiltinRegistry | None,
    stats: EvaluationStats | None,
    cache: ProgramCache,
) -> SetDatabase:
    """The set-at-a-time fixpoint, still in interned-id space."""
    evaluator = SetSemiNaiveEvaluator.from_prepared(
        cache.prepared(program, registry)
    )
    if stats is not None:
        evaluator.stats = stats
    return evaluator.run(SetDatabase.from_edb(edb))


def _magic_interned(
    program: Program,
    edb,
    query: Atom,
    *,
    registry: BuiltinRegistry | None,
    stats: EvaluationStats | None,
    cache: ProgramCache,
) -> SetDatabase:
    """Demand-transform relative to the normalized ``query`` and
    evaluate without leaving id space.

    The magic predicates of a monadic program are nullary or unary, so
    the demand sets this evaluation propagates live as big-int bitsets
    inside the set engine from seed to answer; the adorned answers are
    aliased under the original predicate name while still interned."""
    rewrite, prepared = cache.magic(program, query, registry)
    evaluator = SetSemiNaiveEvaluator.from_prepared(prepared)
    if stats is not None:
        evaluator.stats = stats
    db = evaluator.run(SetDatabase.from_edb(edb))
    db.copy_relation(rewrite.answer_predicate, query.predicate)
    return db


def solve(
    program: Program,
    edb,
    *,
    backend: str = "semi-naive",
    query: "Atom | str | None" = None,
    registry: BuiltinRegistry | None = None,
    stats: EvaluationStats | None = None,
    cache: ProgramCache | None = None,
) -> Database:
    """Evaluate ``program`` over ``edb`` on the engine named ``backend``.

    ``query`` (a predicate name or an :class:`Atom` with bound
    constants) must name an intensional predicate of ``program`` on
    every engine; ``magic`` requires it and evaluates goal-directed,
    the other three compute the full least fixpoint.  The ``magic``
    result holds the extensional facts, the magic and adorned
    bookkeeping predicates, and -- under the original predicate name
    -- every fact of the query predicate the demanded bindings reach;
    other intensional predicates exist only in adorned form.

    ``semi-naive`` and ``magic`` accept a pre-interned
    :class:`SetDatabase` as ``edb`` and start from a snapshot of it.
    """
    if backend not in _ENGINES:
        raise ValueError(
            f"unknown evaluation backend {backend!r}; "
            f"available: {', '.join(_ENGINES)}"
        )
    if query is not None:
        query = normalize_query(program, query)
    cache = cache if cache is not None else default_cache()
    if backend == "magic":
        if query is None:
            raise ValueError(
                "the magic-set backend is goal-directed: pass query= "
                "either a predicate name or an Atom with bound constants"
            )
        return _magic_interned(
            program, edb, query, registry=registry, stats=stats, cache=cache
        ).decode()
    if backend == "semi-naive":
        return _semi_naive_interned(
            program, edb, registry=registry, stats=stats, cache=cache
        ).decode()
    prepared = cache.prepared(program, registry)
    if backend == "naive":
        return naive_least_fixpoint(
            program, edb, registry, stats=stats, prepared=prepared
        )
    evaluator = SemiNaiveEvaluator.from_prepared(prepared)
    if stats is not None:
        evaluator.stats = stats
    return evaluator.evaluate(edb)
