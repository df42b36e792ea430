"""The generic evaluation engines behind :func:`solve`, and the
compiled-program cache.

:func:`solve` is the one entry to the generic engines; its ``backend=``
names one of two:

* ``semi-naive`` -- stratified delta-driven fixpoint executed
                    set-at-a-time (:mod:`repro.datalog.setengine`:
                    interned constants, columnar batches,
                    relation-level hash joins, bitset unary relations);
                    the default engine, and the one the Section 5
                    programs run on;
* ``naive``      -- Jacobi-style re-derivation each round, one binding
                    at a time (:func:`naive_least_fixpoint`); the
                    reference the set engine is tested against.

Both share :class:`ProgramCache`, keyed by the program fingerprint and
the built-in registry, so repeated solves over different structures
skip rule planning and stratification -- the per-program cost that
Theorem 4.5 amortizes over "any number of structures".
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
    naive_least_fixpoint,
    prepare_program,
)
from .grounding import PreparedGrounding, prepare_grounding
from .guards import KeyDependency, key_cost_model
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
    under.

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


_DEFAULT_CACHE = ProgramCache()


def default_cache() -> ProgramCache:
    """The process-wide compiled-program cache."""
    return _DEFAULT_CACHE


# ----------------------------------------------------------------------
# The engines
# ----------------------------------------------------------------------

#: the engine names :func:`solve` accepts
_ENGINES = ("naive", "semi-naive")


def _check_query(program: Program, query: "Atom | str") -> None:
    """``query`` must name an intensional predicate of ``program``, and
    an atom must have that predicate's arity."""
    predicate = query.predicate if isinstance(query, Atom) else query
    head = next(
        (r.head for r in program.rules if r.head.predicate == predicate),
        None,
    )
    if head is None:
        raise ValueError(
            f"query predicate {predicate!r} is not intensional: "
            "not defined by any rule head"
        )
    if isinstance(query, Atom) and head.arity != query.arity:
        raise ValueError(
            f"query {query} has arity {query.arity} but "
            f"{query.predicate!r} is defined with arity {head.arity}"
        )


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
    """The least fixpoint of ``program`` over ``edb``, computed by the
    engine named ``backend``.

    ``edb`` is a :class:`Database`, a :class:`Structure`, an iterable
    of facts, or a pre-interned :class:`SetDatabase`; ``semi-naive``
    starts from a snapshot of the latter, ``naive`` decodes it once.
    ``query`` (a predicate name or an :class:`Atom`) is checked to name
    an intensional predicate of ``program`` with the right arity; both
    engines compute the full fixpoint either way.
    """
    if backend not in _ENGINES:
        raise ValueError(
            f"unknown evaluation backend {backend!r}; "
            f"available: {', '.join(_ENGINES)}"
        )
    if query is not None:
        _check_query(program, query)
    cache = cache if cache is not None else default_cache()
    prepared = cache.prepared(program, registry)
    if backend == "naive":
        if isinstance(edb, SetDatabase):
            edb = edb.decode()
        return naive_least_fixpoint(
            program, edb, registry, stats=stats, prepared=prepared
        )
    evaluator = SetSemiNaiveEvaluator.from_prepared(prepared)
    if stats is not None:
        evaluator.stats = stats
    return evaluator.run(SetDatabase.from_edb(edb)).decode()
