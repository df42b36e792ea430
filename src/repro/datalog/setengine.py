"""Set-at-a-time semi-naive evaluation (the product engine).

A tuple-at-a-time evaluator (the ``naive`` reference in
:mod:`repro.datalog.evaluate`) walks a rule's join plan one binding
dict at a time: every extension copies a ``Binding`` dict, every head
instantiation goes through ``Atom.substitute``.  Those per-tuple
constant factors are exactly what Section 6 of the paper warns decide
the practical viability of the monadic-datalog route, so this module
executes the join plans
(:func:`repro.datalog.evaluate.prepare_program` -- planning and step
compilation are shared, only execution differs) relation-at-a-time:

* Constants are interned into dense integer ids
  (:class:`repro.datalog.interning.Interner`) when the extensional
  database is loaded, so facts are int tuples and unary relations are
  mirrored as big-int bitsets.
* Each plan step consumes and produces a *columnar batch* of bindings:
  a dict of variable slot -> column list (parallel lists, one entry per
  surviving binding; a slot is a small int, so column lookups hash
  cheaply), or -- while the batch tracks a single variable of
  a unary chain -- a plain bitset.  Monadic rule bodies such as
  ``q(X) :- p(X), r(X), not s(X)`` then run as word-parallel ``&`` /
  ``& ~`` on ints with no per-row Python at all.
* Relation steps are hash joins at the relation level: the bound
  positions and the sorted key of the probed index are fixed when the
  plan is compiled (:class:`~repro.datalog.evaluate.CompiledStep`),
  one incrementally-maintained index is fetched per step, and the
  batch probes it.  There is one index kind: the hash index of a
  search signature, keyed by its sorted bound positions
  (:meth:`SetDatabase.index_for`);
  :func:`~repro.treewidth.encode.load_normalized` and
  :func:`~repro.treewidth.encode.load_nice` prefill the node-keyed
  ones.
* Steps are gather kernels, built in two passes with no Python loop
  per row and column: one C-level pass collects every row's matches
  (facts, or built-in solutions), then each carried column is built by
  :func:`~repro.datalog.builtins.gather_columns` -- passed through
  unchanged when every row matched exactly once, compressed when each
  matched at most once, gathered by repeated row indices otherwise --
  and each new column with ``map(itemgetter(pos), hits)``.  Semi-joins
  and negations are one membership ``map`` and a compress.  No kernel
  mutates a column it was handed: a passed-through list is shared with
  the input batch, and one batch may feed several prefix groups.
* Built-in steps run the kernel
  (:class:`repro.datalog.builtins.BuiltinCall`): the binding mask was checked when the step was compiled,
  bound-argument fast paths skip enumeration, ``add`` and
  ``partition3`` solve sets interned as bitsets in ids, and results
  are memoized for one :meth:`SetSemiNaiveEvaluator.run`, keyed by the
  rows' input ids.
* A round's derived facts are flushed per predicate with set algebra
  (:meth:`SetDatabase.merge`); the next round's delta adopts the
  fresh sets.

Strata run in order.  Fire-once strata and round 0 run the round-0
plans (skipping a rule whose positive relation atoms include a
still-empty relation: it cannot fire), and every later round fires
each rule's delta variants (the recursive atom first, read from the
round's delta).  The engine fires the variants through their prefix
trie (:class:`~repro.datalog.evaluate.PrefixGroup`): steps that several
variants share up to variable renaming run once per round, and
``bindings_explored`` counts them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter, not_
from typing import Iterable

from ..structures.structure import Fact, Structure
from .ast import Program
from .builtins import BuiltinRegistry, gather_columns
from .evaluate import (
    CompiledHead,
    CompiledStep,
    Database,
    EvaluationStats,
    PreparedProgram,
    PrefixGroup,
    UnsafeRuleError,
    prepare_program,
)
from .interning import Interner, bitset_of, iter_bits

__all__ = [
    "Batch",
    "BitBatch",
    "IndexStats",
    "SetDatabase",
    "SetSemiNaiveEvaluator",
    "least_fixpoint",
]

_EMPTY_SET: frozenset = frozenset()


@dataclass
class IndexStats:
    """Index build accounting for one :class:`SetDatabase`.

    ``rebuilds`` counts builds of a ``(predicate, positions)`` pattern
    that had already been built on this database -- i.e. an index that
    was invalidated and paid for again.  A healthy fixpoint keeps this
    flat: :meth:`SetDatabase.merge` extends existing indexes
    incrementally instead of dropping them, so churny delta rounds
    never rebuild."""

    builds: int = 0
    rebuilds: int = 0


# ----------------------------------------------------------------------
# Interned fact storage
# ----------------------------------------------------------------------


class SetDatabase:
    """Facts over interned ids, with bitset mirrors of unary relations
    and incrementally-maintained per-predicate hash indexes.

    :meth:`merge` touches only the indexes of the inserted facts'
    predicate (they are registered per predicate), keeping bulk
    insertion linear.  Arity-1 facts additionally set their element's
    bit in the predicate's bitset, which is what the monadic fast paths
    of the evaluator operate on.
    """

    __slots__ = (
        "interner",
        "_facts",
        "_bits",
        "_indexes",
        "_ever_built",
        "index_stats",
    )

    def __init__(self, interner: Interner | None = None):
        self.interner = interner if interner is not None else Interner()
        self._facts: dict[str, set[tuple[int, ...]]] = {}
        self._bits: dict[str, int] = {}
        #: predicate -> {positions -> {key -> rows}}; keys are scalar
        #: ids for single-position indexes, tuples otherwise.
        self._indexes: dict[str, dict[tuple[int, ...], dict]] = {}
        #: (predicate, positions) patterns ever built on this database
        #: -- a second build of the same pattern is a rebuild
        self._ever_built: set = set()
        self.index_stats = IndexStats()

    @classmethod
    def from_edb(
        cls, edb: "Database | Structure | Iterable[Fact]"
    ) -> "SetDatabase":
        """Intern an extensional database.

        For a :class:`Structure` the whole domain is interned first (in
        a deterministic order), so the structure's elements occupy the
        dense low ids of every bitset; constants introduced later by
        built-ins extend the id space above them.

        When every constant is already a dense non-negative int (the
        shape of every generated reachability workload), an identity
        interner is seeded instead and the input fact tuples are
        adopted as the interned tuples -- loading and decoding then
        copy sets at C speed with no per-tuple translation.  An
        ``A_td`` encoding never takes that path: its tree nodes are
        :class:`~repro.treewidth.encode.TDNode` values, not ints.  The
        solver loads ``A_td`` with
        :func:`repro.treewidth.encode.load_normalized` instead, which
        interns it in one pass over the normalized decomposition.
        """
        if isinstance(edb, SetDatabase):
            # already interned: snapshot instead of re-interning (load
            # the structure once, hand each evaluation a cheap copy)
            return edb.snapshot()
        if isinstance(edb, Structure):
            relations = {
                name: edb.relation(name) for name in edb.signature
            }
            domain = edb.domain
        elif isinstance(edb, Database):
            relations = {
                predicate: edb.relation(predicate)
                for predicate in edb.predicates()
            }
            domain = None
        else:
            relations = {}
            for fact in edb:
                relations.setdefault(fact.predicate, set()).add(fact.args)
            domain = None

        values: set = set() if domain is None else set(domain)
        for rel in relations.values():
            for tup in rel:
                values.update(tup)
        dense = values and all(
            type(v) is int and v >= 0 for v in values
        ) and max(values) < 8 * len(values) + 1024

        if dense:
            db = cls(Interner.identity(max(values) + 1))
            for predicate, rel in relations.items():
                db.merge(predicate, rel)
            return db

        db = cls()
        intern = db.interner.intern
        if domain is not None:
            for element in sorted(domain, key=repr):
                intern(element)
        for predicate, rel in relations.items():
            db.merge(predicate, (tuple(map(intern, tup)) for tup in rel))
        return db

    @classmethod
    def from_interned(
        cls,
        interner: Interner,
        facts: dict[str, set[tuple[int, ...]]],
        indexes: dict[str, dict[tuple[int, ...], dict]] | None = None,
    ) -> "SetDatabase":
        """Adopt relations that are already in ``interner``'s id space.

        ``facts`` maps each predicate to its set of id tuples; the sets
        are adopted, not copied, and empty ones are dropped.  Unary
        relations get their bitsets here.  ``indexes`` optionally
        pre-fills hash indexes in the :meth:`index_for` layout
        (predicate -> positions -> key -> rows).  The caller
        guarantees that every id is allocated in ``interner`` and that
        each index holds exactly the relation's rows."""
        db = cls(interner)
        for predicate, rel in facts.items():
            if not rel:
                continue
            db._facts[predicate] = rel
            if len(next(iter(rel))) == 1:
                db._bits[predicate] = bitset_of(args[0] for args in rel)
        if indexes:
            db._indexes.update(indexes)
        return db

    def snapshot(self) -> "SetDatabase":
        """A mutation-isolated copy sharing this one's interner.

        Fact sets and bitsets are copied at C speed (no per-tuple
        work); indexes are rebuilt lazily on the copy.  Sharing the
        interner is safe because it is append-only -- an evaluation
        that interns fresh builtin outputs on the snapshot extends the
        shared id space without disturbing existing ids.  This is what
        lets a caller intern an EDB *once* and hand every evaluation
        its own copy.
        """
        copy = SetDatabase(self.interner)
        copy._facts = {
            predicate: set(rel) for predicate, rel in self._facts.items()
        }
        copy._bits = dict(self._bits)
        return copy

    def merge(
        self, predicate: str, rows: Iterable[tuple[int, ...]]
    ) -> set[tuple[int, ...]]:
        """Insert interned facts in bulk; returns the set of those that
        were new.

        Deduplication is set algebra at C speed (``fresh = rows -
        rel``); the unary bitset and the existing hash indexes are then
        extended by the fresh facts only."""
        rel = self._facts.get(predicate)
        if rel:
            fresh = set(rows).difference(rel)
            rel |= fresh
        else:
            fresh = set(rows)
            if fresh:
                self._facts[predicate] = set(fresh)
        if not fresh:
            return fresh
        if len(next(iter(fresh))) == 1:
            self._bits[predicate] = self._bits.get(predicate, 0) | bitset_of(
                args[0] for args in fresh
            )
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                _file(index, positions, fresh)
        return fresh

    def relation(self, predicate: str) -> set[tuple[int, ...]]:
        return self._facts.get(predicate, _EMPTY_SET)

    def bits(self, predicate: str) -> int:
        """The bitset of an arity-1 predicate (0 when empty/absent)."""
        return self._bits.get(predicate, 0)

    def contains(self, predicate: str, args: tuple[int, ...]) -> bool:
        return args in self._facts.get(predicate, _EMPTY_SET)

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._facts.values())

    def predicates(self):
        return iter(self._facts)

    def _check_positions(
        self, predicate: str, positions: tuple[int, ...]
    ) -> None:
        """Validate index positions against the relation's arity at
        build time (an out-of-range position would otherwise silently
        produce an empty index and empty join results)."""
        rel = self._facts.get(predicate)
        if not rel:
            return  # empty relation: arity unknown, nothing to probe
        arity = len(next(iter(rel)))
        bad = [p for p in positions if p < 0 or p >= arity]
        if bad:
            raise ValueError(
                f"index positions {bad} out of range for predicate "
                f"{predicate!r} of arity {arity}"
            )

    def index_for(self, predicate: str, positions: tuple[int, ...]) -> dict:
        """The hash index of ``predicate`` on ``positions``; built
        lazily, maintained incrementally by :meth:`merge`.  Single-
        position indexes use the bare id as key (no tuple allocation on
        the probe side)."""
        per_pred = self._indexes.get(predicate)
        if per_pred is None:
            per_pred = self._indexes[predicate] = {}
        index = per_pred.get(positions)
        if index is None:
            self._check_positions(predicate, positions)
            stats = self.index_stats
            stats.builds += 1
            pattern = (predicate, positions)
            if pattern in self._ever_built:
                stats.rebuilds += 1
            else:
                self._ever_built.add(pattern)
            index = {}
            _file(index, positions, self._facts.get(predicate, ()))
            per_pred[positions] = index
        return index

    def decode_relation(self, predicate: str) -> set[tuple]:
        """Decode one relation to raw-value tuples (the lazy boundary:
        a goal-directed caller decodes its answer predicate and nothing
        else)."""
        rel = self._facts.get(predicate, _EMPTY_SET)
        if self.interner.is_identity:
            return set(rel)
        value_of = self.interner.value_of
        return {tuple(value_of(i) for i in args) for args in rel}

    def decode(self) -> Database:
        """Materialize a plain value-level :class:`Database`."""
        if self.interner.is_identity:
            return Database.from_relations(
                {
                    predicate: set(rel)
                    for predicate, rel in self._facts.items()
                }
            )
        value = self.interner.value_of
        return Database.from_relations(
            {
                predicate: {
                    tuple(value(i) for i in args) for args in rel
                }
                for predicate, rel in self._facts.items()
            }
        )


def _file(index: dict, positions: tuple[int, ...], facts) -> None:
    """Append ``facts`` to a hash index on ``positions`` (never empty):
    keyed by the bare id for one position, by a tuple otherwise."""
    key_of = itemgetter(*positions)
    for args in facts:
        index.setdefault(key_of(args), []).append(args)


# ----------------------------------------------------------------------
# Columnar batches
# ----------------------------------------------------------------------


class Batch:
    """A set of bindings, stored columnar: variable slot -> parallel
    list (slots number a plan's variables, see
    :func:`repro.datalog.evaluate.plan_slots`).

    A column list is never mutated once a batch holds it: steps build
    new lists or pass their input lists through unchanged, and one
    batch may feed several prefix groups."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: dict[int, list[int]], length: int):
        self.columns = columns
        self.length = length


class BitBatch:
    """A single-variable batch stored as a bitset.

    Used while a rule body is a chain of unary steps over one variable
    -- the defining shape of monadic datalog -- so successive steps run
    as word-parallel ``&`` / ``& ~`` on one int.
    """

    __slots__ = ("var", "bits")

    def __init__(self, var: int, bits: int):
        self.var = var
        self.bits = bits


def _materialize(batch: BitBatch) -> Batch:
    column = list(iter_bits(batch.bits))
    return Batch({batch.var: column}, len(column))


def _size(batch: "Batch | BitBatch") -> int:
    if type(batch) is BitBatch:
        return batch.bits.bit_count()
    return batch.length


def _take(batch: Batch, keep: list[bool]) -> Batch:
    """The rows of ``batch`` whose ``keep`` flag is true, compressed
    column by column at C speed; ``batch`` itself when every flag is
    set."""
    if all(keep):
        return batch
    return Batch(
        {v: list(compress(col, keep)) for v, col in batch.columns.items()},
        sum(keep),
    )


def _fact_shaped_keys(cstep: CompiledStep, batch: Batch, consts):
    """Per-row candidate fact tuples for fully-bound (semi-join /
    negation) steps; position order, so they compare against the
    stored facts directly."""
    n = batch.length
    if not cstep.arity:
        return repeat((), n)
    sources: list = [None] * cstep.arity
    for pos, cid in consts:
        sources[pos] = repeat(cid, n)
    for pos, var in cstep.bound:
        sources[pos] = batch.columns[var]
    return zip(*sources)


def _probe_keys(cstep: CompiledStep, columns: dict, n: int, consts):
    """Per-row keys of a hash-join probe, in ``cstep.key`` order: bare
    ids for a one-position key (the index's key shape), tuples
    otherwise."""
    if consts:
        source_of: dict[int, object] = {
            pos: repeat(cid, n) for pos, cid in consts
        }
        source_of.update((pos, columns[var]) for pos, var in cstep.bound)
        sources = [source_of[pos] for pos in cstep.key]
    else:  # ``bound`` is in position order already
        sources = [columns[var] for _, var in cstep.bound]
    return sources[0] if len(sources) == 1 else zip(*sources)


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------

#: a round's derived facts: predicate -> id tuples, duplicates allowed
Derived = dict[str, list[tuple[int, ...]]]


class SetSemiNaiveEvaluator:
    """Stratified semi-naive evaluation, executed set-at-a-time.

    :meth:`evaluate` returns a value-level :class:`Database` holding
    extensional plus derived facts, :meth:`run` the same fixpoint still
    interned.  ``stats`` counts like the ``naive`` reference's
    :class:`EvaluationStats`, except that ``rule_firings`` counts batch
    rows, so duplicate bindings collapsed by a bitset step are counted
    once.
    """

    def __init__(
        self,
        program: Program,
        registry: BuiltinRegistry | None = None,
        prepared: PreparedProgram | None = None,
    ):
        if prepared is None:
            prepared = prepare_program(program, registry)
        self.prepared = prepared
        self.program = prepared.program
        self.registry = prepared.registry
        self.idb = prepared.idb
        self.strata = list(prepared.strata)
        self.stats = EvaluationStats()
        #: built-in results of the running evaluation (BuiltinCall memo)
        self._memo: dict = {}

    @classmethod
    def from_prepared(
        cls, prepared: PreparedProgram
    ) -> "SetSemiNaiveEvaluator":
        return cls(prepared.program, prepared=prepared)

    # -- public API -----------------------------------------------------

    def evaluate(
        self, edb: "Database | Iterable[Fact] | Structure"
    ) -> Database:
        """Least fixpoint of ``P ∪ A`` as a value-level database."""
        return self.run(SetDatabase.from_edb(edb)).decode()

    def run(self, db: SetDatabase) -> SetDatabase:
        """The fixpoint over an already-interned database (kept
        interned; :meth:`evaluate` is the decoding wrapper)."""
        # built-ins are pure and ids are the database's: results stay
        # valid for this evaluation only
        self._memo = {}
        interner = db.interner
        for stratum_plan in self.prepared.stratum_plans:
            # round 0: every rule once against the current database.
            # An SCC-refined nonrecursive stratum never consumes its own
            # output, so this one firing is its fixpoint.
            derived: Derived = {}
            for rule_index in stratum_plan.rule_indices:
                self._fire(rule_index, db, derived)
            fresh = self._flush(db, derived)
            if not stratum_plan.recursive:
                continue
            # subsequent rounds: the delta variants, grouped by shared
            # prefix; the first step of each root group reads the
            # round's delta (the facts the last flush found new)
            while fresh:
                self.stats.iterations += 1
                delta = SetDatabase.from_interned(interner, fresh)
                derived = {}
                for group in stratum_plan.groups:
                    self._fire_group(group, Batch({}, 1), db, derived, delta)
                fresh = self._flush(db, derived)
        self._memo = {}
        return db

    def _flush(
        self, db: SetDatabase, derived: Derived
    ) -> dict[str, set[tuple[int, ...]]]:
        """Merge a round's derived facts into ``db``, one set operation
        per predicate; returns the new ones per predicate."""
        fresh = {}
        for predicate, rows in derived.items():
            new = db.merge(predicate, rows)
            if new:
                fresh[predicate] = new
                self.stats.facts_derived += len(new)
        return fresh

    # -- rule execution -------------------------------------------------

    def _fire(self, rule_index: int, db: SetDatabase, out: Derived) -> None:
        """Fire one rule's round-0 plan -- unless one of its positive
        relation atoms is still empty, so the rule cannot fire (in
        round 0 the recursive relations are empty, and scanning the
        guards before the empty probe would cost a pass over the
        input for nothing)."""
        steps = self.prepared.steps[rule_index]
        for cstep in steps:
            if cstep.kind == "relation" and not db.relation(cstep.predicate):
                return
        batch = self._run_steps(steps, Batch({}, 1), db, None)
        if batch is not None:
            self._project(
                self.prepared.heads[rule_index], batch, db.interner, out
            )

    def _fire_group(
        self,
        group: PrefixGroup,
        batch: "Batch | BitBatch",
        db: SetDatabase,
        out: Derived,
        delta: SetDatabase | None = None,
    ) -> None:
        """Run a prefix group's steps once on ``batch``, project the
        heads of the variants that end there, and hand the result to
        each child group.  ``delta`` feeds the first step of a root
        group, the delta atom of every variant below it."""
        batch = self._run_steps(group.steps, batch, db, delta)
        if batch is None:
            return
        for _, head in group.heads:
            self._project(head, batch, db.interner, out)
        for child in group.children:
            self._fire_group(child, batch, db, out)

    def _run_steps(
        self,
        steps: tuple[CompiledStep, ...],
        batch: "Batch | BitBatch",
        db: SetDatabase,
        delta: SetDatabase | None,
    ) -> "Batch | BitBatch | None":
        """Run ``steps`` over ``batch``; the first reads ``delta`` when
        one is given.  Returns None as soon as a step leaves no
        binding."""
        stats = self.stats
        interner = db.interner
        source = db if delta is None else delta
        for cstep in steps:
            kind = cstep.kind
            if kind == "relation":
                batch = self._join(batch, cstep, source, interner)
            elif kind == "builtin":
                batch = self._builtin(batch, cstep, interner)
            else:
                batch = self._negate(batch, cstep, db)
            n_out = _size(batch)
            stats.bindings_explored += n_out
            if not n_out:
                return None
            source = db
        return batch

    def _join(
        self,
        batch: "Batch | BitBatch",
        cstep: CompiledStep,
        source: SetDatabase,
        interner: Interner,
    ) -> "Batch | BitBatch":
        predicate = cstep.predicate
        if type(batch) is BitBatch:
            if cstep.arity == 1 and not cstep.free:
                if cstep.bound:  # p(V) with V the batch variable
                    return BitBatch(
                        batch.var, batch.bits & source.bits(predicate)
                    )
                cid = interner.intern(cstep.consts[0][1])
                if (source.bits(predicate) >> cid) & 1:
                    return batch
                return BitBatch(batch.var, 0)
            batch = _materialize(batch)

        n = batch.length
        columns = batch.columns
        consts = cstep.consts and [
            (pos, interner.intern(value)) for pos, value in cstep.consts
        ]

        if not cstep.free:  # semi-join: every position already bound
            contains = source.relation(predicate).__contains__
            return _take(
                batch,
                list(map(contains, _fact_shaped_keys(cstep, batch, consts))),
            )

        dups = cstep.dups
        live = cstep.live
        if not cstep.key:  # relation scan (round-0 first steps)
            facts = source.relation(predicate)
            if dups:
                facts = [
                    f
                    for f in facts
                    if all(f[p] == f[q] for p, q in dups)
                ]
            if not columns:  # unit batch: the scan IS the result
                if cstep.arity == 1:
                    return BitBatch(
                        cstep.free[0][1], source.bits(predicate)
                    )
                if not facts:
                    return Batch({var: [] for _, var in cstep.free}, 0)
                # transpose at C speed, then pick the needed columns
                transposed = list(zip(*facts))
                return Batch(
                    {
                        var: list(transposed[pos])
                        for pos, var in cstep.free
                        if var in live
                    },
                    len(facts),
                )
            # cross product against an unrestricted relation: rare (the
            # planner prefers bound steps), but keep it correct.
            facts = list(facts)
            hits = facts * n
            counts = [len(facts)] * n
        else:
            # relation-level join over the hash index of the step's
            # search signature, in two passes: first each row's
            # matches, then every output column at C speed
            get = source.index_for(predicate, cstep.key).get
            found = list(
                map(get, _probe_keys(cstep, columns, n, consts), repeat(()))
            )
            if dups:
                found = [
                    [f for f in facts if all(f[p] == f[q] for p, q in dups)]
                    for facts in found
                ]
            hits = list(chain.from_iterable(found))
            counts = list(map(len, found))
        out_columns = gather_columns(columns, live, counts, len(hits))
        for pos, var in cstep.free:
            if var in live:
                out_columns[var] = list(map(itemgetter(pos), hits))
        return Batch(out_columns, len(hits))

    def _negate(
        self,
        batch: "Batch | BitBatch",
        cstep: CompiledStep,
        db: SetDatabase,
    ) -> "Batch | BitBatch":
        predicate = cstep.predicate
        if cstep.free or cstep.dups:
            raise UnsafeRuleError(
                f"negated atom {cstep.atom} not fully bound"
            )
        call = cstep.call
        interner = db.interner

        if type(batch) is BitBatch:
            if cstep.arity == 1 and call is None:
                if cstep.bound:
                    # complement against the batch, which is a subset of
                    # the interned domain -- no unbounded ~ needed
                    return BitBatch(
                        batch.var, batch.bits & ~db.bits(predicate)
                    )
                cid = interner.intern(cstep.consts[0][1])
                if (db.bits(predicate) >> cid) & 1:
                    return BitBatch(batch.var, 0)
                return batch
            batch = _materialize(batch)

        if call is not None:
            held = call.holds(batch.columns, batch.length, interner, self._memo)
        else:
            consts = [
                (pos, interner.intern(value)) for pos, value in cstep.consts
            ]
            held = map(
                db.relation(predicate).__contains__,
                _fact_shaped_keys(cstep, batch, consts),
            )
        return _take(batch, list(map(not_, held)))

    def _builtin(
        self,
        batch: "Batch | BitBatch",
        cstep: CompiledStep,
        interner: Interner,
    ) -> Batch:
        if type(batch) is BitBatch:
            batch = _materialize(batch)
        columns, count = cstep.call.join(
            batch.columns, batch.length, cstep.live, interner, self._memo
        )
        return Batch(columns, count)

    def _project(
        self,
        head: CompiledHead,
        batch: "Batch | BitBatch",
        interner: Interner,
        out: Derived,
    ) -> None:
        """Append the head instances of ``batch``'s rows to ``out``."""
        rows = out.setdefault(head.predicate, [])
        if type(batch) is BitBatch:
            if head.arity == 1 and not head.consts:
                bits = batch.bits
                self.stats.rule_firings += bits.bit_count()
                rows.extend(zip(iter_bits(bits)))
                return
            batch = _materialize(batch)
        n = batch.length
        self.stats.rule_firings += n
        if head.arity == 0:
            if n:
                rows.append(())
            return
        sources: list = [None] * head.arity
        for pos, value in head.consts:
            sources[pos] = repeat(interner.intern(value), n)
        for pos, var in head.vars:
            sources[pos] = batch.columns[var]
        rows.extend(zip(*sources))


def least_fixpoint(
    program: Program,
    edb: "Database | Iterable[Fact] | Structure",
    registry: BuiltinRegistry | None = None,
) -> Database:
    """Convenience wrapper: the semi-naive least fixpoint of ``P ∪ A``."""
    return SetSemiNaiveEvaluator(program, registry).evaluate(edb)
