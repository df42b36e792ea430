"""Set-at-a-time semi-naive evaluation (the default engine).

The tuple-at-a-time evaluator in :mod:`repro.datalog.evaluate` walks a
rule's join plan one binding dict at a time: every extension copies a
``Binding`` dict, every head instantiation goes through
``Atom.substitute``.  Those per-tuple constant factors are exactly what
Section 6 of the paper warns decide the practical viability of the
monadic-datalog route, so this module re-executes the *same* join plans
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
  positions are classified once per plan (the prepared program keeps
  the compiled steps), one incrementally-maintained index is fetched
  per step, and the batch probes it row by row.  There is one index
  kind: the hash index of a search signature, keyed by its sorted
  bound positions (:meth:`SetDatabase.index_for`);
  :func:`~repro.treewidth.encode.load_normalized` and
  :func:`~repro.treewidth.encode.load_nice` prefill the node-keyed
  ones.  The tuple engine's per-binding ``Database.match`` (pattern
  tuple + index resolution per tuple) is gone.
* Built-in steps run the shared kernel
  (:class:`repro.datalog.builtins.BuiltinCall`, also used by the eager
  grounder): the binding mask was checked when the step was compiled,
  bound-argument fast paths skip enumeration, and results are memoized
  for one :meth:`SetSemiNaiveEvaluator.run`, keyed by the rows' input
  ids.

The strata and their fixpoint loops are those of
:class:`SemiNaiveEvaluator`: fire-once strata and round 0 run the
round-0 plans (skipping a rule whose positive relation atoms include a
still-empty relation: it cannot fire), and every later round fires
each rule's delta variants (the recursive atom first, read from the
round's delta), so both engines derive identical fact sets; the tuple
path stays available as the ``semi-naive-tuple`` backend for the
ablation benchmark.  This
engine fires the variants through their prefix trie
(:class:`~repro.datalog.evaluate.PrefixGroup`): steps that several
variants share up to variable renaming run once per round, and
``bindings_explored`` counts them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from ..structures.structure import Fact, Structure
from .ast import Program
from .builtins import BuiltinRegistry
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
    "set_least_fixpoint",
]

_EMPTY_SET: frozenset = frozenset()


@dataclass
class IndexStats:
    """Index build accounting for one :class:`SetDatabase`.

    ``rebuilds`` counts builds of a ``(predicate, positions)`` pattern
    that had already been built on this database -- i.e. an index that
    was invalidated and paid for again.  A healthy fixpoint keeps this
    flat: `copy_relation` extends existing indexes incrementally
    instead of dropping them, so churny delta rounds never rebuild."""

    builds: int = 0
    rebuilds: int = 0


# ----------------------------------------------------------------------
# Interned fact storage
# ----------------------------------------------------------------------


class SetDatabase:
    """Facts over interned ids, with bitset mirrors of unary relations
    and incrementally-maintained per-predicate hash indexes.

    ``add`` touches only the indexes of the inserted fact's predicate
    (they are registered per predicate), keeping bulk insertion linear.
    Arity-1 facts additionally set their element's bit in the
    predicate's bitset, which is what the monadic fast paths of the
    evaluator operate on.
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
            # already interned: snapshot instead of re-interning (the
            # cross-backend compare fast path -- load the structure
            # once, hand each backend a cheap copy)
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
                for tup in rel:
                    db.add(predicate, tup)
            return db

        db = cls()
        intern = db.interner.intern
        if domain is not None:
            for element in sorted(domain, key=repr):
                intern(element)
        for predicate, rel in relations.items():
            for tup in rel:
                db.add(predicate, tuple(map(intern, tup)))
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

    def spawn_delta(self) -> "SetDatabase":
        """An empty database sharing this one's interner (the per-round
        delta of the semi-naive loop)."""
        return SetDatabase(self.interner)

    def snapshot(self) -> "SetDatabase":
        """A mutation-isolated copy sharing this one's interner.

        Fact sets and bitsets are copied at C speed (no per-tuple
        work); indexes are rebuilt lazily on the copy.  Sharing the
        interner is safe because it is append-only -- an evaluation
        that interns fresh builtin outputs on the snapshot extends the
        shared id space without disturbing existing ids.  This is what
        lets a benchmark compare run intern an EDB *once* and hand
        every backend its own evaluation copy.
        """
        copy = SetDatabase(self.interner)
        copy._facts = {
            predicate: set(rel) for predicate, rel in self._facts.items()
        }
        copy._bits = dict(self._bits)
        return copy

    def add_new(self, predicate: str, args: tuple[int, ...]) -> None:
        """Insert a fact the caller guarantees is absent (the delta
        side of the flush: the main database's ``add`` already
        deduplicated it).  Skips the membership test; indexes are
        still maintained."""
        self._facts.setdefault(predicate, set()).add(args)
        if len(args) == 1:
            self._bits[predicate] = self._bits.get(predicate, 0) | (
                1 << args[0]
            )
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                if len(positions) == 1:
                    key = args[positions[0]]
                else:
                    key = tuple(args[i] for i in positions)
                index.setdefault(key, []).append(args)

    def add(self, predicate: str, args: tuple[int, ...]) -> bool:
        """Insert an interned fact; True iff new."""
        rel = self._facts.setdefault(predicate, set())
        if args in rel:
            return False
        rel.add(args)
        if len(args) == 1:
            self._bits[predicate] = self._bits.get(predicate, 0) | (
                1 << args[0]
            )
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                if len(positions) == 1:
                    key = args[positions[0]]
                else:
                    key = tuple(args[i] for i in positions)
                index.setdefault(key, []).append(args)
        return True

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
        lazily, maintained incrementally by :meth:`add`.  Single-
        position indexes use the bare id as key (no tuple allocation on
        the probe side)."""
        per_pred = self._indexes.setdefault(predicate, {})
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
            if len(positions) == 1:
                p = positions[0]
                for args in self._facts.get(predicate, ()):
                    index.setdefault(args[p], []).append(args)
            else:
                for args in self._facts.get(predicate, ()):
                    key = tuple(args[i] for i in positions)
                    index.setdefault(key, []).append(args)
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

    def copy_relation(self, src: str, dst: str) -> None:
        """Alias ``src``'s facts under predicate ``dst`` -- entirely in
        interned-id space, and in bulk: the fact set is copied/unioned
        at C speed like :meth:`snapshot` (the old tuple-at-a-time loop
        through :meth:`add` re-maintained bitsets and indexes per
        fact), and the unary bitset is OR-ed in one big-int op.  Any
        existing hash indexes of ``dst`` are *extended* with the facts
        the union actually added (this used to invalidate them
        wholesale, so every copy/probe cycle rebuilt ``dst``'s indexes
        from scratch -- `IndexStats.rebuilds` now stays flat across
        such churn).  This is how the magic backend surfaces adorned
        answers under the original predicate name without decoding at
        the backend boundary."""
        src_rel = self._facts.get(src)
        if not src_rel:
            return
        dst_rel = self._facts.get(dst)
        if dst_rel:
            fresh: "set | frozenset" = src_rel - dst_rel
            dst_rel |= fresh
        else:
            fresh = src_rel
            self._facts[dst] = set(src_rel)
        if not fresh:
            return
        src_bits = self._bits.get(src)
        if src_bits is not None:
            self._bits[dst] = self._bits.get(dst, 0) | src_bits
        indexes = self._indexes.get(dst)
        if indexes:
            for positions, index in indexes.items():
                if len(positions) == 1:
                    p = positions[0]
                    for args in fresh:
                        index.setdefault(args[p], []).append(args)
                else:
                    for args in fresh:
                        key = tuple(args[i] for i in positions)
                        index.setdefault(key, []).append(args)

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


# ----------------------------------------------------------------------
# Columnar batches
# ----------------------------------------------------------------------


class Batch:
    """A set of bindings, stored columnar: variable slot -> parallel
    list (slots number a plan's variables, see
    :func:`repro.datalog.evaluate.plan_slots`)."""

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


def _take(batch: Batch, keep: list[int]) -> Batch:
    if len(keep) == batch.length:
        return batch
    return Batch(
        {v: [col[r] for r in keep] for v, col in batch.columns.items()},
        len(keep),
    )


def _fact_shaped_keys(cstep: CompiledStep, batch: Batch, consts):
    """Per-row candidate fact tuples for fully-bound (semi-join /
    negation) steps; position order, so they compare against the
    stored facts directly."""
    n = batch.length
    sources: list = [None] * cstep.arity
    for pos, cid in consts:
        sources[pos] = repeat(cid, n)
    for pos, var in cstep.bound:
        sources[pos] = batch.columns[var]
    return zip(*sources)


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------


class SetSemiNaiveEvaluator:
    """Stratified semi-naive evaluation, executed set-at-a-time.

    Drop-in interface match for
    :class:`repro.datalog.evaluate.SemiNaiveEvaluator`: same
    constructor, same :meth:`evaluate` contract (returns a value-level
    :class:`Database` holding extensional plus derived facts), same
    :class:`EvaluationStats` counters -- except ``rule_firings`` counts
    batch rows, so duplicate bindings collapsed by a bitset step are
    counted once.
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
        prepared = self.prepared
        for stratum_plan in prepared.stratum_plans:
            if not stratum_plan.recursive:
                # single-pass route: an SCC-refined nonrecursive
                # stratum never consumes its own output, so one firing
                # is its fixpoint -- no delta database, no re-fire
                derived: list[tuple[str, tuple[int, ...]]] = []
                for rule_index in stratum_plan.rule_indices:
                    self._fire(rule_index, db, derived)
                stats = self.stats
                add = db.add
                for predicate, args in derived:
                    if add(predicate, args):
                        stats.facts_derived += 1
                continue
            # round 0: every rule once against the current database
            delta = db.spawn_delta()
            derived = []
            for rule_index in stratum_plan.rule_indices:
                self._fire(rule_index, db, derived)
            self._flush(db, delta, derived)

            # subsequent rounds: the delta variants, grouped by shared
            # prefix; the first step of each root group reads the
            # round's delta
            while delta.fact_count():
                self.stats.iterations += 1
                new_delta = db.spawn_delta()
                derived = []
                for group in stratum_plan.groups:
                    self._fire_group(group, Batch({}, 1), db, derived, delta)
                self._flush(db, new_delta, derived)
                delta = new_delta
        self._memo = {}
        return db

    def _flush(
        self,
        db: SetDatabase,
        delta: SetDatabase,
        derived: list[tuple[str, tuple[int, ...]]],
    ) -> None:
        stats = self.stats
        add = db.add
        delta_add = delta.add_new
        for predicate, args in derived:
            if add(predicate, args):
                delta_add(predicate, args)
                stats.facts_derived += 1

    # -- rule execution -------------------------------------------------

    def _fire(
        self,
        rule_index: int,
        db: SetDatabase,
        out: list[tuple[str, tuple[int, ...]]],
    ) -> None:
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
        out: list[tuple[str, tuple[int, ...]]],
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
        consts = [
            (pos, interner.intern(value)) for pos, value in cstep.consts
        ]

        if not cstep.free:  # semi-join: every position already bound
            if cstep.arity == 0:
                rel = source.relation(predicate)
                return batch if () in rel else Batch(
                    {v: [] for v in columns}, 0
                )
            if cstep.arity == 1:
                bits = source.bits(predicate)
                if consts:
                    if (bits >> consts[0][1]) & 1:
                        return batch
                    return Batch({v: [] for v in columns}, 0)
                column = columns[cstep.bound[0][1]]
                keep = [
                    r for r in range(n) if (bits >> column[r]) & 1
                ]
                return _take(batch, keep)
            rel = source.relation(predicate)
            keep = [
                r
                for r, key in enumerate(
                    _fact_shaped_keys(cstep, batch, consts)
                )
                if key in rel
            ]
            return _take(batch, keep)

        dups = cstep.dups
        key_positions = tuple(
            sorted(
                [pos for pos, _ in consts] + [pos for pos, _ in cstep.bound]
            )
        )

        live = cstep.live
        if not key_positions:  # relation scan (round-0 first steps)
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
            out_columns = {v: [] for v in columns if v in live}
            out_columns.update(
                {var: [] for _, var in cstep.free if var in live}
            )
            old = [
                (out_columns[v].append, columns[v])
                for v in columns
                if v in live
            ]
            new = [
                (out_columns[var].append, pos)
                for pos, var in cstep.free
                if var in live
            ]
            for r in range(n):
                for fact in facts:
                    for append, col in old:
                        append(col[r])
                    for append, pos in new:
                        append(fact[pos])
            return Batch(out_columns, n * len(facts))

        # relation-level join: one hash index per search signature,
        # probed per row with the key in sorted-position order
        get = source.index_for(predicate, key_positions).get
        by_pos: dict[int, object] = {pos: cid for pos, cid in consts}
        for pos, var in cstep.bound:
            by_pos[pos] = columns[var]
        if len(key_positions) == 1:
            key_source = by_pos[key_positions[0]]
            keys = (
                repeat(key_source, n)
                if not isinstance(key_source, list)
                else key_source
            )
        else:
            keys = zip(
                *(
                    repeat(by_pos[pos], n)
                    if not isinstance(by_pos[pos], list)
                    else by_pos[pos]
                    for pos in key_positions
                )
            )

        out_columns = {v: [] for v in columns if v in live}
        out_columns.update(
            {var: [] for _, var in cstep.free if var in live}
        )
        old = [
            (out_columns[v].append, columns[v])
            for v in columns
            if v in live
        ]
        new = [
            (out_columns[var].append, pos)
            for pos, var in cstep.free
            if var in live
        ]
        count = 0
        for r, key in enumerate(keys):
            matches = get(key)
            if not matches:
                continue
            if dups:
                matches = [
                    f
                    for f in matches
                    if all(f[p] == f[q] for p, q in dups)
                ]
                if not matches:
                    continue
            for append, col in old:
                value = col[r]
                for _ in matches:
                    append(value)
            for append, pos in new:
                for fact in matches:
                    append(fact[pos])
            count += len(matches)
        return Batch(out_columns, count)

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

        n = batch.length
        columns = batch.columns
        if call is not None:
            held = call.holds(columns, n, interner, self._memo)
            return _take(batch, [r for r in range(n) if not held[r]])

        consts = [
            (pos, interner.intern(value)) for pos, value in cstep.consts
        ]

        if cstep.arity == 0:
            if () in db.relation(predicate):
                return Batch({v: [] for v in columns}, 0)
            return batch
        if cstep.arity == 1:
            bits = db.bits(predicate)
            if consts:
                if (bits >> consts[0][1]) & 1:
                    return Batch({v: [] for v in columns}, 0)
                return batch
            column = columns[cstep.bound[0][1]]
            keep = [
                r for r in range(n) if not (bits >> column[r]) & 1
            ]
            return _take(batch, keep)
        rel = db.relation(predicate)
        keep = [
            r
            for r, key in enumerate(_fact_shaped_keys(cstep, batch, consts))
            if key not in rel
        ]
        return _take(batch, keep)

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
        out: list[tuple[str, tuple[int, ...]]],
    ) -> None:
        predicate = head.predicate
        if type(batch) is BitBatch:
            if head.arity == 1 and not head.consts:
                bits = batch.bits
                self.stats.rule_firings += bits.bit_count()
                out.extend((predicate, (i,)) for i in iter_bits(bits))
                return
            batch = _materialize(batch)
        n = batch.length
        self.stats.rule_firings += n
        if head.arity == 0:
            if n:
                out.append((predicate, ()))
            return
        sources: list = [None] * head.arity
        for pos, value in head.consts:
            sources[pos] = repeat(interner.intern(value), n)
        for pos, var in head.vars:
            sources[pos] = batch.columns[var]
        if head.arity == 1:
            out.extend((predicate, (x,)) for x in sources[0])
        else:
            out.extend((predicate, args) for args in zip(*sources))


def set_least_fixpoint(
    program: Program,
    edb: "Database | Iterable[Fact] | Structure",
    registry: BuiltinRegistry | None = None,
) -> Database:
    """Convenience wrapper: set-at-a-time semi-naive least fixpoint."""
    return SetSemiNaiveEvaluator(program, registry).evaluate(edb)
