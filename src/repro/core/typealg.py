"""The interned type algebra behind the Theorem 4.5 compiler.

Lemmas 3.5-3.7 make the rank-k MSO type of an extended decomposition
step a function of the *types* of its parts (plus the bag data alone):
nothing in the construction ever needs the witness structures
themselves except as a device to compute types and to evaluate the
query on (and both depend only on the type).  This module makes that
compositional view the compiler's native currency:

* :class:`TypeTable` interns canonical k-types into **dense type ids**
  (the :class:`~repro.datalog.interning.InternPool` style: consecutive
  ints, list-indexed decoding), with exactly one canonical witness
  stored per id;
* :class:`TypeAlgebra` owns the typing machinery shared by one compile
  -- a structure-scoped :class:`~repro.mso.types.TypeContext` memo per
  witness (so re-typing one witness under many bags reuses all shared
  subproblems) -- and **witness reduction**: shrinking a freshly
  registered witness to a minimal representative of its type by greedy
  deletion of non-bag elements with a type re-check after each
  deletion.

Reduction is what bounds the working set: the old compiler re-glued
ever-growing witnesses up the induction (witness size grew
monotonically until it tripped ``max_witness_size``), while every step
here starts from minimal representatives, so witness size is bounded
by the minimal-representative closure of the type space instead.
Soundness is exactly Lemma 3.5/3.6: rule emission consults only the
type (and the bag EDB, which is part of the rank-0 type), never the
witness's identity, so any witness of the same type -- in particular
the reduced one -- yields the same program.  When a
``structure_filter`` restricts compilation to a class of structures,
reduction stays inside the class because deletion produces induced
substructures and the filter's documented soundness condition is
closure under induced substructures (the filter is still re-checked
per deletion, so a non-closed filter degrades to less reduction, never
to an out-of-class witness).

Typing runs on int relations.  A stored entry keeps its witness's
relations in signature order (:attr:`TypeEntry.relations`), and a glue
or replacement candidate is the pair ``(n, relations)`` over ``0..n-1``
(:meth:`TypeEntry.glued`, :meth:`TypeEntry.replaced`), typed by
:meth:`TypeAlgebra.type_of_ids` with no :class:`Structure` built.  A
:class:`Structure` is built (:func:`ids_structure`) only where one is
read whole: a new type's witness, which :meth:`TypeAlgebra.reduce`
shrinks and :meth:`TypeAlgebra.canonicalize` renames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from ..mso.types import MSOType, TypeContext
from ..structures.structure import Element, Structure


class CompilerLimitError(RuntimeError):
    """Witness structures or type tables outgrew the configured bound.

    The construction is exponential; this error is the honest signal
    that the requested (signature, w, k) combination is out of the
    practical envelope -- precisely the regime where the paper switches
    to the hand-crafted Section 5 programs.
    """


@dataclass(frozen=True)
class TypeEntry:
    """One interned k-type: dense id, canonical minimal witness, bag EDB.

    Witnesses are stored in *canonical coordinates*: the domain is
    ``0..n-1`` with the bag at ``(0, ..., w)`` -- so gluing two
    entries is an integer-offset fact union, no renaming maps needed.
    ``edb`` is the set of ``(predicate, index-tuple)`` patterns holding
    on the bag (the rank-0 bag data): two entries can share a branch /
    selection node iff their ``edb`` agree, which is what lets the
    compiler bucket glue candidates instead of attempting all pairs.
    ``relations`` is the witness's relations in signature order (the
    int form :meth:`glued` and :meth:`replaced` extend), ``summary``
    what the compile's class predicate read off the witness for its
    delta checks (:mod:`repro.core.classes`).
    """

    type_id: int
    structure: Structure
    bag: tuple[Element, ...]
    edb: frozenset[tuple[str, tuple[int, ...]]]
    relations: tuple[frozenset[tuple[int, ...]], ...]
    summary: object

    @property
    def size(self) -> int:
        return len(self.structure.domain)

    def glued(self, other: "TypeEntry") -> tuple[int, tuple]:
        """The union of this witness and ``other``'s overlapping exactly
        on the bag ``0..w``, as ``(n, relations)`` over ``0..n-1``:
        ``other``'s non-bag elements are shifted past this domain."""
        w1 = len(self.bag)
        off = self.size - w1
        relations = tuple(
            mine | {tuple(x if x < w1 else x + off for x in t) for t in theirs}
            for mine, theirs in zip(self.relations, other.relations)
        )
        return off + other.size, relations

    def replaced(self, chosen: frozenset) -> tuple[int, tuple]:
        """This witness grown by a fresh element ``n`` that takes bag
        position 0, with the ``(predicate, index-tuple)`` facts of
        ``chosen`` over the new bag ``(n, 1, ..., w)``, as
        ``(n + 1, relations)``."""
        fresh = self.size
        new_bag = (fresh,) + self.bag[1:]
        added: dict[str, set] = {}
        for name, indices in chosen:
            added.setdefault(name, set()).add(
                tuple(new_bag[i] for i in indices)
            )
        relations = tuple(
            rel | added[name] if name in added else rel
            for name, rel in zip(self.structure.signature, self.relations)
        )
        return fresh + 1, relations


def ids_structure(signature, n: int, relations: tuple) -> Structure:
    """The :class:`Structure` over ``0..n-1`` with ``relations`` (in
    signature order): built only where a candidate becomes a stored
    witness, or where a plain callable filter must see it whole."""
    return Structure(signature, range(n), dict(zip(signature, relations)))


class TypeTable:
    """Dense type-id interning with one canonical witness per type.

    Canonical k-types map to consecutive ids ``0, 1, ...`` (decoded by
    list lookup, exactly like
    :class:`~repro.datalog.interning.InternPool` atoms), and the entry
    stores the *reduced* witness registered for the type -- every later
    step against this type works on that one small representative.

    The Θ↑ and Θ↓ tables of the construction share a single
    ``TypeTable``: both are the closure of the same base types (all
    structures over one full bag) under the same three type-level
    operations (bag permutation, element replacement, bag-glued
    union), so they contain exactly the same types -- only the datalog
    rules emitted from the table differ between the two roles.
    """

    __slots__ = ("max_types", "_ids", "_entries")

    def __init__(self, max_types: int):
        self.max_types = max_types
        self._ids: dict[MSOType, int] = {}
        self._entries: list[TypeEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TypeEntry]:
        return iter(self._entries)

    def get(self, t: MSOType) -> TypeEntry | None:
        """The entry interned for ``t``, or ``None``."""
        found = self._ids.get(t)
        return None if found is None else self._entries[found]

    def entry_of(self, type_id: int) -> TypeEntry:
        """Decode a dense id (list lookup)."""
        return self._entries[type_id]

    def add(
        self,
        t: MSOType,
        structure: Structure,
        bag: tuple[Element, ...],
        edb: frozenset[tuple[str, tuple[int, ...]]],
        summary: object = None,
    ) -> TypeEntry:
        """Intern ``t`` with its canonical witness; ``t`` must be new."""
        if t in self._ids:
            raise ValueError(
                f"type already interned as id {self._ids[t]}"
            )
        if len(self._entries) >= self.max_types:
            raise CompilerLimitError(
                f"more than {self.max_types} types; the "
                "(signature, width, depth) combination is outside the "
                "practical envelope -- consider a structure_filter"
            )
        type_id = len(self._entries)
        relations = tuple(
            structure.relation(name) for name in structure.signature
        )
        entry = TypeEntry(type_id, structure, bag, edb, relations, summary)
        self._ids[t] = type_id
        self._entries.append(entry)
        return entry


@dataclass
class TypeAlgebraStats:
    """Counters surfaced in ``BENCH_compiler.json`` and the compiler
    stats: how hard the type algebra worked and how small reduction
    kept the working set."""

    type_computations: int = 0
    #: largest witness ever *typed* (pre-reduction: glued/grown inputs)
    max_witness_typed: int = 0
    #: largest witness surviving reduction into a type table
    max_reduced_witness: int = 0
    reductions: int = 0
    elements_deleted: int = 0


class TypeAlgebra:
    """One compile's typing machinery: shared memos, limits, reduction.

    ``k`` is the quantifier depth, ``max_witness_size`` the honest
    envelope bound (typing a structure past it raises
    :class:`CompilerLimitError`), ``structure_filter`` the optional
    class restriction (see the module docstring for why reduction
    respects it).
    """

    def __init__(
        self,
        k: int,
        max_witness_size: int,
        structure_filter: Callable[[Structure], bool] | None = None,
    ):
        self.k = k
        self.max_witness_size = max_witness_size
        self.structure_filter = structure_filter
        self.stats = TypeAlgebraStats()
        #: one TypeContext per witness structure -- the structure-scoped
        #: memo of :mod:`repro.mso.types`, shared across every typing of
        #: the same structure (permutation steps re-type one structure
        #: under all bag orders)
        self._contexts: dict[Structure, TypeContext] = {}

    def context(self, structure: Structure) -> TypeContext:
        found = self._contexts.get(structure)
        if found is None:
            found = self._contexts[structure] = TypeContext(structure)
        return found

    def _count_typed(self, size: int) -> None:
        """Count one type computation on a ``size``-element structure.

        ``max_witness_size`` bounds the *stored* working set (the
        reduced witnesses of the type tables; :meth:`reduce` enforces
        it); a structure typed here is at worst the glue of two stored
        witnesses overlapping on a bag, hence under
        ``2 * max_witness_size`` -- so that is the honest typing
        limit.  Exceeding it means growth is outrunning reduction and
        the combination is genuinely outside the envelope."""
        if size > 2 * self.max_witness_size:
            raise CompilerLimitError(
                f"transient witness grew to {size} elements "
                f"(limit {2 * self.max_witness_size} = 2x the "
                f"max_witness_size bound of {self.max_witness_size}); "
                "signature/width/depth combination is outside the "
                "practical envelope of the generic construction"
            )
        stats = self.stats
        stats.type_computations += 1
        if size > stats.max_witness_typed:
            stats.max_witness_typed = size

    def type_of(
        self, structure: Structure, bag: tuple[Element, ...]
    ) -> MSOType:
        """The canonical rank-k type of ``(structure, bag)``, typed in
        the structure's shared context (a stored witness is re-typed
        under every bag order)."""
        self._count_typed(len(structure.domain))
        return self.context(structure).type_of(bag, self.k)

    def type_of_ids(
        self, signature, n: int, relations: tuple, bag: tuple[int, ...]
    ) -> MSOType:
        """The canonical rank-k type of the structure over ``0..n-1``
        with ``relations`` (signature order), pointed at ``bag`` --
        typed straight from the int relations
        (:meth:`TypeContext.of_ids`), with no :class:`Structure` and no
        memo: a glued or replacement candidate is typed exactly once
        (the compiler memoizes the result by its step key)."""
        self._count_typed(n)
        return TypeContext.of_ids(signature, n, relations).type_of(bag, self.k)

    def canonicalize(
        self, structure: Structure, bag: tuple[Element, ...]
    ) -> tuple[Structure, tuple[Element, ...]]:
        """Rename a witness into canonical coordinates: the bag becomes
        ``(0, ..., w)``, every other element ``w+1, ..., n-1`` in
        repr-sorted order.  Deterministic, so one type always stores
        one concrete witness structure -- and gluing two canonical
        witnesses is a plain integer-offset fact union."""
        mapping: dict[Element, Element] = {
            element: i for i, element in enumerate(bag)
        }
        fresh = len(bag)
        for element in sorted(structure.domain - set(bag), key=repr):
            mapping[element] = fresh
            fresh += 1
        cbag = tuple(range(len(bag)))
        if all(element == i for element, i in mapping.items()):
            return structure, cbag  # already canonical: nothing to rename
        return structure.renamed(mapping), cbag

    def reduce(
        self,
        structure: Structure,
        bag: tuple[Element, ...],
        expected_type: MSOType,
    ) -> Structure:
        """A minimal witness of ``expected_type``: greedily delete
        non-bag elements, keeping a deletion iff the induced
        substructure still has the expected type (and still passes the
        structure filter).  Deterministic (repr-sorted deletion order),
        so one type always reduces to one canonical witness."""
        stats = self.stats
        stats.reductions += 1
        bag_set = frozenset(bag)
        structure_filter = self.structure_filter
        changed = True
        while changed:
            changed = False
            for element in sorted(structure.domain - bag_set, key=repr):
                candidate = structure.induced(structure.domain - {element})
                if structure_filter and not structure_filter(candidate):
                    continue
                # reduction candidates are typed with their own fresh
                # context (no reuse value: each candidate is typed once)
                if TypeContext(candidate).type_of(bag, self.k) != expected_type:
                    continue
                structure = candidate
                stats.elements_deleted += 1
                changed = True
        size = len(structure.domain)
        if size > self.max_witness_size:
            raise CompilerLimitError(
                f"minimal witness has {size} elements "
                f"(limit {self.max_witness_size}); even the reduced "
                "representatives outgrow the bound -- the "
                "signature/width/depth combination is outside the "
                "practical envelope of the generic construction"
            )
        if size > stats.max_reduced_witness:
            stats.max_reduced_witness = size
        return structure


def reduce_witness(
    structure: Structure,
    bag: tuple[Element, ...],
    k: int,
    structure_filter: Callable[[Structure], bool] | None = None,
) -> Structure:
    """Standalone witness reduction: the minimal representative of
    ``(structure, bag)``'s rank-k type (see :meth:`TypeAlgebra.reduce`).

    Convenience wrapper for tests and interactive use; the compiler
    goes through a shared :class:`TypeAlgebra`.
    """
    algebra = TypeAlgebra(
        k, max_witness_size=len(structure.domain), structure_filter=structure_filter
    )
    return algebra.reduce(structure, bag, algebra.type_of(structure, bag))


def fold_partition(
    n: int,
    observations: Sequence,
    maps: Sequence[dict[int, int]] = (),
    pair_maps: Sequence[dict[tuple[int, int], int]] = (),
    pair_observations: Sequence[dict[tuple[int, int], object]] = (),
) -> list[int]:
    """The coarsest ⊥-insensitive wildcard congruence over ``0..n-1``.

    Myhill-Nerode minimization (:meth:`MSOToDatalogCompiler`'s
    ``_minimize_classes``) treats an *undefined* step entry -- a
    filter-rejected permutation/replacement result, a glue pair that no
    reachable witness realizes -- as an observable outcome of its own:
    two classes whose behaviours agree everywhere both are defined but
    differ in *where* they are defined stay split.  For programs
    compiled relative to a witness-faithful ``structure_filter`` those
    ⊥ entries can never fire on an in-class input, so the distinction
    is unobservable; this function folds it away.

    Partition refinement with wildcards, splits only:

    * start from the coarsest partition agreeing on ``observations``
      (one block per distinct value);
    * for each (possibly partial) unary map in ``maps``, members of a
      block whose *defined* images land in different blocks split
      apart; members with no image (⊥) are wildcards and stay with the
      largest defined bucket;
    * for each symmetric pair map (``pair_maps`` compare result items
      via their current block, ``pair_observations`` compare opaque
      values directly), a member that sees two different outcomes
      across one partner block forces that partner block apart
      (pivot split), and members of one block that disagree on their
      outcome against a common partner block split apart -- ⊥ entries
      are wildcards in both cases.

    Every applied split strictly refines the partition, so the loop
    terminates after at most ``n`` splits; on exit every defined entry
    of every map is single-valued at the block level.  Because the
    procedure only splits, feeding it the blocks of a *minimized* type
    table can never produce a partition finer than the input items --
    folding only merges.

    Returns the dense block assignment (ids by first occurrence).
    """
    ids: dict = {}
    group = []
    for obs in observations:
        found = ids.get(obs)
        if found is None:
            found = ids[obs] = len(ids)
        group.append(found)
    counter = len(ids)

    # member-level symmetric adjacency per pair structure; outcomes are
    # items (compared through their current group) or opaque values
    adjacencies: list[tuple[list[list[tuple[int, object]]], bool]] = []
    for tables, is_item in ((pair_maps, True), (pair_observations, False)):
        for table in tables:
            adj: list[list[tuple[int, object]]] = [[] for _ in range(n)]
            for (i, j), out in table.items():
                adj[i].append((j, out))
                if i != j:
                    adj[j].append((i, out))
            adjacencies.append((adj, is_item))

    def members_of() -> dict[int, list[int]]:
        blocks: dict[int, list[int]] = {}
        for i in range(n):
            blocks.setdefault(group[i], []).append(i)
        return blocks

    def apply_split(members: list[int], key_of) -> bool:
        """Bucket ``members`` by key (``None`` = wildcard).  With >= 2
        defined buckets, split: the largest defined bucket (first
        occurrence breaks ties) keeps the old group id along with the
        wildcards; every other bucket gets a fresh id."""
        nonlocal counter
        buckets: dict = {}
        for i in members:
            key = key_of(i)
            if key is not None:
                buckets.setdefault(key, []).append(i)
        if len(buckets) < 2:
            return False
        keep = max(buckets.values(), key=len)
        for bucket in buckets.values():
            if bucket is keep:
                continue
            fresh = counter
            counter += 1
            for i in bucket:
                group[i] = fresh
        return True

    def find_and_split() -> bool:
        blocks = members_of()
        multi = [b for b in blocks.values() if len(b) > 1]
        for table in maps:
            get = table.get
            for block in multi:
                def unary_key(i):
                    j = get(i)
                    return None if j is None else group[j]

                if apply_split(block, unary_key):
                    return True
        for adj, is_item in adjacencies:
            # pivot splits: one member, one partner block, two outcomes
            for i in range(n):
                per_partner: dict[int, dict[int, object]] = {}
                for j, out in adj[i]:
                    key = group[out] if is_item else out
                    per_partner.setdefault(group[j], {})[j] = key
                for partner, outcomes in per_partner.items():
                    if len(set(outcomes.values())) > 1:
                        if apply_split(
                            blocks[partner], outcomes.get
                        ):
                            return True
            # cross-member splits: members of one block disagree on a
            # partner block (each member's outcome is unambiguous here,
            # or the pivot scan above would have fired)
            for block in multi:
                rows: dict[int, dict[int, object]] = {}
                partners: set[int] = set()
                for i in block:
                    row: dict[int, object] = {}
                    for j, out in adj[i]:
                        row[group[j]] = group[out] if is_item else out
                    rows[i] = row
                    partners.update(row)
                for partner in partners:
                    def pair_key(i, partner=partner):
                        return rows[i].get(partner)

                    if apply_split(block, pair_key):
                        return True
        return False

    while find_and_split():
        pass

    dense: dict[int, int] = {}
    out = []
    for g in group:
        found = dense.get(g)
        if found is None:
            found = dense[g] = len(dense)
        out.append(found)
    return out
