"""The generic MSO-to-monadic-datalog compiler (Theorem 4.5).

Every MSO-definable unary query over tau-structures of treewidth w is
definable in the quasi-guarded fragment of monadic datalog over tau_td.
The constructive proof enumerates MSO k-types (k = quantifier depth of
the query) of decomposition-shaped structures:

* Θ↑ ("bottom-up"): types of structures pointed at the *root* bag of a
  normalized tree decomposition.  Base case: all structures over a
  single full bag.  Induction: extend the decomposition upward by a
  permutation node, an element-replacement node, or a branch node
  (Lemma 3.5 guarantees the resulting type only depends on the child
  types and the bag data, so working on stored witnesses is sound).
* Θ↓ ("top-down"): types of structures pointed at a *leaf* bag,
  extended downward (Lemma 3.6).
* Element selection: gluing a Θ↑ witness onto a Θ↓ witness covers the
  whole structure; Lemma 3.7 makes the query answer a function of the
  two types, checked on the glued witness by direct MSO evaluation.

The compiler's working set is the **type algebra** of
:mod:`repro.core.typealg`: canonical k-types interned to dense type
ids (:class:`~repro.core.typealg.TypeTable`), one canonical *minimal*
witness per type id (a freshly registered witness is reduced -- greedy
deletion of non-bag elements with a type re-check -- sound because
rule emission only ever consults the type, per Lemmas 3.5/3.6), a
structure-scoped type memo shared across all typings of one witness,
and a worklist fixpoint over type ids whose induction steps are keyed
(and memoized) in step maps by ``(step, child type ids)`` -- the bag
data is part of the rank-0 component of the type, so the key needs
nothing else.  Three structural facts keep the fixpoint small:

* **One table serves both directions.**  Θ↑ and Θ↓ are the closure of
  the same base types under the same three type-level operations
  (permutation, replacement, bag-glued union), so the compiler builds
  the table once and emits the ``up``/``down`` rule families from the
  same step maps.
* **Glue candidates are bucketed by bag EDB.**  Two types can share a
  branch or selection node only if their rank-0 bag data agree
  (:attr:`~repro.core.typealg.TypeEntry.edb`), and the glued
  structure is symmetric in its arguments, so each *unordered*
  compatible pair is glued and typed exactly once.
* **Candidates stay in ids.**  The class restriction is checked on
  the bag: a glue or replacement candidate is admitted by the class
  predicate's exact delta checks, which read per-witness bag summaries
  (:mod:`repro.core.classes`), and one that passes is typed straight
  from its int relations.  A :class:`Structure` is built only for a
  new type's witness (to reduce and canonicalize it); the selection
  answers of a glue are evaluated once per type, on its stored
  witness.
* **Witness reduction bounds growth.**  Witness size is bounded by
  the minimal-representative closure of the type space instead of
  growing monotonically up the induction, which is what moves the
  practical envelope past width 1 (the width-2 grid-class compile is
  CI-gated via ``BENCH_compiler.json``).

After the fixpoint, the type table is **minimized** (``minimize=True``)
before rule emission: the coarsest partition of type ids that is a
congruence for every step map and agrees on the observable outcomes
(selection answers per partner class, or sentence acceptance) -- the
Myhill-Nerode construction over the type algebra, with the query as
the observation.  Merged types provably behave identically at every
node of every decomposition, so the emitted program over class ids
computes the same answers with often orders-of-magnitude fewer rules
(the full rank-k type space distinguishes far more than any one
depth-k query can observe).  ``minimize=False`` keeps one predicate
per raw type id for ablation and testing.

**Folding** (``fold=True``, the production default) then merges the
minimized classes whose observable differences are confined to
*unrealized* step entries (permutations, replacements or glue pairs
the ``structure_filter`` rejected); the partition machinery is
:func:`repro.core.typealg.fold_partition`.  ``fold=False`` is the
retained ablation the width-2 engine benchmark gate compares against.

Emission replays every step-map entry through the class assignment as
a small hashable *rule key* -- kind, head/body class ids and one shape
parameter (bag EDB, permutation, new-leaf side or answer position) --
and builds a datalog rule only on a key's first sighting.  Distinct
keys are exactly distinct rules (the argument is in ``_emit``), so the
program is the deduplicated step rules in first-seen order, and the
pre-fold rule count in :class:`CompilerStats` is a key count with no
second program built.  The result is quasi-guarded (``bag(v, ...)`` is
the guard; v1/v2 hang off v via child1/child2).
The program size is exponential in |φ| and w -- the paper says so
explicitly ("inevitably leads to programs of exponential size") and
Section 5 exists precisely because of it.  Practical instantiations
keep k and w tiny; the growth itself is measured in
``benchmarks/bench_state_explosion.py``.

For 0-ary queries (decision problems) the Θ↓ construction and the
element-selection step collapse to ``φ ← root(v), θ(v)`` rules -- the
simplification described after Corollary 4.6.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .._util import powerset
from ..datalog.ast import Atom, Literal, Program, Rule, Variable, neg, pos
from ..datalog.guards import td_key_dependencies
from ..mso.eval import evaluate
from ..mso.syntax import Formula
from ..structures.signature import Signature
from ..structures.structure import Element, Structure
from .classes import (
    as_class_predicate,
    grid_graph_filter,
    undirected_graph_filter,
)
from .typealg import (
    CompilerLimitError,
    TypeAlgebra,
    TypeEntry,
    TypeTable,
    fold_partition,
    ids_structure,
)

ANSWER_PREDICATE = "phi"

#: the default stored-witness bound -- the honest envelope setting the
#: ``BENCH_compiler.json`` gates measure against (import it rather than
#: restating the literal)
DEFAULT_MAX_WITNESS_SIZE = 16

__all__ = [
    "ANSWER_PREDICATE",
    "DEFAULT_MAX_WITNESS_SIZE",
    "CompiledQuery",
    "CompilerLimitError",
    "CompilerStats",
    "MSOToDatalogCompiler",
    "grid_graph_filter",
    "undirected_graph_filter",
]


@dataclass(frozen=True, slots=True)
class CompilerStats:
    """How hard one compile worked -- the ``BENCH_compiler.json`` shape.

    Slotted, so it pickles as its field values alone: it travels in
    every solver a service worker loads.

    ``max_reduced_witness`` is the envelope measure: the largest
    witness *surviving* reduction into the type table (the old
    compiler's monotone growth is visible as ``max_witness_typed``,
    the largest glued/grown structure that had to be typed at all).
    ``up_classes`` / ``down_classes`` are the minimized predicate
    counts (equal to the raw type counts when ``minimize=False``).
    """

    up_types: int
    down_types: int
    up_classes: int
    down_classes: int
    #: rule count before folding: the distinct rule keys over the
    #: minimized classes (counted, not built, when ``fold`` merges)
    rules: int
    type_computations: int
    max_witness_typed: int
    max_reduced_witness: int
    reductions: int
    elements_deleted: int
    glue_pairs: int
    #: minimized classes merged away by ⊥-insensitive folding
    #: (0 when ``fold=False``)
    classes_folded: int = 0
    #: rule count of the final program after folding
    #: (== ``rules`` when ``fold=False``)
    rules_after_passes: int = 0


@dataclass
class CompiledQuery:
    """The output of the compiler, ready to run on encoded structures."""

    program: Program
    signature: Signature
    width: int
    quantifier_depth: int
    free_var: str | None  # None for sentences
    up_type_count: int
    down_type_count: int
    stats: CompilerStats | None = None

    @property
    def is_sentence(self) -> bool:
        return self.free_var is None

    def dependencies(self):
        return td_key_dependencies(self.width + 2)


def _atom_patterns(
    signature: Signature, positions: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Every (predicate, index-tuple) over ``positions`` bag slots --
    the index form of the paper's R(ā)."""
    patterns = []
    for name in signature:
        arity = signature.arity(name)
        for indices in itertools.product(range(positions), repeat=arity):
            patterns.append((name, indices))
    return patterns


def _facts_over(
    structure: Structure,
    bag: Sequence[Element],
    patterns: Iterable[tuple[str, tuple[int, ...]]],
) -> frozenset[tuple[str, tuple[int, ...]]]:
    """Which R(ā) patterns hold in the structure (as index patterns)."""
    present = set()
    for name, indices in patterns:
        if structure.holds(name, *(bag[i] for i in indices)):
            present.add((name, indices))
    return frozenset(present)


def _dense(keys: list) -> list[int]:
    """Map a list of hashable keys to dense ints by first occurrence."""
    ids: dict = {}
    out = []
    for key in keys:
        found = ids.get(key)
        if found is None:
            found = ids[key] = len(ids)
        out.append(found)
    return out


class MSOToDatalogCompiler:
    """Compile one MSO query for a fixed signature and treewidth.

    A worklist fixpoint over dense type ids: base types seed the shared
    :class:`~repro.core.typealg.TypeTable`, every induction step runs
    on the canonical minimal witnesses stored there, and the results
    land in step maps keyed by ``(child type ids, step data)`` --
    ``_perm``, ``_repl``, and ``_glue_map``/``_sel`` (the latter two
    keyed by the *unordered* id pair, since gluing is symmetric).
    Rule emission replays the maps through the (optionally minimized)
    class assignment.
    """

    def __init__(
        self,
        formula: Formula,
        signature: Signature,
        width: int,
        free_var: str | None = None,
        quantifier_depth: int | None = None,
        max_witness_size: int = DEFAULT_MAX_WITNESS_SIZE,
        max_types: int = 20000,
        structure_filter=None,
        minimize: bool = True,
        fold: bool = True,
    ):
        if width < 1:
            raise ValueError("Theorem 4.5 assumes treewidth w >= 1")
        self.formula = formula
        self.signature = signature
        self.width = width
        self.free_var = free_var
        self.k = (
            quantifier_depth
            if quantifier_depth is not None
            else formula.quantifier_depth()
        )
        self.max_witness_size = max_witness_size
        self.max_types = max_types
        self.minimize = minimize
        self.fold = fold
        #: The *class* of structures compilation is restricted to (e.g.
        #: symmetric loop-free graphs), as a
        #: :class:`~repro.core.classes.ClassPredicate` (a plain callable
        #: is wrapped).  Sound whenever the class is closed under
        #: induced substructures, which makes every structure arising in
        #: a decomposition of a class member (subtree structures and
        #: their bag-glued unions alike) a class member again -- any
        #: class defined by universal constraints on the relations
        #: qualifies.  Without one, the full generality of Theorem 4.5
        #: applies -- and so does its full exponential type space.
        self.structure_filter = as_class_predicate(structure_filter)
        self.patterns = _atom_patterns(signature, width + 1)
        self.algebra = TypeAlgebra(
            self.k, max_witness_size, self.structure_filter
        )
        self._table = TypeTable(max_types)
        self._canon_bag = tuple(range(width + 1))
        self._perms = tuple(itertools.permutations(range(width + 1)))
        #: replacement-step EDB deltas: every subset of the patterns
        #: that mention the replaced position 0 (static per compile,
        #: which is what keys the ``_repl`` map and the minimization
        #: signature)
        self._chosen_list = tuple(
            frozenset(c)
            for c in powerset(
                [(name, idx) for name, idx in self.patterns if 0 in idx]
            )
        )
        #: the deltas the class admits at all (a verdict on ``chosen``
        #: alone, made once per compile)
        self._chosen_in_class = tuple(
            filter(self.structure_filter.chosen_ok, self._chosen_list)
        )
        # step maps (the memoized induction steps over type ids)
        self._base_ids: list[int] = []
        self._perm: dict[tuple[int, tuple[int, ...]], int] = {}
        self._repl: dict[tuple[int, frozenset], int] = {}
        self._glue_map: dict[tuple[int, int], int] = {}
        self._sel: dict[tuple[int, int], tuple[int, ...]] = {}
        #: selection answers per glued type id (see _answers_for)
        self._answers: dict[int, tuple[int, ...]] = {}
        self._bag_vars = tuple(Variable(f"X{i}") for i in range(width + 1))

    # ------------------------------------------------------------------
    # the type fixpoint
    # ------------------------------------------------------------------

    def _register_type(
        self, t, bag: tuple[int, ...], n: int, relations: tuple
    ) -> tuple[TypeEntry, bool]:
        """Intern type ``t`` of the candidate over ``0..n-1`` with
        ``relations``; only a *new* type's witness is built as a
        :class:`Structure`, reduced to its minimal representative and
        stored in canonical coordinates."""
        entry = self._table.get(t)
        if entry is not None:
            return entry, False
        algebra = self.algebra
        structure = ids_structure(self.signature, n, relations)
        reduced = algebra.reduce(structure, bag, t)
        canon, cbag = algebra.canonicalize(reduced, bag)
        edb = _facts_over(canon, cbag, self.patterns)
        summary = self.structure_filter.summarize(canon, cbag)
        return self._table.add(t, canon, cbag, edb, summary), True

    def _base_structures(self) -> Iterator[Structure]:
        """Every structure over the one bag ``0..w`` in the class."""
        bag = self._canon_bag
        in_class = self.structure_filter
        for chosen in powerset(self.patterns):
            relations: dict[str, set] = {}
            for name, indices in chosen:
                relations.setdefault(name, set()).add(
                    tuple(bag[i] for i in indices)
                )
            structure = Structure(self.signature, bag, relations)
            if in_class(structure):
                yield structure

    def _perm_steps(self, entry: TypeEntry) -> Iterator[TypeEntry]:
        """Bag permutation: re-point the stored witness (the shared
        per-structure type memo makes the ``(w+1)!`` re-typings cheap)."""
        type_of = self.algebra.type_of
        for perm in self._perms:
            new_bag = tuple(entry.bag[perm[i]] for i in range(self.width + 1))
            t = type_of(entry.structure, new_bag)
            result, new = self._register_type(
                t, new_bag, entry.size, entry.relations
            )
            self._perm[(entry.type_id, perm)] = result.type_id
            if new:
                yield result

    def _repl_steps(self, entry: TypeEntry) -> Iterator[TypeEntry]:
        """Element replacement: position 0 of the bag is replaced by a
        fresh element, under every EDB delta on the new element the
        class admits for this entry."""
        new_bag = (entry.size,) + entry.bag[1:]  # canonical coords: 0..n-1
        replace_ok = self.structure_filter.replace_ok
        type_of_ids = self.algebra.type_of_ids
        for chosen in self._chosen_in_class:
            if not replace_ok(entry, chosen):
                continue
            n, relations = entry.replaced(chosen)
            t = type_of_ids(self.signature, n, relations, new_bag)
            result, new = self._register_type(t, new_bag, n, relations)
            self._repl[(entry.type_id, chosen)] = result.type_id
            if new:
                yield result

    def _answers_for(self, entry: TypeEntry) -> tuple[int, ...]:
        """Selection answers for a glue of type ``entry``, evaluated
        once per type on its stored witness (Lemma 3.7: the answer is
        a function of the type; φ has quantifier depth k, so its truth
        at a bag point is determined by the rank-k type, and the
        stored witness has the glue's type over the same bag)."""
        found = self._answers.get(entry.type_id)
        if found is None:
            formula, free = self.formula, self.free_var
            found = tuple(
                i
                for i in range(self.width + 1)
                if evaluate(entry.structure, formula, {free: i})
            )
            self._answers[entry.type_id] = found
        return found

    def _glue_step(self, a: TypeEntry, b: TypeEntry) -> TypeEntry | None:
        """Glue one unordered pair of same-EDB types; records the branch
        result and (for unary queries) the selection answers.  The
        class is checked on the bag summaries and the glue is typed
        from its int relations."""
        if not self.structure_filter.glue_ok(a, b):
            return None
        n, relations = a.glued(b)
        bag = self._canon_bag
        t = self.algebra.type_of_ids(self.signature, n, relations, bag)
        result, new = self._register_type(t, bag, n, relations)
        key = (a.type_id, b.type_id) if a.type_id <= b.type_id else (
            b.type_id,
            a.type_id,
        )
        self._glue_map[key] = result.type_id
        if self.free_var is not None:
            self._sel[key] = self._answers_for(result)
        return result if new else None

    def build_table(self) -> None:
        """The worklist fixpoint: every type id is processed exactly
        once; glue partners are drawn from the processed entries of the
        same bag-EDB bucket, so each unordered compatible pair is
        attempted exactly once."""
        pending: deque[TypeEntry] = deque()
        bag = self._canon_bag
        for structure in self._base_structures():
            t = self.algebra.type_of(structure, bag)
            relations = tuple(
                structure.relation(name) for name in self.signature
            )
            entry, new = self._register_type(t, bag, len(bag), relations)
            self._base_ids.append(entry.type_id)
            if new:
                pending.append(entry)
        buckets: dict[frozenset, list[TypeEntry]] = {}
        while pending:
            entry = pending.popleft()
            pending.extend(self._perm_steps(entry))
            pending.extend(self._repl_steps(entry))
            bucket = buckets.setdefault(entry.edb, [])
            bucket.append(entry)
            for other in bucket:  # includes ``entry`` itself
                fresh = self._glue_step(entry, other)
                if fresh is not None:
                    pending.append(fresh)

    # ------------------------------------------------------------------
    # type minimization (Myhill-Nerode over the type algebra)
    # ------------------------------------------------------------------

    def _minimize_classes(self, accept: dict[int, bool]) -> list[int]:
        """The coarsest partition of type ids that is a congruence for
        every step map and agrees on the observations.

        Starts from (bag EDB, acceptance) blocks and alternates two
        phases until stable: *bulk* refinement by signatures (each id's
        step results and glue/selection rows, with partners abstracted
        to their current classes), then a *determinization* check that
        every binary map is single-valued at the class level -- the
        aggregated rows of the bulk phase cannot see a "criss-cross"
        (two members covering the same result set via different
        pairings), so any residual class-level ambiguity is resolved by
        a targeted split of the partner class against a pivot member.
        The result is a congruence: merged types take every step to
        merged results and answer every selection context identically,
        which is exactly what rule emission over class ids needs.
        """
        n = len(self._table)
        entries = list(self._table)
        glue_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (i, j), g in self._glue_map.items():
            glue_adj[i].append((j, g))
            if i != j:
                glue_adj[j].append((i, g))
        sel_adj: list[list[tuple[int, tuple]]] = [[] for _ in range(n)]
        for (i, j), answers in self._sel.items():
            sel_adj[i].append((j, answers))
            if i != j:
                sel_adj[j].append((i, answers))
        perm_map, repl_map = self._perm, self._repl
        perms, chosen_list = self._perms, self._chosen_list

        cls = _dense([(entries[i].edb, accept.get(i)) for i in range(n)])
        while True:
            while True:  # bulk refinement to a fixpoint
                sigs = []
                for i in range(n):
                    sigs.append(
                        (
                            cls[i],
                            tuple(cls[perm_map[i, p]] for p in perms),
                            tuple(
                                cls[repl_map[i, c]]
                                if (i, c) in repl_map
                                else -1
                                for c in chosen_list
                            ),
                            frozenset(
                                (cls[j], cls[g]) for j, g in glue_adj[i]
                            ),
                            frozenset((cls[j], a) for j, a in sel_adj[i]),
                        )
                    )
                refined = _dense(sigs)
                if refined == cls:
                    break
                cls = refined
            split = self._determinize_split(cls, glue_adj, sel_adj)
            if split is None:
                return cls
            cls = split

    def _determinize_split(self, cls, glue_adj, sel_adj) -> list[int] | None:
        """Find a class-level ambiguity in ``_glue_map`` / ``_sel`` and
        return a strictly finer partition that removes it, or ``None``
        when every binary map is deterministic over classes."""
        for table, value_of in (
            (self._glue_map, lambda g: cls[g]),
            (self._sel, lambda a: a),
        ):
            seen: dict[tuple[int, int], object] = {}
            for (i, j), result in table.items():
                a, b = cls[i], cls[j]
                key = (a, b) if a <= b else (b, a)
                value = value_of(result)
                prev = seen.setdefault(key, value)
                if prev != value:
                    return self._split_pair(
                        cls, key, glue_adj, sel_adj
                    )
        return None

    def _split_pair(self, cls, key, glue_adj, sel_adj) -> list[int]:
        """Split one side of an ambiguous class pair: some pivot member
        of one class must see two different outcomes across the other
        class's members (otherwise the pair would be deterministic), so
        partition the partner class by the pivot's outcome."""
        a_cls, b_cls = key
        members = [
            [i for i in range(len(cls)) if cls[i] == c]
            for c in (a_cls, b_cls)
        ]
        for pivot_side in (0, 1):
            partner_side = 1 - pivot_side
            for pivot in members[pivot_side]:
                rows: dict[int, object] = {}
                for j, g in glue_adj[pivot]:
                    rows[j] = ("glue", cls[g])
                for j, answers in sel_adj[pivot]:
                    rows[j] = (rows.get(j), answers)
                outcomes = {
                    u: rows.get(u) for u in members[partner_side]
                }
                if len(set(outcomes.values())) > 1:
                    # non-partner ids draw None; their cls[i] first
                    # component keeps them in their own classes
                    return _dense(
                        [(cls[i], outcomes.get(i)) for i in range(len(cls))]
                    )
        raise AssertionError(
            "ambiguous class pair with no splitting pivot -- "
            "minimization invariant violated"
        )

    # ------------------------------------------------------------------
    # ⊥-insensitive folding (``fold=True``)
    # ------------------------------------------------------------------

    def _fold_classes(
        self, cls: list[int], accept: dict[int, bool]
    ) -> list[int]:
        """Merge classes whose differences are confined to ⊥ entries.

        Minimization keeps two classes apart when one has a step
        defined (a permutation/replacement result, a realized glue
        partner) where the other has none -- even if they agree
        everywhere both are defined.  Under a witness-faithful
        ``structure_filter`` (a filter-rejected step never occurs in
        any in-class input's decomposition -- the same assumption the
        emitted program's completeness already rests on, since rejected
        steps simply emit no rules), those ⊥ distinctions are
        unobservable, and the bag EDB itself need not be observed
        either: base and replacement rules carry their full signed EDB
        literals, so the rule that fires at a node is always the one
        for the realized bag data.  The remaining observables are the
        sentence acceptance bit and the selection answers, which seed
        and drive :func:`~repro.core.typealg.fold_partition` over the
        *class-level* step maps (single-valued by the congruence
        property of ``cls``)."""
        n_cls = max(cls) + 1 if cls else 0

        def put(table: dict, key, value) -> None:
            prev = table.setdefault(key, value)
            if prev != value:
                raise AssertionError(
                    "class-level step map not single-valued -- "
                    "minimization congruence violated"
                )

        perm_maps: dict = {p: {} for p in self._perms}
        for (i, p), j in self._perm.items():
            put(perm_maps[p], cls[i], cls[j])
        repl_maps: dict = {c: {} for c in self._chosen_list}
        for (i, c), j in self._repl.items():
            put(repl_maps[c], cls[i], cls[j])
        glue: dict[tuple[int, int], int] = {}
        sel: dict[tuple[int, int], tuple[int, ...]] = {}
        for (i, j), g in self._glue_map.items():
            a, b = cls[i], cls[j]
            put(glue, (a, b) if a <= b else (b, a), cls[g])
        for (i, j), answers in self._sel.items():
            a, b = cls[i], cls[j]
            put(sel, (a, b) if a <= b else (b, a), answers)

        observations: list = [None] * n_cls
        for i, accepted in accept.items():
            observations[cls[i]] = accepted

        fold = fold_partition(
            n_cls,
            observations,
            maps=tuple(perm_maps.values()) + tuple(repl_maps.values()),
            pair_maps=(glue,),
            pair_observations=(sel,),
        )
        return [fold[c] for c in cls]

    # ------------------------------------------------------------------
    # rule emission
    # ------------------------------------------------------------------

    def _edb_literals(
        self, present: frozenset[tuple[str, tuple[int, ...]]]
    ) -> list[Literal]:
        literals = []
        for name, indices in self.patterns:
            args = tuple(self._bag_vars[i] for i in indices)
            literals.append(Literal(Atom(name, args), (name, indices) in present))
        return literals

    def _rule_keys(
        self, cls: list[int], accept: dict[int, bool]
    ) -> Iterator[tuple]:
        """Replay the step maps through the class assignment, yielding
        one key per candidate rule in emission order (repeats included).

        A key is the rule's kind, the class ids of its head and body
        predicates, and its one remaining shape parameter -- the bag
        EDB, the permutation, the new-leaf side or the answer position;
        :meth:`_rule` builds the rule from it.
        """
        unary = self.free_var is not None
        entry_of = self._table.entry_of

        # base types: leaf rules (Θ↑) and root rules (Θ↓)
        for i in self._base_ids:
            edb = entry_of(i).edb
            yield ("base", "up", cls[i], edb)
            if unary:
                yield ("base", "down", cls[i], edb)

        # permutation nodes: the node's bag is a reordering of the
        # neighbour's (child below for Θ↑, parent above for Θ↓); a
        # normalized decomposition has no identity-permutation node, so
        # the identity emits no rule (it would fire at a branch node
        # through child1 and give it a second class)
        identity = self._canon_bag
        for (i, perm), j in self._perm.items():
            if perm == identity:
                continue
            yield ("perm", "up", cls[j], cls[i], perm)
            if unary:
                yield ("perm", "down", cls[j], cls[i], perm)

        # element-replacement nodes: position 0 is fresh, the EDB over
        # the new bag is part of the result type's rank-0 data
        for (i, _chosen), j in self._repl.items():
            edb = entry_of(j).edb
            yield ("repl", "up", cls[j], cls[i], edb)
            if unary:
                yield ("repl", "down", cls[j], cls[i], edb)

        # branch nodes, from the symmetric glue map: Θ↑ combines the
        # two children below; Θ↓ extends to a new leaf (child 1 or 2)
        # whose sibling carries a Θ↑ type
        for (i, j), g in self._glue_map.items():
            ordered = ((i, j),) if i == j else ((i, j), (j, i))
            for a, b in ordered:
                yield ("glue", "up", cls[g], cls[a], cls[b])
                if unary:
                    yield ("glue", "down", cls[g], cls[a], cls[b], 1)
                    yield ("glue", "down", cls[g], cls[a], cls[b], 2)

        if unary:
            # element selection (Lemma 3.7): a node whose Θ↑ and Θ↓
            # types glue to an answer-bearing structure
            for (i, j), answers in self._sel.items():
                ordered = ((i, j),) if i == j else ((i, j), (j, i))
                for u_id, d_id in ordered:
                    for position in answers:
                        yield ("select", cls[u_id], cls[d_id], position)
        else:
            # decision-variant simplification: φ ← root(v), θ(v)
            for i, accepted in accept.items():
                if accepted:
                    yield ("accept", cls[i])

    def _rule(self, key: tuple) -> Rule:
        """The datalog rule a :meth:`_rule_keys` key stands for."""
        bag_vars = self._bag_vars
        v, vc = Variable("V"), Variable("Vc")
        kind = key[0]
        if kind == "select":
            _, u, d, position = key
            return Rule(
                Atom(ANSWER_PREDICATE, (bag_vars[position],)),
                (
                    pos(f"up{u}", v),
                    pos(f"down{d}", v),
                    pos("bag", v, *bag_vars),
                ),
            )
        if kind == "accept":
            return Rule(
                Atom(ANSWER_PREDICATE, ()),
                (pos("root", v), pos(f"up{key[1]}", v)),
            )
        # the direction doubles as the predicate prefix (up{c}/down{c})
        direction, head = key[1], key[2]
        up = direction == "up"
        if kind == "base":
            return Rule(
                Atom(f"{direction}{head}", (v,)),
                (
                    pos("bag", v, *bag_vars),
                    pos("leaf" if up else "root", v),
                    *self._edb_literals(key[3]),
                ),
            )
        # Θ↑ reads the child below, Θ↓ the parent above
        step = pos("child1", vc, v) if up else pos("child1", v, vc)
        if kind == "perm":
            _, _, _, body, perm = key
            permuted = tuple(bag_vars[perm[p]] for p in range(self.width + 1))
            return Rule(
                Atom(f"{direction}{head}", (v,)),
                (
                    pos("bag", v, *permuted),
                    step,
                    pos(f"{direction}{body}", vc),
                    pos("bag", vc, *bag_vars),
                ),
            )
        if kind == "repl":
            _, _, _, body, edb = key
            neighbour_bag = (Variable("Xold0"),) + bag_vars[1:]
            # the guard keeps the rule off equal-bag edges (Xold0 = X0):
            # a branch node and its child1 carry the same tuple
            return Rule(
                Atom(f"{direction}{head}", (v,)),
                (
                    pos("bag", v, *bag_vars),
                    step,
                    pos(f"{direction}{body}", vc),
                    pos("bag", vc, *neighbour_bag),
                    neg("bag", vc, *bag_vars),
                    *self._edb_literals(edb),
                ),
            )
        v1, v2 = Variable("V1"), Variable("V2")
        if up:
            _, _, _, a, b = key
            return Rule(
                Atom(f"up{head}", (v,)),
                (
                    pos("bag", v, *bag_vars),
                    pos("child1", v1, v),
                    pos(f"up{a}", v1),
                    pos("child2", v2, v),
                    pos(f"up{b}", v2),
                    pos("bag", v1, *bag_vars),
                    pos("bag", v2, *bag_vars),
                ),
            )
        _, _, _, a, b, side = key
        new_leaf, sibling = (v1, v2) if side == 1 else (v2, v1)
        return Rule(
            Atom(f"down{head}", (new_leaf,)),
            (
                pos("bag", new_leaf, *bag_vars),
                pos("child1", v1, v),
                pos("child2", v2, v),
                pos(f"down{a}", v),
                pos(f"up{b}", sibling),
                pos("bag", v, *bag_vars),
                pos("bag", sibling, *bag_vars),
            ),
        )

    def _emit(self, cls: list[int], accept: dict[int, bool]) -> Program:
        """The class-level program: one rule per distinct key of
        :meth:`_rule_keys`, built on the key's first sighting.

        Distinct type ids in one class replay to equal keys, and equal
        keys stand for equal rules -- completeness and soundness of the
        class-level program are exactly the congruence property of
        ``cls`` (every member reaches the class's steps, and all
        members agree on every observation).

        **Key invariant: distinct keys <=> distinct rules.**  A rule is
        a function of its key: the variables are fixed, a predicate is
        named by its class id (``up{c}``/``down{c}``), the EDB literals
        are one signed literal per atom pattern (a function of the EDB
        set), and the permutation, new-leaf side and answer position
        each fix one variable tuple.  Conversely the rule determines its
        key: the kind and direction show in the body's shape (the
        ``leaf``/``root`` guard, the ``child1`` argument order, a
        ``child2`` literal, the ``Xold0`` neighbour bag with its
        ``not bag(Vc, X0, ..., Xw)`` guard, the ``phi``
        head, the ``V1``/``V2`` head variable), the class ids in the
        predicate names, the EDB set in the literal signs, the
        permutation in the node's bag (distinct variables) and the
        answer position in the head.  So deduplicating keys in first-
        seen order yields exactly the rules, in exactly the order, that
        deduplicating the built rules would -- without building the
        repeats.
        """
        keys = dict.fromkeys(self._rule_keys(cls, accept))
        return Program(map(self._rule, keys))

    # ------------------------------------------------------------------

    def compile(self) -> CompiledQuery:
        self.build_table()
        accept: dict[int, bool] = {}
        if self.free_var is None:
            accept = {
                entry.type_id: bool(evaluate(entry.structure, self.formula))
                for entry in self._table
            }
        if self.minimize:
            cls = self._minimize_classes(accept)
        else:
            cls = list(range(len(self._table)))
        n_classes = len(set(cls))

        assign = cls
        classes_folded = 0
        if self.fold:
            assign = self._fold_classes(cls, accept)
            classes_folded = n_classes - len(set(assign))
        program = self._emit(assign, accept)
        if classes_folded:
            # the pre-fold rule count backs the fold-only-shrinks gate;
            # distinct keys are distinct rules, so no program is built
            rules_emitted = len(set(self._rule_keys(cls, accept)))
        else:
            rules_emitted = len(program)

        n_emitted = len(set(assign))
        astats = self.algebra.stats
        is_sentence = self.free_var is None
        stats = CompilerStats(
            up_types=len(self._table),
            down_types=0 if is_sentence else len(self._table),
            up_classes=n_emitted,
            down_classes=0 if is_sentence else n_emitted,
            rules=rules_emitted,
            type_computations=astats.type_computations,
            max_witness_typed=astats.max_witness_typed,
            max_reduced_witness=astats.max_reduced_witness,
            reductions=astats.reductions,
            elements_deleted=astats.elements_deleted,
            glue_pairs=len(self._glue_map),
            classes_folded=classes_folded,
            rules_after_passes=len(program),
        )
        return CompiledQuery(
            program=program,
            signature=self.signature,
            width=self.width,
            quantifier_depth=self.k,
            free_var=self.free_var,
            up_type_count=len(self._table),
            down_type_count=0 if is_sentence else len(self._table),
            stats=stats,
        )

