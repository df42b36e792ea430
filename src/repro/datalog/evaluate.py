"""Bottom-up datalog evaluation: join planning and the naive engine.

The least fixpoint of ``P ∪ A`` (Section 2.4) is computed bottom-up.
This module holds the planning both engines of
:func:`repro.datalog.solve` share, and the reference engine:

* ``naive`` -- :func:`naive_least_fixpoint`, Jacobi-style re-derivation
  each round, one binding at a time; the reference that the tests
  compare the product engine against;
* ``semi-naive`` -- the product engine lives in
  :mod:`repro.datalog.setengine`: the "interpreter" of Section 6,
  stratified and delta-driven, whose lazy behaviour is the paper's
  optimization (2): "generating only those ground instances of rules
  which actually produce new facts".

Stratification and per-rule join plans are computed once per program by
:func:`prepare_program` and reused across structures by whoever owns the
program (:func:`repro.datalog.solve` memoizes them per program object).
Each rule has a round-0 plan (:func:`plan_rule`) and, per recursive
body atom, a *delta variant* that starts at that atom
(:func:`plan_delta_rule`): the semi-naive rounds fire the variants, so
a round costs what its delta touches, not a re-run of the round-0 join
over every node.  The set engine fires them through a prefix trie
(:func:`group_delta_variants`), so the steps that variants share up to
variable renaming run once per round.  The naive engine runs only the
round-0 plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from ..structures.structure import Fact, Structure
from .ast import Atom, Constant, Literal, Program, Rule, Variable
from .builtins import UNBOUND, BuiltinCall, BuiltinRegistry, standard_registry


class UnsafeRuleError(ValueError):
    """A rule whose body cannot bind all its variables."""


class NotStratifiableError(ValueError):
    """Negation through recursion."""


# ----------------------------------------------------------------------
# Fact storage
# ----------------------------------------------------------------------


class Database:
    """Facts per predicate with lazily-built hash indexes.

    Indexes are registered *per predicate*: inserting a fact touches
    only the indexes of that fact's predicate, not every index in the
    database (insertion cost is proportional to how indexed the one
    predicate is, which keeps bulk loads linear).
    """

    __slots__ = ("_facts", "_indexes")

    def __init__(self) -> None:
        self._facts: dict[str, set[tuple]] = {}
        #: predicate -> {positions -> {key -> rows}}
        self._indexes: dict[
            str, dict[tuple[int, ...], dict[tuple, list[tuple]]]
        ] = {}

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Database":
        db = cls()
        for fact in facts:
            db.add(fact.predicate, fact.args)
        return db

    @classmethod
    def from_structure(cls, structure: Structure) -> "Database":
        db = cls()
        for name in structure.signature:
            for tup in structure.relation(name):
                db.add(name, tup)
        return db

    @classmethod
    def from_relations(
        cls, relations: Mapping[str, set[tuple]]
    ) -> "Database":
        """Wrap already-built relations, taking ownership of the sets
        (no defensive copy -- the caller hands them over).  This is the
        bulk-decode path of the set-at-a-time engine."""
        db = cls()
        db._facts = dict(relations)
        return db

    def add(self, predicate: str, args: tuple) -> bool:
        """Insert; returns True iff the fact is new."""
        rel = self._facts.setdefault(predicate, set())
        if args in rel:
            return False
        rel.add(args)
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                key = tuple(args[i] for i in positions)
                index.setdefault(key, []).append(args)
        return True

    def contains(self, predicate: str, args: tuple) -> bool:
        return args in self._facts.get(predicate, ())

    def relation(self, predicate: str) -> set[tuple]:
        return self._facts.get(predicate, set())

    def predicates(self) -> Iterator[str]:
        return iter(self._facts)

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._facts.values())

    def facts(self) -> Iterator[Fact]:
        for predicate in sorted(self._facts):
            for args in sorted(self._facts[predicate], key=repr):
                yield Fact(predicate, args)

    def match(self, predicate: str, pattern: Sequence) -> Iterator[tuple]:
        """All facts of ``predicate`` matching the pattern.

        ``pattern`` entries are concrete values or :data:`UNBOUND`.
        """
        if not self._facts.get(predicate):
            return iter(())
        positions = tuple(
            i for i, p in enumerate(pattern) if p is not UNBOUND
        )
        if not positions:
            return iter(self._facts[predicate])
        index = self.lookup(predicate, positions)
        key = tuple(pattern[i] for i in positions)
        return iter(index.get(key, ()))

    def lookup(
        self, predicate: str, positions: tuple[int, ...]
    ) -> dict[tuple, list[tuple]]:
        """The hash index of ``predicate`` on ``positions`` (built
        lazily, then maintained incrementally by :meth:`add`).

        Exposed so relation-level joins (the set-at-a-time engine, the
        batch grounder) can probe one index per join step instead of
        re-resolving it per binding.
        """
        per_pred = self._indexes.setdefault(predicate, {})
        index = per_pred.get(positions)
        if index is None:
            index = {}
            for args in self._facts.get(predicate, ()):
                key = tuple(args[i] for i in positions)
                index.setdefault(key, []).append(args)
            per_pred[positions] = index
        return index

    def copy(self) -> "Database":
        clone = Database()
        clone._facts = {p: set(rel) for p, rel in self._facts.items()}
        return clone


# ----------------------------------------------------------------------
# Stratification
# ----------------------------------------------------------------------


def stratify(program: Program) -> list[frozenset[str]]:
    """Partition the IDB predicates into strata.

    Raises :class:`NotStratifiableError` if some negation occurs inside
    a recursive cycle.  Extensional and built-in predicates do not
    participate.
    """
    idb = program.intensional_predicates()
    pos_edges: dict[str, set[str]] = {p: set() for p in idb}
    neg_edges: dict[str, set[str]] = {p: set() for p in idb}
    for r in program.rules:
        head = r.head.predicate
        for literal in r.body:
            p = literal.atom.predicate
            if p in idb:
                (pos_edges if literal.positive else neg_edges)[p].add(head)

    # iterate stratum numbers to a fixpoint (programs are small)
    stratum = {p: 0 for p in idb}
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > len(idb) + 1:
            raise NotStratifiableError("negation through recursion")
        for src in idb:
            for dst in pos_edges[src]:
                if stratum[dst] < stratum[src]:
                    stratum[dst] = stratum[src]
                    changed = True
            for dst in neg_edges[src]:
                if stratum[dst] < stratum[src] + 1:
                    stratum[dst] = stratum[src] + 1
                    changed = True
    if not idb:
        return []
    levels = max(stratum.values()) + 1
    return [
        frozenset(p for p in idb if stratum[p] == level)
        for level in range(levels)
    ]


def strongly_connected_components(
    nodes: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
) -> list[tuple[Hashable, ...]]:
    """Tarjan's algorithm, iteratively (no recursion-depth limit).

    Components come out in *reverse topological* order: every edge of
    the condensation goes from a later component to an earlier one, so
    dependencies precede their dependents in the returned list --
    exactly the evaluation order a stratified fixpoint wants.
    """
    index: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    components: list[tuple[Hashable, ...]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # each frame: (node, iterator over its successors)
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    if index[succ] < lowlink[node]:
                        lowlink[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is node or member == node:
                        break
                components.append(tuple(component))
    return components


def refine_strata(
    program: Program, strata: Sequence[frozenset[str]]
) -> tuple[frozenset[str], ...]:
    """Split each negation stratum into its positive-dependency SCCs.

    :func:`stratify` partitions by negation level only, so a level's
    predicates all share one fixpoint loop even when most of them never
    feed back into each other -- the compiled Theorem 4.5 programs land
    *everything*, including the nonrecursive ``phi`` selection rules,
    in a single stratum, and every delta round re-fires them all.
    Condensing each level by its positive intra-level edges and
    ordering the components topologically (dependencies first) is
    semantics-preserving -- every intra-level edge is positive, so the
    refined order is still a valid stratification and
    ``_check_negation_stratified`` keeps holding -- and it isolates
    the genuinely recursive cores: a singleton component without a
    self-loop has no recursive positions at all and takes the
    fire-once fast path of the evaluators.
    """
    idb = program.intensional_predicates()
    pos_deps: dict[str, set[str]] = {p: set() for p in idb}
    for rule in program.rules:
        head = pos_deps[rule.head.predicate]
        for literal in rule.body:
            name = literal.atom.predicate
            if literal.positive and name in idb:
                head.add(name)
    refined: list[frozenset[str]] = []
    for level in strata:
        members = sorted(level)
        # Tarjan emits components in reverse topological order of the
        # condensation -- dependencies first, which is evaluation order
        for component in strongly_connected_components(
            members, lambda p: sorted(pos_deps[p] & level)
        ):
            refined.append(frozenset(component))
    return tuple(refined)


# ----------------------------------------------------------------------
# Rule planning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    literal: Literal
    body_index: int
    kind: str  # "relation" | "builtin" | "negation"


Choice = tuple[int, Literal, str]


def _mask_of(a: Atom, bound: set[Variable]) -> tuple[bool, ...]:
    return tuple(isinstance(arg, Constant) or arg in bound for arg in a.args)


def _is_builtin(
    a: Atom, idb: frozenset[str], registry: BuiltinRegistry
) -> bool:
    return a.predicate in registry and a.predicate not in idb


def _greedy_choice(
    remaining: Sequence[tuple[int, Literal]],
    bound: set[Variable],
    idb: frozenset[str],
    registry: BuiltinRegistry,
) -> Choice | None:
    """The round-0 order's next step: the positive relation atom with
    the most bound slots (ties on body order) when it is fully bound,
    else the first built-in in a functional binding pattern, else that
    relation atom, else the first runnable built-in, else the first
    fully bound negation.

    A functional built-in binds its outputs at most once per row, so
    running it before a relation atom that still has a free position
    never widens the batch -- and it turns the later atoms over its
    outputs into bound checks instead of cross products."""
    chosen: Choice | None = None
    best_key: tuple | None = None
    full = False
    for index, literal in remaining:
        a = literal.atom
        if literal.positive and not _is_builtin(a, idb, registry):
            mask = _mask_of(a, bound)
            key = (-sum(mask), index)
            if best_key is None or key < best_key:
                best_key = key
                chosen = (index, literal, "relation")
                full = all(mask)
    if full:
        return chosen
    runnable: Choice | None = None
    for index, literal in remaining:
        a = literal.atom
        if literal.positive and _is_builtin(a, idb, registry):
            mask = _mask_of(a, bound)
            builtin = registry.get(a.predicate)
            if not builtin.can_evaluate(mask):
                continue
            if builtin.is_functional(mask):
                return (index, literal, "builtin")
            if runnable is None:
                runnable = (index, literal, "builtin")
    if chosen is not None:
        return chosen
    if runnable is not None:
        return runnable
    for index, literal in remaining:
        if not literal.positive and all(_mask_of(literal.atom, bound)):
            return (index, literal, "negation")
    return None


def _delta_choice(
    remaining: Sequence[tuple[int, Literal]],
    bound: set[Variable],
    idb: frozenset[str],
    registry: BuiltinRegistry,
) -> Choice | None:
    """The next step of a delta variant, after its delta atom:

    1. a fully bound step (semi-join, built-in check, negation);
    2. a built-in in a functional binding pattern;
    3. a relation atom with a bound position -- extensional before
       intensional, then most bound first;
    4. otherwise the round-0 choice.

    Every class takes its first candidate in body order (class 3 after
    its ranking).  Extensional first is what keeps a round linear in
    its delta: the key dependencies of the encoding (``child1(S1, S)``
    by ``S1``) are probed before an intensional relation whose fanout
    grows with the input."""
    probe: Choice | None = None
    probe_key: tuple | None = None
    functional: Choice | None = None
    for index, literal in remaining:
        a = literal.atom
        mask = _mask_of(a, bound)
        if not literal.positive:
            if all(mask):
                return (index, literal, "negation")
        elif _is_builtin(a, idb, registry):
            builtin = registry.get(a.predicate)
            if all(mask):
                return (index, literal, "builtin")
            if functional is None and builtin.can_evaluate(mask) and (
                builtin.is_functional(mask)
            ):
                functional = (index, literal, "builtin")
        elif all(mask):
            return (index, literal, "relation")
        elif any(mask):
            key = (a.predicate in idb, -sum(mask), index)
            if probe_key is None or key < probe_key:
                probe_key = key
                probe = (index, literal, "relation")
    if functional is not None:
        return functional
    if probe is not None:
        return probe
    return _greedy_choice(remaining, bound, idb, registry)


def _order_body(
    rule: Rule,
    remaining: list[tuple[int, Literal]],
    bound: set[Variable],
    plan: list[PlanStep],
    choose,
) -> tuple[PlanStep, ...]:
    while remaining:
        chosen = choose(remaining, bound)
        if chosen is None:
            raise UnsafeRuleError(
                f"cannot order body of rule: {rule} (bound so far: "
                f"{sorted(v.name for v in bound)})"
            )
        index, literal, kind = chosen
        remaining.remove((index, literal))
        bound.update(literal.atom.variables())
        plan.append(PlanStep(literal, index, kind))

    unbound_head = set(rule.head.variables()) - bound
    if unbound_head:
        raise UnsafeRuleError(
            f"head variables {sorted(v.name for v in unbound_head)} "
            f"never bound in rule: {rule}"
        )
    return tuple(plan)


def plan_rule(
    rule: Rule,
    idb: frozenset[str],
    registry: BuiltinRegistry,
) -> tuple[PlanStep, ...]:
    """Order the body so every step can run with earlier bindings.

    Greedy (:func:`_greedy_choice`): prefer positive relation atoms
    (most bound slots first, equal scores in body textual order), with
    a built-in in a functional binding pattern ahead of any relation
    atom that is not fully bound, then built-ins whose binding pattern
    is satisfied, then fully-bound negations.  Raises
    :class:`UnsafeRuleError` when stuck, which also catches the classic
    safety violations.
    """
    return _order_body(
        rule,
        list(enumerate(rule.body)),
        set(),
        [],
        lambda remaining, bound: _greedy_choice(
            remaining, bound, idb, registry
        ),
    )


def plan_delta_rule(
    rule: Rule,
    delta_index: int,
    idb: frozenset[str],
    registry: BuiltinRegistry,
) -> tuple[PlanStep, ...]:
    """The delta variant of ``rule`` for the recursive body atom at
    ``delta_index``: that atom runs first, as a scan of the round's
    delta, and the rest follows :func:`_delta_choice`.  A semi-naive
    round then pays per delta fact instead of re-running the round-0
    plan, which scans the extensional guards over every node before it
    reaches the delta."""
    first = rule.body[delta_index]
    return _order_body(
        rule,
        [(i, lit) for i, lit in enumerate(rule.body) if i != delta_index],
        set(first.atom.variables()),
        [PlanStep(first, delta_index, "relation")],
        lambda remaining, bound: _delta_choice(
            remaining, bound, idb, registry
        ),
    )


# ----------------------------------------------------------------------
# Step compilation: classify each atom position once per plan, not once
# per binding (the classification is static given the join order).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledStep:
    kind: str  # "relation" | "builtin" | "negation"
    body_index: int
    predicate: str
    arity: int
    atom: Atom
    consts: tuple[tuple[int, object], ...]  # (position, raw value)
    #: ``(position, slot)`` pairs; a slot is the variable's number in
    #: first-occurrence order along the plan (:func:`plan_slots`), and
    #: the set engine keys its batch columns by slot
    bound: tuple[tuple[int, int], ...]  # already-bound variables
    free: tuple[tuple[int, int], ...]  # first occurrences
    dups: tuple[tuple[int, int], ...]  # repeated free var: (pos, first pos)
    #: slots still needed by later steps or the head -- batch columns
    #: outside this set are projected away by the step
    live: frozenset[int]
    #: the built-in kernel of a built-in step or a negated built-in
    call: BuiltinCall | None
    #: the bound and constant positions, sorted: the search signature
    #: of the hash index a relation step probes
    key: tuple[int, ...]


@dataclass(frozen=True)
class CompiledHead:
    predicate: str
    arity: int
    consts: tuple[tuple[int, object], ...]
    vars: tuple[tuple[int, int], ...]  # (position, slot)


def plan_slots(plan: Sequence[PlanStep]) -> dict[Variable, int]:
    """Number the variables of ``plan`` in order of first occurrence.

    Two plans whose first ``k`` steps are equal up to a renaming of
    variables then compile those steps to equal slot patterns, which is
    what lets :func:`group_delta_variants` share them."""
    slots: dict[Variable, int] = {}
    for step in plan:
        for arg in step.literal.atom.args:
            if isinstance(arg, Variable) and arg not in slots:
                slots[arg] = len(slots)
    return slots


def compile_plan(
    rule: Rule,
    plan: Sequence[PlanStep],
    registry: BuiltinRegistry,
    idb: frozenset[str],
) -> tuple[CompiledStep, ...]:
    """Classify every step of ``plan`` once, over the plan's slots
    (:func:`plan_slots`).  Built-in steps get their
    :class:`BuiltinCall`, so an unsupported binding mask raises
    :class:`ValueError` here, not per row."""
    slot_of = plan_slots(plan)
    # live-after set per step: the head's variables plus everything a
    # later step still reads (classic projection push-down)
    acc = {slot_of[v] for v in rule.head.variables()}
    live_after: list[frozenset[int]] = [frozenset()] * len(plan)
    for i in range(len(plan) - 1, -1, -1):
        live_after[i] = frozenset(acc)
        acc.update(slot_of[v] for v in plan[i].literal.atom.variables())

    bound_slots: set[int] = set()
    out: list[CompiledStep] = []
    for step_index, step in enumerate(plan):
        atom = step.literal.atom
        consts: list[tuple[int, object]] = []
        bound: list[tuple[int, int]] = []
        free: list[tuple[int, int]] = []
        dups: list[tuple[int, int]] = []
        first_pos: dict[int, int] = {}
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                consts.append((pos, arg.value))
                continue
            slot = slot_of[arg]
            if slot in bound_slots:
                bound.append((pos, slot))
            elif slot in first_pos:
                dups.append((pos, first_pos[slot]))
            else:
                first_pos[slot] = pos
                free.append((pos, slot))
        call = None
        if _is_builtin(atom, idb, registry) and (
            step.kind == "builtin" or not (free or dups)
        ):
            call = BuiltinCall(
                registry.get(atom.predicate), consts, bound, free, dups
            )
        out.append(
            CompiledStep(
                kind=step.kind,
                body_index=step.body_index,
                predicate=atom.predicate,
                arity=atom.arity,
                atom=atom,
                consts=tuple(consts),
                bound=tuple(bound),
                free=tuple(free),
                dups=tuple(dups),
                live=live_after[step_index],
                call=call,
                key=tuple(sorted(pos for pos, _ in (*consts, *bound))),
            )
        )
        bound_slots.update(first_pos)
    return tuple(out)


def compile_head(head: Atom, plan: Sequence[PlanStep]) -> CompiledHead:
    """The head over ``plan``'s slots (:func:`plan_slots`)."""
    slot_of = plan_slots(plan)
    consts: list[tuple[int, object]] = []
    hvars: list[tuple[int, int]] = []
    for pos, arg in enumerate(head.args):
        if isinstance(arg, Constant):
            consts.append((pos, arg.value))
        else:
            hvars.append((pos, slot_of[arg]))
    return CompiledHead(
        head.predicate, head.arity, tuple(consts), tuple(hvars)
    )


# ----------------------------------------------------------------------
# Join execution
# ----------------------------------------------------------------------

Binding = dict[Variable, object]


def _extend_with_fact(
    binding: Binding, atom: Atom, fact_args: tuple
) -> Binding | None:
    extended = binding
    copied = False
    for term, value in zip(atom.args, fact_args):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            known = extended.get(term, UNBOUND)
            if known is UNBOUND:
                if not copied:
                    extended = dict(extended)
                    copied = True
                extended[term] = value
            elif known != value:
                return None
    return extended


def _slots(atom: Atom, binding: Binding) -> tuple:
    return tuple(
        term.value
        if isinstance(term, Constant)
        else binding.get(term, UNBOUND)
        for term in atom.args
    )


@dataclass
class EvaluationStats:
    """Counters reported by the benchmark harness."""

    rule_firings: int = 0
    facts_derived: int = 0
    iterations: int = 0
    #: total bindings produced across all join-plan steps -- the
    #: planner-quality signal (a bad join order explodes this long
    #: before wall-clock makes the damage obvious)
    bindings_explored: int = 0


@dataclass(frozen=True)
class DeltaVariant:
    """One rule planned to start at one of its recursive body atoms.

    A semi-naive round fires the variant with that atom restricted to
    the round's delta.  ``steps`` and ``head`` are ``plan`` compiled
    for the set engine, kept here so an evaluator never recompiles
    it."""

    body_index: int
    plan: tuple[PlanStep, ...]
    steps: tuple[CompiledStep, ...]
    head: CompiledHead


@dataclass(frozen=True)
class PrefixGroup:
    """A node of a recursive stratum's delta-variant trie.

    Every variant below this node starts with the steps on the path
    from the root to here, up to a renaming of variables (equal slot
    patterns, :func:`plan_slots`).  The set engine runs ``steps`` once
    per round on the batch its parent produced, projects the ``heads``
    of the variants that end here, and hands the batch on to each of
    the ``children``.  A shared step keeps the union of its members'
    live slots."""

    steps: tuple[CompiledStep, ...]
    #: ``(rule index, head)`` of the variants whose plan ends here
    heads: tuple[tuple[int, CompiledHead], ...]
    children: tuple["PrefixGroup", ...]
    #: ``(rule index, delta body index)`` of every variant through here
    members: tuple[tuple[int, int], ...]


def _step_key(step: PlanStep, slot_of: Mapping[Variable, int]) -> tuple:
    """What a compiled step depends on, given the steps before it:
    two variants whose keys agree up to depth ``k`` compile their
    first ``k`` steps to equal slot patterns."""
    return (
        step.kind,
        step.literal.atom.predicate,
        tuple(
            slot_of[arg]
            if isinstance(arg, Variable)
            else (type(arg.value), arg.value)
            for arg in step.literal.atom.args
        ),
    )


class _TrieNode:
    __slots__ = ("children", "variants", "ends")

    def __init__(self) -> None:
        self.children: dict[tuple, _TrieNode] = {}
        #: (rule index, variant) of every variant through here
        self.variants: list[tuple[int, DeltaVariant]] = []
        #: (rule index, head) of the variants that end here
        self.ends: list[tuple[int, CompiledHead]] = []


def group_delta_variants(
    rule_indices: Sequence[int],
    variants: Sequence[Sequence[DeltaVariant]],
) -> tuple[PrefixGroup, ...]:
    """The prefix trie of one stratum's delta variants: variants whose
    first steps are equal up to variable renaming share them, with
    chains of single-child nodes merged into one group."""
    root = _TrieNode()
    for rule_index, rule_variants in zip(rule_indices, variants):
        for variant in rule_variants:
            slot_of = plan_slots(variant.plan)
            node = root
            for step in variant.plan:
                key = _step_key(step, slot_of)
                child = node.children.get(key)
                if child is None:
                    child = node.children[key] = _TrieNode()
                child.variants.append((rule_index, variant))
                node = child
            node.ends.append((rule_index, variant.head))
    return tuple(_freeze(child, 0) for child in root.children.values())


def _freeze(node: _TrieNode, depth: int) -> PrefixGroup:
    """The group starting at ``node``, the step at ``depth`` of each of
    its variants."""
    members = tuple(
        (rule_index, variant.body_index) for rule_index, variant in node.variants
    )
    steps = []
    while True:
        step = node.variants[0][1].steps[depth]
        live = frozenset().union(
            *(variant.steps[depth].live for _, variant in node.variants)
        )
        steps.append(replace(step, live=live) if live != step.live else step)
        depth += 1
        if node.ends or len(node.children) != 1:
            break
        (node,) = node.children.values()
    return PrefixGroup(
        steps=tuple(steps),
        heads=tuple(node.ends),
        children=tuple(
            _freeze(child, depth) for child in node.children.values()
        ),
        members=members,
    )


@dataclass(frozen=True)
class StratumPlan:
    """The rules of one stratum, pre-resolved for the fixpoint loop."""

    rule_indices: tuple[int, ...]
    #: per rule (parallel to ``rule_indices``): one delta variant per
    #: body position holding a positive atom of this stratum
    variants: tuple[tuple[DeltaVariant, ...], ...]
    #: the same variants as a prefix trie (:func:`group_delta_variants`):
    #: what the set engine fires in the delta rounds
    groups: tuple[PrefixGroup, ...]

    @property
    def recursive(self) -> bool:
        """Whether some rule consumes the stratum's own output; a
        stratum that does not reaches its fixpoint in one firing."""
        return any(self.variants)


@dataclass(frozen=True)
class PreparedProgram:
    """A program with stratification and join plans computed once.

    Building one of these is the per-program cost of evaluation (plan
    ordering, stratification, the safety checks, step compilation);
    evaluating a prepared program over a structure is the per-structure
    cost.  Prepared programs are immutable and shared freely across
    evaluator instances: the owner of a program prepares it once (the
    Section 5 deciders hold theirs; :func:`repro.datalog.solve`
    memoizes per program object), so repeated solves skip this work.

    ``plans`` run in round 0 and in the fire-once strata; the delta
    rounds of a recursive stratum run its :class:`DeltaVariant` plans,
    grouped by shared prefix (:class:`PrefixGroup`) on the set engine.
    """

    program: Program
    registry: BuiltinRegistry
    idb: frozenset[str]
    strata: tuple[frozenset[str], ...]
    plans: tuple[tuple[PlanStep, ...], ...]  # parallel to program.rules
    stratum_plans: tuple[StratumPlan, ...]  # parallel to strata
    #: ``plans`` compiled for the set engine (parallel to program.rules)
    steps: tuple[tuple[CompiledStep, ...], ...] = field(
        compare=False, repr=False
    )
    #: each rule's head over its round-0 plan's slots
    heads: tuple[CompiledHead, ...] = field(compare=False, repr=False)


def prepare_program(
    program: Program,
    registry: BuiltinRegistry | None = None,
) -> PreparedProgram:
    """Stratify, safety-check, and plan every rule of ``program``."""
    registry = registry if registry is not None else standard_registry()
    idb = program.intensional_predicates()
    overlap = idb & registry.names()
    if overlap:
        raise ValueError(
            f"predicates defined both by rules and built-ins: {sorted(overlap)}"
        )
    strata = refine_strata(program, stratify(program))
    _check_negation_stratified(program, idb, strata)
    plans = tuple(plan_rule(rule, idb, registry) for rule in program.rules)
    stratum_plans = []
    for stratum in strata:
        indices = tuple(
            i
            for i, rule in enumerate(program.rules)
            if rule.head.predicate in stratum
        )
        variants = []
        for i in indices:
            rule = program.rules[i]
            rule_variants = []
            for pos, literal in enumerate(rule.body):
                if literal.positive and literal.atom.predicate in stratum:
                    plan = plan_delta_rule(rule, pos, idb, registry)
                    rule_variants.append(
                        DeltaVariant(
                            pos,
                            plan,
                            compile_plan(rule, plan, registry, idb),
                            compile_head(rule.head, plan),
                        )
                    )
            variants.append(tuple(rule_variants))
        stratum_plans.append(
            StratumPlan(
                indices,
                tuple(variants),
                group_delta_variants(indices, variants),
            )
        )
    return PreparedProgram(
        program=program,
        registry=registry,
        idb=idb,
        strata=strata,
        plans=plans,
        stratum_plans=tuple(stratum_plans),
        steps=tuple(
            compile_plan(rule, plan, registry, idb)
            for rule, plan in zip(program.rules, plans)
        ),
        heads=tuple(
            compile_head(rule.head, plan)
            for rule, plan in zip(program.rules, plans)
        ),
    )


def _check_negation_stratified(
    program: Program,
    idb: frozenset[str],
    strata: Sequence[frozenset[str]],
) -> None:
    level = {}
    for i, stratum in enumerate(strata):
        for p in stratum:
            level[p] = i
    for rule in program.rules:
        head_level = level[rule.head.predicate]
        for literal in rule.body:
            p = literal.atom.predicate
            if p in idb and not literal.positive:
                if level[p] >= head_level:
                    raise NotStratifiableError(
                        f"negated IDB atom {literal} not on a lower stratum"
                    )


def _fire(
    prepared: PreparedProgram,
    rule_index: int,
    db: Database,
    out: list[Fact],
    stats: EvaluationStats,
) -> None:
    """Fire one rule's round-0 plan against ``db``, one binding at a
    time, and append its head instances to ``out``."""
    registry, idb = prepared.registry, prepared.idb
    bindings: list[Binding] = [{}]
    for step in prepared.plans[rule_index]:
        atom = step.literal.atom
        new_bindings: list[Binding] = []
        for binding in bindings:
            pattern = _slots(atom, binding)
            if step.kind == "negation":
                # the planner places a negation only once it is bound
                if _is_builtin(atom, idb, registry):
                    held = any(registry.get(atom.predicate).evaluate(pattern))
                else:
                    held = db.contains(atom.predicate, pattern)
                if not held:
                    new_bindings.append(binding)
                continue
            if step.kind == "builtin":
                found = registry.get(atom.predicate).evaluate(pattern)
            else:
                found = db.match(atom.predicate, pattern)
            for args in found:
                extended = _extend_with_fact(binding, atom, args)
                if extended is not None:
                    new_bindings.append(extended)
        bindings = new_bindings
        stats.bindings_explored += len(bindings)
        if not bindings:
            return
    head = prepared.program.rules[rule_index].head
    for binding in bindings:
        stats.rule_firings += 1
        out.append(
            head.substitute(
                {v: Constant(val) for v, val in binding.items()}
            ).to_fact()
        )


def naive_least_fixpoint(
    program: Program,
    edb: Database | Iterable[Fact] | Structure,
    registry: BuiltinRegistry | None = None,
    stats: EvaluationStats | None = None,
    prepared: PreparedProgram | None = None,
) -> Database:
    """Naive (Jacobi-style) fixpoint: re-fire every rule of a stratum
    each round, one binding at a time, until a round derives nothing.

    The reference engine: it shares only the planner with
    :func:`repro.datalog.setengine.least_fixpoint`, which the tests
    compare against it.  The returned database holds the extensional
    and the derived facts.
    """
    if prepared is None:
        prepared = prepare_program(program, registry)
    if stats is None:
        stats = EvaluationStats()
    if isinstance(edb, Structure):
        db = Database.from_structure(edb)
    elif isinstance(edb, Database):
        db = edb.copy()
    else:
        db = Database.from_facts(edb)
    for stratum_plan in prepared.stratum_plans:
        changed = True
        while changed:
            changed = False
            stats.iterations += 1
            derived: list[Fact] = []
            for rule_index in stratum_plan.rule_indices:
                _fire(prepared, rule_index, db, derived, stats)
            for fact in derived:
                if db.add(fact.predicate, fact.args):
                    stats.facts_derived += 1
                    changed = True
    return db
