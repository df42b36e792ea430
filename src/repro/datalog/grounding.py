"""Guard-driven grounding (the first half of Theorem 4.4).

For a quasi-guarded rule, instantiating the guard atom against the
database determines every variable of the rule (directly or through the
functional key constraints of ``A_td``), so the number of ground
instances is O(|A|) per rule and O(|P| * |A|) overall.  The extensional
part of each body -- positive atoms, negated atoms, built-ins -- is
resolved during grounding; what remains is a propositional Horn program
over the intensional atoms, which linear-time unit resolution (LTUR,
:class:`repro.datalog.horn.StreamingHorn`) solves.

The grounder (:func:`ground_program_streamed`, the solve path of
:class:`repro.core.quasi_guarded.QuasiGuardedEvaluator`) is a
push-based emitter over dense interned ids: it instantiates ground
rules *on demand* and feeds them one at a time into the online LTUR.
Base rules (no intensional body atom) are instantiated up front; every
other rule is *driven* by one designated intensional body literal and
is only instantiated for the bindings its driver atom actually takes
in the least model -- Section 6's optimization (2) ("generate only
those ground instances of rules which actually produce new facts"),
realized at grounding time.  Demand pruning
(:func:`relevant_predicates`) additionally skips whole rules whose
heads cannot reach the query, and statically dead rules (a positive
extensional literal over an empty relation) are never instantiated.
Peak live-rule residency is the LTUR's waiting frontier, not the
ground program.  The full ground program is never materialized; the
fully materialized Figure 5 ablation of Section 6's warning was
retired, and ``test_lazy_grounding_reaches_a_minority_of_the_atom_space``
in ``tests/problems/test_three_coloring.py`` pins the lazy share.

Sink predicates (heads in no rule body, like the compiled answer
predicate ``phi``) are always deferred: their rules fire once, after
the recursive fixpoint has settled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

from .ast import Atom, Constant, Literal, Program, Rule, Variable
from .builtins import UNBOUND, BuiltinRegistry, standard_registry
from .guards import CostModel
from .horn import StreamingHorn
from .interning import InternPool
from .setengine import SetDatabase


class NotGroundableError(ValueError):
    """The extensional body part cannot bind all rule variables."""


@dataclass
class GroundingStats:
    ground_rules: int = 0
    #: total rows surviving each extensional join step -- the
    #: O(|P| * |A|) *work* measure of Theorem 4.4 (a mis-ordered plan
    #: shows up here as a super-linear blow-up even when the final
    #: ground-rule count stays linear).  A group's shared prefix counts
    #: once per group, plus one per row that reaches the group's
    #: membership tests
    bindings_explored: int = 0
    #: program rules never instantiated at all -- head outside the
    #: demanded set (magic-style relevance), a positive extensional
    #: body literal over an empty/failing relation (statically dead
    #: for this structure), or a driver predicate that never derived
    #: a single atom (driver-starved)
    rules_pruned: int = 0
    #: the high-water mark of ground rules stored in the online LTUR's
    #: waiting frontier, where a materializing grounder would hold its
    #: O(|ground program|) rule list.  Not a property of the input
    #: alone: it follows the order the grounder meets the nodes, i.e.
    #: their interned ids, so two loads of one decomposition that
    #: number the nodes differently can read it one apart with the
    #: same model and every other counter equal
    peak_live_rules: int = 0


@dataclass(frozen=True)
class PreparedGrounding:
    """Everything about grounding a program that no structure changes,
    computed once per program (and cost model).

    Grounding the same compiled program over many structures (the
    Theorem 4.5 amortization) re-runs only the data-dependent half;
    the body-ordering half lives here, made once by the program's
    :class:`~repro.core.QuasiGuardedEvaluator`.  ``stream_plans``
    holds one greedy body ordering per rule, seeded with the driver
    literal's variables.

    The stream plans share one **step table**: ``steps`` holds each
    distinct extensional join step (literal, slot layout, bind code,
    key order) once, and every :class:`StreamRulePlan` lists its join
    as ids into it.  A compiled program has far fewer distinct steps
    than step instances -- the width-2 ``has_neighbor`` program joins
    3,673 step instances drawn from 45 steps -- so a solve binds each
    distinct step to the structure once.

    On top of the step table sits the **group table** ``groups``: the
    stream plans split into :class:`StreamGroup` entries, each holding
    the rules with the same driver layout and the same *binding
    prefix* (their steps up to the last one that binds a slot or is
    more than a membership test).  What follows the prefix in a member
    is a set of membership tests, so a solve runs each group's prefix
    once per round and evaluates its distinct tests once per row
    instead of repeating the shared probes in every rule.  The width-2
    ``has_neighbor`` program's 755 driven rules fall into 136 groups
    over 34 driver predicates.
    """

    program: Program
    registry: BuiltinRegistry
    #: parallel to ``program.rules``: slot-indexed driver plans for
    #: :func:`ground_program_streamed`
    stream_plans: tuple["StreamRulePlan", ...]
    #: sink predicates (heads occurring in no rule body) whose driven
    #: rules the streamed grounder defers to a single post-fixpoint pass
    deferred: frozenset[str] = frozenset()
    #: the step table the stream plans' ``step_ids`` index
    steps: tuple["_StreamStep", ...] = ()
    #: the stream plans grouped by driver and binding prefix
    groups: tuple["StreamGroup", ...] = ()


def prepare_grounding(
    program: Program,
    registry: BuiltinRegistry | None = None,
    cost: CostModel | None = None,
) -> PreparedGrounding:
    """Order every rule's extensional body ahead of time.

    ``cost`` (a :class:`~repro.datalog.guards.CostModel`) breaks
    equal-bound-slot ties by estimated output cardinality; without it
    the ordering is the static greedy one (textual tie-break).  The
    Theorem 4.4 evaluator passes the static ``A_td`` model of
    :func:`repro.datalog.guards.key_cost_model` whenever it holds key
    dependencies, so compiled programs probe ``child1``/``child2`` by
    key before ``bag`` and scan ``leaf``/``root`` before ``bag``.

    The streamed plans are split into the step table (see
    :class:`PreparedGrounding`) and per-rule step ids; each step's bind
    code and probe key (its sorted bound positions, one hash index per
    search signature) are fixed here, and the plans are grouped by
    shared binding prefix (:class:`StreamGroup`).

    The program's *sink* predicates -- heads that occur in no rule
    body, like the compiled queries' answer predicate ``phi`` -- are
    marked ``deferred`` for the streamed grounder: their rules fire
    exactly once after the recursive fixpoint settles instead of once
    per delta round, and their unresolved intensional body atoms are
    checked against the final model instead of being parked in the
    online LTUR's waiting frontier.
    """
    registry = registry if registry is not None else standard_registry()
    idb = program.intensional_predicates()
    step_table: dict[_StreamStep, int] = {}
    stream_plans = tuple(
        _stream_plan(rule, idb, registry, cost, step_table)
        for rule in program.rules
    )
    steps = tuple(_finish_step(step) for step in step_table)
    in_bodies = {
        literal.atom.predicate
        for rule in program.rules
        for literal in rule.body
    }
    deferred = frozenset(idb - in_bodies)
    return PreparedGrounding(
        program,
        registry,
        stream_plans,
        deferred,
        steps,
        _group_plans(stream_plans, steps, deferred),
    )


def _order_body(
    remaining: list[Literal],
    bound: set[Variable],
    registry: BuiltinRegistry,
    rule: Rule,
    cost: CostModel | None = None,
) -> list[Literal]:
    """Greedy bound-first ordering of ``remaining``; mutates ``bound``.

    ``bound`` starts at the driver literal's variables (empty for a
    base rule).  With a ``cost`` model, equal bound-slot scores break
    by estimated output rows (fanout / relation size) instead of body
    textual order.
    """
    remaining = list(remaining)
    ordered: list[Literal] = []

    def mask(atom: Atom) -> tuple[bool, ...]:
        return tuple(
            isinstance(a, Constant) or a in bound for a in atom.args
        )

    while remaining:
        chosen = None
        # prefer the relation atom with the most bound argument slots --
        # an unbound pick mid-join degenerates into a full-relation scan
        # and breaks the O(|P| * |A|) bound of Theorem 4.4.
        best_key = None
        for index, literal in enumerate(remaining):
            atom = literal.atom
            if literal.positive and atom.predicate not in registry:
                m = mask(atom)
                score = sum(m)
                est = float("inf")
                if cost is not None:
                    got = cost.estimate(
                        atom.predicate,
                        len(atom.args),
                        tuple(i for i, b in enumerate(m) if b),
                    )
                    if got is not None:
                        est = got
                key = (-score, est, index)
                if best_key is None or key < best_key:
                    best_key = key
                    chosen = literal
        if chosen is None:
            for literal in remaining:
                atom = literal.atom
                if (
                    literal.positive
                    and atom.predicate in registry
                    and registry.get(atom.predicate).can_evaluate(mask(atom))
                ):
                    chosen = literal
                    break
        if chosen is None:
            for literal in remaining:
                if not literal.positive and all(mask(literal.atom)):
                    chosen = literal
                    break
        if chosen is None:
            raise NotGroundableError(f"cannot order extensional body of: {rule}")
        remaining.remove(chosen)
        bound.update(chosen.atom.variables())
        ordered.append(chosen)
    return ordered


# ----------------------------------------------------------------------
# The streamed form: a push-based emitter that instantiates ground
# rules on demand and feeds them into an online LTUR.  Every rule with
# an intensional body literal is *driven* by its first such literal:
# instances are generated exactly when the driver's atom derives (each
# derived atom is fresh exactly once, so each instance is generated
# exactly once), and instances still waiting on the rule's other
# intensional atoms are parked in the StreamingHorn until those derive.
# Rules whose driver predicate never derives are never instantiated at
# all -- that, together with magic-style head relevance and statically
# dead extensional literals, is the demand pruning measured by
# ``GroundingStats.rules_pruned``.  Rules fire by group
# (:class:`StreamGroup`): a prefix the members share runs once, and
# their instances are emitted in plan order.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _StreamStep:
    """One extensional body literal, classified against the slot layout.

    Everything here is static per program: rules that join the same
    literal against the same slots share one step, interned into
    ``PreparedGrounding.steps``.  ``code`` and ``srcs`` are filled in
    by :func:`prepare_grounding` (:func:`_finish_step`);
    :class:`_Binder` then resolves the step against a structure."""

    kind: str  # "rel" | "builtin" | "neg" | "neg-builtin"
    predicate: str
    arity: int
    consts: tuple[tuple[int, object], ...]  # (pos, raw constant value)
    bound: tuple[tuple[int, int], ...]  # (pos, slot)
    free: tuple[tuple[int, int], ...]  # (pos, fresh slot)
    dups: tuple[tuple[int, int], ...]  # (pos, first-occurrence pos)
    #: one of the ``_BIND_*`` codes: how the step binds per structure
    code: int = -1
    #: ``(is_slot, slot or raw constant)`` pairs: the key in probe-key
    #: order for relation probes and membership tests, the argument
    #: pattern (``UNBOUND`` at free positions) for built-ins
    srcs: tuple = ()

    @property
    def key(self) -> tuple[int, ...]:
        """The sorted bound positions: the step's search signature."""
        positions = [p for p, _ in self.consts] + [p for p, _ in self.bound]
        return tuple(sorted(positions))


@dataclass(frozen=True)
class StreamRulePlan:
    """The static (per-program) half of one rule's streamed plan."""

    rule: Rule
    nslots: int
    #: the driving intensional body literal; ``None`` for base rules
    driver: Literal | None
    driver_consts: tuple[tuple[int, object], ...]  # (pos, raw value)
    driver_slots: tuple[tuple[int, int], ...]  # (pos, slot)
    driver_dups: tuple[tuple[int, int], ...]  # (pos, earlier pos)
    #: the extensional join, in order, as ids into
    #: ``PreparedGrounding.steps``
    step_ids: tuple[int, ...]
    #: (predicate, argsrc, raw consts): argsrc entries are slot indexes
    #: (>= 0) or ``-k-1`` references into the consts tuple
    head: tuple[str, tuple[int, ...], tuple]
    #: the non-driver intensional body literals, same encoding
    others: tuple[tuple[str, tuple[int, ...], tuple], ...]


def _stream_plan(
    rule: Rule,
    idb: frozenset[str],
    registry: BuiltinRegistry,
    cost: CostModel | None,
    step_table: dict[_StreamStep, int],
) -> StreamRulePlan:
    """The rule's stream plan, its join steps interned into
    ``step_table``.  Raises :class:`NotGroundableError` for a negated
    intensional literal, or unless the driver literal and the
    extensional body together bind every variable of the rule."""
    idb_literals: list[Literal] = []
    extensional: list[Literal] = []
    for literal in rule.body:
        if literal.atom.predicate in idb:
            if not literal.positive:
                raise NotGroundableError(
                    f"negated intensional atom {literal} unsupported"
                )
            idb_literals.append(literal)
        else:
            extensional.append(literal)

    slot_of: dict[Variable, int] = {}

    def slot(variable: Variable) -> int:
        found = slot_of.get(variable)
        if found is None:
            found = len(slot_of)
            slot_of[variable] = found
        return found

    driver = idb_literals[0] if idb_literals else None
    others = idb_literals[1:] if idb_literals else []
    driver_consts: list[tuple[int, object]] = []
    driver_slots: list[tuple[int, int]] = []
    driver_dups: list[tuple[int, int]] = []
    if driver is not None:
        first_pos: dict[Variable, int] = {}
        for pos, arg in enumerate(driver.atom.args):
            if isinstance(arg, Constant):
                driver_consts.append((pos, arg.value))
            elif arg in first_pos:
                driver_dups.append((pos, first_pos[arg]))
            else:
                first_pos[arg] = pos
                driver_slots.append((pos, slot(arg)))

    bound_vars = set(slot_of)
    ordered = _order_body(extensional, bound_vars, registry, rule, cost)
    needed = rule.variables()
    if not needed <= bound_vars:
        missing = sorted(v.name for v in needed - bound_vars)
        raise NotGroundableError(
            f"variables {missing} not bound by the extensional body of: {rule}"
        )

    step_ids: list[int] = []
    for literal in ordered:
        atom = literal.atom
        consts: list[tuple[int, object]] = []
        bound: list[tuple[int, int]] = []
        free: list[tuple[int, int]] = []
        dups: list[tuple[int, int]] = []
        first_pos = {}
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                consts.append((pos, arg.value))
            elif arg in first_pos:
                dups.append((pos, first_pos[arg]))
            elif arg in slot_of:
                bound.append((pos, slot_of[arg]))
            else:
                first_pos[arg] = pos
                free.append((pos, slot(arg)))
        if literal.positive:
            kind = "builtin" if atom.predicate in registry else "rel"
        else:
            if free or dups:
                raise NotGroundableError(
                    f"negated atom {atom} not bound during grounding"
                )
            kind = "neg-builtin" if atom.predicate in registry else "neg"
        step = _StreamStep(
            kind,
            atom.predicate,
            atom.arity,
            tuple(consts),
            tuple(bound),
            tuple(free),
            tuple(dups),
        )
        step_ids.append(step_table.setdefault(step, len(step_table)))

    def emission_spec(atom: Atom) -> tuple[str, tuple[int, ...], tuple]:
        argsrc: list[int] = []
        const_values: list = []
        for arg in atom.args:
            if isinstance(arg, Constant):
                argsrc.append(-len(const_values) - 1)
                const_values.append(arg.value)
            else:
                argsrc.append(slot_of[arg])
        return (atom.predicate, tuple(argsrc), tuple(const_values))

    head = emission_spec(rule.head)
    other_specs = tuple(emission_spec(lit.atom) for lit in others)
    return StreamRulePlan(
        rule=rule,
        nslots=len(slot_of),
        driver=driver,
        driver_consts=tuple(driver_consts),
        driver_slots=tuple(driver_slots),
        driver_dups=tuple(driver_dups),
        step_ids=tuple(step_ids),
        head=head,
        others=other_specs,
    )


# how a step binds against a structure (``_StreamStep.code``); each
# resolves to an op below, to ``None`` (the step always holds and is
# dropped) or to ``_DEAD`` (the rule can never fire on this structure).
# The membership codes serve negated steps too, with the test flipped.
_BIND_NULLARY = 0  # arity-0 relation: membership
_BIND_BITS = 1  # unary relation, bound slot
_BIND_BITS_CONST = 2  # unary relation, constant argument
_BIND_SET = 3  # fully bound relation with a slot: set membership
_BIND_SET_CONST = 4  # fully constant tuple: membership
_BIND_SCAN = 5  # free positions, no key: scan
_BIND_PROBE_CONST = 6  # constants-only key: probe once
_BIND_PROBE1 = 7  # single-position key with a slot
_BIND_PROBE = 8  # multi-position key with a slot
_BIND_BUILTIN = 9


def _finish_step(step: _StreamStep):
    """Fix a step's bind code and key/pattern sources; a relation probe
    keys the hash index of its search signature, in sorted position
    order (:meth:`SetDatabase.index_for`)."""
    if step.kind in ("builtin", "neg-builtin"):
        srcs: list = [None] * step.arity
        for pos, value in step.consts:
            srcs[pos] = (False, value)
        for pos, s in step.bound:
            srcs[pos] = (True, s)
        for pos, _ in step.free + step.dups:
            srcs[pos] = (False, UNBOUND)
        return replace(step, code=_BIND_BUILTIN, srcs=tuple(srcs))
    if not (step.free or step.dups):
        # fully determined (every negated step is): membership test
        if step.arity == 0:
            code = _BIND_NULLARY
        elif step.arity == 1:
            code = _BIND_BITS_CONST if step.consts else _BIND_BITS
        else:
            code = _BIND_SET if step.bound else _BIND_SET_CONST
        return replace(
            step, code=code, srcs=_key_srcs(step.consts, step.bound)
        )
    key = step.key
    if not key:
        return replace(step, code=_BIND_SCAN)
    if not step.bound:
        code = _BIND_PROBE_CONST
    else:
        code = _BIND_PROBE1 if len(key) == 1 else _BIND_PROBE
    return replace(step, code=code, srcs=_key_srcs(step.consts, step.bound))


def _key_srcs(consts, bound):
    """(is_slot, value) pairs in sorted key-position order."""
    merged = [(pos, False, value) for pos, value in consts]
    merged += [(pos, True, s) for pos, s in bound]
    merged.sort(key=lambda item: item[0])
    return tuple((is_slot, v) for _, is_slot, v in merged)


def _row_key(srcs):
    """The function from a row (slot values) to the tuple key that
    ``(is_slot, slot or interned constant)`` sources of two or more
    positions spell; a C-level ``itemgetter`` when every source is a
    slot."""
    if all(is_slot for is_slot, _ in srcs):
        return itemgetter(*(s for _, s in srcs))
    return lambda r: tuple(r[v] if is_slot else v for is_slot, v in srcs)


#: the bind codes of plain membership tests: a step with one of these
#: binds no slot, so it only filters the rows that reach it
_TEST_CODES = (_BIND_SET, _BIND_BITS)


@dataclass(frozen=True)
class StreamGroup:
    """Stream plans that share a driver layout and a binding prefix.

    The members have the same driver predicate, driver slots, driver
    constants and duplicate positions, the same deferral, and the same
    *prefix*: their join steps up to and including the last one that
    binds a slot or is not a plain membership test (``_TEST_CODES``).
    Each member's remaining steps are membership tests of either
    polarity, so its ground instances are exactly the prefix's rows on
    which those tests hold.  The streamed grounder runs the prefix once
    per round for the whole group, evaluates the group's distinct tests
    once per row, and hands each row to the members whose tests all
    hold.
    """

    #: the driver predicate; ``None`` for base rules
    driver: str | None
    #: driven members whose heads are sinks (see
    #: ``PreparedGrounding.deferred``): they fire after the fixpoint
    deferred: bool
    #: indexes into ``PreparedGrounding.stream_plans``, in plan order
    members: tuple[int, ...]
    #: the shared step ids
    prefix: tuple[int, ...]
    #: the distinct test step ids after the prefix, in first-use order
    tests: tuple[int, ...]
    #: per member: the positions in ``tests`` that must hold
    needs: tuple[tuple[int, ...], ...]
    #: per member: its position among the plans with the same driver
    #: predicate and deferral, in plan order -- where its instances
    #: are emitted in a round
    slots: tuple[int, ...]
    #: the members' head predicates (one subset test decides demand
    #: relevance for the whole group)
    heads: frozenset[str]


def _group_plans(stream_plans, steps, deferred) -> tuple[StreamGroup, ...]:
    """Split the stream plans into :class:`StreamGroup` entries, ordered by
    their first member."""
    keyed: dict[tuple, list[int]] = {}
    cuts: list[int] = []
    slots: list[int] = []
    lane_sizes: dict[tuple, int] = {}  # (driver, deferred) -> members
    for index, plan in enumerate(stream_plans):
        ids = plan.step_ids
        cut = len(ids)
        while cut and steps[ids[cut - 1]].code in _TEST_CODES:
            cut -= 1
        cuts.append(cut)
        # base rules fire once, up front, whatever their heads
        lane = (
            (plan.driver.atom.predicate, plan.head[0] in deferred)
            if plan.driver is not None
            else (None, False)
        )
        slots.append(lane_sizes.get(lane, 0))
        lane_sizes[lane] = slots[-1] + 1
        key = (
            *lane,
            plan.driver_slots,
            # typed, so that constants 1 and True never share a group
            tuple((pos, type(v), v) for pos, v in plan.driver_consts),
            plan.driver_dups,
            ids[:cut],
        )
        keyed.setdefault(key, []).append(index)
    groups = []
    for (driver, is_deferred, _, _, _, prefix), members in keyed.items():
        tests: dict[int, int] = {}
        needs = tuple(
            tuple(
                sorted(
                    {
                        tests.setdefault(step_id, len(tests))
                        for step_id in stream_plans[m].step_ids[cuts[m] :]
                    }
                )
            )
            for m in members
        )
        groups.append(
            StreamGroup(
                driver,
                is_deferred,
                tuple(members),
                prefix,
                tuple(tests),
                needs,
                tuple(slots[m] for m in members),
                frozenset(stream_plans[m].head[0] for m in members),
            )
        )
    return tuple(groups)


# the op codes a bound step runs as (``_run_ops``, ``_test_holds``)
_OP_BITS = 0  # unary positive relation, bound slot: bitset test
_OP_SET = 1  # positive relation, fully bound: set membership
_OP_PROBE1 = 2  # index probe, single key position (bare-id key)
_OP_PROBE = 3  # index probe, multi-position key
_OP_SCAN = 4  # unrestricted scan / cross product
_OP_BUILTIN = 5  # compiled builtin (decode in, intern out)
_OP_NEG_BITS = 6  # negated unary relation, bound slot
_OP_NEG_SET = 7  # negated relation, fully bound
_OP_NEG_BUILTIN = 8  # negated builtin, fully bound

_DEAD = object()  # sentinel: rule statically dead for this structure
_UNSET = object()  # sentinel: step not bound yet in this solve


class _Binder:
    """One solve's bindings of the program's distinct steps.

    Each step resolves at most once, on first use, to its op, to
    ``None`` (always holds) or to ``_DEAD``; the database handles the
    ops close over (bitsets, relations, probe getters) are memoized per
    predicate and signature, so a solve touches each handle once however
    many rules share it."""

    __slots__ = (
        "steps", "ops", "db", "registry", "interner", "_handles", "_holds"
    )

    def __init__(self, prepared: "PreparedGrounding", db: SetDatabase):
        self.steps = prepared.steps
        self.ops = [_UNSET] * len(prepared.steps)
        self.db = db
        self.registry = prepared.registry
        self.interner = db.interner
        self._handles: dict = {}
        self._holds: dict[int, object] = {}

    def op(self, step_id: int):
        """The step's op, ``None`` or ``_DEAD``, bound on first use."""
        op = self.ops[step_id]
        if op is _UNSET:
            op = self.ops[step_id] = self._bind(self.steps[step_id])
        return op

    def holds(self, step_id: int):
        """The row predicate of a bound membership-test step."""
        found = self._holds.get(step_id)
        if found is None:
            found = self._holds[step_id] = _test_holds(self.op(step_id))
        return found

    def join(self, step_ids: tuple[int, ...]):
        """The ops of a step sequence in order, steps that always hold
        dropped; ``_DEAD`` as soon as one step can never hold (later
        steps stay unbound)."""
        ops = []
        for step_id in step_ids:
            op = self.op(step_id)
            if op is _DEAD:
                return _DEAD
            if op is not None:
                ops.append(op)
        return tuple(ops)


    def _handle(self, kind: str, predicate: str, key=()):
        handles = self._handles
        found = handles.get((kind, predicate, key))
        if found is None:
            db = self.db
            if kind == "bits":
                found = db.bits(predicate)
            elif kind == "rel":
                found = db.relation(predicate)
            else:
                found = db.index_for(predicate, key).get
            handles[(kind, predicate, key)] = found
        return found

    def _interned(self, srcs):
        """Key sources with their constants interned (relation steps
        compare ids; builtin steps keep raw values and never intern)."""
        intern = self.interner.intern
        return tuple(
            (is_slot, v if is_slot else intern(v)) for is_slot, v in srcs
        )

    def _bind(self, step: _StreamStep):
        code = step.code
        predicate = step.predicate
        negated = step.kind in ("neg", "neg-builtin")

        def test(held) -> object:
            # a membership test decided now: drop the step or kill the rule
            return None if bool(held) != negated else _DEAD

        if code == _BIND_BUILTIN:
            # the binding mask is checked once, here, not per row
            solve = self.registry.get(predicate).compile(
                tuple(is_slot or v is not UNBOUND for is_slot, v in step.srcs)
            )
            if not step.free and all(not s for s, _ in step.srcs):
                return test(solve(tuple(v for _, v in step.srcs)))
            value_of = self.interner.value_of
            if negated:
                return (_OP_NEG_BUILTIN, solve, step.srcs, value_of)
            return (
                _OP_BUILTIN,
                solve,
                step.srcs,
                step.free,
                step.dups,
                value_of,
                self.interner.intern,
            )
        if code == _BIND_BITS or code == _BIND_BITS_CONST:
            bits = self._handle("bits", predicate)
            if not bits:  # an empty relation never holds
                return test(False)
            if code == _BIND_BITS:
                op = _OP_NEG_BITS if negated else _OP_BITS
                return (op, bits, step.bound[0][1])
            return test(bits >> self.interner.intern(step.consts[0][1]) & 1)
        rel = self._handle("rel", predicate)
        if not rel:
            return test(False)
        if code == _BIND_NULLARY:
            return test(() in rel)
        srcs = self._interned(step.srcs) if step.consts else step.srcs
        if code == _BIND_SET:
            op = _OP_NEG_SET if negated else _OP_SET
            return (op, rel, _row_key(srcs))
        if code == _BIND_SET_CONST:
            return test(tuple(v for _, v in srcs) in rel)
        if code == _BIND_SCAN:
            return (_OP_SCAN, tuple(rel), step.free, step.dups)
        get = self._handle("probe", predicate, step.key)
        if code == _BIND_PROBE_CONST:
            matches = get(
                srcs[0][1] if len(srcs) == 1 else tuple(v for _, v in srcs)
            )
            if not matches:
                return _DEAD
            return (_OP_SCAN, tuple(matches), step.free, step.dups)
        if code == _BIND_PROBE1:
            return (_OP_PROBE1, get, srcs[0][1], step.free, step.dups)
        return (_OP_PROBE, get, _row_key(srcs), step.free, step.dups)


def _run_ops(ops, rows: list[list[int]], stats: GroundingStats):
    """Run a bound op list over a batch of rows (slot-value lists)."""
    for op in ops:
        code = op[0]
        if code == _OP_PROBE1:  # the commonest: a key probe by node
            _, get, ksrc, free, dups = op
            out = []
            for r in rows:
                matches = get(r[ksrc])
                if not matches:
                    continue
                for fact in matches:
                    if dups and any(fact[p] != fact[q] for p, q in dups):
                        continue
                    fresh = r.copy()
                    for p, s in free:
                        fresh[s] = fact[p]
                    out.append(fresh)
            rows = out
        elif code == _OP_BITS:
            _, bits, s = op
            rows = [r for r in rows if (bits >> r[s]) & 1]
        elif code == _OP_SET:
            _, rel, key = op
            rows = [r for r in rows if key(r) in rel]
        elif code == _OP_PROBE:
            _, get, key, free, dups = op
            out = []
            for r in rows:
                matches = get(key(r))
                if not matches:
                    continue
                for fact in matches:
                    if dups and any(fact[p] != fact[q] for p, q in dups):
                        continue
                    fresh = r.copy()
                    for p, s in free:
                        fresh[s] = fact[p]
                    out.append(fresh)
            rows = out
        elif code == _OP_SCAN:
            _, facts, free, dups = op
            out = []
            for r in rows:
                for fact in facts:
                    if dups and any(fact[p] != fact[q] for p, q in dups):
                        continue
                    fresh = r.copy()
                    for p, s in free:
                        fresh[s] = fact[p]
                    out.append(fresh)
            rows = out
        elif code == _OP_BUILTIN:
            rows = _builtin_rows(op, rows)
        elif code == _OP_NEG_BITS:
            _, bits, s = op
            rows = [r for r in rows if not (bits >> r[s]) & 1]
        elif code == _OP_NEG_SET:
            _, rel, key = op
            rows = [r for r in rows if key(r) not in rel]
        else:  # _OP_NEG_BUILTIN
            _, solve, pattern_srcs, value_of = op
            rows = [
                r
                for r in rows
                if not solve(
                    tuple(
                        value_of(r[v]) if is_slot else v
                        for is_slot, v in pattern_srcs
                    )
                )
            ]
        if not rows:
            return rows
        stats.bindings_explored += len(rows)
    return rows


def _builtin_rows(op, rows):
    # builtins see raw values: decode bound ids in, intern fresh
    # outputs
    _, solve, pattern_srcs, free, dups, value_of, intern = op
    out = []
    for r in rows:
        pattern = tuple(
            value_of(r[v]) if is_slot else v for is_slot, v in pattern_srcs
        )
        for solution in solve(pattern):
            if dups and any(solution[p] != solution[q] for p, q in dups):
                continue
            fresh = r.copy()
            for p, s in free:
                fresh[s] = intern(solution[p])
            out.append(fresh)
    return out


def _test_holds(op):
    """Whether a membership-test op holds on one row, as a function."""
    code = op[0]
    if code == _OP_BITS:
        _, bits, s = op
        return lambda r: bits >> r[s] & 1
    if code == _OP_NEG_BITS:
        _, bits, s = op
        return lambda r: not bits >> r[s] & 1
    _, rel, key = op
    if code == _OP_SET:
        return lambda r: key(r) in rel
    return lambda r: key(r) not in rel  # _OP_NEG_SET


class _LiveGroup:
    """One :class:`StreamGroup` bound to one solve: the prefix ops, the
    tests some live member needs (as row predicates), and each live
    member's needs and lane slot."""

    __slots__ = ("layout", "ops", "tests", "needs", "positions", "memo")

    def __init__(self, layout: int, ops, tests, needs, positions):
        self.layout = layout  # index into the lane's driver layouts
        self.ops = ops
        self.tests = tests
        #: per live member: the positions in ``tests`` that must hold
        self.needs = needs
        #: per live member: its lane slot (``StreamGroup.slots``)
        self.positions = positions
        #: test-result tuple -> the lane slots of the live members that
        #: fire (per solve: the tests' bindings, and so the members'
        #: liveness, are per structure)
        self.memo: dict[tuple, tuple[int, ...]] = {}

    def route(self, rows: list[list[int]], outs: dict, stats) -> None:
        """Run the prefix over ``rows`` and file each surviving row
        under the lane slot of every live member whose tests hold."""
        rows = _run_ops(self.ops, rows, stats)
        if not rows:
            return
        if not self.tests:
            for pos in self.positions:
                outs[pos] = rows
            return
        stats.bindings_explored += len(rows)
        memo = self.memo
        columns = [list(map(test, rows)) for test in self.tests]
        for r, key in zip(rows, zip(*columns)):
            fired = memo.get(key)
            if fired is None:
                fired = memo[key] = tuple(
                    pos
                    for pos, need in zip(self.positions, self.needs)
                    if all(key[c] for c in need)
                )
            for pos in fired:
                out = outs.get(pos)
                if out is None:
                    outs[pos] = [r]
                else:
                    out.append(r)


class _Lane:
    """One solve's live groups for one driver predicate (or for the
    base rules); their members emit in lane-slot, that is plan, order."""

    __slots__ = (
        "layouts", "groups", "plans", "specs", "spec_of", "finalize", "fired"
    )

    def __init__(self, spec_of, finalize: bool = False):
        #: distinct (nslots, driver slots, interned driver consts,
        #: driver dups); the groups with one layout share its rows
        self.layouts: list[tuple] = []
        self.groups: list[_LiveGroup] = []
        #: lane slot -> plan index, for every live member
        self.plans: dict[int, int] = {}
        #: lane slot -> emission spec (head predicate, head argument
        #: getter, (predicate, argument getter) per other intensional
        #: body atom), built when the member first has rows
        self.specs: dict[int, tuple] = {}
        self.spec_of = spec_of  # plan index -> emission spec
        #: set for the deferred-sink epilogue: the fixpoint is
        #: complete, so emission resolves the remaining intensional
        #: body atoms against the final model instead of parking rules
        self.finalize = finalize
        self.fired = False

    def layout(self, key: tuple) -> int:
        try:
            return self.layouts.index(key)
        except ValueError:
            self.layouts.append(key)
            return len(self.layouts) - 1


def _driver_rows(layout, batch) -> list[list[int]]:
    """The driver atoms of ``batch`` as rows of the layout's slots
    (``batch`` ``None``: the unit row of the base rules)."""
    nslots, slots, consts, dups = layout
    if batch is None:
        return [[0] * nslots]
    rows = []
    append = rows.append
    for args in batch:
        if consts and any(args[pos] != cid for pos, cid in consts):
            continue
        if dups and any(args[pos] != args[earlier] for pos, earlier in dups):
            continue
        row = [0] * nslots
        for pos, s in slots:
            row[s] = args[pos]
        append(row)
    return rows


def _bind_lanes(prepared, binder, relevant, intern, stats):
    """Bind the group table to one solve: the base lane and the driven
    and deferred lanes by driver predicate.  Members outside
    ``relevant`` and members with a step that can never hold are
    counted as pruned and left out; a lane holds only live members."""
    plans = prepared.stream_plans
    getters: dict = {}  # (argsrc, interned consts) -> argument getter

    def getter(spec):
        predicate, argsrc, const_values = spec
        key = (argsrc, tuple(map(intern, const_values)))
        found = getters.get(key)
        if found is None:
            found = getters[key] = _arg_getter(*key)
        return predicate, found

    def spec_of(plan_index: int) -> tuple:
        plan = plans[plan_index]
        return (*getter(plan.head), tuple(map(getter, plan.others)))

    base = _Lane(spec_of)
    driven: dict[str, _Lane] = {}
    deferred: dict[str, _Lane] = {}
    for group in prepared.groups:
        if relevant is None or group.heads <= relevant:
            live = range(len(group.members))
        else:
            live = [
                index
                for index, m in enumerate(group.members)
                if plans[m].head[0] in relevant
            ]
            stats.rules_pruned += len(group.members) - len(live)
            if not live:
                continue
        ops = binder.join(group.prefix)
        if ops is _DEAD:
            stats.rules_pruned += len(live)  # a step can never hold here
            continue
        tests = [binder.op(step_id) for step_id in group.tests]
        if len(live) == len(group.members) and all(
            op is not None and op is not _DEAD for op in tests
        ):
            # all members live, every test a live op: the static table
            # stands as it is
            active = group.tests
            members, needs, positions = (
                group.members,
                group.needs,
                group.slots,
            )
        else:
            active, members, needs, positions = _decide_tests(
                group, live, tests
            )
            stats.rules_pruned += len(live) - len(members)
            if not members:
                continue
        if group.driver is None:
            lane = base
        else:
            lanes = deferred if group.deferred else driven
            lane = lanes.get(group.driver)
            if lane is None:
                lane = lanes[group.driver] = _Lane(spec_of, group.deferred)
        plan = plans[members[0]]
        layout = lane.layout(
            (
                plan.nslots,
                plan.driver_slots,
                tuple((pos, intern(v)) for pos, v in plan.driver_consts),
                plan.driver_dups,
            )
        )
        lane.groups.append(
            _LiveGroup(
                layout,
                ops,
                tuple(map(binder.holds, active)),
                needs,
                positions,
            )
        )
        lane.plans.update(zip(positions, members))
    return base, driven, deferred


def _decide_tests(group: StreamGroup, live, tests):
    """The live test step ids and the surviving live members (plan
    indexes, needs, lane slots) of a group some of whose members are
    irrelevant or some of whose tests are decided for the whole solve:
    a test that always holds drops out of the needs, and a member
    needing a test that never holds is dead (a step can never hold
    here)."""
    columns: dict[int, int] = {}  # test position -> live column
    active = []
    members, needs, positions = [], [], []
    for index in live:
        need = []
        for position in group.needs[index]:
            op = tests[position]
            if op is _DEAD:
                break
            if op is not None:
                if position not in columns:
                    columns[position] = len(active)
                    active.append(group.tests[position])
                need.append(columns[position])
        else:
            members.append(group.members[index])
            needs.append(tuple(need))
            positions.append(group.slots[index])
    return active, members, needs, positions


def _fire(lane: _Lane, batch, pool: InternPool, sink, stats) -> None:
    """Instantiate a lane's live members for one batch of driver atoms.

    Each group runs its prefix once over the batch and routes its rows
    to its members' lane slots; the members' rows are then emitted in
    slot order, which is plan order, so the online LTUR receives the
    same ``add_rule`` sequence (and the pool hands out the same atom
    ids) as firing rule by rule would."""
    lane.fired = True
    starts = [_driver_rows(layout, batch) for layout in lane.layouts]
    outs: dict[int, list] = {}
    for group in lane.groups:
        rows = starts[group.layout]
        if rows:
            group.route(rows, outs, stats)
    specs = lane.specs
    finalize = lane.finalize
    for pos in sorted(outs):
        spec = specs.get(pos)
        if spec is None:
            spec = specs[pos] = lane.spec_of(lane.plans[pos])
        _emit(outs[pos], spec, finalize, pool, sink, stats)


def _arg_getter(argsrc: tuple[int, ...], consts: tuple):
    """The function from a row to an atom's argument-id tuple, for an
    emission spec's ``argsrc`` (slots, or ``-k-1`` into ``consts``)."""
    if all(x >= 0 for x in argsrc):
        if len(argsrc) == 1:
            (x,) = argsrc
            return lambda r: (r[x],)
        if argsrc:
            return itemgetter(*argsrc)
    return lambda r: tuple(r[x] if x >= 0 else consts[-x - 1] for x in argsrc)


def _emit(rows, spec, finalize, pool, sink, stats) -> None:
    """Hand one member's rows to the sink as ground rules."""
    head_pred, head_args, others = spec
    atom_id = pool.atom_id
    add_rule = sink.add_rule
    stats.ground_rules += len(rows)
    if not others:
        for r in rows:
            add_rule(atom_id(head_pred, head_args(r)), ())
    elif finalize:
        # deferred-sink mode: the fixpoint below this rule's head is
        # already complete, so the remaining intensional body atoms
        # have their final truth -- check them against the model
        # (lookup_atom: an atom never interned was never derived) and
        # emit satisfied instances as facts; nothing is ever parked in
        # the waiting frontier
        lookup = pool.lookup_atom
        is_derived = sink.is_derived
        for r in rows:
            for pred, args in others:
                other = lookup(pred, args(r))
                if other is None or not is_derived(other):
                    break
            else:
                add_rule(atom_id(head_pred, head_args(r)), ())
    else:
        for r in rows:
            head_id = atom_id(head_pred, head_args(r))
            add_rule(
                head_id,
                tuple([atom_id(pred, args(r)) for pred, args in others]),
            )


def ground_program_streamed(
    prepared: PreparedGrounding,
    db: SetDatabase,
    pool: InternPool,
    sink: StreamingHorn | None = None,
    stats: GroundingStats | None = None,
    demand=None,
    relevant: frozenset[str] | None = None,
    meter=None,
) -> StreamingHorn:
    """Stream demand-pruned ground instances into an online LTUR.

    The push-based production form of Theorem 4.4: ground rules are
    emitted as they become *supported* (their driver atom derived) and
    consumed immediately by ``sink`` (a
    :class:`~repro.datalog.horn.StreamingHorn`, created on demand), so
    the full ground program is never materialized.  ``demand`` -- a
    query predicate name, query :class:`~repro.datalog.ast.Atom`, or
    iterable of predicate names -- additionally restricts grounding to
    rules whose heads can reach the demanded predicates
    (:func:`relevant_predicates`); the resulting
    model is exact for the demanded predicates and their relevance
    cone, and empty elsewhere.

    Returns the sink; the least model is ``sink.flags(len(pool))`` and
    the residency/pruning counters land in ``stats``.  Callers solving
    the same program over many structures should resolve the demand
    once via :func:`resolve_demand` and pass ``relevant=`` instead of
    re-deriving it per solve.

    Per solve, each distinct step of ``prepared.steps`` a relevant rule
    uses is bound to ``db`` once (:class:`_Binder`), and a rule with a
    step that can never hold on ``db`` is dead and never instantiated.
    Rules fire by group (``prepared.groups``, see :class:`StreamGroup`):
    each round batches the fresh driver atoms per predicate, every
    group of that predicate runs its shared prefix once over the batch
    and evaluates its distinct tests once per row, and the members'
    instances are emitted in plan order.

    ``meter`` (a :class:`repro.datalog.budget.BudgetMeter`) makes the
    fixpoint loop budget-cooperative: the caps are checked once per
    demand round (and, via the sink, every few thousand derivations
    inside a round), raising
    :class:`~repro.datalog.budget.BudgetExceeded` instead of letting a
    pathological structure run the process away.
    """
    if pool.interner is not db.interner:
        raise ValueError(
            "pool and database must share one interner -- the point of "
            "the interned pipeline is a single interning context per solve"
        )
    sink = sink if sink is not None else StreamingHorn()
    stats = stats if stats is not None else GroundingStats()
    if meter is not None:
        sink.meter = meter
        meter.check(stats.ground_rules)
    if relevant is None:
        relevant = resolve_demand(prepared.program, demand)

    base, driven, deferred = _bind_lanes(
        prepared, _Binder(prepared, db), relevant, db.interner.intern, stats
    )
    if base.groups:
        _fire(base, None, pool, sink, stats)
    atom_of = pool.atom_of
    take_fresh = sink.take_fresh
    deferred_batches: dict[str, list[tuple[int, ...]]] = {}
    while True:
        if meter is not None:
            meter.check(stats.ground_rules)
        fresh = take_fresh()
        if not fresh:
            break
        # batch the round's driver events per predicate: each group
        # runs its prefix once per (group, round), not once per event
        # or per rule
        batches: dict[str, list[tuple[int, ...]]] = {}
        for fresh_id in fresh:
            predicate, args = atom_of(fresh_id)
            if predicate in driven:
                batches.setdefault(predicate, []).append(args)
            if predicate in deferred:
                deferred_batches.setdefault(predicate, []).append(args)
        for predicate, batch in batches.items():
            _fire(driven[predicate], batch, pool, sink, stats)
    # the single-pass epilogue: every deferred rule fires exactly once,
    # against all the driver atoms the whole fixpoint derived; the
    # model below the sinks is final, so finalize-mode emission checks
    # the remaining body atoms instead of parking ground rules
    if meter is not None and deferred_batches:
        meter.check(stats.ground_rules)
    for predicate, batch in deferred_batches.items():
        _fire(deferred[predicate], batch, pool, sink, stats)
    for lanes in (driven, deferred):
        for lane in lanes.values():
            if not lane.fired:  # driver-starved
                stats.rules_pruned += len(lane.plans)
    stats.peak_live_rules = max(
        stats.peak_live_rules, sink.peak_live_rules
    )
    return sink



def resolve_demand(program, demand):
    """Normalize a demand spec (query predicate name, query atom, or an
    iterable of either) into the relevant-predicate set, or ``None``
    for no pruning.  Per-program work -- resolve once and reuse across
    structures."""
    if demand is None:
        return None
    if isinstance(demand, (str, Atom)):
        return relevant_predicates(program, demand)
    relevant: set[str] = set()
    for query in demand:
        relevant |= relevant_predicates(program, query)
    return frozenset(relevant)


def relevant_predicates(program: Program, query: "Atom | str") -> frozenset[str]:
    """The intensional predicates whose extent ``query`` can observe.

    Backward reachability over the intensional dependencies: the query
    predicate, and every intensional predicate that occurs, positively
    or negated, in the body of a rule defining a predicate already in
    the set.  A rule whose head is outside the set can never contribute
    to the query's answers, so demand-pruned grounding skips it.  A
    query predicate that no rule defines demands nothing: the result is
    empty.  An atom query must have the arity of the predicate's
    rules."""
    predicate = query.predicate if isinstance(query, Atom) else query
    depends: dict[str, set[str]] = {}
    for rule in program.rules:
        depends.setdefault(rule.head.predicate, set()).update(
            literal.atom.predicate for literal in rule.body
        )
        if (
            isinstance(query, Atom)
            and rule.head.predicate == predicate
            and rule.head.arity != query.arity
        ):
            raise ValueError(
                f"query {query} has arity {query.arity} but "
                f"{predicate!r} is defined with arity {rule.head.arity}"
            )
    if predicate not in depends:
        return frozenset()
    seen = {predicate}
    stack = [predicate]
    while stack:
        for dep in depends[stack.pop()]:
            if dep in depends and dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return frozenset(seen)
