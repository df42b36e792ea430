"""Per-rule reference form of the streamed grounder.

This is the straightforward firing loop that group firing replaced:
every driven rule walks its own op list over each round's batch of
driver atoms, so rules that share a driver and a join prefix repeat the
same probes once per rule.  It defines what the grouped
:func:`repro.datalog.grounding.ground_program_streamed` must reproduce
exactly -- the same ``add_rule`` sequence into the online LTUR (hence
the same atom ids), the same ``ground_rules``, ``rules_pruned`` and
``peak_live_rules``, and the same derived flags.

The per-solve step binding (:class:`repro.datalog.grounding._Binder`)
is shared with the production form; the op interpreter, the row
emission and the round loop are kept here in their per-rule shape.
"""

from __future__ import annotations

from repro.datalog import GroundingStats, StreamingHorn
from repro.datalog.grounding import (
    _DEAD,
    _OP_BITS,
    _OP_BUILTIN,
    _OP_NEG_BITS,
    _OP_NEG_SET,
    _OP_PROBE,
    _OP_PROBE1,
    _OP_SCAN,
    _OP_SET,
    _Binder,
    resolve_demand,
)


class RecordingHorn(StreamingHorn):
    """A :class:`StreamingHorn` that logs every ``add_rule`` call."""

    __slots__ = ("log",)

    def __init__(self):
        super().__init__()
        self.log: list[tuple[int, tuple[int, ...]]] = []

    def add_rule(self, head, body):
        self.log.append((head, tuple(body)))
        return super().add_rule(head, body)


class _PerRule:
    """One rule's executable stream plan for one solve."""

    def __init__(
        self, plan, ops, head, others, driver_consts, pool, sink, stats
    ):
        self.plan = plan
        self.pool = pool
        self.sink = sink
        self.stats = stats
        self.ops = ops
        self.head = head
        self.others = others
        self.driver_consts = driver_consts
        self.invoked = False
        self.finalize = False

    def fire_batch(self, batch):
        self.invoked = True
        plan = self.plan
        rows = []
        for args in batch:
            if any(args[pos] != cid for pos, cid in self.driver_consts):
                continue
            if any(args[p] != args[q] for p, q in plan.driver_dups):
                continue
            row = [0] * plan.nslots
            for pos, s in plan.driver_slots:
                row[s] = args[pos]
            rows.append(row)
        if rows:
            self._run(rows)

    def fire_base(self):
        self.invoked = True
        self._run([[0] * self.plan.nslots])

    def _run(self, rows):
        stats = self.stats
        for op in self.ops:
            code = op[0]
            if code == _OP_BITS:
                _, bits, s = op
                rows = [r for r in rows if (bits >> r[s]) & 1]
            elif code == _OP_NEG_BITS:
                _, bits, s = op
                rows = [r for r in rows if not (bits >> r[s]) & 1]
            elif code == _OP_SET:
                _, rel, key = op
                rows = [r for r in rows if key(r) in rel]
            elif code == _OP_NEG_SET:
                _, rel, key = op
                rows = [r for r in rows if key(r) not in rel]
            elif code in (_OP_PROBE1, _OP_PROBE, _OP_SCAN):
                rows = self._expand(op, rows)
            elif code == _OP_BUILTIN:
                rows = self._builtin(op, rows)
            else:  # _OP_NEG_BUILTIN
                _, builtin, srcs, value_of = op
                rows = [
                    r
                    for r in rows
                    if not any(builtin.evaluate(_pattern(srcs, r, value_of)))
                ]
            if not rows:
                return
            stats.bindings_explored += len(rows)
        self._emit(rows)

    @staticmethod
    def _expand(op, rows):
        code = op[0]
        if code == _OP_SCAN:
            _, facts, free, dups = op
        else:
            _, get, key, free, dups = op
        out = []
        for r in rows:
            if code == _OP_SCAN:
                matches = facts
            elif code == _OP_PROBE1:
                matches = get(r[key])
            else:
                matches = get(key(r))
            for fact in matches or ():
                if any(fact[p] != fact[q] for p, q in dups):
                    continue
                fresh = r.copy()
                for p, s in free:
                    fresh[s] = fact[p]
                out.append(fresh)
        return out

    @staticmethod
    def _builtin(op, rows):
        _, builtin, srcs, free, dups, value_of, intern = op
        out = []
        for r in rows:
            for solution in builtin.evaluate(_pattern(srcs, r, value_of)):
                if any(solution[p] != solution[q] for p, q in dups):
                    continue
                fresh = r.copy()
                for p, s in free:
                    fresh[s] = intern(solution[p])
                out.append(fresh)
        return out

    def _emit(self, rows):
        atom_id = self.pool.atom_id
        add_rule = self.sink.add_rule
        self.stats.ground_rules += len(rows)
        for r in rows:
            if self.others and self.finalize:
                # the model below a deferred sink is final: check the
                # other body atoms (never interning them or the head of
                # an unsatisfied instance) instead of parking the rule
                if all(
                    (other := self.pool.lookup_atom(spec[0], _args(spec, r)))
                    is not None
                    and self.sink.is_derived(other)
                    for spec in self.others
                ):
                    add_rule(atom_id(self.head[0], _args(self.head, r)), ())
                continue
            head = atom_id(self.head[0], _args(self.head, r))
            add_rule(
                head,
                tuple(
                    atom_id(spec[0], _args(spec, r)) for spec in self.others
                ),
            )


def _pattern(srcs, row, value_of):
    return tuple(value_of(row[v]) if is_slot else v for is_slot, v in srcs)


def _args(spec, row):
    _, src, consts = spec
    return tuple(row[x] if x >= 0 else consts[-x - 1] for x in src)


def ground_program_per_rule(
    prepared, db, pool, sink=None, stats=None, demand=None, relevant=None
):
    """The streamed grounder, one rule at a time; returns the sink."""
    sink = sink if sink is not None else StreamingHorn()
    stats = stats if stats is not None else GroundingStats()
    if relevant is None:
        relevant = resolve_demand(prepared.program, demand)
    intern = db.interner.intern

    def interned(spec):
        return spec[0], spec[1], tuple(map(intern, spec[2]))

    binder = _Binder(prepared, db)
    base, driven, deferred = [], {}, {}
    for plan in prepared.stream_plans:
        if relevant is not None and plan.head[0] not in relevant:
            stats.rules_pruned += 1
            continue
        ops = binder.join(plan.step_ids)
        if ops is _DEAD:
            stats.rules_pruned += 1
            continue
        rule = _PerRule(
            plan,
            ops,
            interned(plan.head),
            tuple(map(interned, plan.others)),
            tuple((pos, intern(v)) for pos, v in plan.driver_consts),
            pool,
            sink,
            stats,
        )
        if plan.driver is None:
            base.append(rule)
        elif plan.head[0] in prepared.deferred:
            deferred.setdefault(plan.driver.atom.predicate, []).append(rule)
        else:
            driven.setdefault(plan.driver.atom.predicate, []).append(rule)

    for rule in base:
        rule.fire_base()
    deferred_batches = {}
    while fresh := sink.take_fresh():
        batches = {}
        for fresh_id in fresh:
            predicate, args = pool.atom_of(fresh_id)
            if predicate in driven:
                batches.setdefault(predicate, []).append(args)
            if predicate in deferred:
                deferred_batches.setdefault(predicate, []).append(args)
        for predicate, batch in batches.items():
            for rule in driven[predicate]:
                rule.fire_batch(batch)
    for predicate, batch in deferred_batches.items():
        for rule in deferred[predicate]:
            rule.finalize = True
            rule.fire_batch(batch)
    for rules in (driven, deferred):
        for group in rules.values():
            stats.rules_pruned += sum(not rule.invoked for rule in group)
    stats.peak_live_rules = max(stats.peak_live_rules, sink.peak_live_rules)
    return sink
