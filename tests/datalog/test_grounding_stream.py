"""Tests for the streamed, demand-pruned grounding pipeline.

The push-based emitter (:func:`ground_program_streamed`) must derive
exactly the semi-naive engine's least model while never materializing
the full ground program, and its pruning counters must account for the
three prune classes: irrelevant heads (outside the demand), statically
dead extensional literals, and driver-starved rules.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom,
    Constant,
    Database,
    GroundingStats,
    InternPool,
    Literal,
    Program,
    Rule,
    SetDatabase,
    StreamingHorn,
    Variable,
    ground_program_streamed,
    parse_program,
    prepare_grounding,
    relevant_predicates,
    solve,
)
from repro.datalog import grounding
from repro.datalog.grounding import resolve_demand
from repro.structures import Fact

from ..conftest import (
    DATALOG_DOMAIN,
    IDB_ARITIES,
    datalog_programs,
    deleted_ladders,
    has_neighbor_solver,
    oracle_encoding,
    supported_instances,
)
from .stream_oracle import RecordingHorn, ground_program_per_rule


def tree_db():
    db = Database()
    db.add("root", ("n0",))
    db.add("leaf", ("n2",))
    db.add("child1", ("n1", "n0"))
    db.add("child1", ("n2", "n1"))
    db.add("bag", ("n0", "a", "b"))
    db.add("bag", ("n1", "b", "c"))
    db.add("bag", ("n2", "c", "d"))
    db.add("e", ("c", "d"))
    return db


PROG = parse_program(
    """
    t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
    t(V) :- bag(V, X0, X1), child1(V1, V), t(V1).
    ok :- root(V), t(V).
    """
)


def _models(program, db, demand=None):
    """(semi-naive model, streamed model, streamed stats), the models
    as sets of intensional facts."""
    derived = solve(program, db, backend="semi-naive")
    reference = {
        Fact(predicate, args)
        for predicate in program.intensional_predicates()
        for args in derived.relation(predicate)
    }
    sdb = SetDatabase.from_edb(db)
    pool = InternPool(sdb.interner)
    stats = GroundingStats()
    sink = ground_program_streamed(
        prepare_grounding(program), sdb, pool, stats=stats, demand=demand
    )
    streamed = {
        pool.decode_atom(i)
        for i, f in enumerate(sink.flags(len(pool)))
        if f
    }
    return reference, streamed, stats


class TestStreamedModel:
    def test_matches_eager_pipeline(self):
        """The streamed model is the least model; every supported
        instance is live here, so it grounds each one exactly once."""
        reference, streamed, stats = _models(PROG, tree_db())
        assert streamed == reference
        assert stats.ground_rules == supported_instances(PROG, tree_db()) == 4

    def test_emits_fewer_rules_than_eager_when_rules_are_dead(self):
        # a recursive rule whose driver never derives: a materializing
        # grounder builds its supported instances anyway, streamed
        # never instantiates it
        program = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
            t(V) :- bag(V, X0, X1), child1(V1, V), t(V1).
            u(V) :- bag(V, X0, X1), child1(V1, V), w(V1).
            w(V) :- bag(V, X0, X1), leaf(V), e(X1, X0).
            ok :- root(V), t(V).
            """
        )
        reference, streamed, stats = _models(program, tree_db())
        assert streamed == reference  # w/u derive nothing: same model
        # the u-rule is driver-starved (w never derives: e(d, c) absent)
        assert stats.rules_pruned >= 1
        # the t and ok instances only: a materializing grounder would
        # add the u-rule's two bag/child1 instances
        assert stats.ground_rules == supported_instances(program, tree_db()) == 4

    def test_statically_dead_edb_literal_prunes_rule(self):
        program = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
            t2(V) :- bag(V, X0, X1), child2(V2, V), t(V2).
            ok :- root(V), t(V).
            """
        )
        # tree_db has no child2 facts at all
        reference, streamed, stats = _models(program, tree_db())
        assert streamed == reference
        assert stats.rules_pruned >= 1

    def test_empty_unary_relation_prunes_statically(self):
        program = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
            t2(V) :- bag(V, X0, X1), marked(V), t(V).
            ok :- root(V), t(V).
            """
        )
        # `marked` is unary and entirely absent: the t2 rule must be
        # statically dead (bitset 0), never compiled as driven
        reference, streamed, stats = _models(program, tree_db())
        assert streamed == reference
        assert stats.rules_pruned >= 1

    def test_waiting_frontier_counted(self):
        # an instance that must wait: u(V) derives after t(V) at the
        # same node, so the both-rule instance parks in the LTUR
        program = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
            t(V) :- bag(V, X0, X1), child1(V1, V), t(V1).
            u(V) :- bag(V, X0, X1), root(V).
            u(V) :- bag(V, X0, X1), child1(V, V1), u(V1).
            both(V) :- bag(V, X0, X1), t(V), u(V).
            ok :- root(V), both(V).
            """
        )
        reference, streamed, stats = _models(program, tree_db())
        assert streamed == reference
        assert any(f.predicate == "both" for f in streamed)
        assert stats.peak_live_rules >= 1

    def test_builtin_and_constant_steps_match_semi_naive(self):
        # every per-structure binding outcome of a join step: built-ins
        # with bound, constant and free (output) arguments, negated
        # built-ins, and constant-only membership tests that hold
        # (dropped) or fail (the rule is dead)
        program = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), X0 != X1.
            t(V) :- bag(V, X0, X1), child1(V1, V), t(V1), not X0 = z,
                    not e(c, c).
            u(V) :- bag(V, X0, X1), t(V), a = a, e(c, d), leaf(n2).
            w(V) :- bag(V, X0, X1), t(V), a = b.
            x(V) :- bag(V, X0, X1), t(V), e(d, c).
            y(V) :- bag(V, X0, X1), t(V), not leaf(n2).
            s(Y) :- bag(V, X0, X1), t(V), oset_to_set(X0, Y).
            """
        )
        db = tree_db()
        db.add("bag", ("n3", ("a",), ("b",)))
        db.add("leaf", ("n3",))
        reference, streamed, stats = _models(program, db)
        assert streamed == reference
        assert {f.predicate for f in streamed} == {"t", "u", "s"}
        assert stats.rules_pruned == 3  # w, x and y are dead

    def test_nullary_driver(self):
        program = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
            flag :- root(V), bag(V, X0, X1).
            done(V) :- bag(V, X0, X1), flag, t(V).
            """
        )
        reference, streamed, _ = _models(program, tree_db())
        assert streamed == reference
        assert any(f.predicate == "done" for f in streamed)

    def test_interner_mismatch_raises(self):
        prepared = prepare_grounding(PROG)
        sdb = SetDatabase.from_edb(tree_db())
        foreign_pool = InternPool()  # its own interner
        with pytest.raises(ValueError, match="share one interner"):
            ground_program_streamed(prepared, sdb, foreign_pool)

    def test_reuses_caller_sink(self):
        prepared = prepare_grounding(PROG)
        sdb = SetDatabase.from_edb(tree_db())
        pool = InternPool(sdb.interner)
        sink = StreamingHorn()
        returned = ground_program_streamed(prepared, sdb, pool, sink=sink)
        assert returned is sink
        assert sink.derived_count == 4  # t(n0..n2) + ok


class TestDemandPruning:
    def test_demand_on_root_prediate_keeps_everything(self):
        reference, streamed, stats = _models(PROG, tree_db(), demand="ok")
        assert streamed == reference
        assert stats.rules_pruned == 0

    def test_demand_on_t_prunes_the_ok_rule(self):
        reference, streamed, stats = _models(PROG, tree_db(), demand="t")
        assert stats.rules_pruned == 1  # the ok-rule head is irrelevant
        assert streamed == {f for f in reference if f.predicate == "t"}

    def test_demanded_predicates_cover_the_relevance_cone(self):
        assert relevant_predicates(PROG, "ok") == {"ok", "t"}
        assert relevant_predicates(PROG, "t") == {"t"}

    def test_demand_for_undefined_predicate_prunes_everything(self):
        assert relevant_predicates(PROG, "nothing") == frozenset()
        reference, streamed, stats = _models(PROG, tree_db(), demand="nothing")
        assert streamed == set()
        assert stats.rules_pruned == len(PROG.rules)

    def test_resolve_demand_normalizes(self):
        assert resolve_demand(PROG, None) is None
        assert resolve_demand(PROG, "t") == {"t"}
        assert resolve_demand(PROG, ["t", "ok"]) == {"t", "ok"}

    def test_atom_query_must_match_the_arity(self):
        with pytest.raises(ValueError, match="arity"):
            relevant_predicates(PROG, Atom("t", ()))


@st.composite
def programs_with_negation(draw):
    """The shared random programs, where a rule may also negate an
    intensional atom over variables its positive literals bind."""
    rules = []
    for rule in draw(datalog_programs()).rules:
        body = list(rule.body)
        bound = sorted(
            {
                a
                for lit in body
                if lit.positive
                for a in lit.atom.args
                if isinstance(a, Variable)
            },
            key=lambda v: v.name,
        )
        if bound and draw(st.booleans()):
            predicate = draw(st.sampled_from(sorted(IDB_ARITIES)))
            args = tuple(
                draw(st.sampled_from(bound))
                for _ in range(IDB_ARITIES[predicate])
            )
            body.append(Literal(Atom(predicate, args), positive=False))
        rules.append(Rule(rule.head, tuple(body)))
    return Program(rules)


@st.composite
def queries(draw, program):
    """A defined predicate by name or as an atom with some arguments
    bound, or a name no rule defines."""
    defined = sorted(program.intensional_predicates())
    predicate = draw(st.sampled_from(defined + ["nothing"]))
    if predicate == "nothing" or draw(st.booleans()):
        return predicate
    return Atom(
        predicate,
        tuple(
            draw(
                st.one_of(
                    st.just(Variable(f"Q{i}")),
                    st.sampled_from(DATALOG_DOMAIN).map(Constant),
                )
            )
            for i in range(IDB_ARITIES[predicate])
        ),
    )


def _dependency_closure(program, query):
    """The relevance cone by definition: the query predicate if some
    rule defines it, then every intensional predicate in the body of a
    rule whose head is already in, iterated to a fixpoint."""
    predicate = query.predicate if isinstance(query, Atom) else query
    idb = program.intensional_predicates()
    cone = {predicate} & idb
    while True:
        grown = cone | {
            literal.atom.predicate
            for rule in program.rules
            if rule.head.predicate in cone
            for literal in rule.body
            if literal.atom.predicate in idb
        }
        if grown == cone:
            return cone
        cone = grown


class TestRelevantPredicates:
    """Backward reachability must find exactly the intensional
    dependency closure of the query predicate, through negated
    literals too."""

    @settings(max_examples=200)
    @given(data=st.data(), program=programs_with_negation())
    def test_matches_the_dependency_closure(self, data, program):
        query = data.draw(queries(program))
        assert relevant_predicates(program, query) == _dependency_closure(
            program, query
        )

    def test_negation_pulls_in_the_negated_cone(self):
        program = parse_program(
            """
            r(X) :- color(X).
            q(X) :- r(X).
            p(X, Y) :- edge(X, Y), not q(X).
            s(X) :- color(X).
            """
        )
        assert relevant_predicates(program, "p") == {"p", "q", "r"}


class TestStreamPlans:
    def test_prepared_grounding_carries_stream_plans(self):
        prepared = prepare_grounding(PROG)
        assert len(prepared.stream_plans) == len(PROG.rules)
        by_head = {
            plan.rule.head.predicate: plan
            for plan in prepared.stream_plans
        }
        # the leaf rule has no intensional body literal: base rule
        assert by_head["ok"].driver is not None
        assert by_head["ok"].driver.atom.predicate == "t"
        leaf_plan = prepared.stream_plans[0]
        assert leaf_plan.driver is None

    def test_negated_intensional_literal_rejected(self):
        from repro.datalog import NotGroundableError

        bad = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V).
            u(V) :- bag(V, X0, X1), not t(V).
            """
        )
        with pytest.raises(NotGroundableError):
            prepare_grounding(bad)


class TestGroupTable:
    """The static group table of ``PreparedGrounding``: stream plans
    grouped by driver layout and binding prefix, with the distinct
    membership tests that follow the prefix."""

    def test_shared_prefix_forms_one_group(self):
        prepared = prepare_grounding(
            parse_program(
                """
                t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
                u(V) :- bag(V, X0, X1), leaf(V), not e(X0, X1).
                """
            )
        )
        (group,) = prepared.groups
        assert group.driver is None and group.members == (0, 1)
        assert [prepared.steps[i].predicate for i in group.prefix] == ["bag"]
        assert [
            (prepared.steps[i].kind, prepared.steps[i].predicate)
            for i in group.tests
        ] == [("rel", "e"), ("rel", "leaf"), ("neg", "e")]
        assert group.needs == ((0, 1), (1, 2))

    def test_base_rules_share_one_lane_whatever_their_heads(self):
        """Base rules fire once, up front, whether or not their heads
        are sinks, so they take distinct slots of one lane."""
        program = parse_program(
            """
            q(X) :- edge(X, Y).
            r(X) :- color(X).
            q(X) :- r(X), color(X).
            """
        )
        prepared = prepare_grounding(program)
        assert prepared.deferred == {"q"}
        base = [g for g in prepared.groups if g.driver is None]
        assert not any(g.deferred for g in base)
        assert sorted(s for g in base for s in g.slots) == [0, 1]
        db = Database()
        db.add("edge", (1, 2))
        db.add("color", (3,))
        logs = []
        for ground in (ground_program_streamed, ground_program_per_rule):
            sdb = SetDatabase.from_edb(db)
            sink = RecordingHorn()
            ground(prepared, sdb, InternPool(sdb.interner), sink=sink)
            logs.append(sink.log)
        assert logs[0] == logs[1] and len(logs[0]) == 3

    @pytest.mark.parametrize(
        "width, drivers, groups", [(1, 10, 40), (2, 34, 136)]
    )
    def test_compiled_group_table(self, width, drivers, groups):
        prepared = has_neighbor_solver(width).evaluator._prepared
        driven = [g for g in prepared.groups if g.driver is not None]
        assert len({g.driver for g in driven}) == drivers
        assert len(driven) == groups
        # every plan sits in exactly one group, as prefix + its tests
        members = sorted(m for g in prepared.groups for m in g.members)
        assert members == list(range(len(prepared.stream_plans)))
        # a lane's slots number its members in plan order
        lanes: dict = {}
        for group in prepared.groups:
            lanes.setdefault((group.driver, group.deferred), []).extend(
                zip(group.members, group.slots)
            )
        for placed in lanes.values():
            assert [slot for _, slot in sorted(placed)] == list(
                range(len(placed))
            )
        for group in prepared.groups:
            for m, need in zip(group.members, group.needs):
                ids = prepared.stream_plans[m].step_ids
                tail = ids[len(group.prefix) :]
                assert ids[: len(group.prefix)] == group.prefix
                assert set(tail) == {group.tests[j] for j in need}
                assert all(
                    prepared.steps[i].code in grounding._TEST_CODES
                    for i in tail
                )

    @pytest.mark.parametrize("width", [1, 2])
    def test_group_table_survives_pickling(self, width):
        """The table travels with the plans in the solver's pickle (the
        ``solve_many`` and service worker handoff)."""
        solver = has_neighbor_solver(width)
        clone = pickle.loads(pickle.dumps(solver))
        mine = solver.evaluator._prepared.groups
        assert clone.evaluator._prepared.groups == mine

    def test_group_firing_halves_the_bindings_explored(self):
        """On one deleted ladder, the grouped grounder emits the same
        ground rules as firing rule by rule while exploring at most
        half the bindings."""
        from repro.structures import graph_to_structure

        solver = has_neighbor_solver(2)
        encoded = oracle_encoding(
            solver, graph_to_structure(next(deleted_ladders()))
        )
        runs = []
        for ground in (ground_program_streamed, ground_program_per_rule):
            sdb = SetDatabase.from_edb(encoded)
            stats = GroundingStats()
            ground(
                solver.evaluator._prepared,
                sdb,
                InternPool(sdb.interner),
                stats=stats,
                relevant=solver.evaluator._relevant,
            )
            runs.append(stats)
        grouped, per_rule = runs
        assert grouped.ground_rules == per_rule.ground_rules > 0
        assert 2 * grouped.bindings_explored <= per_rule.bindings_explored
