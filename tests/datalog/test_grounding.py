"""Tests for guard-driven grounding (Theorem 4.4, first half), read
off the ground rules the streamed grounder feeds its online LTUR."""

import pytest

from repro.core import QuasiGuardedEvaluator
from repro.datalog import (
    Database,
    GroundingStats,
    NotGroundableError,
    parse_program,
    solve,
)
from repro.structures import Fact

from ..conftest import streamed_ground_rules


def tree_db():
    """A 3-node chain with bags, as produced by the tau_td encoding."""
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


class TestGroundProgram:
    def test_ground_rule_shapes(self):
        rules = streamed_ground_rules(PROG, tree_db())
        # the leaf rule first (EDB satisfied), then each propagation
        # instance as its driver t(child) derives, then the deferred
        # sink ok once the fixpoint settled
        assert [r.head for r in rules] == [
            Fact("t", ("n2",)),
            Fact("t", ("n1",)),
            Fact("t", ("n0",)),
            Fact("ok", ()),
        ]
        # every intensional body atom is the driver here: it has
        # derived when the instance is emitted, so nothing waits
        assert all(r.body == () for r in rules)

    def test_instance_count_linear_in_guard_matches(self):
        stats = GroundingStats()
        streamed_ground_rules(PROG, tree_db(), stats=stats)
        # one leaf instance + two propagation instances + one root instance
        assert stats.ground_rules == 4

    def test_negation_evaluated_during_grounding(self):
        prog = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), not e(X0, X1).
            """
        )
        rules = streamed_ground_rules(prog, tree_db())
        assert rules == []  # e(c, d) holds, so the negation kills it

    def test_negation_survives_when_atom_absent(self):
        prog = parse_program(
            """
            t(V) :- bag(V, X0, X1), root(V), not e(X0, X1).
            """
        )
        rules = streamed_ground_rules(prog, tree_db())
        assert [r.head for r in rules] == [Fact("t", ("n0",))]

    def test_not_groundable_raises(self):
        # Z is bound only by the non-driver intensional atom p(Y, Z)
        prog = parse_program("p(X, Z) :- p(X, Y), p(Y, Z), q(X).")
        with pytest.raises(NotGroundableError):
            streamed_ground_rules(prog, Database())

    def test_driver_variables_count_as_bound(self):
        """A variable the driver atom binds needs no extensional guard:
        the instance is only built once the driver has derived."""
        prog = parse_program(
            """
            p(X, Y) :- e(X, Y).
            p(X, Z) :- p(X, Y), e(Y, Z).
            """
        )
        db = Database()
        for edge in [("a", "b"), ("b", "c"), ("c", "d")]:
            db.add("e", edge)
        rules = streamed_ground_rules(prog, db)
        assert len(rules) == 6  # three edges, then one per path extension
        derived = QuasiGuardedEvaluator(
            prog, require_quasi_guarded=False
        ).evaluate(db)
        assert {f.args for f in derived.facts} == solve(
            prog, db, backend="semi-naive"
        ).relation("p")

    def test_negated_idb_rejected(self):
        prog = parse_program(
            """
            t(V) :- bag(V, X0, X1).
            s(V) :- bag(V, X0, X1), not t(V).
            """
        )
        with pytest.raises(NotGroundableError):
            streamed_ground_rules(prog, tree_db())


class TestPipeline:
    def test_matches_semi_naive(self):
        db = tree_db()
        derived = QuasiGuardedEvaluator(PROG, bag_arity=3).evaluate(db).facts
        for backend in ("semi-naive", "naive"):
            reference = solve(PROG, db, backend=backend)
            for predicate in ("t", "ok"):
                assert {
                    f.args for f in derived if f.predicate == predicate
                } == reference.relation(predicate), backend

    def test_from_structure_input(self):
        from repro.structures import Graph, graph_to_structure
        from repro.treewidth import decompose_graph, normalize, encode_normalized

        g = Graph.path(4)
        structure = graph_to_structure(g)
        ntd = normalize(decompose_graph(g))
        encoded = encode_normalized(structure, ntd)
        prog = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V).
            t(V) :- bag(V, X0, X1), child1(V1, V), t(V1).
            ok :- root(V), t(V).
            """
        )
        derived = QuasiGuardedEvaluator(prog, bag_arity=3).evaluate(encoded).facts
        assert Fact("ok", ()) in derived
