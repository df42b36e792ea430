"""Semantic tests for the datalog engine (Section 2.4)."""

import pytest
from hypothesis import given, strategies as st

from repro.datalog import (
    Database,
    NotStratifiableError,
    Program,
    SetSemiNaiveEvaluator,
    UnsafeRuleError,
    atom,
    least_fixpoint,
    naive_least_fixpoint,
    parse_program,
    pos,
    prepare_program,
    rule,
    stratify,
    var,
)
from repro.structures import Graph, graph_to_structure

TC = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    """
)


def edge_db(edges):
    db = Database()
    for u, v in edges:
        db.add("edge", (u, v))
    return db


def reachable_pairs(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
    out = set()
    for start in {u for u, _ in edges}:
        stack = [start]
        seen = set()
        while stack:
            node = stack.pop()
            for nxt in adj.get(node, ()):
                if (start, nxt) not in out:
                    out.add((start, nxt))
                    stack.append(nxt)
    return out


class TestTransitiveClosure:
    def test_chain(self):
        db = least_fixpoint(TC, edge_db([(1, 2), (2, 3), (3, 4)]))
        assert (1, 4) in db.relation("path")
        assert len(db.relation("path")) == 6

    def test_cycle(self):
        db = least_fixpoint(TC, edge_db([(1, 2), (2, 1)]))
        assert db.relation("path") == {(1, 2), (2, 1), (1, 1), (2, 2)}

    @given(
        st.sets(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12
        )
    )
    def test_matches_graph_reachability(self, edges):
        db = least_fixpoint(TC, edge_db(edges))
        assert db.relation("path") == reachable_pairs(edges)

    @given(
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10)
    )
    def test_semi_naive_equals_naive(self, edges):
        a = least_fixpoint(TC, edge_db(edges))
        b = naive_least_fixpoint(TC, edge_db(edges))
        assert a.relation("path") == b.relation("path")

    @given(
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
    )
    def test_monotonicity(self, edges, more):
        small = least_fixpoint(TC, edge_db(edges))
        large = least_fixpoint(TC, edge_db(edges | more))
        assert small.relation("path") <= large.relation("path")


class TestSameGeneration:
    def test_same_generation(self):
        prog = parse_program(
            """
            sg(X, X) :- person(X).
            sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
            """
        )
        db = Database()
        for p in "abcdefg":
            db.add("person", (p,))
        for child, parent in [("b", "a"), ("c", "a"), ("d", "b"), ("e", "c")]:
            db.add("parent", (child, parent))
        result = least_fixpoint(prog, db)
        assert ("b", "c") in result.relation("sg")
        assert ("d", "e") in result.relation("sg")
        assert ("b", "d") not in result.relation("sg")


class TestNegation:
    def test_stratified_negation(self):
        prog = parse_program(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), edge(X, Y).
            unreachable(X) :- node(X), not reach(X).
            """
        )
        db = edge_db([(1, 2)])
        for n in (1, 2, 3):
            db.add("node", (n,))
        db.add("start", (1,))
        result = least_fixpoint(prog, db)
        assert result.relation("unreachable") == {(3,)}

    def test_strata_ordering(self):
        prog = parse_program(
            """
            a(X) :- base(X).
            b(X) :- base(X), not a(X).
            c(X) :- base(X), not b(X).
            """
        )
        strata = stratify(prog)
        level = {p: i for i, s in enumerate(strata) for p in s}
        assert level["a"] < level["b"] < level["c"]

    def test_unstratifiable_raises(self):
        prog = parse_program(
            """
            win(X) :- move(X, Y), not win(Y).
            """
        )
        with pytest.raises(NotStratifiableError):
            prepare_program(prog)

    def test_negation_on_edb_only_is_one_stratum(self):
        prog = parse_program("q(X) :- p(X), not r(X).")
        assert len(stratify(prog)) == 1


class TestSafety:
    def test_unbound_head_variable_raises(self):
        prog = parse_program("q(X, Y) :- p(X).")
        with pytest.raises(UnsafeRuleError):
            prepare_program(prog)

    def test_unbound_negated_variable_raises(self):
        prog = parse_program("q(X) :- p(X), not r(Y).")
        with pytest.raises(UnsafeRuleError):
            prepare_program(prog)

    def test_builtin_needing_bound_args_raises_if_never_bound(self):
        prog = parse_program("q(X) :- X < 3.")
        with pytest.raises(UnsafeRuleError):
            prepare_program(prog)


class TestBuiltinsInRules:
    def test_comparison_filters(self):
        prog = parse_program("small(X) :- num(X), X < 3.")
        db = Database()
        for n in range(5):
            db.add("num", (n,))
        result = least_fixpoint(prog, db)
        assert result.relation("small") == {(0,), (1,), (2,)}

    def test_generative_builtin_binds(self):
        prog = Program(
            [
                rule(
                    atom("half", var("S")),
                    pos("all", var("X")),
                    pos("subset", var("S"), var("X")),
                )
            ]
        )
        db = Database()
        db.add("all", (frozenset({1, 2}),))
        result = least_fixpoint(prog, db)
        assert len(result.relation("half")) == 4


class TestDatabase:
    def test_from_structure(self):
        db = Database.from_structure(graph_to_structure(Graph.path(3)))
        assert db.contains("e", (0, 1))
        assert db.fact_count() == 4

    def test_match_uses_patterns(self):
        from repro.datalog import UNBOUND

        db = edge_db([(1, 2), (1, 3), (2, 3)])
        assert set(db.match("edge", (1, UNBOUND))) == {(1, 2), (1, 3)}
        assert set(db.match("edge", (UNBOUND, 3))) == {(1, 3), (2, 3)}
        assert set(db.match("edge", (UNBOUND, UNBOUND))) == {(1, 2), (1, 3), (2, 3)}

    def test_index_updates_on_add(self):
        from repro.datalog import UNBOUND

        db = edge_db([(1, 2)])
        list(db.match("edge", (1, UNBOUND)))  # build the index
        db.add("edge", (1, 9))
        assert set(db.match("edge", (1, UNBOUND))) == {(1, 2), (1, 9)}

    def test_add_is_idempotent(self):
        db = Database()
        assert db.add("p", (1,))
        assert not db.add("p", (1,))

    def test_facts_iteration_sorted(self):
        db = edge_db([(2, 3), (1, 2)])
        facts = list(db.facts())
        assert len(facts) == 2
        assert all(f.predicate == "edge" for f in facts)


class TestStats:
    def test_stats_populated(self):
        evaluator = SetSemiNaiveEvaluator(TC)
        evaluator.evaluate(edge_db([(1, 2), (2, 3)]))
        assert evaluator.stats.facts_derived == 3
        assert evaluator.stats.rule_firings >= 3
