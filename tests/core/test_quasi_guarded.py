"""Tests for the Theorem 4.4 evaluation pipeline."""

import pytest

from repro.core import QuasiGuardedEvaluator, QuasiGuardedResult
from repro.datalog import (
    BuiltinRegistry,
    Database,
    GroundingStats,
    InternPool,
    least_fixpoint,
    make_check,
    parse_program,
    solve,
    standard_registry,
)

from ..conftest import supported_instances


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


def reference_result(program, db):
    """The semi-naive engine's model of ``program`` over ``db`` as a
    :class:`QuasiGuardedResult` (every derived atom interned and
    flagged), counting the supported rule instances as its
    ``stats.ground_rules``."""
    model = solve(program, db, backend="semi-naive")
    pool = InternPool()
    intern = pool.interner.intern
    for predicate in sorted(program.intensional_predicates()):
        for args in model.relation(predicate):
            pool.atom_id(predicate, tuple(map(intern, args)))
    return QuasiGuardedResult(
        pool,
        bytearray([1]) * len(pool),
        GroundingStats(ground_rules=supported_instances(program, db)),
    )


class TestEvaluator:
    def test_requires_quasi_guardedness(self):
        tc = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        with pytest.raises(ValueError, match="quasi-guarded"):
            QuasiGuardedEvaluator(tc, bag_arity=3)

    def test_check_can_be_disabled(self):
        tc = parse_program("path(X, Y) :- edge(X, Y).")
        QuasiGuardedEvaluator(tc, require_quasi_guarded=False)

    def test_matches_semi_naive(self):
        evaluator = QuasiGuardedEvaluator(PROG, bag_arity=3)
        result = evaluator.evaluate(tree_db())
        reference = least_fixpoint(PROG, tree_db())
        for predicate in ("t", "ok"):
            assert {
                f.args for f in result.facts if f.predicate == predicate
            } == reference.relation(predicate)

    def test_result_api(self):
        evaluator = QuasiGuardedEvaluator(PROG, bag_arity=3)
        result = evaluator.evaluate(tree_db())
        assert result.holds("ok")
        assert result.holds("t", "n1")
        assert not result.holds("t", "missing")
        assert result.unary_answers("t") == frozenset({"n0", "n1", "n2"})
        assert result.stats.ground_rules == 4

    def test_modes_agree_with_naive_and_semi_naive(self):
        """The streamed solve and the semi-naive reference model."""
        results = {
            "streamed": QuasiGuardedEvaluator(PROG, bag_arity=3).evaluate(
                tree_db()
            ),
            "reference": reference_result(PROG, tree_db()),
        }
        for backend in ("naive", "semi-naive"):
            reference = solve(PROG, tree_db(), backend=backend)
            for mode, result in results.items():
                facts = result.facts
                for predicate in ("t", "ok"):
                    got = {f.args for f in facts if f.predicate == predicate}
                    assert got == reference.relation(predicate), (mode, backend)
        # on this fully-live program the streamed emitter instantiates
        # no more rules than there are supported instances
        assert results["streamed"].stats.ground_rules <= (
            results["reference"].stats.ground_rules
        )

    def test_pickle_attaches_the_standard_registry_again(self):
        import pickle

        evaluator = QuasiGuardedEvaluator(PROG, bag_arity=3, demand="ok")
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone._prepared.registry.names() == (
            standard_registry().names()
        )
        assert clone._relevant == evaluator._relevant
        assert clone.evaluate(tree_db()).facts == (
            evaluator.evaluate(tree_db()).facts
        )

    def test_own_registry_refuses_to_pickle(self):
        """Only the standard registry is attached again on load, so an
        evaluator with any other refuses to pickle instead of coming
        back with a different one."""
        import pickle

        registry = BuiltinRegistry([make_check("odd", 1, lambda v: v % 2)])
        evaluator = QuasiGuardedEvaluator(
            PROG, bag_arity=3, registry=registry
        )
        with pytest.raises(pickle.PicklingError, match="registry"):
            pickle.dumps(evaluator)

    def test_demand_pruned_solve_is_exact_on_the_demanded_cone(self):
        demanded = QuasiGuardedEvaluator(
            PROG, bag_arity=3, demand="ok"
        ).evaluate(tree_db())
        full = QuasiGuardedEvaluator(PROG, bag_arity=3).evaluate(tree_db())
        assert demanded.holds("ok")
        assert demanded.unary_answers("t") == full.unary_answers("t")
        assert demanded.stats is not None

    def test_facts_decode_lazily_and_cache(self):
        evaluator = QuasiGuardedEvaluator(PROG, bag_arity=3)
        result = evaluator.evaluate(tree_db())
        assert result._facts is None  # nothing decoded yet
        first = result.facts
        assert first is result.facts  # cached on first access
        assert {f.args for f in first if f.predicate == "t"} == {
            ("n0",),
            ("n1",),
            ("n2",),
        }

    @pytest.mark.parametrize("streamed", [True, False])
    def test_unary_answers_validates_arity(self, streamed):
        """A non-unary fact under the queried predicate must raise, not
        be silently truncated to its first argument -- on the streamed
        solve's model and the semi-naive reference model alike."""

        def evaluate(program):
            if streamed:
                return QuasiGuardedEvaluator(program, bag_arity=3).evaluate(
                    tree_db()
                )
            return reference_result(program, tree_db())

        binary = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
            pair(V, X0) :- bag(V, X0, X1), t(V).
            """
        )
        result = evaluate(binary)
        assert result.holds("pair", "n2", "c")
        with pytest.raises(ValueError, match="arity 2, not 1"):
            result.unary_answers("pair")
        # nullary facts are rejected the same way
        full = evaluate(PROG)
        with pytest.raises(ValueError, match="arity 0, not 1"):
            full.unary_answers("ok")
        # absent predicates simply have no answers
        assert full.unary_answers("nothing") == frozenset()
