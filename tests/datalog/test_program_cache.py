"""Program fingerprints, the ``solve()`` plan memo (``default_cache()``),
and each program owner preparing its program once."""

import pytest

import repro.datalog.backends as backends
from repro.datalog import (
    BuiltinRegistry,
    Database,
    default_cache,
    make_check,
    parse_program,
    program_fingerprint,
    solve,
)

from ..conftest import TC_TEXT, chain_edges as chain_db, reference_query


@pytest.fixture
def memo(monkeypatch):
    """A fresh, private ``solve()`` plan memo for one test."""
    fresh = {}
    monkeypatch.setattr(backends, "_PREPARED", fresh)
    return fresh


def count_plans(monkeypatch, module):
    """Count calls to ``module.prepare_program`` (still planning)."""
    calls = []
    prepare = module.prepare_program

    def counting(program, registry=None):
        calls.append((program, registry))
        return prepare(program, registry)

    monkeypatch.setattr(module, "prepare_program", counting)
    return calls


class TestFingerprint:
    def test_reparsed_program_same_fingerprint(self):
        assert program_fingerprint(parse_program(TC_TEXT)) == (
            program_fingerprint(parse_program(TC_TEXT))
        )

    def test_changed_program_different_fingerprint(self):
        other = parse_program(TC_TEXT + "\nloop(X) :- path(X, X).")
        assert program_fingerprint(parse_program(TC_TEXT)) != (
            program_fingerprint(other)
        )


class TestFingerprintCollisions:
    """str()-alike programs must not share a fingerprint or a plan."""

    def test_constant_type_distinguished(self):
        from repro.datalog import Atom, Constant, Literal, Program, Rule, Variable

        X = Variable("X")
        int_zero = Program(
            [Rule(Atom("q", (X,)), (Literal(Atom("edge", (X, Constant(0)))),))]
        )
        str_zero = Program(
            [Rule(Atom("q", (X,)), (Literal(Atom("edge", (X, Constant("0")))),))]
        )
        assert program_fingerprint(int_zero) != program_fingerprint(str_zero)
        db = Database()
        db.add("edge", (1, "0"))
        db.add("edge", (2, 0))
        assert solve(int_zero, db).relation("q") == {(2,)}
        assert solve(str_zero, db).relation("q") == {(1,)}

    def test_variable_vs_constant_argument_key(self):
        """``edge(X, A)`` and ``edge(X, "A")`` must not share a plan."""
        from repro.datalog import Atom, Constant, Literal, Program, Rule, Variable

        X = Variable("X")

        def program(arg):
            body = (Literal(Atom("edge", (X, arg))),)
            return Program([Rule(Atom("q", (X,)), body)])

        free, bound = program(Variable("A")), program(Constant("A"))
        assert program_fingerprint(free) != program_fingerprint(bound)
        db = Database()
        db.add("edge", (1, "x"))
        assert solve(free, db).relation("q") == {(1,)}
        assert solve(bound, db).relation("q") == set()


class TestCacheHits:
    def test_resolve_different_structure_hits(self, memo, monkeypatch):
        """Same Program object, new structure, either engine: the
        planning is reused, only the data half re-runs."""
        calls = count_plans(monkeypatch, backends)
        program = parse_program(TC_TEXT)
        first = solve(program, chain_db(5))
        second = solve(program, chain_db(9), backend="naive")
        assert len(calls) == 1
        assert len(first.relation("path")) == 5 * 4 // 2
        assert len(second.relation("path")) == 9 * 8 // 2

    def test_program_change_misses(self, memo, monkeypatch):
        """The memo keys by identity: a re-parsed copy or another
        registry is planned again."""
        calls = count_plans(monkeypatch, backends)
        program = parse_program(TC_TEXT)
        solve(program, chain_db(4))
        solve(parse_program(TC_TEXT), chain_db(4))
        assert len(calls) == 2
        registry = BuiltinRegistry()
        solve(program, chain_db(4), registry=registry)
        solve(program, chain_db(4), registry=registry)
        assert len(calls) == 3
        # registry=None is one key, shared by every default caller
        solve(program, chain_db(4), registry=None)
        assert len(calls) == 3

    def test_eviction_is_bounded(self, memo, monkeypatch):
        monkeypatch.setattr(backends, "_PREPARED_MAX", 2)
        programs = [parse_program(TC_TEXT) for _ in range(3)]
        for program in programs:
            solve(program, chain_db(3))
        assert [key[0] for key in memo] == programs[1:]


class TestDefaultCache:
    def test_default_cache_is_shared(self, memo):
        """``default_cache()`` is the memo itself, and ``.clear()``
        empties it."""
        program = parse_program(TC_TEXT)
        solve(program, chain_db(3))
        assert default_cache() is memo
        assert list(default_cache()) == [(program, None)]
        default_cache().clear()
        assert len(memo) == 0


class TestOwnersPrepareOnce:
    def test_three_coloring_plans_figure5_once(self, monkeypatch):
        import repro.problems.three_coloring as three_coloring
        from repro.structures import Graph

        calls = count_plans(monkeypatch, three_coloring)
        solver = three_coloring.ThreeColoringDatalog()
        program = solver.program
        for n in range(3, 8):
            assert solver.decide(Graph.cycle(n))
        assert not solver.decide(Graph.complete(4))
        assert len(calls) == 1
        assert solver.program is program

    def test_primality_plans_once_per_attribute(self, monkeypatch):
        import repro.problems.primality as primality
        from repro.structures import running_example

        calls = count_plans(monkeypatch, primality)
        schema = running_example()
        solver = primality.PrimalityDatalog(schema)
        for _ in range(3):
            got = {a for a in schema.attributes if solver.decide(a)}
            assert got == set("abcd")
        assert len(calls) == len(schema.attributes)
        assert all(registry is solver.registry for _, registry in calls)


class TestNoCrossContamination:
    def test_interleaved_programs_keep_their_answers(self):
        forward = parse_program("next(X, Y) :- edge(X, Y).")
        backward = parse_program("next(X, Y) :- edge(Y, X).")
        db = Database()
        db.add("edge", (1, 2))
        for _ in range(2):
            assert solve(forward, db).relation("next") == {(1, 2)}
            assert solve(backward, db).relation("next") == {(2, 1)}

    def test_same_named_builtins_different_semantics_do_not_collide(self):
        """Registries key by identity: primality_registry-style
        schema-specific built-ins must not share plans/results."""
        program = parse_program("even(X) :- node(X), test(X).")
        db = Database()
        for i in range(6):
            db.add("node", (i,))

        def registry_with(test):
            registry = BuiltinRegistry()
            registry.register(make_check("test", 1, test))
            return registry

        evens = solve(
            program, db, registry=registry_with(lambda x: x % 2 == 0)
        )
        odds = solve(
            program, db, registry=registry_with(lambda x: x % 2 == 1)
        )
        assert evens.relation("even") == {(0,), (2,), (4,)}
        assert odds.relation("even") == {(1,), (3,), (5,)}

    def test_evaluations_do_not_leak_facts_between_structures(self):
        program = parse_program(TC_TEXT)
        solve(program, chain_db(9))
        small = solve(program, chain_db(3))
        assert small.relation("path") == {(0, 1), (1, 2), (0, 2)}


class TestGroundingCache:
    """The grounding plans each evaluator makes for itself."""

    def test_sink_predicates_are_always_deferred(self):
        """Every prepared grounding defers the program's sink
        predicates (heads in no rule body), whatever the demand."""
        from repro.core import QuasiGuardedEvaluator
        from repro.datalog import td_key_dependencies

        program = parse_program(
            """
            solve(V) :- leaf(V).
            solve(V) :- child1(V, W), solve(W).
            top(V) :- leaf(V), solve(V).
            """
        )
        deps = td_key_dependencies(1)
        full = QuasiGuardedEvaluator(program, dependencies=deps)
        demanded = QuasiGuardedEvaluator(
            program, dependencies=deps, demand="top"
        )
        assert full._prepared.deferred == frozenset({"top"})
        assert demanded._prepared.deferred == frozenset({"top"})

    def test_differently_optimized_solvers_share_one_cache(self):
        """Folded and unfolded solver variants, their reference solves
        side by side in the one ``solve()`` memo, answer identically,
        and pickled clones keep the variant's own program."""
        import pickle

        from repro.core import CourcelleSolver, undirected_graph_filter
        from repro.mso import formulas
        from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure

        def build(fold):
            return CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
                fold=fold,
            )

        optimized = build(True)
        ablated = build(False)
        structure = graph_to_structure(Graph.path(6))
        want = optimized.query(structure)
        assert ablated.query(structure) == want
        # each variant's own plans answer like the reference grounder,
        # and pickled clones carry their parent's program
        for solver in (optimized, ablated):
            assert reference_query(solver, structure) == want
            clone = pickle.loads(pickle.dumps(solver))
            assert program_fingerprint(clone.compiled.program) == (
                program_fingerprint(solver.compiled.program)
            )
            assert clone.query(structure) == want
        assert optimized.query(structure) == want
        assert ablated.query(structure) == want


class TestThreadSafety:
    def test_concurrent_solves_share_one_plan(self, memo):
        import threading

        program = parse_program(TC_TEXT)
        start = threading.Event()
        results = []

        def worker(n):
            start.wait()
            results.append(len(solve(program, chain_db(n)).relation("path")))

        sizes = [4, 5, 6, 7]
        threads = [threading.Thread(target=worker, args=(n,)) for n in sizes]
        for thread in threads:
            thread.start()
        start.set()
        for thread in threads:
            thread.join()
        assert sorted(results) == [n * (n - 1) // 2 for n in sizes]
        assert list(memo) == [(program, None)]

    def test_concurrent_eviction_churn_keeps_the_cache_bounded(
        self, memo, monkeypatch
    ):
        import threading

        monkeypatch.setattr(backends, "_PREPARED_MAX", 3)
        programs = [
            parse_program(f"p{i}(X) :- edge(X, Y).") for i in range(11)
        ]
        db = chain_db(3)
        start = threading.Event()
        errors = []
        sizes = []

        def worker(seed):
            start.wait()
            try:
                for i in range(60):
                    k = (seed * 7 + i) % len(programs)
                    got = solve(programs[k], db).relation(f"p{k}")
                    assert got == {(0,), (1,)}
                    sizes.append(len(memo))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        start.set()
        for thread in threads:
            thread.join()
        assert not errors
        assert max(sizes) <= 3
        assert len(memo) <= 3
