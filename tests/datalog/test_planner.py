"""Static join planning.

* the round-0 tie-break stays textual: only a built-in in a functional
  binding pattern may move ahead of a relation atom, never a cost
  estimate;
* the static ``A_td`` cost model plans compiled programs once: key
  probes of ``child1``/``child2`` come before any probe of ``bag`` by
  its contents, the grounding cache keys plans by the dependencies they
  were planned under, and a solve binds each distinct join step (and
  each database handle) once.
"""

import random

import pytest

from repro.datalog import (
    ProgramCache,
    SetDatabase,
    Variable,
    parse_program,
    prepare_grounding,
    prepare_program,
)

from ..conftest import TC_TEXT

#: transitive closure plus a guarded projection whose textual body
#: order joins the big intensional relation before its EDB guard
GUARDED_TC_TEXT = TC_TEXT + "\n    q(Y) :- path(X, Y), src(X)."


class TestReplanRegression:
    """Equal-score relation atoms keep body textual order: there is no
    run-time feedback to reorder them."""

    def test_static_plan_keeps_textual_order(self):
        # the static tie-break must stay textual: recursive rules and
        # magic guard prefixes rely on body order
        program = parse_program(GUARDED_TC_TEXT)
        prepared = prepare_program(program)
        q_plan = [s.literal.atom.predicate for s in prepared.plans[2]]
        assert q_plan == ["path", "src"]


class TestFunctionalBuiltinFirst:
    """Round-0 plans run a built-in in a functional binding pattern
    before any relation atom that is not fully bound."""

    @staticmethod
    def _programs():
        from repro.problems.generators import random_schema
        from repro.problems.primality import (
            enumeration_program,
            primality_program,
            primality_registry,
        )
        from repro.problems.three_coloring import three_coloring_program

        registry = primality_registry(random_schema(random.Random(0), 5, 4))
        return [
            prepare_program(three_coloring_program()),
            prepare_program(primality_program("a"), registry),
            prepare_program(enumeration_program(), registry),
        ]

    def test_figure5_leaf_rule_partitions_before_the_last_allowed(self):
        from repro.problems.three_coloring import three_coloring_program

        prepared = prepare_program(three_coloring_program())
        plan = [str(step.literal) for step in prepared.plans[0]]
        assert plan == [
            "leaf(S)",
            "bag(S, X)",
            "allowed(S, R)",
            "allowed(S, G)",
            "partition3(X, R, G, B)",
            "allowed(S, B)",
        ]
        # B is a function of X, R and G: no |allowed(S)|^3 cross
        # product, and the last allowed is a bound check
        last = prepared.steps[0][-1]
        assert last.kind == "relation" and not last.free

    def test_no_relation_atom_with_a_free_position_precedes_one(self):
        for prepared in self._programs():
            registry = prepared.registry
            for rule, plan in zip(prepared.program.rules, prepared.plans):
                bound: set = set()
                for index, step in enumerate(plan):
                    atom = step.literal.atom
                    mask = tuple(
                        not isinstance(arg, Variable) or arg in bound
                        for arg in atom.args
                    )
                    if step.kind == "relation" and not all(mask):
                        for later in plan[index + 1 :]:
                            other = later.literal.atom
                            if later.kind != "builtin":
                                continue
                            builtin = registry.get(other.predicate)
                            m = tuple(
                                not isinstance(arg, Variable) or arg in bound
                                for arg in other.args
                            )
                            assert not (
                                builtin.can_evaluate(m)
                                and builtin.is_functional(m)
                            ), (str(rule), str(atom), str(other))
                    bound |= set(atom.variables())


class TestStaticTdModel:
    def test_model_encodes_key_fanout_and_size_order(self):
        from repro.datalog.guards import key_cost_model, td_key_dependencies

        assert key_cost_model(()) is None
        cost = key_cost_model(td_key_dependencies(4))
        # a probe covering a key determinant has fanout at most one,
        # smaller relations first among them
        keyed = [
            cost.estimate("child2", 2, (1,)),
            cost.estimate("child1", 2, (0,)),
            cost.estimate("bag", 4, (0,)),
        ]
        assert keyed == sorted(keyed) and keyed[-1] <= 1.0
        assert cost.estimate("bag", 4, (0, 2, 3)) == keyed[-1]
        # bag by its contents alone (node free) is not a key probe
        assert cost.estimate("bag", 4, (1, 2, 3)) > 1.0
        scans = [
            cost.estimate(p, 1, ())
            for p in ("root", "leaf", "child2", "child1", "bag")
        ]
        assert scans == sorted(scans) and len(set(scans)) == 5
        # relations outside A_td stay unknown: textual tie-break
        assert cost.estimate("e", 2, (0,)) is None


class TestCompiledPlans:
    """Planning and binding of the compiled ``has_neighbor`` programs."""

    _SOLVERS: dict = {}

    @classmethod
    def _solver(cls, width: int):
        if width not in cls._SOLVERS:
            from repro.core import (
                CourcelleSolver,
                grid_graph_filter,
                undirected_graph_filter,
            )
            from repro.mso import formulas
            from repro.structures import GRAPH_SIGNATURE

            cls._SOLVERS[width] = CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=width,
                free_var="x",
                structure_filter=(
                    grid_graph_filter
                    if width == 2
                    else undirected_graph_filter
                ),
            )
        return cls._SOLVERS[width]

    @staticmethod
    def _encoding(width: int):
        from repro.structures import Graph, graph_to_structure
        from repro.treewidth import decompose_structure, encode_normalized
        from repro.treewidth import normalize

        graph = Graph.grid(2, 24) if width == 2 else Graph.path(40)
        structure = graph_to_structure(graph)
        td = decompose_structure(structure)
        assert td.width == width
        return structure, encode_normalized(structure, normalize(td))

    @pytest.mark.parametrize("width", [1, 2])
    def test_no_bag_content_probe_before_a_child_key_probe(self, width):
        """No rule probes ``bag`` by its contents with the node free
        while a ``child1``/``child2`` atom that could bind that node by
        key is still to come."""
        prepared = self._solver(width).evaluator._prepared
        for plan in prepared.stream_plans:
            bound = {s for _, s in plan.driver_slots}
            steps = [prepared.steps[i] for i in plan.step_ids]
            for index, step in enumerate(steps):
                node = dict(step.free).get(0)
                by_contents = node is not None and bool(step.bound)
                if step.predicate == "bag" and by_contents:
                    for later in steps[index + 1 :]:
                        if later.predicate not in ("child1", "child2"):
                            continue
                        slots = {s for _, s in later.bound}
                        could_bind = node in slots and slots - {node} <= bound
                        assert not could_bind, plan.rule
                bound |= {s for _, s in step.free}

    @pytest.mark.parametrize("width, distinct", [(1, 28), (2, 45)])
    def test_a_solve_binds_each_distinct_step_once(
        self, monkeypatch, width, distinct
    ):
        """The per-solve binding: the database handles (bitsets,
        relations, probe getters) one solve fetches are at most the
        program's distinct join steps, not one per step instance."""
        from repro.core import ANSWER_PREDICATE
        from repro.mso import formulas, query as mso_query

        solver = self._solver(width)
        prepared = solver.evaluator._prepared
        instances = sum(len(plan.step_ids) for plan in prepared.stream_plans)
        assert len(prepared.steps) == distinct < instances // 10
        calls = []
        for name in ("bits", "relation", "index_for"):
            original = getattr(SetDatabase, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append((_name,) + args)
                return _original(self, *args)

            monkeypatch.setattr(SetDatabase, name, counted)
        structure, encoded = self._encoding(width)
        db = SetDatabase.from_edb(encoded)
        calls.clear()
        result = solver.evaluator.evaluate(db)
        assert calls and len(calls) <= len(prepared.steps)
        assert len(set(calls)) == len(calls)  # each handle fetched once
        assert result.unary_answers(ANSWER_PREDICATE) == mso_query(
            structure, formulas.has_neighbor("x"), "x"
        )

    def test_dependencies_key_the_grounding_cache(self):
        from repro.core import QuasiGuardedEvaluator
        from repro.datalog.guards import td_key_dependencies

        program = self._solver(1).compiled.program
        deps = td_key_dependencies(3)
        cache = ProgramCache()
        static = cache.grounding(program, dependencies=deps)
        plain = cache.grounding(program)
        assert static is not plain
        assert static.stream_plans != plain.stream_plans
        assert cache.grounding(program, dependencies=deps) is static
        assert cache.grounding(program) is plain
        # no dependencies, no model: the textual tie-break of old
        bare = prepare_grounding(program)
        assert (plain.plans, plain.stream_plans, plain.steps) == (
            bare.plans,
            bare.stream_plans,
            bare.steps,
        )
        with_deps = QuasiGuardedEvaluator(
            program, dependencies=deps, cache=cache
        )
        without = QuasiGuardedEvaluator(
            program, require_quasi_guarded=False, cache=cache
        )
        assert with_deps._prepared is static
        assert without._prepared is plain
