"""Tests for the CourcelleSolver facade (Corollary 4.6 end-to-end)."""

import pytest

from repro.core import CourcelleSolver, undirected_graph_filter
from repro.mso import formulas, query
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure


@pytest.fixture(scope="module")
def solver():
    return CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )


class TestQuery:
    def test_on_path(self, solver):
        s = graph_to_structure(Graph.path(6))
        assert solver.query(s) == frozenset(range(6))

    def test_with_isolated_vertices(self, solver):
        g = Graph(vertices=[0, 1, 2, 3], edges=[(1, 2)])
        s = graph_to_structure(g)
        want = query(s, formulas.has_neighbor("x"), "x")
        assert solver.query(s) == want == frozenset({1, 2})

    def test_small_structure_fallback(self, solver):
        """|dom| < w + 1 falls back to direct evaluation (the paper's
        'w.l.o.g.')."""
        s = graph_to_structure(Graph(vertices=[0]))
        assert solver.query(s) == frozenset()

    def test_narrow_decomposition_is_widened(self, solver):
        # stars have width 1 already; a 2-vertex graph needs widening? no --
        # it *is* width 1.  An edgeless 3-vertex graph has width 0.
        g = Graph(vertices=[0, 1, 2])
        s = graph_to_structure(g)
        assert solver.query(s) == frozenset()

    def test_decide_on_unary_solver_raises(self, solver):
        with pytest.raises(ValueError):
            solver.decide(graph_to_structure(Graph.path(2)))

    def test_too_wide_decomposition_rejected(self, solver):
        from repro.treewidth import decompose_structure

        g = Graph.complete(4)  # width 3 > compiled width 1
        s = graph_to_structure(g)
        td = decompose_structure(s)
        with pytest.raises(ValueError, match="exceeds"):
            solver.query(s, td)

    def test_explicit_decomposition_accepted(self, solver):
        from repro.treewidth import decompose_structure

        g = Graph.path(5)
        s = graph_to_structure(g)
        td = decompose_structure(s)
        assert solver.query(s, td) == frozenset(range(5))


class TestIsolatedQuery:
    def test_isolated(self):
        isolated_solver = CourcelleSolver(
            formulas.isolated("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1)])
        s = graph_to_structure(g)
        assert isolated_solver.query(s) == frozenset({2, 3})

    def test_isolated_next_to_a_path(self):
        isolated_solver = CourcelleSolver(
            formulas.isolated("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (1, 2)])
        s = graph_to_structure(g)
        want = query(s, formulas.isolated("x"), "x")
        assert want == frozenset({3})
        assert isolated_solver.query(s) == want


class TestTypeWitnessGate:
    """Every compiled class is right on every structure of its type.

    Up to the query's k-type, the ``TypeTable`` witnesses (one
    canonical minimal structure per type) are a finite and complete
    sample of the compiled class, so solving each one checks the
    Lemma 3.5/3.6 steps, minimization and folding once per type.  A
    monotone query alone would not catch a node that derives two
    classes; ``isolated`` is not monotone."""

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("name", ["isolated", "has_neighbor"])
    def test_every_witness_matches_direct_mso(self, name, width):
        from ..conftest import graph_query_compile

        solver, witnesses = graph_query_compile(name, width)
        formula = getattr(formulas, name)("x")
        assert len(witnesses) == (16 if width == 1 else 416)
        wrong = [
            w for w in witnesses if solver.query(w) != query(w, formula, "x")
        ]
        assert wrong == []

    def test_isolated_on_random_forests(self):
        import random

        from ..conftest import graph_query_compile

        solver, _ = graph_query_compile("isolated", 1)
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 40)
            graph = Graph(range(n))
            for v in range(1, n):
                if rng.random() < 0.8:
                    graph.add_edge(v, rng.randrange(v))
            s = graph_to_structure(graph)
            assert solver.query(s) == query(s, formulas.isolated("x"), "x")

    def test_isolated_on_deleted_ladders(self):
        from itertools import islice

        from ..conftest import deleted_ladders, graph_query_compile

        solver, _ = graph_query_compile("isolated", 2)
        for graph in islice(deleted_ladders(seed=3, deleted=0.25), 60):
            s = graph_to_structure(graph)
            assert solver.query(s) == query(s, formulas.isolated("x"), "x")


def _encode(structure, width):
    """The ``A_td`` encoding ``CourcelleSolver`` evaluates."""
    from repro.treewidth import (
        decompose_structure,
        encode_normalized,
        normalize,
        widen,
    )

    td = decompose_structure(structure)
    if td.width < width:
        td = widen(td, width)
    return encode_normalized(structure, normalize(td))


class TestPluggableBackends:
    """The generic engines are oracles, not solver backends: running
    the compiled program through ``repro.datalog.solve`` on the
    ``A_td`` encoding must answer what the quasi-guarded solver does."""

    @pytest.mark.parametrize("backend", ["naive", "semi-naive"])
    def test_query_agrees_with_quasi_guarded(self, solver, backend):
        from repro.core import ANSWER_PREDICATE
        from repro.datalog import solve

        for g in [
            Graph.path(6),
            Graph(vertices=[0, 1, 2, 3], edges=[(1, 2)]),
            Graph(vertices=[0, 1, 2]),
        ]:
            s = graph_to_structure(g)
            derived = solve(
                solver.compiled.program,
                _encode(s, solver.compiled.width),
                backend=backend,
            )
            answers = {args[0] for args in derived.relation(ANSWER_PREDICATE)}
            assert answers == solver.query(s), backend

    @pytest.mark.parametrize("backend", ["naive", "semi-naive"])
    def test_decide_sentence_across_backends(self, backend):
        """The 0-ary answer path: φ holds iff some p and some non-p."""
        from repro.core import ANSWER_PREDICATE
        from repro.datalog import solve
        from repro.mso import And, ExistsInd, Not, RelAtom, evaluate
        from repro.structures import Signature, Structure

        psig = Signature.of(p=1)
        sentence = ExistsInd(
            "x",
            And(RelAtom("p", ("x",)), ExistsInd("y", Not(RelAtom("p", ("y",))))),
        )
        s = CourcelleSolver(sentence, psig, width=1)
        mixed = Structure(psig, [0, 1, 2], {"p": {(0,)}})
        empty = Structure(psig, [0, 1, 2], {"p": set()})
        for structure, want in ((mixed, True), (empty, False)):
            derived = solve(
                s.compiled.program,
                _encode(structure, 1),
                backend=backend,
            )
            assert derived.contains(ANSWER_PREDICATE, ()) is want
            assert s.decide(structure) == evaluate(structure, sentence) is want


class TestQuasiGuardednessCheck:
    """The Theorem 4.5 check runs once per solver construction: the
    solver asserts it, the evaluator it wires does not repeat it."""

    @staticmethod
    def _build():
        return CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )

    def test_construction_checks_exactly_once(self, monkeypatch):
        import repro.core.quasi_guarded as qg_module
        import repro.core.solver as solver_module
        from repro.datalog.guards import is_quasi_guarded

        calls = []

        def counting(program, dependencies=()):
            calls.append(program)
            return is_quasi_guarded(program, dependencies)

        monkeypatch.setattr(solver_module, "is_quasi_guarded", counting)
        monkeypatch.setattr(qg_module, "is_quasi_guarded", counting)
        s = self._build()
        assert len(calls) == 1
        assert calls[0] is s.compiled.program
        path = graph_to_structure(Graph.path(3))
        assert s.query(path) == query(path, formulas.has_neighbor("x"), "x")

    def test_non_quasi_guarded_program_still_raises(self, monkeypatch):
        import dataclasses

        import repro.core.solver as solver_module
        from repro.datalog import Program, parse_rule

        compile = solver_module.MSOToDatalogCompiler.compile
        unguarded = parse_rule("path(X, Z) :- path(X, Y), e(Y, Z).")

        def compile_with_unguarded_rule(compiler):
            compiled = compile(compiler)
            program = compiled.program
            return dataclasses.replace(
                compiled,
                program=Program(
                    program.rules + (unguarded,), program.builtin_names
                ),
            )

        monkeypatch.setattr(
            solver_module.MSOToDatalogCompiler,
            "compile",
            compile_with_unguarded_rule,
        )
        with pytest.raises(AssertionError, match="Theorem 4.5"):
            self._build()


class TestPickleHandoff:
    """A pickled solver is what a service worker loads: the clone
    carries its compiled program, grounding plans and resolved demand,
    so loading it neither re-plans, re-resolves demand nor re-checks
    quasi-guardedness, and it answers exactly as the original."""

    @staticmethod
    def _structures(width):
        import random
        from itertools import islice

        from repro.problems import random_tree_graph

        from ..conftest import deleted_ladders

        if width == 2:
            graphs = list(islice(deleted_ladders(), 4))
        else:
            rng = random.Random(0x51CE)
            graphs = [random_tree_graph(rng, n) for n in (2, 5, 9, 14)]
        return [graph_to_structure(g) for g in graphs]

    @pytest.mark.parametrize("width", [1, 2])
    def test_load_does_no_per_program_work(self, width, monkeypatch):
        import pickle

        import repro.core.quasi_guarded as qg_module
        import repro.core.solver as solver_module
        import repro.datalog.grounding as grounding_module
        import repro.datalog.guards as guards_module

        from ..conftest import has_neighbor_solver

        solver = has_neighbor_solver(width)
        payload = pickle.dumps(solver)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-program work on load")

        for module, name in (
            (qg_module, "prepare_grounding"),
            (qg_module, "resolve_demand"),
            (qg_module, "is_quasi_guarded"),
            (solver_module, "is_quasi_guarded"),
            (grounding_module, "prepare_grounding"),
            (grounding_module, "resolve_demand"),
            (guards_module, "is_quasi_guarded"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        clone = pickle.loads(payload)
        assert clone.evaluator._relevant == solver.evaluator._relevant
        for structure in self._structures(width):
            assert clone.query(structure) == solver.query(structure)


class TestLoadRoute:
    """The production load (``load_normalized``) and the value-level
    oracle (``encode_normalized`` + ``SetDatabase.from_edb``) of the
    same normalized decomposition drive identical solves: the same
    model and the same grounding counters."""

    @staticmethod
    def _both_routes(solver, structure):
        from repro.datalog import SetDatabase
        from repro.treewidth import encode_normalized, load_normalized

        from ..conftest import admitted_td

        ntd = solver._normalize(structure, admitted_td(solver, structure))
        loads = (
            load_normalized(structure, ntd),
            SetDatabase.from_edb(encode_normalized(structure, ntd)),
        )
        runs = []
        for db in loads:
            result = solver.evaluator.evaluate(db)
            stats = result.stats
            runs.append(
                (
                    result.facts,
                    stats.ground_rules,
                    stats.rules_pruned,
                    stats.bindings_explored,
                    stats.peak_live_rules,
                )
            )
        return runs

    def test_deleted_ladders(self):
        from itertools import islice

        from ..conftest import deleted_ladders, has_neighbor_solver

        solver = has_neighbor_solver(2)
        for graph in islice(deleted_ladders(), 12):
            production, oracle = self._both_routes(
                solver, graph_to_structure(graph)
            )
            assert production == oracle

    @staticmethod
    def _forests():
        """The 40 seeded width-1 forests (as structures)."""
        import random

        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 60)
            graph = Graph(range(n))
            for v in range(1, n):
                if rng.random() < 0.9:
                    graph.add_edge(v, rng.randrange(v))
            yield graph_to_structure(graph)

    def test_random_forests(self):
        """Every counter but ``peak_live_rules``: the high-water mark of
        waiting ground rules depends on the order in which the grounder
        meets the nodes, which follows their ids, and ``from_edb``
        numbers the nodes in its own order."""
        from ..conftest import has_neighbor_solver

        solver = has_neighbor_solver(1)
        for structure in self._forests():
            production, oracle = self._both_routes(solver, structure)
            assert production[:-1] == oracle[:-1]

    def test_node_labels_do_not_move_the_solve(self):
        """The load numbers the nodes in preorder, whatever their
        labels: relabelling the nodes of a normalized decomposition (and
        scrambling the order of its bag map) leaves the model, up to the
        renaming, and every counter -- ``peak_live_rules`` included --
        unchanged."""
        import random

        from repro.structures.structure import Fact
        from repro.treewidth import (
            NormalizedTreeDecomposition,
            RootedTree,
            load_normalized,
        )
        from repro.treewidth.encode import TDNode

        from ..conftest import admitted_td, has_neighbor_solver

        solver = has_neighbor_solver(1)
        rng = random.Random(29)

        def run(structure, ntd, back=None):
            result = solver.evaluator.evaluate(load_normalized(structure, ntd))
            facts = result.facts
            if back is not None:
                facts = frozenset(
                    Fact(
                        f.predicate,
                        tuple(
                            TDNode(back[a.index]) if isinstance(a, TDNode) else a
                            for a in f.args
                        ),
                    )
                    for f in facts
                )
            stats = result.stats
            return (
                facts,
                stats.ground_rules,
                stats.rules_pruned,
                stats.bindings_explored,
                stats.peak_live_rules,
            )

        for structure in self._forests():
            ntd = solver._normalize(structure, admitted_td(solver, structure))
            labels = list(ntd.bags)
            fresh = rng.sample(range(1000, 1000 + 10 * len(labels)), len(labels))
            rename = dict(zip(labels, fresh))
            tree = RootedTree(rename[ntd.tree.root])
            for node in ntd.tree.preorder():
                for child in ntd.tree.children(node):
                    tree.add_child(rename[node], rename[child])
            scrambled = list(ntd.bags.items())
            rng.shuffle(scrambled)
            relabelled = NormalizedTreeDecomposition(
                tree, {rename[n]: bag for n, bag in scrambled}
            )
            relabelled.bags = {rename[n]: bag for n, bag in scrambled}
            back = {new: old for old, new in rename.items()}
            assert run(structure, relabelled, back) == run(structure, ntd)
