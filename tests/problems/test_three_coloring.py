"""Cross-validation of the 3-Colorability solvers (Section 5.1) with
each other and with exhaustive search."""

import random

import pytest
from hypothesis import given, settings

from repro.datalog import SetDatabase, solve
from repro.errors import InvalidDecomposition
from repro.problems import (
    ThreeColoringDatalog,
    encode_for_three_coloring,
    is_valid_k_coloring,
    k_coloring_bruteforce,
    random_partial_ktree,
    three_coloring_direct,
    three_coloring_program,
)
from repro.problems.three_coloring import coloring_states, prepare_decomposition
from repro.structures import Graph
from repro.treewidth import RootedTree, TreeDecomposition

from ..conftest import small_graphs


@pytest.fixture(scope="module")
def datalog_solver():
    return ThreeColoringDatalog()


KNOWN = [
    (Graph.cycle(4), True),
    (Graph.cycle(5), True),
    (Graph.cycle(6), True),
    (Graph.complete(3), True),
    (Graph.complete(4), False),
    (Graph.grid(3, 3), True),
    (Graph.path(8), True),
    (Graph(vertices=[0], edges=[(0, 0)]), False),
]


class TestKnownGraphs:
    @pytest.mark.parametrize("graph,expected", KNOWN, ids=repr)
    def test_direct(self, graph, expected):
        colorable, _ = three_coloring_direct(graph)
        assert colorable == expected

    @pytest.mark.parametrize("graph,expected", KNOWN, ids=repr)
    def test_datalog(self, graph, expected, datalog_solver):
        assert datalog_solver.decide(graph) == expected

    def test_empty_graph(self, datalog_solver):
        assert datalog_solver.decide(Graph())
        assert three_coloring_direct(Graph())[0]

    def test_wheel_families(self, datalog_solver):
        # odd wheels need 4 colors, even wheels 3... W_n = C_n + hub
        for n, expected in ((4, True), (5, False), (6, True)):
            wheel = Graph.cycle(n)
            for v in range(n):
                wheel.add_edge("hub", v)
            assert three_coloring_direct(wheel)[0] == expected


class TestWitnesses:
    @pytest.mark.parametrize(
        "graph", [g for g, colorable in KNOWN if colorable], ids=repr
    )
    def test_witness_is_valid_coloring(self, graph):
        colorable, witness = three_coloring_direct(graph, want_witness=True)
        assert colorable and witness is not None
        assert is_valid_k_coloring(graph, witness, 3)

    def test_witness_of_a_deep_decomposition(self):
        """The witness is read back along the nice tree without
        recursion: a path's decomposition is thousands of nodes deep."""
        graph = Graph.path(2000)
        colorable, witness = three_coloring_direct(graph, want_witness=True)
        assert colorable and is_valid_k_coloring(graph, witness, 3)

    def test_no_witness_when_uncolorable(self):
        colorable, witness = three_coloring_direct(
            Graph.complete(4), want_witness=True
        )
        assert not colorable and witness is None


class TestAgainstBruteforce:
    @given(small_graphs(max_vertices=7))
    @settings(max_examples=20, deadline=None)
    def test_direct_matches_bruteforce(self, g):
        assert three_coloring_direct(g)[0] == k_coloring_bruteforce(g, 3)

    @given(small_graphs(max_vertices=6))
    @settings(max_examples=12, deadline=None)
    def test_datalog_matches_bruteforce(self, g):
        solver = ThreeColoringDatalog()
        assert solver.decide(g) == k_coloring_bruteforce(g, 3)


class TestProgramShape:
    def test_figure5_rule_count(self):
        """Figure 5: 1 leaf + 3 introduction + 3 removal + 1 branch +
        1 result, plus our explicit copy rule."""
        program = three_coloring_program()
        assert len(program.rules) == 10
        assert program.intensional_predicates() == {"solve", "success"}

    def test_program_is_data_independent(self):
        assert str(three_coloring_program()) == str(three_coloring_program())

    def test_solve_fact_counts_reported(self):
        solver = ThreeColoringDatalog()
        run = solver.run(Graph.cycle(4))
        assert run.colorable
        assert run.solve_fact_count > 0

    def test_encoding_has_allowed_facts(self):
        g = Graph.path(3)
        nice = prepare_decomposition(g)
        encoded = encode_for_three_coloring(g, nice)
        assert encoded.relation("allowed")
        # every allowed set is independent in g
        for node, chosen in encoded.relation("allowed"):
            for u in chosen:
                assert not any(v in chosen for v in g.neighbors(u))

    @pytest.mark.parametrize(
        "bags, message",
        [
            ({0: {0, 1, 2}}, "never covered"),
            ({0: {0, 1, 2}, 1: {2, 3}}, r"edge \(3, 0\)|edge \(0, 3\)"),
            ({0: {0, 1, 3}, 1: {1, 2}, 2: {2, 3}}, "connectedness"),
        ],
    )
    def test_an_invalid_decomposition_raises(self, bags, message):
        """Every route checks the Section 2.2 axioms of a supplied
        decomposition, once, on its nice form."""
        tree = RootedTree()  # a star: every other node under node 0
        for _ in range(len(bags) - 1):
            tree.add_child(tree.root)
        td = TreeDecomposition(tree, bags)
        for decide in (
            ThreeColoringDatalog().decide,
            lambda g, td: three_coloring_direct(g, td)[0],
        ):
            with pytest.raises(InvalidDecomposition, match=message):
                decide(Graph.cycle(4), td)

    def test_decomposition_respected_when_supplied(self):
        from repro.problems import random_partial_ktree
        import random

        g, td = random_partial_ktree(random.Random(1), 10, 2)
        colorable, witness = three_coloring_direct(g, td, want_witness=True)
        assert colorable == k_coloring_bruteforce(g, 3)
        if witness is not None:
            assert is_valid_k_coloring(g, witness, 3)


#: one vertex of each awkward type: a negative int, a string, tuples
#: (the empty one too) and frozensets -- ``frozenset({-3})`` equals the
#: colour class holding only ``-3``, ``frozenset()`` the empty one
ODD = [-3, "v", ("t", 1), (), frozenset({-3}), frozenset()]
ODD_EDGES = list(zip(ODD, ODD[1:] + ODD[:1])) + [(ODD[0], ODD[2])]


class TestOddVertices:
    """Figure 5 on bitset sets over vertices of any hashable type, with
    an isolated vertex, pinned to brute force and to the value-level
    route."""

    @pytest.mark.parametrize(
        "graph, expected",
        [
            (Graph(vertices=ODD + ["isolated"], edges=ODD_EDGES), True),
            # a self-loop
            (
                Graph(
                    vertices=ODD + ["isolated"], edges=ODD_EDGES + [((), ())]
                ),
                False,
            ),
            # K4 on four of them
            (
                Graph(
                    vertices=ODD + ["isolated"],
                    edges=[(u, w) for u in ODD[2:] for w in ODD[2:] if u != w],
                ),
                False,
            ),
        ],
        ids=["colourable", "self-loop", "k4"],
    )
    def test_decide_and_fixpoint(self, graph, expected, datalog_solver):
        assert k_coloring_bruteforce(graph, 3) == expected
        assert three_coloring_direct(graph)[0] == expected
        run = datalog_solver.run(graph)
        assert run.colorable == expected
        nice = prepare_decomposition(graph)
        oracle = solve(
            datalog_solver.program, encode_for_three_coloring(graph, nice)
        )
        assert run.database.relation("solve") == oracle.relation("solve")
        assert run.solve_fact_count == len(oracle.relation("solve"))


class TestIdSpaceRun:
    """``decide`` loads ``A_td`` in ids and reads ``success`` there;
    ``run`` keeps its contract, decoding its database on first access."""

    def test_decide_never_decodes(self, monkeypatch, datalog_solver):
        def refuse(*args, **kwargs):
            raise AssertionError("decide decoded a relation")

        monkeypatch.setattr(SetDatabase, "decode", refuse)
        monkeypatch.setattr(SetDatabase, "decode_relation", refuse)
        for graph, expected in KNOWN:
            assert datalog_solver.decide(graph) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_run_matches_the_value_level_solve(self, seed, datalog_solver):
        graph, _ = random_partial_ktree(random.Random(seed), 24, 3, 0.3)
        nice = prepare_decomposition(graph)
        want = solve(
            datalog_solver.program, encode_for_three_coloring(graph, nice)
        )
        run = datalog_solver.run(graph)
        assert run.colorable == want.contains("success", ())
        assert run.colorable == three_coloring_direct(graph)[0]
        assert run.solve_fact_count == len(want.relation("solve"))
        assert "database" not in vars(run)  # not decoded yet
        assert run.database.relation("solve") == want.relation("solve")
        assert run.database is run.database

    def test_empty_graph_run(self, datalog_solver):
        run = datalog_solver.run(Graph())
        assert run.colorable and run.solve_fact_count == 0
        assert run.database.fact_count() == 0


class TestDirectStates:
    """The direct DP computes "exactly the solve facts of Property A":
    its state set at every nice node is the set of Figure 5 ``solve(s,
    R, G, B)`` facts of that node, not only the same final answer."""

    def test_states_are_the_decoded_solve_facts(self, datalog_solver):
        mismatched = []
        for seed in range(20):
            graph, td = random_partial_ktree(random.Random(seed), 24, 3, 0.3)
            nice = prepare_decomposition(graph, td)
            states, _ = coloring_states(graph, nice, 3)
            facts: dict[int, set] = {node: set() for node in nice.tree.nodes()}
            database = datalog_solver.run(graph, td).database
            for node, r, g, b in database.relation("solve"):
                facts[node.index].add((r, g, b))
            assert facts.keys() == states.keys()
            mismatched += [
                (seed, node) for node in states if states[node] != facts[node]
            ]
        assert mismatched == []


def full_atom_space(nice) -> int:
    """Every (R, G, B) partition of every bag: the ``solve`` atoms a
    fully materialized ground program holds, and the predicates
    solve<R,G,B>(s) of Theorem 5.1's monadic expansion."""
    return sum(3 ** len(nice.bag(node)) for node in nice.tree.nodes())


class TestSection6Claims:
    """Section 6's two optimizations for Figure 5, as deterministic
    counts on seeded partial 2-trees."""

    def test_lazy_grounding_reaches_a_minority_of_the_atom_space(
        self, datalog_solver
    ):
        """Optimization (2): "the vast majority of possible
        instantiations is never computed"."""
        rng = random.Random(4242)
        for n in (15, 30, 60):
            graph, td = random_partial_ktree(rng, n, 2, 0.6)
            full = full_atom_space(prepare_decomposition(graph, td))
            reached = datalog_solver.run(graph, td).solve_fact_count
            assert reached < full / 2, (n, reached, full)

    def test_figure5_has_10_rules_whatever_the_data(self, datalog_solver):
        assert len(three_coloring_program().rules) == 10
        assert datalog_solver.program.rules == three_coloring_program().rules

    def test_monadic_expansion_is_over_100x_figure5(self):
        """Optimization (1): Figure 5 is a succinct form of the monadic
        program, which grows with the data."""
        graph, td = random_partial_ktree(random.Random(9), 40, 2, 0.6)
        predicates = full_atom_space(prepare_decomposition(graph, td))
        assert predicates > 100 * len(three_coloring_program().rules)
