"""Cross-system integration tests: every route to the same answer.

The paper's central claim is that the datalog route, the generic
MSO-to-datalog route and direct MSO evaluation all compute the same
queries -- these tests pin that down end-to-end on
shared instances.
"""

import random

import pytest

from repro.mso import evaluate, formulas, query
from repro.problems import (
    PrimalityDatalog,
    ThreeColoringDatalog,
    prime_attributes_datalog,
    prime_attributes_direct,
    prime_attributes_rerooting,
    primality_direct,
    random_partial_ktree,
    three_coloring_bruteforce,
    three_coloring_direct,
)
from repro.structures import (
    Graph,
    RelationalSchema,
    graph_to_structure,
    running_example,
)


class TestPrimalityAllRoutes:
    SCHEMAS = [
        running_example(),
        RelationalSchema.parse("R = abcd; a -> b, b -> c, c -> d"),
        RelationalSchema.parse("R = abc; ab -> c, c -> a"),
        RelationalSchema.parse("R = abcde; ab -> c, cd -> e, e -> a"),
    ]

    @pytest.mark.parametrize("schema", SCHEMAS, ids=lambda s: "".join(s.attributes))
    def test_five_routes_agree(self, schema):
        want = schema.prime_attributes_bruteforce()
        # 1. MSO evaluation of Example 2.6's query
        mso = query(schema.to_structure(), formulas.primality("x"), "x")
        # 2. Figure 6 direct DP per attribute
        direct = frozenset(
            a for a in schema.attributes if primality_direct(schema, a)
        )
        # 3. Section 5.3 linear enumeration
        enum = prime_attributes_direct(schema)
        # 4. quadratic re-rooting
        reroot = prime_attributes_rerooting(schema)
        # 5. the datalog interpreter
        datalog = prime_attributes_datalog(schema)
        assert mso == direct == enum == reroot == datalog == want


class TestThreeColoringAllRoutes:
    def test_routes_agree_on_random_partial_ktrees(self):
        rng = random.Random(2024)
        solver = ThreeColoringDatalog()
        for _ in range(6):
            graph, td = random_partial_ktree(rng, rng.randint(3, 8), 2)
            want = three_coloring_bruteforce(graph)
            assert three_coloring_direct(graph, td)[0] == want
            assert solver.decide(graph, td) == want
            assert evaluate(
                graph_to_structure(graph), formulas.three_colorability()
            ) == want

    def test_mso_agrees_on_families(self):
        solver = ThreeColoringDatalog()
        for g in (Graph.cycle(7), Graph.complete(4), Graph.grid(2, 4)):
            assert solver.decide(g) == evaluate(
                graph_to_structure(g), formulas.three_colorability()
            )


class TestCompiledSolverVsHandwritten:
    def test_generic_compiler_agrees_with_direct_query(self):
        """Theorem 4.5's generic program vs naive MSO on shared trees."""
        from repro.core import CourcelleSolver, undirected_graph_filter
        from repro.structures import GRAPH_SIGNATURE

        solver = CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )
        rng = random.Random(7)
        for _ in range(4):
            n = rng.randint(2, 8)
            g = Graph(range(n))
            for v in range(1, n):
                g.add_edge(v, rng.randrange(v))
            s = graph_to_structure(g)
            assert solver.query(s) == query(s, formulas.has_neighbor("x"), "x")


class TestDecisionEnumerationConsistency:
    def test_decision_matches_enumeration_membership(self):
        rng = random.Random(31)
        from repro.problems import random_schema

        for _ in range(5):
            schema = random_schema(rng, rng.randint(2, 5), rng.randint(1, 4))
            primes = prime_attributes_direct(schema)
            for a in schema.attributes:
                assert primality_direct(schema, a) == (a in primes)
