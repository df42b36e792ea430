"""Tests for naive MSO model checking against ground truths."""

import pytest
from hypothesis import given

from repro.mso import (
    Budget,
    BudgetExceeded,
    Const,
    Eq,
    ExistsInd,
    ExistsSet,
    ForallInd,
    ForallSet,
    In,
    Not,
    RelAtom,
    evaluate,
    formulas,
    query,
)
from repro.structures import Graph, graph_to_structure, running_example

from ..conftest import small_graphs, small_schemas


class TestBasics:
    def test_atom(self):
        s = graph_to_structure(Graph.path(2))
        assert evaluate(s, RelAtom("e", ("x", "y")), {"x": 0, "y": 1})
        assert not evaluate(s, RelAtom("e", ("x", "y")), {"x": 0, "y": 0})

    def test_constants(self):
        s = graph_to_structure(Graph.path(2))
        assert evaluate(s, RelAtom("e", (Const(0), Const(1))))

    def test_equality(self):
        s = graph_to_structure(Graph.path(2))
        assert evaluate(s, Eq("x", "x"), {"x": 0})
        assert not evaluate(s, Eq("x", "y"), {"x": 0, "y": 1})

    def test_unbound_variable_raises(self):
        s = graph_to_structure(Graph.path(2))
        with pytest.raises(ValueError):
            evaluate(s, RelAtom("e", ("x", "y")), {"x": 0})

    def test_unbound_set_variable_raises(self):
        s = graph_to_structure(Graph.path(2))
        with pytest.raises(ValueError):
            evaluate(s, In("x", "X"), {"x": 0})

    def test_membership(self):
        s = graph_to_structure(Graph.path(2))
        assert evaluate(s, In("x", "X"), {"x": 0}, {"X": frozenset({0})})

    def test_fo_quantifiers(self):
        s = graph_to_structure(Graph.path(3))
        has_nb = ExistsInd("y", RelAtom("e", ("x", "y")))
        assert evaluate(s, has_nb, {"x": 1})
        all_nb = ForallInd("x", ExistsInd("y", RelAtom("e", ("x", "y"))))
        assert evaluate(s, all_nb)

    def test_so_quantifiers(self):
        s = graph_to_structure(Graph.path(2))
        some_set = ExistsSet("X", In("x", "X"))
        assert evaluate(s, some_set, {"x": 0})
        every_set = ForallSet("X", In("x", "X"))
        assert not evaluate(s, every_set, {"x": 0})


class TestQuery:
    def test_has_neighbor_query(self):
        s = graph_to_structure(Graph(vertices=[0, 1, 2], edges=[(0, 1)]))
        assert query(s, formulas.has_neighbor("x"), "x") == frozenset({0, 1})

    def test_isolated_query(self):
        s = graph_to_structure(Graph(vertices=[0, 1, 2], edges=[(0, 1)]))
        assert query(s, formulas.isolated("x"), "x") == frozenset({2})


class TestPaperFormulas:
    @given(small_graphs(max_vertices=5))
    def test_three_colorability_matches_bruteforce(self, g):
        from repro.problems import k_coloring_bruteforce

        if g.vertex_count() == 0:
            return
        s = graph_to_structure(g)
        assert evaluate(s, formulas.three_colorability()) == (
            k_coloring_bruteforce(g, 3)
        )

    def test_primality_on_running_example(self):
        """Example 2.6: (A, a) |= phi(x) and (A, e) |/= phi(x)."""
        s = running_example().to_structure()
        phi = formulas.primality("x")
        assert evaluate(s, phi, {"x": "a"})
        assert not evaluate(s, phi, {"x": "e"})
        assert query(s, phi, "x") == frozenset("abcd")

    @given(small_schemas(max_attrs=4, max_fds=3))
    def test_primality_formula_matches_bruteforce(self, schema):
        s = schema.to_structure()
        phi = formulas.primality("x")
        got = {a for a in schema.attributes if evaluate(s, phi, {"x": a})}
        assert got == set(schema.prime_attributes_bruteforce())

    def test_primality_false_on_fd_elements(self):
        s = running_example().to_structure()
        assert not evaluate(s, formulas.primality("x"), {"x": "f1"})


class TestBudget:
    def test_budget_exhausts_on_so_quantification(self):
        s = running_example().to_structure()
        with pytest.raises(BudgetExceeded):
            evaluate(
                s,
                formulas.primality("x"),
                {"x": "a"},
                budget=Budget(limit=500),
            )

    def test_budget_counts_steps(self):
        s = graph_to_structure(Graph.path(2))
        budget = Budget()
        evaluate(s, RelAtom("e", ("x", "y")), {"x": 0, "y": 1}, budget=budget)
        assert budget.steps == 1

    def test_generous_budget_suffices(self):
        s = graph_to_structure(Graph.path(3))
        budget = Budget(limit=10_000)
        assert evaluate(s, formulas.three_colorability(), budget=budget)
