"""Unit and property tests for the elimination-order heuristics."""

import pytest
from hypothesis import given

from repro.structures import Graph, running_example
from repro.treewidth import (
    decompose_graph,
    decompose_structure,
    decomposition_from_order,
    min_degree_order,
    min_fill_order,
)

from ..conftest import small_graphs


class TestOrders:
    @given(small_graphs())
    def test_orders_are_permutations(self, g):
        for order in (min_degree_order(g), min_fill_order(g)):
            assert sorted(order, key=repr) == sorted(g.vertices, key=repr)

    def test_min_degree_prefers_leaves(self):
        g = Graph.path(3)
        order = min_degree_order(g)
        assert order[0] in {0, 2}

    def test_min_fill_zero_on_chordal(self):
        # a triangle has no fill-in anywhere
        order = min_fill_order(Graph.complete(3))
        assert len(order) == 3


class TestDecompositionConstruction:
    def test_empty_graph(self):
        td = decompose_graph(Graph())
        assert td.width <= 0

    def test_wrong_order_raises(self):
        with pytest.raises(ValueError):
            decomposition_from_order(Graph.path(3), [0, 1])

    @given(small_graphs())
    def test_heuristic_decompositions_are_valid(self, g):
        for order in (min_fill_order, min_degree_order):
            decomposition_from_order(g, order(g)).validate_for_graph(g)

    def test_unknown_method_raises(self):
        """Each caller has its one order: the front end takes no
        ``method``."""
        with pytest.raises(TypeError):
            decompose_graph(Graph.path(2), method="min_degree")

    def test_known_widths(self):
        assert decompose_graph(Graph.path(6)).width == 1
        assert decompose_graph(Graph.cycle(6)).width == 2
        assert decompose_graph(Graph.complete(5)).width == 4

    def test_disconnected_graph(self):
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        td = decompose_graph(g)
        td.validate_for_graph(g)

    def test_structure_decomposition_covers_tuples(self):
        s = running_example().to_structure()
        td = decompose_structure(s)
        td.validate_for_structure(s)
        assert td.width == 2  # Example 2.2: tw of the schema structure is 2


def test_matches_networkx_quality_on_families():
    """Our heuristics should be no worse than networkx's on easy graphs."""
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_fill_in

    for g in (Graph.cycle(8), Graph.grid(3, 4), Graph.path(9)):
        nxg = nx.Graph(list(g.edges()))
        nx_width, _ = treewidth_min_fill_in(nxg)
        ours = decompose_graph(g).width
        assert ours <= nx_width + 1
