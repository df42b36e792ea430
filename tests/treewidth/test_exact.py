"""Tests for the exact treewidth DP."""

import pytest
from hypothesis import given

from repro.structures import Graph, gaifman_graph, running_example
from repro.treewidth import (
    decompose_graph,
    decomposition_from_order,
    is_treewidth_at_most,
    min_degree_order,
    min_fill_order,
    treewidth_exact,
)

from ..conftest import small_graphs, small_trees


class TestKnownFamilies:
    def test_empty_and_edgeless(self):
        assert treewidth_exact(Graph()) == 0
        assert treewidth_exact(Graph(vertices=[1, 2, 3])) == 0

    def test_trees_have_width_one(self):
        assert treewidth_exact(Graph.path(7)) == 1

    def test_cycles_have_width_two(self):
        for n in (3, 4, 6):
            assert treewidth_exact(Graph.cycle(n)) == 2

    def test_cliques(self):
        for n in (2, 3, 5):
            assert treewidth_exact(Graph.complete(n)) == n - 1

    def test_grids(self):
        assert treewidth_exact(Graph.grid(2, 4)) == 2
        assert treewidth_exact(Graph.grid(3, 3)) == 3

    def test_running_example_schema_is_width_two(self):
        """Example 2.2: tw(A) = 2 for the running-example schema."""
        g = gaifman_graph(running_example().to_structure())
        assert treewidth_exact(g) == 2

    def test_too_large_raises(self):
        with pytest.raises(ValueError):
            treewidth_exact(Graph.complete(23))

    def test_decision_variant(self):
        assert is_treewidth_at_most(Graph.cycle(5), 2)
        assert not is_treewidth_at_most(Graph.cycle(5), 1)


@given(small_graphs(max_vertices=7))
def test_heuristics_upper_bound_exact(g):
    if g.vertex_count() == 0:
        return
    exact = treewidth_exact(g)
    for order in (min_fill_order, min_degree_order):
        assert decomposition_from_order(g, order(g)).width >= exact


@given(small_trees(max_vertices=8))
def test_trees_are_width_at_most_one(g):
    assert treewidth_exact(g) <= 1
    # min_fill is exact on trees
    assert decompose_graph(g).width == treewidth_exact(g)
