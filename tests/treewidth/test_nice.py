"""Tests for the Section 5 modified ("nice") normal form."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.structures import Graph, graph_to_structure, running_example
from repro.errors import InvalidDecomposition
from repro.treewidth import (
    NiceNodeKind,
    NiceTreeDecomposition,
    RootedTree,
    decompose_graph,
    decompose_structure,
    ensure_elements_in_leaves,
    make_nice,
    reroot_to_contain,
    surround_branches,
)

from ..conftest import small_graphs
from .oracles import scan_shape_violations


def _tree(edges):
    tree = RootedTree()
    for parent, child in edges:
        tree.add_child(parent, child)
    return tree


#: malformed Section 5 shapes: (tree edges, bag per node)
MALFORMED_NICE_FORMS = {
    "three-children": (
        [(0, 1), (0, 2), (0, 3)],
        {0: {0}, 1: {0}, 2: {0}, 3: {0}},
    ),
    "unequal-branch": ([(0, 1), (0, 2)], {0: {0, 1}, 1: {0, 1}, 2: {0}}),
    "two-elements-at-once": ([(0, 1)], {0: {0, 1}, 1: {2, 3}}),
    "swap": ([(0, 1)], {0: {0, 1}, 1: {0, 2}}),
    "one-more-but-no-superset": ([(0, 1)], {0: {0, 1}, 1: {0, 2, 3}}),
    "one-fewer-but-no-subset": ([(0, 1)], {0: {0, 1, 2}, 1: {0, 3}}),
    "out-of-preorder-ids": (
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)],
        {0: {0}, 1: {0}, 2: {0}, 3: {5, 6}, 4: {0, 1, 2}, 5: {5}},
    ),
}


class TestMakeNice:
    @given(small_graphs(max_vertices=7))
    def test_valid_on_random_graphs(self, g):
        if g.vertex_count() == 0:
            return
        td = decompose_graph(g)
        nice = make_nice(td)
        nice.validate(graph_to_structure(g))
        assert nice.width == td.width

    def test_unary_nodes_change_one_element(self):
        nice = make_nice(decompose_graph(Graph.grid(3, 3)))
        for n in nice.tree.nodes():
            kind = nice.node_kind(n)
            if kind is NiceNodeKind.INTRODUCTION:
                v = nice.introduced_element(n)
                (child,) = nice.tree.children(n)
                assert nice.bag(n) == nice.bag(child) | {v}
            elif kind is NiceNodeKind.REMOVAL:
                v = nice.removed_element(n)
                (child,) = nice.tree.children(n)
                assert nice.bag(n) == nice.bag(child) - {v}

    def test_branch_children_equal(self):
        g = Graph(vertices=list(range(7)), edges=[(0, i) for i in range(1, 7)])
        nice = make_nice(decompose_graph(g))
        for n in nice.tree.nodes():
            children = nice.tree.children(n)
            if len(children) == 2:
                assert nice.bag(children[0]) == nice.bag(n)
                assert nice.bag(children[1]) == nice.bag(n)

    def test_no_copy_nodes_without_surround(self):
        nice = make_nice(decompose_graph(Graph.cycle(6)))
        kinds = {nice.node_kind(n) for n in nice.tree.nodes()}
        assert NiceNodeKind.COPY not in kinds

    def test_interpolation_keys_control_order(self):
        """The PRIMALITY invariant: removal of FDs first, introduction of
        attributes first (exercised fully in the primality tests)."""
        s = running_example().to_structure()
        td = decompose_structure(s)
        fd_names = {f.name for f in running_example().fds}
        nice = make_nice(
            td,
            removal_key=lambda e: 0 if e in fd_names else 1,
            introduction_key=lambda e: 0 if e not in fd_names else 1,
        )
        nice.validate(s)


class TestShapeCheck:
    """``shape_violations`` (one pass over the child map) gives the
    violations of classifying every node in preorder."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_NICE_FORMS))
    def test_malformed_shapes_match_the_scan(self, name):
        edges, bags = MALFORMED_NICE_FORMS[name]
        nice = NiceTreeDecomposition(_tree(edges), bags)
        expected = scan_shape_violations(nice)
        assert expected, name
        assert nice.shape_violations() == expected
        with pytest.raises(InvalidDecomposition) as info:
            nice.validate()
        assert info.value.violations == tuple(expected)

    @given(small_graphs(max_vertices=7), st.integers(0, 2**32 - 1))
    def test_clean_and_perturbed_forms_match_the_scan(self, g, seed):
        """Nice forms are clean; dropping, adding or swapping one bag
        element gives exactly the scan's violations."""
        if g.vertex_count() == 0:
            return
        nice = make_nice(decompose_graph(g))
        assert nice.shape_violations() == scan_shape_violations(nice) == []
        rng = random.Random(seed)
        bags = dict(nice.bags)
        node = rng.choice(sorted(bags))
        vertices = sorted(g.vertices)
        bag = set(bags[node])
        change = rng.randrange(3)
        if change != 1 and bag:
            bag.discard(rng.choice(sorted(bag)))
        if change != 0:
            bag.add(rng.choice(vertices))
        bags[node] = bag
        perturbed = NiceTreeDecomposition(nice.tree, bags)
        assert perturbed.shape_violations() == scan_shape_violations(perturbed)


class TestSurroundBranches:
    def test_branch_parents_have_equal_bags(self):
        g = Graph(vertices=list(range(7)), edges=[(0, i) for i in range(1, 7)])
        nice = surround_branches(make_nice(decompose_graph(g)))
        nice.validate(graph_to_structure(g))
        for n in nice.tree.nodes():
            if nice.node_kind(n) is NiceNodeKind.BRANCH:
                parent = nice.tree.parent(n)
                assert parent is not None  # the root is never a branch
                assert nice.bag(parent) == nice.bag(n)

    def test_introduces_copy_kinds(self):
        g = Graph(vertices=list(range(7)), edges=[(0, i) for i in range(1, 7)])
        nice = surround_branches(make_nice(decompose_graph(g)))
        kinds = [nice.node_kind(n) for n in nice.tree.nodes()]
        if any(k is NiceNodeKind.BRANCH for k in kinds):
            assert any(k is NiceNodeKind.COPY for k in kinds)


class TestEnumerationPrep:
    @given(small_graphs(max_vertices=6))
    def test_every_vertex_reaches_a_leaf(self, g):
        if g.vertex_count() == 0:
            return
        td = ensure_elements_in_leaves(decompose_graph(g), g.vertices)
        td.validate_for_graph(g)
        leaf_elements = set()
        for node in td.tree.nodes():
            if td.tree.is_leaf(node):
                leaf_elements |= td.bags[node]
        assert g.vertices <= leaf_elements

    def test_leaf_coverage_survives_nicification(self):
        g = Graph.grid(3, 3)
        td = ensure_elements_in_leaves(decompose_graph(g), g.vertices)
        nice = surround_branches(make_nice(td))
        leaf_elements = set()
        for node in nice.tree.nodes():
            if nice.tree.is_leaf(node):
                leaf_elements |= nice.bag(node)
        assert g.vertices <= leaf_elements


class TestReroot:
    @given(small_graphs(max_vertices=6))
    def test_reroot_to_contain(self, g):
        if g.vertex_count() == 0:
            return
        td = decompose_graph(g)
        for v in sorted(g.vertices)[:3]:
            rerooted = reroot_to_contain(td, v)
            assert v in rerooted.bags[rerooted.tree.root]
            rerooted.validate_for_graph(g)

    def test_missing_element_raises(self):
        td = decompose_graph(Graph.path(3))
        with pytest.raises(ValueError):
            reroot_to_contain(td, 99)
