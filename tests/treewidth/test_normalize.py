"""Tests for the Definition 2.3 normal form (Proposition 2.4)."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.errors import InvalidDecomposition
from repro.structures import Graph, graph_to_structure, running_example
from repro.treewidth import (
    NormalizedNodeKind,
    NormalizedTreeDecomposition,
    RootedTree,
    TreeDecomposition,
    decompose_graph,
    decompose_structure,
    normalize,
    widen,
)

from ..conftest import small_graphs
from .oracles import (
    binarize,
    equalize_branches,
    interpolate_edges,
    pad_bags_to_full_size,
    scan_shape_violations,
)


def normalized_of(graph):
    td = decompose_graph(graph)
    return td, normalize(td)


class TestPipelineSteps:
    def test_padding_fills_all_bags(self):
        td = decompose_graph(Graph.path(5))
        padded = pad_bags_to_full_size(td)
        target = td.width + 1
        assert all(len(b) == target for b in padded.bags.values())
        padded.validate_for_graph(Graph.path(5))

    def test_padding_to_explicit_width(self):
        td = decompose_graph(Graph.cycle(6))
        padded = pad_bags_to_full_size(td, td.width)
        assert padded.width == td.width

    def test_binarize_caps_children(self):
        g = Graph(vertices=[0, 1, 2, 3, 4], edges=[(0, i) for i in range(1, 5)])
        td = decompose_graph(g)
        b = binarize(td)
        assert all(len(b.tree.children(n)) <= 2 for n in b.tree.nodes())
        b.validate_for_graph(g)

    def test_equalize_branches(self):
        g = Graph(vertices=[0, 1, 2, 3, 4], edges=[(0, i) for i in range(1, 5)])
        td = equalize_branches(binarize(pad_bags_to_full_size(decompose_graph(g))))
        for n in td.tree.nodes():
            if len(td.tree.children(n)) == 2:
                for c in td.tree.children(n):
                    assert td.bags[c] == td.bags[n]

    def test_interpolation_single_swaps(self):
        g = Graph.cycle(8)
        td = interpolate_edges(
            equalize_branches(binarize(pad_bags_to_full_size(decompose_graph(g))))
        )
        for n in td.tree.nodes():
            for c in td.tree.children(n):
                assert len(td.bags[n] - td.bags[c]) <= 1
        td.validate_for_graph(g)


class TestNormalize:
    def test_single_node_graph(self):
        g = Graph(vertices=[0, 1], edges=[(0, 1)])
        ntd = normalize(decompose_graph(g))
        ntd.validate(graph_to_structure(g))

    @given(small_graphs(max_vertices=7))
    def test_normal_form_on_random_graphs(self, g):
        if g.vertex_count() < 2:
            return
        td = decompose_graph(g)
        ntd = normalize(td)
        # Definition 2.3 plus the TD axioms, checked structurally:
        ntd.validate(graph_to_structure(g))
        # width preserved exactly (Proposition 2.4)
        assert ntd.width == td.width

    def test_node_kinds_partition(self):
        td, ntd = normalized_of(Graph.grid(3, 3))
        kinds = {ntd.node_kind(n) for n in ntd.tree.nodes()}
        assert NormalizedNodeKind.LEAF in kinds

    def test_bags_are_distinct_tuples(self):
        _, ntd = normalized_of(Graph.cycle(6))
        for n in ntd.tree.nodes():
            bag = ntd.bag(n)
            assert len(set(bag)) == len(bag) == ntd.width + 1

    def test_branch_children_identical(self):
        g = Graph(vertices=list(range(7)), edges=[(0, i) for i in range(1, 7)])
        _, ntd = normalized_of(g)
        for n in ntd.tree.nodes():
            children = ntd.tree.children(n)
            if len(children) == 2:
                assert ntd.bag(children[0]) == ntd.bag(n)
                assert ntd.bag(children[1]) == ntd.bag(n)

    def test_permutation_of(self):
        _, ntd = normalized_of(Graph.cycle(5))
        for n in ntd.tree.nodes():
            if ntd.node_kind(n) is NormalizedNodeKind.PERMUTATION:
                pi = ntd.permutation_of(n)
                (child,) = ntd.tree.children(n)
                bag, child_bag = ntd.bag(n), ntd.bag(child)
                assert tuple(bag[pi[i]] for i in range(len(pi))) == child_bag

    def test_schema_structure_normalization(self):
        s = running_example().to_structure()
        td = decompose_structure(s)
        ntd = normalize(td)
        ntd.validate(s)
        assert ntd.width == 2

    @given(small_graphs(max_vertices=7))
    def test_no_unary_node_repeats_its_child_tuple(self, g):
        """No identity-permutation node: the compiled program has no
        rule for one, so it would derive no type there."""
        if g.vertex_count() < 2:
            return
        _, ntd = normalized_of(g)
        for n in ntd.tree.nodes():
            children = ntd.tree.children(n)
            if len(children) == 1:
                assert ntd.bag(children[0]) != ntd.bag(n)

    def test_identity_unary_node_is_malformed(self):
        tree = RootedTree()
        tree.add_child(tree.root)
        ntd = NormalizedTreeDecomposition(tree, {0: (0, 1), 1: (0, 1)})
        with pytest.raises(ValueError, match="same tuple"):
            ntd.node_kind(0)
        with pytest.raises(InvalidDecomposition) as info:
            ntd.validate(graph_to_structure(Graph([0, 1], [(0, 1)])))
        assert [v.code for v in info.value.violations] == ["malformed-node"]

    def test_deterministic_across_hash_seeds(self):
        """String labels iterate in hash order; the walk must not
        depend on it (a traced benchmark re-run in a second process
        reproduces the node counts)."""
        script = (
            "from repro.structures import Graph, graph_to_structure\n"
            "from repro.treewidth import RootedTree, TreeDecomposition\n"
            "from repro.treewidth import decompose_structure, normalize\n"
            "g = Graph.grid(3, 4)\n"
            "g = Graph([str(v) for v in g.vertices],"
            " [(str(u), str(v)) for u, v in g.edges()])\n"
            "tree = RootedTree()\n"
            "tree.add_child(tree.add_child(tree.root))\n"
            "chain = TreeDecomposition(tree, {0: 'abcd', 1: 'cdef', 2: 'fghi'})\n"
            "for td in (decompose_structure(graph_to_structure(g)), chain):\n"
            "    ntd = normalize(td)\n"
            "    print([(n, ntd.tree.parent(n), ntd.bag(n))"
            " for n in ntd.tree.preorder()])\n"
        )
        outputs = set()
        src = os.path.dirname(os.path.dirname(repro.__file__))
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1

    def test_as_set_decomposition_valid(self):
        """The tuple bags pass the axiom check in place, and as the
        set-bag decomposition ``copy`` gives."""
        g = Graph.grid(2, 3)
        _, ntd = normalized_of(g)
        ntd.validate_for_graph(g)
        sets = ntd.copy()
        assert type(sets) is TreeDecomposition
        assert sets.bags == {n: frozenset(t) for n, t in ntd.bags.items()}
        sets.validate_for_graph(g)


def _tree(edges):
    """A rooted tree from (parent, child) edges, children added in
    edge order (so the node ids need not follow preorder)."""
    tree = RootedTree()
    for parent, child in edges:
        tree.add_child(parent, child)
    return tree


#: malformed Definition 2.3 shapes: (tree edges, tuple per node)
MALFORMED_NORMAL_FORMS = {
    "identity-unary": ([(0, 1)], {0: (0, 1), 1: (0, 1)}),
    "three-children": (
        [(0, 1), (0, 2), (0, 3)],
        {0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1)},
    ),
    "unequal-branch": ([(0, 1), (0, 2)], {0: (0, 1), 1: (0, 1), 2: (1, 0)}),
    "two-swaps-at-once": ([(0, 1)], {0: (0, 1), 1: (2, 3)}),
    "repeating-root": ([(0, 1)], {0: (0, 0), 1: (1, 0)}),
    "replacement-into-a-repeat": ([(0, 1)], {0: (0, 1), 1: (1, 1)}),
    "permutation-of-repeats": ([(0, 1)], {0: (0, 1, 1), 1: (1, 0, 1)}),
    # node ids out of preorder: 0 -> 1 -> 3 and 0 -> 2, with
    # violations below both branch children
    "out-of-preorder-ids": (
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)],
        {0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (5, 6), 4: (0, 1), 5: (7, 7)},
    ),
}


class TestShapeCheck:
    """``shape_violations`` (one pass over the child map, bag repeats
    inferred from the root's tuple) gives the violations of the scan
    by definition: a set per bag, then every node classified in
    preorder."""

    def test_replacement_by_a_present_element_is_malformed(self):
        """Definition 2.3 replaces position 0 by a new element: a child
        that brings in an element the tuple already holds repeats it,
        and its parent is no element replacement node."""
        edges, tuples = MALFORMED_NORMAL_FORMS["replacement-into-a-repeat"]
        ntd = NormalizedTreeDecomposition(_tree(edges), tuples)
        assert [(v.code, v.subject) for v in ntd.shape_violations()] == [
            ("bag-repeats-elements", (1,)),
            ("malformed-node", (0,)),
        ]
        with pytest.raises(ValueError, match="neither permutation"):
            ntd.node_kind(0)

    @pytest.mark.parametrize("name", sorted(MALFORMED_NORMAL_FORMS))
    def test_malformed_shapes_match_the_scan(self, name):
        edges, tuples = MALFORMED_NORMAL_FORMS[name]
        ntd = NormalizedTreeDecomposition(_tree(edges), tuples)
        expected = scan_shape_violations(ntd)
        assert expected, name
        assert ntd.shape_violations() == expected
        with pytest.raises(InvalidDecomposition) as info:
            ntd.validate()
        assert info.value.violations == tuple(expected)

    @given(small_graphs(max_vertices=7), st.integers(0, 2**32 - 1))
    def test_clean_and_perturbed_forms_match_the_scan(self, g, seed):
        """Normalized forms are clean; rotating a tuple, copying
        another node's tuple or overwriting one element gives exactly
        the scan's violations (none, when the change happens to keep
        the shape)."""
        if g.vertex_count() < 2:
            return
        _, ntd = normalized_of(g)
        assert ntd.shape_violations() == scan_shape_violations(ntd) == []
        rng = random.Random(seed)
        tuples = dict(ntd.bags)
        nodes = sorted(tuples)
        node = rng.choice(nodes)
        here = tuples[node]
        change = rng.randrange(3)
        if change == 0:
            cut = rng.randrange(len(here))
            tuples[node] = here[cut:] + here[:cut]
        elif change == 1:
            tuples[node] = tuples[rng.choice(nodes)]
        else:
            spot = rng.randrange(len(here))
            new = rng.choice(sorted(g.vertices))
            tuples[node] = here[:spot] + (new,) + here[spot + 1 :]
        perturbed = NormalizedTreeDecomposition(ntd.tree, tuples)
        assert perturbed.shape_violations() == scan_shape_violations(perturbed)


class TestWiden:
    def test_widen_to_larger_width(self):
        g = Graph.path(6)
        td = decompose_graph(g)  # width 1
        wide = widen(td, 3)
        assert wide.width == 3
        wide.validate_for_graph(g)
        assert all(len(b) == 4 for b in wide.bags.values())

    def test_widen_noop_at_same_width(self):
        g = Graph.cycle(5)
        td = decompose_graph(g)
        assert widen(td, td.width).width == td.width

    def test_widen_smaller_raises(self):
        td = decompose_graph(Graph.complete(4))
        with pytest.raises(ValueError):
            widen(td, 1)

    def test_widen_impossible_raises(self):
        td = decompose_graph(Graph.path(2))
        with pytest.raises(ValueError):
            widen(td, 3)  # only two elements exist

    @given(small_graphs(max_vertices=6))
    def test_widen_then_normalize(self, g):
        if g.vertex_count() < 4:
            return
        td = decompose_graph(g)
        if td.width >= 3:
            return
        wide = widen(td, 3)
        ntd = normalize(wide)
        ntd.validate(graph_to_structure(g))
        assert ntd.width == 3
