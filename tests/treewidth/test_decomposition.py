"""Unit tests for repro.treewidth.decomposition."""

import pytest
from hypothesis import given

from repro.structures import Graph, graph_to_structure
from repro.treewidth import RootedTree, TreeDecomposition, decompose_graph

from ..conftest import small_graphs


class TestRootedTree:
    def test_single_node(self):
        t = RootedTree()
        assert t.node_count() == 1
        assert t.is_leaf(t.root)

    def test_add_child(self):
        t = RootedTree()
        c = t.add_child(t.root)
        assert t.parent(c) == t.root
        assert t.children(t.root) == (c,)

    def test_add_existing_child_raises(self):
        t = RootedTree()
        c = t.add_child(t.root)
        with pytest.raises(ValueError):
            t.add_child(t.root, c)

    def test_insert_above_middle(self):
        t = RootedTree()
        c = t.add_child(t.root)
        mid = t.insert_above(c)
        assert t.parent(c) == mid
        assert t.parent(mid) == t.root

    def test_insert_above_root_changes_root(self):
        t = RootedTree()
        old_root = t.root
        new_root = t.insert_above(old_root)
        assert t.root == new_root
        assert t.parent(old_root) == new_root

    def test_orders(self):
        t = RootedTree()
        a = t.add_child(t.root)
        b = t.add_child(t.root)
        aa = t.add_child(a)
        pre = list(t.preorder())
        post = list(t.postorder())
        assert pre[0] == t.root
        assert post[-1] == t.root
        assert set(pre) == set(post) == {t.root, a, b, aa}
        assert post.index(aa) < post.index(a)

    def test_subtree_nodes(self):
        t = RootedTree()
        a = t.add_child(t.root)
        aa = t.add_child(a)
        b = t.add_child(t.root)
        assert set(t.subtree_nodes(a)) == {a, aa}

    def test_rerooted_preserves_node_set(self):
        t = RootedTree()
        a = t.add_child(t.root)
        aa = t.add_child(a)
        r = t.rerooted(aa)
        assert r.root == aa
        assert set(r.nodes()) == set(t.nodes())
        assert r.parent(a) == aa
        assert r.parent(t.root) == a

    def test_copy_independent(self):
        t = RootedTree()
        c = t.copy()
        c.add_child(c.root)
        assert t.node_count() == 1


def chain_td(bags):
    tree = RootedTree()
    mapping = {0: tree.root}
    for i in range(1, len(bags)):
        mapping[i] = tree.add_child(mapping[i - 1])
    return TreeDecomposition(tree, {mapping[i]: bags[i] for i in range(len(bags))})


class TestTreeDecomposition:
    def test_width(self):
        td = chain_td([{1, 2}, {2, 3, 4}])
        assert td.width == 2

    def test_validate_accepts_valid(self):
        g = Graph.path(3)
        td = chain_td([{0, 1}, {1, 2}])
        td.validate_for_graph(g)

    def test_validate_rejects_uncovered_vertex(self):
        g = Graph.path(3)
        td = chain_td([{0, 1}])
        with pytest.raises(ValueError, match="never covered"):
            td.validate_for_graph(g)

    def test_validate_rejects_uncovered_edge(self):
        g = Graph.path(3)
        td = chain_td([{0, 1}, {2}])
        with pytest.raises(ValueError, match="covered by no bag"):
            td.validate_for_graph(g)

    def test_validate_rejects_disconnected_occurrences(self):
        g = Graph(vertices=[0, 1, 2])
        td = chain_td([{0}, {1}, {0, 2}])
        with pytest.raises(ValueError, match="connectedness"):
            td.validate_for_graph(g)

    def test_validate_rejects_alien_elements(self):
        g = Graph.path(2)
        td = chain_td([{0, 1, 99}])
        with pytest.raises(ValueError, match="non-vertices"):
            td.validate_for_graph(g)

    def test_structure_validation_checks_tuples(self):
        s = graph_to_structure(Graph.path(3))
        td = chain_td([{0, 1}, {1, 2}])
        td.validate_for_structure(s)
        bad = chain_td([{0}, {1}, {2}])
        assert bad.structure_violations(s)

    def test_subtree_and_envelope_elements(self):
        td = chain_td([{1, 2}, {2, 3}, {3, 4}])
        nodes = list(td.tree.preorder())
        mid = nodes[1]
        assert td.subtree_elements(mid) == frozenset({2, 3, 4})
        assert td.envelope_elements(mid) == frozenset({1, 2, 3})

    def test_induced_substructures(self):
        """Definition 3.2 on the running path example."""
        s = graph_to_structure(Graph.path(3))
        td = chain_td([{0, 1}, {1, 2}])
        nodes = list(td.tree.preorder())
        sub = td.induced_substructure(s, nodes[1])
        assert sub.domain == frozenset({1, 2})
        env = td.induced_envelope_substructure(s, nodes[1])
        assert env.domain == frozenset({0, 1, 2})

    def test_find_node_containing(self):
        td = chain_td([{1}, {2}])
        assert td.bags[td.find_node_containing(2)] == frozenset({2})
        with pytest.raises(ValueError):
            td.find_node_containing(99)

    @given(small_graphs(max_vertices=6))
    def test_rerooting_preserves_validity(self, g):
        if g.vertex_count() == 0:
            return
        td = decompose_graph(g)
        for node in list(td.tree.nodes()):
            td.rerooted(node).validate_for_graph(g)
