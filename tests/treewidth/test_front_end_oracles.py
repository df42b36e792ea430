"""The linear front end against its scan-based oracles.

The heap-ordered elimination must pick exactly the vertex the ``min``
scan picked at every step, the occurrence-indexed axiom check must
report exactly the violations the per-bag scans reported -- on valid
decompositions and on each kind of corruption the admission layer
verifies -- the one-pass ``make_nice`` must build the tree the staged
passes built, and the one-walk ``normalize`` a valid normal form of the
same width with no more nodes than the staged passes.  The oracles
live in :mod:`tests.treewidth.oracles`.
"""

import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import redecompose
from repro.problems import random_partial_ktree, random_schema
from repro.problems.primality import _schema_sort_keys
from repro.structures import Graph, Signature, Structure, graph_to_structure
from repro.structures.graphs import gaifman_graph, subgraph
from repro.treewidth import (
    RootedTree,
    TreeDecomposition,
    decompose_structure,
    make_nice,
    min_degree_order,
    min_fill_order,
    normalize,
    widen,
)

from . import oracles

#: vertex labels whose ``repr`` order differs from their natural order
#: ("10" < "9", quotes around strings, tuples after both)
_LABELS = {
    "int": st.integers(min_value=-5, max_value=120),
    "str": st.text(alphabet="ab19 ", max_size=3),
    "mixed": st.one_of(
        st.integers(min_value=0, max_value=30),
        st.text(alphabet="a19", max_size=2),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    ),
}


@st.composite
def labelled_graphs(draw, max_vertices: int = 12):
    kind = draw(st.sampled_from(sorted(_LABELS)))
    labels = draw(
        st.lists(_LABELS[kind], unique=True, max_size=max_vertices)
    )
    graph = Graph(labels)
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
            graph.add_edge(u, v)
    return graph


MIXED = Signature({"E": 2, "T": 3})


@st.composite
def mixed_arity_structures(draw, max_elements: int = 9):
    """Structures with a binary and a ternary relation over labelled
    elements -- the arity-3 tuples are what the Gaifman-edge check
    alone cannot see."""
    kind = draw(st.sampled_from(sorted(_LABELS)))
    domain = draw(
        st.lists(_LABELS[kind], unique=True, min_size=1, max_size=max_elements)
    )
    element = st.sampled_from(domain)
    edges = draw(st.lists(st.tuples(element, element), max_size=8))
    triples = draw(st.lists(st.tuples(element, element, element), max_size=4))
    return Structure(MIXED, domain, {"E": edges, "T": triples})


def _corrupt(td, structure, how, rng):
    """One corruption of a valid decomposition of ``structure``; ``how``
    is one of :data:`CORRUPTIONS` other than ``"valid"``."""
    tree, bags = td.tree.copy(), dict(td.bags)
    nodes = sorted(bags)
    if how == "alien":
        node = rng.choice(nodes)
        bags[node] = bags[node] | {("alien", node)}
    elif how == "dropped":
        node = rng.choice([n for n in nodes if bags[n]] or nodes)
        bags[node] = bags[node] - set(sorted(bags[node], key=repr)[:1])
    elif how == "disconnected":
        element = rng.choice(sorted(structure.domain, key=repr) or [None])
        elsewhere = [n for n in nodes if element not in bags[n]]
        if elsewhere:
            leaf = tree.add_child(rng.choice(elsewhere))
            bags[leaf] = frozenset((element,))
    else:  # an uncovered edge or arity-3 tuple: break every bag holding it
        arity = 2 if how == "edge" else 3
        tuples = sorted(
            (
                t
                for name in structure.signature
                if structure.signature.arity(name) == arity
                for t in structure.relation(name)
                if len(set(t)) >= 2
            ),
            key=repr,
        )
        if tuples:
            needed = set(rng.choice(tuples))
            victim = sorted(needed, key=repr)[-1]
            for node in nodes:
                if needed <= bags[node]:
                    bags[node] = bags[node] - {victim}
    return TreeDecomposition(tree, bags)


CORRUPTIONS = ("valid", "alien", "dropped", "disconnected", "edge", "triple")


class TestEliminationOrders:
    @given(labelled_graphs())
    def test_min_fill_matches_the_scan(self, graph):
        assert min_fill_order(graph) == oracles.min_fill_order(graph)

    @given(labelled_graphs())
    def test_min_degree_matches_the_scan(self, graph):
        assert min_degree_order(graph) == oracles.min_degree_order(graph)

    def test_deleted_ladders_match_the_scan(self):
        rng = random.Random(7)
        for _ in range(6):
            ladder = Graph.grid(2, rng.randint(16, 40))
            keep = [v for v in sorted(ladder.vertices) if rng.random() >= 0.1]
            graph = subgraph(ladder, keep)
            assert min_fill_order(graph) == oracles.min_fill_order(graph)
            assert min_degree_order(graph) == oracles.min_degree_order(graph)

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_3_trees_match_the_scan(self, seed):
        """Partial k-trees grow hubs whose degree grows with n: min-fill
        re-costs a hub's neighbourhood only when an elimination adds an
        edge next to it."""
        graph, _ = random_partial_ktree(
            random.Random(f"front-end-oracles:{seed}"), 90, 3, 0.2
        )
        assert max(len(graph.neighbors(v)) for v in graph.vertices) >= 10
        assert min_fill_order(graph) == oracles.min_fill_order(graph)
        assert min_degree_order(graph) == oracles.min_degree_order(graph)


class TestGaifmanEdges:
    @given(mixed_arity_structures())
    def test_orientation_matches_the_tuple_reprs(self, structure):
        assert structure.gaifman_edges() == oracles.gaifman_edges(structure)


class TestAxiomCheck:
    @settings(max_examples=150)
    @given(
        mixed_arity_structures(),
        st.sampled_from(CORRUPTIONS),
        st.integers(0, 2**16),
    )
    def test_structure_violations_match_the_scan(self, structure, how, seed):
        td = decompose_structure(structure)
        if how != "valid":
            td = _corrupt(td, structure, how, random.Random(seed))
        assert td.structure_violations(structure) == (
            oracles.structure_violations(td, structure)
        )

    @settings(max_examples=150)
    @given(
        mixed_arity_structures(),
        st.sampled_from(CORRUPTIONS),
        st.integers(0, 2**16),
    )
    def test_graph_violations_match_the_scan(self, structure, how, seed):
        graph = gaifman_graph(structure)
        td = decompose_structure(structure)
        if how != "valid":
            td = _corrupt(td, structure, how, random.Random(seed))
        assert td.graph_violations(graph) == oracles.graph_violations(td, graph)

    @given(labelled_graphs(), st.sampled_from(CORRUPTIONS), st.integers(0, 2**16))
    def test_labelled_graphs_match_the_scan(self, graph, how, seed):
        structure = graph_to_structure(graph)
        td = decompose_structure(structure)
        if how != "valid":
            td = _corrupt(td, structure, how, random.Random(seed))
        assert td.graph_violations(graph) == oracles.graph_violations(td, graph)
        assert td.structure_violations(structure) == (
            oracles.structure_violations(td, structure)
        )

    def test_every_corruption_is_caught(self):
        """The corruptions above are real: each yields its violation."""
        s = Structure(MIXED, range(5), {"E": [(0, 1), (1, 2)], "T": [(2, 3, 4)]})
        td = decompose_structure(s)
        rng = random.Random(0)
        assert td.structure_violations(s) == []
        codes = {
            how: {v.code for v in _corrupt(td, s, how, rng).structure_violations(s)}
            for how in CORRUPTIONS[1:]
        }
        assert "alien-element" in codes["alien"]
        assert "connectedness" in codes["disconnected"]
        assert "tuple-uncovered" in codes["edge"]
        assert "tuple-uncovered" in codes["triple"]


# ----------------------------------------------------------------------
# make_nice: one pass against the staged passes
# ----------------------------------------------------------------------


def _reshape(td, rng, moves):
    """``td`` with ``moves`` random validity-preserving edits: a leaf
    carrying a subset of its parent's bag (so nodes get three or more
    children, and branch children with differing bags), or an
    equal-bag node inserted above a node or above the root (unary
    equal-bag chains, and an equal-bag root chain)."""
    tree, bags = td.tree.copy(), dict(td.bags)
    for _ in range(moves):
        move = rng.choice(("leaf", "leaf", "copy", "root"))
        if move == "root":
            node = tree.root
        else:
            node = rng.choice(sorted(bags))
        if move == "leaf":
            bag = sorted(bags[node], key=repr)
            leaf = tree.add_child(node)
            bags[leaf] = frozenset(rng.sample(bag, rng.randint(0, len(bag))))
        else:
            bags[tree.insert_above(node)] = bags[node]
    return TreeDecomposition(tree, bags)


def _shape(nice, node=None):
    """The ordered tree of (kind, bag) labels below ``node``."""
    node = nice.tree.root if node is None else node
    return (
        nice.node_kind(node),
        nice.bag(node),
        tuple(_shape(nice, child) for child in nice.tree.children(node)),
    )


def assert_same_nice_form(td, structure, removal_key=None, introduction_key=None):
    """The one pass equals the staged passes: node count, multiset and
    ordered tree of (kind, bag), width; both pass the shape and the
    Section 2.2 axiom checks."""
    one = make_nice(td, removal_key, introduction_key)
    staged = oracles.staged_make_nice(td, removal_key, introduction_key)
    for nice in (one, staged):
        nice.validate(structure)
    assert one.node_count() == staged.node_count()
    assert one.width == staged.width == td.width
    labels = [
        Counter((nice.node_kind(n), nice.bag(n)) for n in nice.tree.nodes())
        for nice in (one, staged)
    ]
    assert labels[0] == labels[1]
    assert _shape(one) == _shape(staged)


class TestOnePassNiceForm:
    @settings(max_examples=150)
    @given(labelled_graphs(), st.integers(0, 2**16), st.integers(0, 8))
    def test_reshaped_decompositions_match_the_staged_passes(
        self, graph, seed, moves
    ):
        structure = graph_to_structure(graph)
        if not graph.vertices:
            return
        td = _reshape(decompose_structure(structure), random.Random(seed), moves)
        assert_same_nice_form(td, structure)

    @given(
        st.integers(0, 2**16),
        st.integers(2, 7),
        st.integers(1, 6),
        st.integers(0, 6),
    )
    def test_primality_keys_match_the_staged_passes(
        self, seed, attributes, fds, moves
    ):
        rng = random.Random(seed)
        schema = random_schema(rng, attributes, fds)
        structure = schema.to_structure()
        td = _reshape(decompose_structure(structure), rng, moves)
        assert_same_nice_form(td, structure, *_schema_sort_keys(schema))

    def test_hand_built_fan_out_and_equal_bag_chains(self):
        """A root chain of three equal bags over a node with five
        children: two equal to it (one of them a unary equal-bag chain
        over a leaf that differs by two elements), three differing."""
        s = Structure(
            MIXED, range(6), {"E": [(0, 1), (1, 2), (0, 3), (4, 5)], "T": []}
        )
        tree = RootedTree()
        bags = {0: {0, 1}}
        top = 0
        for _ in range(2):
            top = tree.add_child(top)
            bags[top] = {0, 1}
        for bag in ({0, 1, 2}, {0, 1}, {1}, {0, 3}, {0, 1}):
            bags[tree.add_child(top)] = bag
        equal = tree.children(top)[4]
        bags[tree.add_child(equal)] = {0, 1}
        chain_end = tree.children(equal)[0]
        bags[tree.add_child(chain_end)] = {1, 4, 5}
        td = TreeDecomposition(tree, bags)
        td.validate_for_structure(s)
        assert_same_nice_form(td, s)
        assert make_nice(td).node_count() == 16


# ----------------------------------------------------------------------
# normalize: one walk against the staged Proposition 2.4 passes
# ----------------------------------------------------------------------


def _reshape_for_normalize(td, rng, moves):
    """``_reshape``'s edits plus a new root above the old one whose bag
    is a random subset of the old root's (so the root bag is short)."""
    td = _reshape(td, rng, moves)
    if rng.random() < 0.5:
        tree, bags = td.tree.copy(), dict(td.bags)
        bag = sorted(bags[tree.root], key=repr)
        bags[tree.insert_above(tree.root)] = rng.sample(
            bag, rng.randint(0, max(0, len(bag) - 1))
        )
        td = TreeDecomposition(tree, bags)
    return td


def _random_labelled_graph(rng, n):
    """A random graph of treewidth at most about 3 whose labels' ``repr``
    order differs from their natural order."""
    kind = rng.choice(("int", "str", "mixed"))
    labels = []
    while len(labels) < n:
        i = rng.randint(0, 120)
        label = {
            "int": i,
            "str": str(i),
            "mixed": rng.choice((i, str(i), (i % 4, i // 4))),
        }[kind]
        if label not in labels:
            labels.append(label)
    graph = Graph(labels)
    for i in range(1, n):
        for j in rng.sample(range(i), min(i, rng.randint(0, 2))):
            graph.add_edge(labels[i], labels[j])
    return graph


def assert_normal_forms(inputs):
    """The walk and the staged passes both give a valid Definition 2.3
    decomposition of each ``(td, structure)`` of the input's width
    (shape, no identity node, Section 2.2 axioms), and the walk's
    summed node count is at most the staged one's."""
    walked = staged = 0
    for td, structure in inputs:
        one = normalize(td)
        two = oracles.staged_normalize(td)
        for ntd in (one, two):
            ntd.validate(structure)
            assert ntd.width == td.width
        walked += one.node_count()
        staged += two.node_count()
    assert 0 < walked <= staged


class TestOnePassNormalForm:
    def test_reshaped_decompositions(self):
        """Fan-out three and more, unary equal-bag chains, short root
        bags, and widened decompositions."""
        rng = random.Random(29)
        inputs = []
        for _ in range(150):
            graph = _random_labelled_graph(rng, rng.randint(2, 14))
            structure = graph_to_structure(graph)
            td = decompose_structure(structure)
            if rng.random() < 0.3 and len(graph.vertices) > td.width + 1:
                td = widen(td, td.width + 1)
            inputs.append(
                (_reshape_for_normalize(td, rng, rng.randint(0, 8)), structure)
            )
        assert any(len(td.bags[td.tree.root]) <= td.width for td, _ in inputs)
        assert any(
            len(td.tree.children(n)) >= 3 for td, _ in inputs for n in td.bags
        )
        assert_normal_forms(inputs)

    def test_perfbench_shaped_inputs(self):
        """Forests of trees, paths, stars and isolated vertices at width
        1, and 10%-deleted 2 x N ladders at width 2, decomposed and
        widened as the solver does."""
        from ..conftest import deleted_ladders

        rng = random.Random(1)
        graphs = []
        for _ in range(20):
            n = rng.randint(40, 240)
            labels = list(range(n))
            rng.shuffle(labels)
            graph = Graph(labels)
            at = 0
            while at < n:
                size = rng.randint(1, max(2, n // 3))
                part = labels[at : at + size]
                at += size
                star = rng.random() < 0.25
                for i in range(1, len(part)):
                    graph.add_edge(part[i], part[0 if star else rng.randrange(i)])
            graphs.append((graph, 1))
        graphs += [(g, 2) for g in islice(deleted_ladders(), 12)]
        inputs = []
        for graph, width in graphs:
            structure = graph_to_structure(graph)
            td, _ = redecompose(structure)
            inputs.append((widen(td, width) if td.width < width else td, structure))
        assert_normal_forms(inputs)
