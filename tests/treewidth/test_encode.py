"""Tests for the tau_td encodings (Section 4 / Section 5)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.admission import redecompose
from repro.datalog import SetDatabase
from repro.datalog.interning import iter_bits
from repro.problems import (
    encode_for_primality,
    encode_for_three_coloring,
    load_for_primality,
    load_for_three_coloring,
    prepare_decision_decomposition,
    prepare_enumeration_decomposition,
    random_partial_ktree,
    random_schema,
)
from repro.structures import Graph, graph_to_structure, relabel, running_example
from repro.treewidth import (
    NormalizedTreeDecomposition,
    RootedTree,
    TDNode,
    TreeDecomposition,
    decompose_graph,
    decompose_structure,
    encode_nice,
    encode_normalized,
    load_nice,
    load_nice_ids,
    load_normalized,
    make_nice,
    normalize,
    widen,
)
from repro.treewidth.decomposition import ElementIds


def normalized_encoding(graph):
    structure = graph_to_structure(graph)
    ntd = normalize(decompose_graph(graph))
    return structure, ntd, encode_normalized(structure, ntd)


class TestEncodeNormalized:
    def test_signature_extension(self):
        _, ntd, encoded = normalized_encoding(Graph.cycle(5))
        assert encoded.signature.arity("bag") == ntd.width + 2
        for name in ("root", "leaf", "child1", "child2", "e"):
            assert name in encoded.signature

    def test_exactly_one_root(self):
        _, _, encoded = normalized_encoding(Graph.path(5))
        assert len(encoded.relation("root")) == 1

    def test_bag_facts_cover_all_nodes(self):
        _, ntd, encoded = normalized_encoding(Graph.cycle(6))
        assert len(encoded.relation("bag")) == ntd.node_count()

    def test_child_facts_match_tree(self):
        _, ntd, encoded = normalized_encoding(Graph.grid(2, 3))
        unary_or_binary = sum(
            1 for n in ntd.tree.nodes() if len(ntd.tree.children(n)) >= 1
        )
        assert len(encoded.relation("child1")) == unary_or_binary
        binary = sum(
            1 for n in ntd.tree.nodes() if len(ntd.tree.children(n)) == 2
        )
        assert len(encoded.relation("child2")) == binary

    def test_child1_direction_is_child_then_parent(self):
        """Section 4: child1(s1, s) -- s1 is the first child of s."""
        _, ntd, encoded = normalized_encoding(Graph.path(4))
        for s1, s in encoded.relation("child1"):
            assert ntd.tree.parent(s1.index) == s.index

    def test_original_facts_preserved(self):
        structure, _, encoded = normalized_encoding(Graph.path(3))
        assert encoded.relation("e") == structure.relation("e")

    def test_domain_is_union(self):
        """Section 4: dom(A_td) = dom(A) + tree nodes."""
        structure, ntd, encoded = normalized_encoding(Graph.cycle(4))
        expected = set(structure.domain) | {
            TDNode(n) for n in ntd.tree.nodes()
        }
        assert encoded.domain == frozenset(expected)

    def test_tdnode_str(self):
        assert str(TDNode(7)) == "s7"

    def test_tdnode_value_semantics(self):
        """Equal only to a ``TDNode`` of the same index (never to the
        int itself), hashed by its index, and picklable."""
        import pickle

        node = TDNode(3)
        assert node == TDNode(3) and node != TDNode(4)
        assert node != 3 and node != (3,) and node != "s3"
        assert hash(node) == hash(TDNode(3)) == hash((3,))
        assert len({node, TDNode(3), 3}) == 2
        back = pickle.loads(pickle.dumps(node))
        assert type(back) is TDNode and back == node
        assert repr(node) == "TDNode(index=3)"


class TestEncodeNice:
    def test_default_payload_is_frozenset(self):
        g = Graph.cycle(5)
        structure = graph_to_structure(g)
        nice = make_nice(decompose_graph(g))
        encoded = encode_nice(structure, nice)
        assert encoded.signature.arity("bag") == 2
        for node, bag in encoded.relation("bag"):
            assert isinstance(bag, frozenset)
            assert bag == nice.bag(node.index)

    def test_custom_payload_splits_bag(self):
        schema = running_example()
        structure = schema.to_structure()
        nice = make_nice(decompose_structure(structure))
        fd_names = {f.name for f in schema.fds}

        def payload(bag):
            return (
                frozenset(e for e in bag if e not in fd_names),
                frozenset(e for e in bag if e in fd_names),
            )

        encoded = encode_nice(structure, nice, bag_payload=payload)
        assert encoded.signature.arity("bag") == 3
        for node, at, fd in encoded.relation("bag"):
            assert at | fd == nice.bag(node.index)
            assert not (at & fd_names)

    def test_payload_constants_are_in_domain(self):
        g = Graph.path(3)
        structure = graph_to_structure(g)
        nice = make_nice(decompose_graph(g))
        encoded = encode_nice(structure, nice)
        for _, bag in encoded.relation("bag"):
            assert bag in encoded.domain


# ----------------------------------------------------------------------
# load_normalized: A_td straight into interned ids
# ----------------------------------------------------------------------

#: vertex labellings: sparse ints (no identity interner), strings and
#: tuples (no int fast path at all)
LABELS = {
    "int": lambda v: 3 * v + 5,
    "str": lambda v: f"v{v}",
    "tuple": lambda v: (v % 3, v // 3),
}


@st.composite
def labelled_graphs(draw):
    """``(width, graph)``: a random forest (width 1) or partial 2-tree
    (width 2), some isolated vertices, relabelled with ints, strings or
    tuples."""
    width = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(min_value=width + 1, max_value=14))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if width == 1:
        graph = Graph(range(n))
        for v in range(1, n):
            if rng.random() < 0.8:
                graph.add_edge(v, rng.randrange(v))
    else:
        graph, _ = random_partial_ktree(rng, n, 2, 0.6)
    isolated = draw(st.integers(min_value=0, max_value=3))
    graph = Graph(range(n + isolated), graph.edges())
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    return width, relabel(graph, {v: label(v) for v in graph.vertices})


def normalized_at(structure, width):
    td, _ = redecompose(structure)
    if td.width < width:
        td = widen(td, width)
    return normalize(td)


#: the node-keyed indexes load_normalized fills in its one pass
PREFILLED = (
    ("bag", (0,)),
    ("child1", (0,)),
    ("child1", (1,)),
    ("child2", (0,)),
    ("child2", (1,)),
)


class TestLoadNormalized:
    @given(case=labelled_graphs())
    def test_equals_the_encode_then_load_oracle(self, case):
        width, graph = case
        structure = graph_to_structure(graph)
        ntd = normalized_at(structure, width)
        loaded = load_normalized(structure, ntd)
        oracle = SetDatabase.from_edb(encode_normalized(structure, ntd))
        assert set(loaded.predicates()) == set(oracle.predicates())
        for predicate in oracle.predicates():
            assert loaded.decode_relation(predicate) == oracle.decode_relation(
                predicate
            ), predicate
        assert sorted(map(repr, loaded.interner.values())) == sorted(
            map(repr, oracle.interner.values())
        )
        # elements take the low ids, nodes the ids after them
        n = len(structure.domain)
        assert {loaded.interner.value_of(i) for i in range(n)} == set(
            structure.domain
        )
        assert all(
            type(loaded.interner.value_of(i)) is TDNode
            for i in range(n, len(loaded.interner))
        )
        # unary relations carry their bitsets
        for predicate in ("root", "leaf"):
            assert {
                (i,) for i in iter_bits(loaded.bits(predicate))
            } == loaded.relation(predicate), predicate

    @given(case=labelled_graphs())
    def test_prefilled_indexes_equal_the_lazy_ones(self, case):
        width, graph = case
        structure = graph_to_structure(graph)
        loaded = load_normalized(structure, normalized_at(structure, width))
        lazy = loaded.snapshot()  # the same facts, no indexes
        for predicate, positions in PREFILLED:
            index = loaded.index_for(predicate, positions)
            assert index == lazy.index_for(predicate, positions)
            # Definition 4.3's key dependencies: one row per bucket
            assert all(len(rows) == 1 for rows in index.values())
        assert loaded.index_stats.builds == 0  # none was built lazily
        assert lazy.index_stats.builds == len(PREFILLED)

    def test_bag_element_outside_the_domain_raises(self):
        structure = graph_to_structure(Graph([0, 1], [(0, 1)]))
        tree = RootedTree(0)
        tree.add_child(0)
        ntd = NormalizedTreeDecomposition(tree, {0: (0, 1), 1: (0, 7)})
        with pytest.raises(ValueError, match="7 of the bag of node 1"):
            load_normalized(structure, ntd)
        with pytest.raises(ValueError, match="not in the domain"):
            encode_normalized(structure, ntd)

    def test_node_with_three_children_raises(self):
        structure = graph_to_structure(Graph([0, 1], [(0, 1)]))
        tree = RootedTree(0)
        for _ in range(3):
            tree.add_child(0)
        ntd = NormalizedTreeDecomposition(
            tree, {n: (0, 1) for n in tree.nodes()}
        )
        with pytest.raises(ValueError, match="more than two children"):
            load_normalized(structure, ntd)
        with pytest.raises(ValueError, match="more than two children"):
            encode_normalized(structure, ntd)


# ----------------------------------------------------------------------
# load_nice: a Section 5 A_td plus the problem's node facts, in ids
# ----------------------------------------------------------------------

#: LABELS plus frozensets; ``frozenset(range(0))`` is the empty set,
#: which is also an ``allowed`` subset of every bag
NICE_LABELS = {**LABELS, "frozenset": lambda v: frozenset(range(v))}


def assert_same_database(loaded, oracle):
    """Equal relations after decoding, and the same value set."""
    assert set(loaded.predicates()) == set(oracle.predicates())
    for predicate in oracle.predicates():
        assert loaded.decode_relation(predicate) == oracle.decode_relation(
            predicate
        ), predicate
    assert len(loaded.interner) == len(oracle.interner)
    assert set(loaded.interner.values()) == set(oracle.interner.values())
    for predicate in loaded.predicates():
        rel = loaded.relation(predicate)
        if len(next(iter(rel))) == 1:
            assert {(i,) for i in iter_bits(loaded.bits(predicate))} == rel


@st.composite
def partial_3_trees(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    rng = random.Random(draw(st.integers(0, 2**16)))
    graph, _ = random_partial_ktree(rng, n, 3, draw(st.sampled_from((0.2, 0.6))))
    label = NICE_LABELS[draw(st.sampled_from(sorted(NICE_LABELS)))]
    return relabel(graph, {v: label(v) for v in graph.vertices})


#: the node-keyed indexes load_nice fills for Figure 5's input
NICE_PREFILLED = PREFILLED + (("allowed", (0,)),)


class TestLoadNice:
    @given(graph=partial_3_trees())
    def test_three_coloring_equals_the_encode_then_load_oracle(self, graph):
        nice = make_nice(decompose_graph(graph))
        assert_same_database(
            load_for_three_coloring(graph, nice),
            SetDatabase.from_edb(encode_for_three_coloring(graph, nice)),
        )

    @given(
        seed=st.integers(0, 2**16),
        attributes=st.integers(2, 7),
        fds=st.integers(1, 6),
        enumeration=st.booleans(),
    )
    def test_primality_equals_the_encode_then_load_oracle(
        self, seed, attributes, fds, enumeration
    ):
        schema = random_schema(random.Random(seed), attributes, fds)
        if enumeration:
            nice = prepare_enumeration_decomposition(schema)
        else:
            nice = prepare_decision_decomposition(schema, "a")
        assert_same_database(
            load_for_primality(schema, nice),
            SetDatabase.from_edb(encode_for_primality(schema, nice)),
        )

    @given(graph=partial_3_trees())
    def test_prefilled_indexes_equal_the_lazy_ones(self, graph):
        loaded = load_for_three_coloring(
            graph, make_nice(decompose_graph(graph))
        )
        lazy = loaded.snapshot()
        for predicate, positions in NICE_PREFILLED:
            buckets = [
                {key: sorted(rows) for key, rows in db.index_for(
                    predicate, positions
                ).items()}
                for db in (loaded, lazy)
            ]
            assert buckets[0] == buckets[1], predicate
        assert loaded.index_stats.builds == 0

    def test_a_bag_that_is_an_allowed_subset_keeps_one_id(self):
        """On the path a - c - b the nice node between the bags {a, c}
        and {c, b} has the bag {c}, which is also an ``allowed`` subset
        of both: as a ``bag`` payload and as an ``allowed`` value it is
        one element of ``A_td``, so it gets one id."""
        graph = Graph(vertices="acb", edges=[("a", "c"), ("c", "b")])
        tree = RootedTree()
        tree.add_child(tree.root)
        nice = make_nice(
            TreeDecomposition(tree, {0: {"a", "c"}, 1: {"c", "b"}})
        )
        assert sorted(map(sorted, nice.bags.values())) == [
            ["a", "c"], ["b", "c"], ["c"]
        ]
        loaded = load_for_three_coloring(graph, nice)
        assert_same_database(
            loaded, SetDatabase.from_edb(encode_for_three_coloring(graph, nice))
        )
        c = loaded.interner.id_of(frozenset("c"))
        (node,) = [n for n, bag in nice.bags.items() if bag == {"c"}]
        assert loaded.decode_relation("bag") >= {(TDNode(node), frozenset("c"))}
        assert sum(row[1] == c for row in loaded.relation("allowed")) == 3

    @given(graph=partial_3_trees(), seed=st.integers(0, 2**16))
    def test_only_figure5_interns_bitset_sets(self, graph, seed):
        """Every set Figure 5's load writes is a bitset over the vertex
        ids; Figure 6's load interns none."""
        nice = make_nice(decompose_graph(graph))
        loaded = load_for_three_coloring(graph, nice)
        interner = loaded.interner
        for _, x in loaded.relation("bag") | loaded.relation("allowed"):
            bits = interner.set_bits(x)
            assert bits is not None
            assert interner.value_of(x) == frozenset(
                map(interner.value_of, iter_bits(bits))
            )
        schema = random_schema(random.Random(seed), 5, 4)
        primality = load_for_primality(
            schema, prepare_decision_decomposition(schema, "a")
        ).interner
        assert set(map(primality.set_bits, range(len(primality)))) == {None}

    @staticmethod
    def _load_with_extra(graph, nice, extra):
        """``load_nice_ids`` on ``graph`` and ``nice`` read into ids:
        each bag, decoded, is its own payload, and ``extra(bag)`` gives
        its ``(predicate, values)`` facts."""
        structure = graph_to_structure(graph)
        ids = ElementIds.of_structure(structure)
        values = ids.values

        def bag_facts(interner):
            intern = interner.intern

            def facts(bag):
                bag = frozenset(map(values.__getitem__, bag))
                by_predicate = {}
                for p, args in extra(bag):
                    by_predicate.setdefault(p, []).append(tuple(map(intern, args)))
                return (intern(bag),), by_predicate

            return facts

        relations = {name: set(ids.relations[name]) for name in structure.signature}
        return load_nice_ids(
            structure.signature,
            relations,
            ids,
            ids.decomposition(nice),
            bag_facts,
        )

    def test_extra_facts_of_a_node(self):
        g = Graph.path(3)
        nice = make_nice(decompose_graph(g))
        loaded = self._load_with_extra(
            g, nice, lambda bag: [("size", (len(bag),))] * 2
        )
        assert loaded.decode_relation("size") == {
            (TDNode(node), len(bag)) for node, bag in nice.bags.items()
        }

    def test_extra_predicate_must_be_new(self):
        g = Graph.path(3)
        nice = make_nice(decompose_graph(g))
        with pytest.raises(ValueError, match="'bag' is already"):
            self._load_with_extra(g, nice, lambda bag: [("bag", (1,))])
        with pytest.raises(ValueError, match="mixes arities"):
            self._load_with_extra(
                g, nice, lambda bag: [("tag", ()), ("tag", (bag,))]
            )

    def test_payload_arity_must_be_fixed(self):
        g = Graph.path(4)
        nice = make_nice(decompose_graph(g))
        with pytest.raises(ValueError, match="fixed arity"):
            load_nice(graph_to_structure(g), nice, bag_payload=tuple)
        with pytest.raises(ValueError, match="fixed arity"):
            encode_nice(graph_to_structure(g), nice, bag_payload=tuple)
