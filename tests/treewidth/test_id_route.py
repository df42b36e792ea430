"""The id route against the value-level front end it replaced.

Admission interns a structure's elements once, into ids in ``(repr,
first occurrence)`` order, and every later stage of a solve -- the
rebuild, the Section 2.2 axiom check, ``widen``, ``normalize``, its
shape check and the ``A_td`` load -- runs on those ids.  On structures
whose elements are strings, tuples or a mix of ints and strings (so
``repr`` order is not their natural order) it must agree with the
value-level front end of :mod:`tests.treewidth.oracles` on everything
a caller sees: the admission report (verdict, violations with their
codes, messages, subjects and order, width), the decoded bags and tree,
the normalized tuples (as an ordered tree: the id route numbers the
nodes in preorder, the value walk as it created them), and a load that
decodes to the ``encode_normalized`` + ``from_edb`` EDB.

The Section 5 front end of Figure 5 runs on ids too: the graph is
interned once, and min-fill, the nice form (``make_nice_ids``), its one
axiom check and the load all use those ids.  Its nice trees must be the
value-level one-pass ``make_nice``'s (``oracles.value_make_nice``),
nodes relabelled in preorder, its violations those of the value-level
check on that tree, and its fixpoint the value-level route's.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import POLICIES, admit
from repro.datalog import SetDatabase, solve
from repro.errors import AdmissionRejected, InvalidDecomposition
from repro.problems import random_schema
from repro.problems.primality import _schema_sort_keys
from repro.problems.three_coloring import (
    ThreeColoringDatalog,
    encode_for_three_coloring,
    prepare_decomposition,
)
from repro.structures import Graph, Signature, Structure, graph_to_structure
from repro.structures.graphs import gaifman_graph
from repro.treewidth import (
    NormalizedTreeDecomposition,
    decompose_graph,
    decompose_structure,
    encode_normalized,
    load_normalized,
    min_degree_order,
    min_fill_order,
    normalize,
    widen,
)
from repro.treewidth.decomposition import ElementIds
from repro.treewidth.encode import TDNode, load_ids
from repro.treewidth.nice import NiceTreeDecomposition, make_nice, make_nice_ids
from repro.treewidth.normalize import normalize_admitted

from . import oracles
from .test_front_end_oracles import (
    CORRUPTIONS,
    MIXED,
    _corrupt,
    _reshape,
    labelled_graphs,
    mixed_arity_structures,
)

#: the signatures a request is admitted against: the structure's own,
#: and one that lacks its ternary relation (rung 1 restricts or rejects)
SIGNATURES = (MIXED, Signature({"E": 2}))

#: how a request's decomposition is drawn
SUPPLIED = ("none", "reshaped", "aliens") + CORRUPTIONS


def _tree(td):
    """A value-level decomposition as plain data: root, ordered child
    lists and bags, keyed by node."""
    return td.tree.root, dict(td.tree._children), dict(td.bags)


def _ordered(ntd, node=None):
    """The ordered tree of tuples below ``node`` (default the root)."""
    node = ntd.tree.root if node is None else node
    return ntd.bags[node], tuple(
        _ordered(ntd, child) for child in ntd.tree.children(node)
    )


def _decoded(db):
    return {p: db.decode_relation(p) for p in db.predicates()}


def _supplied(structure, how, seed):
    if how == "none":
        return None
    rng = random.Random(seed)
    td = decompose_structure(structure)
    if how == "reshaped":
        return _reshape(td, rng, rng.randint(1, 6))
    if how == "valid":
        return td
    if how == "aliens":  # several, so their order in the message shows
        for _ in range(3):
            td = _corrupt(td, structure, "alien", rng)
        return td
    return _corrupt(td, structure, how, rng)


def _admitted(structure, **request):
    try:
        result = admit(structure, **request)
    except AdmissionRejected as exc:
        return exc.report, "reject", None
    return result.report, result.action, result


class TestAdmission:
    @settings(max_examples=200)
    @given(
        mixed_arity_structures(max_elements=10),
        st.sampled_from(SIGNATURES),
        st.sampled_from((1, 2, 3)),
        st.sampled_from(SUPPLIED),
        st.integers(0, 2**16),
    )
    def test_every_policy_matches_the_value_ladder(
        self, structure, signature, width, how, seed
    ):
        td = _supplied(structure, how, seed)
        for policy in POLICIES:
            request = dict(signature=signature, width=width, td=td, policy=policy)
            report, action, result = _admitted(structure, **request)
            expected, expected_action, served, value_td = oracles.value_admit(
                structure, **request
            )
            assert action == expected_action
            assert report.violations == expected.violations
            assert report.to_dict() == expected.to_dict()
            if action != "solve":
                continue
            assert result.structure == served
            assert result.decomposition.width == report.width == value_td.width
            assert _tree(result.td) == _tree(value_td)

            ntd = normalize_admitted(result.decomposition, width, result.ids.values)
            decoded = ntd.decoded(result.ids.values, NormalizedTreeDecomposition)
            widened = value_td if value_td.width == width else (
                oracles.value_widen(value_td, width)
            )
            assert _ordered(decoded) == _ordered(oracles.value_normalize(widened))

            loaded = load_ids(result.structure, result.ids, ntd)
            assert _decoded(loaded) == _decoded(
                SetDatabase.from_edb(encode_normalized(result.structure, decoded))
            )
            assert _decoded(loaded) == _decoded(
                oracles.value_load_normalized(result.structure, decoded)
            )


class TestPublicEntries:
    """The value-level names are intern -> kernel -> decode wrappers."""

    @settings(max_examples=150)
    @given(labelled_graphs())
    def test_orders_and_min_fill_decomposition(self, graph):
        assert min_degree_order(graph) == oracles.value_min_degree_order(graph)
        assert min_fill_order(graph) == oracles.value_min_fill_order(graph)
        if graph.vertices:
            expected = oracles.value_decomposition_from_order(
                graph, oracles.value_min_fill_order(graph)
            )
            assert _tree(decompose_graph(graph)) == _tree(expected)

    @settings(max_examples=150)
    @given(
        mixed_arity_structures(),
        st.sampled_from(CORRUPTIONS),
        st.integers(0, 2**16),
    )
    def test_axiom_check(self, structure, how, seed):
        td = decompose_structure(structure)
        assert _tree(td) == _tree(oracles.value_decompose_structure(structure))
        if how != "valid":
            td = _corrupt(td, structure, how, random.Random(seed))
        assert td.structure_violations(structure) == (
            oracles.value_structure_violations(td, structure)
        )
        graph = gaifman_graph(structure)
        assert td.graph_violations(graph) == oracles.value_graph_violations(
            td, graph
        )

    @settings(max_examples=150)
    @given(mixed_arity_structures(), st.integers(0, 2**16), st.integers(0, 2))
    def test_widen_normalize_and_load(self, structure, seed, extra):
        rng = random.Random(seed)
        td = _reshape(decompose_structure(structure), rng, rng.randint(0, 6))
        width = td.width + extra
        if len(td.all_elements()) < width + 1:
            with pytest.raises(ValueError):
                widen(td, width)
            return
        wide = widen(td, width)
        assert _tree(wide) == _tree(oracles.value_widen(td, width))
        ntd = normalize(wide)
        expected = oracles.value_normalize(oracles.value_widen(td, width))
        assert _ordered(ntd) == _ordered(expected)
        assert list(ntd.tree.preorder()) == list(range(ntd.node_count()))
        assert ntd.shape_violations() == oracles.value_shape_violations(ntd) == []
        assert _decoded(load_normalized(structure, ntd)) == _decoded(
            oracles.value_load_normalized(structure, ntd)
        )

    def test_load_names_an_alien_element_and_its_node(self):
        s = Structure(MIXED, ["a", "b"], {"E": [("a", "b")], "T": []})
        ntd = normalize(decompose_structure(s))
        bags = dict(ntd.bags)
        bags[0] = ("a", "z")
        broken = NormalizedTreeDecomposition(ntd.tree, bags)
        with pytest.raises(ValueError, match="'z' of the bag of node 0"):
            load_normalized(s, broken)

    def test_shape_failure_names_elements(self):
        s = Structure(MIXED, ["a", "b", "c"], {"E": [("a", "b")], "T": []})
        ntd = normalize(decompose_structure(s))
        bags = {n: ("a", "a") for n in ntd.bags}
        broken = NormalizedTreeDecomposition(ntd.tree, bags)
        violations = broken.shape_violations()
        assert violations == oracles.value_shape_violations(broken)
        assert violations[0].code == "bag-repeats-elements"
        with pytest.raises(InvalidDecomposition, match="'a', 'a'"):
            broken.validate()


# ----------------------------------------------------------------------
# The Section 5 front end: nice form, its check and the Figure 5 load
# ----------------------------------------------------------------------

#: vertex labels whose ``repr`` order differs from their natural order
VERTICES = {
    "int": st.integers(min_value=-5, max_value=120),
    "str": st.text(alphabet="ab19 ", max_size=3),
    "tuple": st.tuples(st.integers(0, 12), st.text(alphabet="a1", max_size=1)),
    "mixed": st.one_of(
        st.integers(min_value=0, max_value=30),
        st.text(alphabet="a19", max_size=2),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    ),
}


@st.composite
def section5_graphs(draw, max_vertices: int = 10):
    kind = draw(st.sampled_from(sorted(VERTICES)))
    labels = draw(
        st.lists(VERTICES[kind], unique=True, min_size=1, max_size=max_vertices)
    )
    graph = Graph(labels)
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
            graph.add_edge(u, v)
    return graph


def _preorder(td):
    """A decomposition as its ordered tree, whatever its node labels:
    per node in preorder, its bag and its parent's preorder position."""
    order = list(td.tree.preorder())
    position = {node: k for k, node in enumerate(order)}
    parent = td.tree.parent
    return [
        (td.bags[node], position[parent(node)] if k else -1)
        for k, node in enumerate(order)
    ]


def assert_nice_route(td, removal_key=None, introduction_key=None):
    """``make_nice`` (intern, ``make_nice_ids``, decode) builds the
    value pass's tree, its nodes labelled in preorder."""
    nice = make_nice(td, removal_key, introduction_key)
    oracle = oracles.value_make_nice(td, removal_key, introduction_key)
    assert _preorder(nice) == _preorder(oracle)
    assert list(nice.tree.preorder()) == list(range(nice.node_count()))
    assert nice.width == oracle.width == td.width
    assert nice.shape_violations() == []
    return nice


class TestNiceRoute:
    @settings(max_examples=150)
    @given(section5_graphs(), st.integers(0, 2**16), st.integers(0, 8))
    def test_nice_form_matches_the_value_pass(self, graph, seed, moves):
        td = _reshape(decompose_graph(graph), random.Random(seed), moves)
        nice = assert_nice_route(td)
        ids = ElementIds.of_graph(graph)
        dec = make_nice_ids(ids.decomposition(td))
        assert dec.width == td.width
        assert _tree(dec.decoded(ids.values, NiceTreeDecomposition)) == _tree(nice)
        assert _tree(prepare_decomposition(graph, td)) == _tree(nice)

    @given(
        st.integers(0, 2**16),
        st.integers(2, 7),
        st.integers(1, 6),
        st.integers(0, 6),
    )
    def test_primality_keys_match_the_value_pass(
        self, seed, attributes, fds, moves
    ):
        rng = random.Random(seed)
        schema = random_schema(rng, attributes, fds)
        td = _reshape(decompose_structure(schema.to_structure()), rng, moves)
        assert_nice_route(td, *_schema_sort_keys(schema))

    @settings(max_examples=150)
    @given(
        section5_graphs(),
        st.sampled_from(("alien", "dropped", "edge")),
        st.integers(0, 2**16),
    )
    def test_a_bad_decomposition_raises_the_value_check_violations(
        self, graph, how, seed
    ):
        rng = random.Random(seed)
        td = _corrupt(decompose_graph(graph), graph_to_structure(graph), how, rng)
        expected = oracles.value_graph_violations(
            oracles.value_make_nice(td), graph
        )
        if not expected:
            assert _tree(prepare_decomposition(graph, td)) == _tree(make_nice(td))
            return
        for route in (prepare_decomposition, ThreeColoringDatalog().run):
            with pytest.raises(InvalidDecomposition) as caught:
                route(graph, td)
            assert list(caught.value.violations) == expected

    @settings(max_examples=60)
    @given(section5_graphs(max_vertices=9))
    def test_figure5_fixpoint_matches_the_value_route(self, graph):
        solver = ThreeColoringDatalog()
        run = solver.run(graph)
        want = solve(
            solver.program,
            encode_for_three_coloring(graph, prepare_decomposition(graph)),
        )
        assert run.database.relation("solve") == want.relation("solve")
        assert run.colorable == want.contains("success", ())

    def test_a_vertex_that_is_a_tree_node_is_refused(self):
        graph = Graph([TDNode(0), "a"])
        graph.add_edge(TDNode(0), "a")
        with pytest.raises(ValueError, match="is a node of the tree"):
            ThreeColoringDatalog().decide(graph)
        # a TDNode that names no node of the tree is a plain vertex
        assert ThreeColoringDatalog().decide(Graph([TDNode(99), "a"]))
