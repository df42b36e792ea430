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
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import POLICIES, admit
from repro.datalog import SetDatabase
from repro.errors import AdmissionRejected, InvalidDecomposition
from repro.structures import Signature, Structure
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
from repro.treewidth.encode import load_ids
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
