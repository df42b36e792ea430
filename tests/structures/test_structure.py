"""Unit and property tests for repro.structures.structure."""

import pytest
from hypothesis import given, strategies as st

from repro.structures import (
    Fact,
    GRAPH_SIGNATURE,
    PointedStructure,
    Signature,
    Structure,
)

SIG = Signature.of(e=2, p=1)


def make(domain, edges=(), points=()):
    return Structure(SIG, domain, {"e": edges, "p": points})


class TestConstruction:
    def test_relations_default_empty(self):
        s = Structure(SIG, [1, 2])
        assert s.relation("e") == frozenset()
        assert s.relation("p") == frozenset()

    def test_unknown_predicate_raises(self):
        with pytest.raises(ValueError):
            Structure(SIG, [1], {"q": {(1,)}})

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            Structure(SIG, [1], {"e": {(1,)}})

    def test_element_outside_domain_raises(self):
        with pytest.raises(ValueError):
            Structure(SIG, [1], {"e": {(1, 2)}})

    def test_holds(self):
        s = make([1, 2], edges={(1, 2)})
        assert s.holds("e", 1, 2)
        assert not s.holds("e", 2, 1)

    def test_size_counts_domain_and_cells(self):
        s = make([1, 2], edges={(1, 2)}, points={(1,)})
        assert s.size() == 2 + 2 + 1

    def test_facts_sorted_and_typed(self):
        s = make([1, 2], edges={(1, 2)}, points={(2,)})
        facts = list(s.facts())
        assert Fact("e", (1, 2)) in facts
        assert Fact("p", (2,)) in facts
        assert len(facts) == 2


class TestDerivedStructures:
    def test_induced_keeps_internal_tuples_only(self):
        s = make([1, 2, 3], edges={(1, 2), (2, 3)})
        sub = s.induced({1, 2})
        assert sub.relation("e") == frozenset({(1, 2)})
        assert sub.domain == frozenset({1, 2})

    def test_induced_unknown_element_raises(self):
        with pytest.raises(ValueError):
            make([1]).induced({2})

    def test_with_facts(self):
        s = make([1, 2])
        s2 = s.with_facts([Fact("e", (1, 2))])
        assert s2.holds("e", 1, 2)
        assert not s.holds("e", 1, 2)  # immutability

    def test_with_elements(self):
        s = make([1]).with_elements([2, 3])
        assert s.domain == frozenset({1, 2, 3})

    def test_renamed(self):
        s = make([1, 2], edges={(1, 2)})
        r = s.renamed({1: "a", 2: "b"})
        assert r.holds("e", "a", "b")

    def test_renamed_non_injective_raises(self):
        with pytest.raises(ValueError):
            make([1, 2]).renamed({1: "x", 2: "x"})

    def test_disjoint_union_merges(self):
        a = make([1, 2], edges={(1, 2)})
        b = make([2, 3], edges={(2, 3)})
        u = a.disjoint_union(b)
        assert u.domain == frozenset({1, 2, 3})
        assert u.holds("e", 1, 2) and u.holds("e", 2, 3)

    def test_disjoint_union_signature_mismatch_raises(self):
        with pytest.raises(ValueError):
            make([1]).disjoint_union(Structure(GRAPH_SIGNATURE, [1]))

    def test_gaifman_edges_undirected_cooccurrence(self):
        s = make([1, 2, 3], edges={(1, 2)})
        edges = s.gaifman_edges()
        flat = {frozenset(e) for e in edges}
        assert flat == {frozenset({1, 2})}


class TestIsomorphism:
    def test_isomorphic_paths(self):
        a = make([1, 2, 3], edges={(1, 2), (2, 3)})
        b = make(["x", "y", "z"], edges={("x", "y"), ("y", "z")})
        assert a.is_isomorphic_to(b)

    def test_non_isomorphic_edge_counts(self):
        a = make([1, 2], edges={(1, 2)})
        b = make([1, 2], edges={(1, 2), (2, 1)})
        assert not a.is_isomorphic_to(b)

    def test_fixed_mapping_constrains(self):
        a = make([1, 2], edges={(1, 2)})
        b = make([1, 2], edges={(2, 1)})
        assert a.is_isomorphic_to(b)  # swap works
        assert not a.is_isomorphic_to(b, fixed={1: 1})

    def test_pointed_isomorphism(self):
        a = PointedStructure(make([1, 2], edges={(1, 2)}), (1,))
        b = PointedStructure(make([5, 6], edges={(5, 6)}), (5,))
        c = PointedStructure(make([5, 6], edges={(5, 6)}), (6,))
        assert a.is_isomorphic_to(b)
        assert not a.is_isomorphic_to(c)

    def test_pointed_requires_domain_membership(self):
        with pytest.raises(ValueError):
            PointedStructure(make([1]), (2,))


@given(
    st.sets(st.integers(0, 5), min_size=1),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
)
def test_induced_on_full_domain_is_identity(domain, edges):
    edges = {e for e in edges if e[0] in domain and e[1] in domain}
    s = make(domain, edges=edges)
    assert s.induced(domain) == s


@given(
    st.sets(st.integers(0, 4), min_size=1),
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4))),
    st.sets(st.integers(0, 4)),
)
def test_induced_is_monotone_idempotent(domain, edges, keep):
    edges = {e for e in edges if e[0] in domain and e[1] in domain}
    keep = keep & domain
    s = make(domain, edges=edges)
    once = s.induced(keep)
    assert once.induced(keep) == once


@given(st.sets(st.integers(0, 5), min_size=1))
def test_every_structure_isomorphic_to_itself(domain):
    s = make(domain)
    assert s.is_isomorphic_to(s)
