"""Tests for the interned type algebra (typealg.py).

The load-bearing property is Lemma 3.5/3.6 soundness of witness
reduction: the reduced witness must have *exactly* the same rank-k
type as the original, which the hypothesis property below checks both
through the canonical-type computation and -- independently -- through
the Ehrenfeucht-Fraïssé game of ``tests/mso/games.py`` (a genuinely
separate implementation of the same equivalence).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CompilerLimitError, TypeAlgebra, TypeTable, reduce_witness
from repro.mso import mso_type
from repro.mso.types import TypeContext
from repro.structures import Graph, graph_to_structure

from ..conftest import small_graphs
from ..mso.games import duplicator_wins


def g2s(g):
    return graph_to_structure(g)


class TestWitnessReduction:
    @given(small_graphs(max_vertices=5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_reduction_preserves_type_and_ef_equivalence(self, g, data):
        """Reduction must preserve the canonical rank-1 type -- and the
        duplicator must win the 1-round MSO game between the original
        and the reduced witness (the independent cross-check)."""
        structure = g2s(g)
        domain = sorted(structure.domain, key=repr)
        if not domain:
            return
        bag_size = data.draw(
            st.integers(min_value=1, max_value=min(2, len(domain)))
        )
        bag = tuple(
            data.draw(
                st.lists(
                    st.sampled_from(domain),
                    min_size=bag_size,
                    max_size=bag_size,
                    unique=True,
                )
            )
        )
        k = 1
        reduced = reduce_witness(structure, bag, k)
        assert bag[0] in reduced.domain  # bag elements are never deleted
        assert mso_type(structure, bag, k) == mso_type(reduced, bag, k)
        assert duplicator_wins(structure, bag, reduced, bag, k)

    def test_reduction_shrinks_redundant_witnesses(self):
        """Two non-bag vertices with the same attachment profile: one
        of them must go (the minimal representative keeps one vertex
        per rank-0 extension type)."""
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (0, 2), (0, 3)])
        reduced = reduce_witness(g2s(g), (0,), 1)
        # 1, 2, 3 all have profile {0}; exactly one survives
        assert len(reduced.domain) == 2

    def test_reduction_is_deterministic(self):
        g = Graph(vertices=[0, 1, 2, 3, 4], edges=[(0, 1), (0, 2), (3, 4)])
        s = g2s(g)
        assert reduce_witness(s, (0,), 1) == reduce_witness(s, (0,), 1)

    def test_reduction_respects_structure_filter(self):
        """A filter rejecting every proper deletion keeps the witness
        intact (degrades to less reduction, never out-of-class)."""
        g = Graph(vertices=[0, 1, 2], edges=[(0, 1)])
        s = g2s(g)
        frozen = reduce_witness(
            s, (0,), 1, structure_filter=lambda c: c == s
        )
        assert frozen == s


class TestTypeTable:
    def test_dense_ids_and_decoding(self):
        table = TypeTable(max_types=10)
        s = g2s(Graph(vertices=[0], edges=[]))
        t_a = ("t", "a")
        t_b = ("t", "b")
        entry_a = table.add(t_a, s, (0,), frozenset())
        entry_b = table.add(t_b, s, (0,), frozenset())
        assert (entry_a.type_id, entry_b.type_id) == (0, 1)
        assert table.get(t_a) is entry_a
        assert table.entry_of(1) is entry_b
        assert table.get(("t", "c")) is None
        assert [e.type_id for e in table] == [0, 1]

    def test_duplicate_type_rejected(self):
        table = TypeTable(max_types=10)
        s = g2s(Graph(vertices=[0], edges=[]))
        table.add(("t",), s, (0,), frozenset())
        with pytest.raises(ValueError):
            table.add(("t",), s, (0,), frozenset())

    def test_max_types_enforced(self):
        table = TypeTable(max_types=1)
        s = g2s(Graph(vertices=[0], edges=[]))
        table.add(("t", "a"), s, (0,), frozenset())
        with pytest.raises(CompilerLimitError):
            table.add(("t", "b"), s, (0,), frozenset())


class TestTypeAlgebra:
    def test_canonicalize_renames_bag_first(self):
        algebra = TypeAlgebra(k=1, max_witness_size=16)
        g = Graph(vertices=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
        s = g2s(g)
        canon, cbag = algebra.canonicalize(s, ("b", "c"))
        assert cbag == (0, 1)
        assert canon.domain == frozenset({0, 1, 2})
        # type is invariant under the canonical renaming
        assert mso_type(s, ("b", "c"), 1) == mso_type(canon, (0, 1), 1)

    def test_transient_typing_matches_and_does_not_memoize(self):
        """The transient route types the int relations of a candidate
        (``type_of_ids``): same type as the stored-witness route, no
        context kept, and counted like any other typing."""
        algebra = TypeAlgebra(k=1, max_witness_size=16)
        s = g2s(Graph(vertices=[0, 1], edges=[(0, 1)]))
        t_stored = algebra.type_of(s, (0,))
        relations = tuple(s.relation(name) for name in s.signature)
        t_transient = algebra.type_of_ids(s.signature, 2, relations, (0,))
        assert t_stored == t_transient
        assert len(algebra._contexts) == 1  # only the stored path memoizes
        assert algebra.stats.type_computations == 2

    def test_oversized_transient_witness_raises(self):
        algebra = TypeAlgebra(k=1, max_witness_size=2)
        s = g2s(Graph.path(5))
        with pytest.raises(CompilerLimitError):
            algebra.type_of(s, (0,))

    def test_shared_context_agrees_with_fresh_context(self):
        """The structure-scoped memo must be semantics-neutral: typing
        under a shared context equals typing from scratch."""
        algebra = TypeAlgebra(k=1, max_witness_size=16)
        s = g2s(Graph(vertices=[0, 1, 2], edges=[(0, 1), (1, 2)]))
        for bag in ((0,), (1,), (0, 2), (2, 1)):
            assert algebra.type_of(s, bag) == TypeContext(s).type_of(bag, 1)
