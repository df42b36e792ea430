"""Ehrenfeucht-Fraïssé game tests (the independent route to ≡_k)."""

from hypothesis import given, settings

from repro.mso import equivalent
from repro.structures import Graph, graph_to_structure

from ..conftest import small_graphs
from .games import duplicator_wins, is_partial_isomorphism


def g2s(g):
    return graph_to_structure(g)


class TestPartialIsomorphism:
    def test_empty_position_is_iso(self):
        a, b = g2s(Graph.path(2)), g2s(Graph.path(3))
        assert is_partial_isomorphism(a, (), (), b, (), ())

    def test_relation_mismatch_detected(self):
        a = g2s(Graph(vertices=[0, 1], edges=[(0, 1)]))
        b = g2s(Graph(vertices=[0, 1]))
        assert not is_partial_isomorphism(a, (0, 1), (), b, (0, 1), ())

    def test_equality_pattern_detected(self):
        a = g2s(Graph(vertices=[0, 1]))
        assert not is_partial_isomorphism(a, (0, 0), (), a, (0, 1), ())

    def test_set_membership_detected(self):
        a = g2s(Graph(vertices=[0, 1]))
        assert not is_partial_isomorphism(
            a, (0,), (frozenset({0}),), a, (0,), (frozenset(),)
        )
        assert is_partial_isomorphism(
            a, (0,), (frozenset({0}),), a, (1,), (frozenset({1}),)
        )


class TestGames:
    def test_zero_rounds_is_iso_check(self):
        a = g2s(Graph(vertices=[0, 1], edges=[(0, 1)]))
        b = g2s(Graph(vertices=[0, 1]))
        assert duplicator_wins(a, (), b, (), 0)  # nothing chosen yet
        assert not duplicator_wins(a, (0, 1), b, (0, 1), 0)

    def test_one_round_separates_edge_from_no_edge(self):
        a = g2s(Graph(vertices=[0, 1], edges=[(0, 1)]))
        b = g2s(Graph(vertices=[0, 1]))
        # spoiler picks a set or point exposing the edge only at depth 2;
        # pointed at both endpoints, one round suffices via rank-0 check
        assert not duplicator_wins(a, (0,), b, (0,), 1)

    def test_p2_vs_p3_separated_at_two_rounds(self):
        p2, p3 = g2s(Graph.path(2)), g2s(Graph.path(3))
        assert duplicator_wins(p2, (), p3, (), 1)
        assert not duplicator_wins(p2, (), p3, (), 2)

    @given(small_graphs(max_vertices=3), small_graphs(max_vertices=3))
    @settings(max_examples=10)
    def test_games_agree_with_canonical_types(self, g1, g2):
        """Two independent implementations of ≡_1 must coincide."""
        s1, s2 = g2s(g1), g2s(g2)
        assert duplicator_wins(s1, (), s2, (), 1) == equivalent(
            s1, (), s2, (), 1
        )

    @given(small_graphs(max_vertices=3))
    @settings(max_examples=8)
    def test_game_reflexivity(self, g):
        s = g2s(g)
        assert duplicator_wins(s, (), s, (), 1)
