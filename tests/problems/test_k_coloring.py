"""Tests for the k-Colorability generalization of Figure 5."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.problems import (
    chromatic_number,
    is_valid_k_coloring,
    k_coloring_bruteforce,
    k_coloring_direct,
)
from repro.structures import Graph

from ..conftest import small_graphs


class TestKnownValues:
    def test_cliques_need_n_colors(self):
        for n in (2, 3, 4, 5):
            g = Graph.complete(n)
            assert not k_coloring_direct(g, n - 1)[0]
            assert k_coloring_direct(g, n)[0]

    def test_chromatic_numbers(self):
        assert chromatic_number(Graph.complete(4)) == 4
        assert chromatic_number(Graph.cycle(5)) == 3
        assert chromatic_number(Graph.cycle(6)) == 2
        assert chromatic_number(Graph.path(5)) == 2
        assert chromatic_number(Graph(vertices=[1, 2])) == 1
        assert chromatic_number(Graph()) == 0

    def test_chromatic_number_prepares_the_nice_form_once(self, monkeypatch):
        """The nice form does not depend on k: one min-fill run, nice
        form and axiom check per call, however many k are tried."""
        from repro.problems import three_coloring

        calls = []
        real = three_coloring.prepare_ids

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(three_coloring, "prepare_ids", counting)
        assert chromatic_number(Graph.complete(4)) == 4  # tries k = 1..4
        assert len(calls) == 1
        td_graph = Graph.cycle(5)
        from repro.treewidth import decompose_graph

        assert chromatic_number(td_graph, decompose_graph(td_graph)) == 3
        assert len(calls) == 2

    def test_bipartite_detection_is_2_coloring(self):
        assert k_coloring_direct(Graph.grid(3, 4), 2)[0]
        assert not k_coloring_direct(Graph.cycle(5), 2)[0]

    def test_self_loop_never_colorable(self):
        g = Graph(vertices=[0], edges=[(0, 0)])
        assert not k_coloring_direct(g, 5)[0]
        with pytest.raises(ValueError):
            chromatic_number(g)

    def test_zero_colors_rejected(self):
        with pytest.raises(ValueError):
            k_coloring_direct(Graph.path(2), 0)

    def test_agrees_with_three_coloring_solver(self):
        """k = 3 is Figure 5: the DP agrees with the Figure 5 datalog
        program and with exhaustive search."""
        from repro.problems import ThreeColoringDatalog

        solver = ThreeColoringDatalog()
        for g in (Graph.cycle(7), Graph.complete(4), Graph.grid(2, 4)):
            want = k_coloring_bruteforce(g, 3)
            assert k_coloring_direct(g, 3)[0] == solver.decide(g) == want


class TestWitnesses:
    def test_witness_valid(self):
        for k in (2, 3, 4):
            ok, witness = k_coloring_direct(Graph.grid(3, 3), k, want_witness=True)
            if ok:
                assert witness is not None
                assert is_valid_k_coloring(Graph.grid(3, 3), witness, k)

    def test_a_self_loop_invalidates_every_coloring(self):
        g = Graph(vertices=[1], edges=[(1, 1)])
        assert not is_valid_k_coloring(g, {1: 0}, 1)
        assert not is_valid_k_coloring(g, {1: 0}, 2)
        looped = Graph.path(3)
        looped.add_edge(2, 2)
        assert is_valid_k_coloring(Graph.path(3), {0: 0, 1: 1, 2: 0}, 2)
        assert not is_valid_k_coloring(looped, {0: 0, 1: 1, 2: 0}, 2)

    def test_empty_graph_witness(self):
        ok, witness = k_coloring_direct(Graph(), 2, want_witness=True)
        assert ok and witness == {}


class TestAgainstBruteforce:
    @given(small_graphs(max_vertices=6), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce(self, g, k):
        assert k_coloring_direct(g, k)[0] == k_coloring_bruteforce(g, k)

    @given(small_graphs(max_vertices=6))
    @settings(max_examples=15, deadline=None)
    def test_chromatic_number_bounds(self, g):
        if g.vertex_count() == 0 or any(g.has_edge(v, v) for v in g.vertices):
            return
        chi = chromatic_number(g)
        assert 1 <= chi <= g.vertex_count()
        assert k_coloring_bruteforce(g, chi)
        if chi > 1:
            assert not k_coloring_bruteforce(g, chi - 1)
