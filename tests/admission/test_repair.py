"""Repair: a failing decomposition is rebuilt from the structure."""

import random
import time

from hypothesis import given, settings, strategies as st

from repro import admission
from repro.admission import redecompose, verify_decomposition
from repro.datalog.budget import SolveBudget
from repro.problems import random_partial_ktree
from repro.structures import GRAPH_SIGNATURE, Graph, Structure, graph_to_structure
from repro.structures.graphs import subgraph
from repro.treewidth import treewidth_exact

from .test_verify import path_structure


def clique(n):
    edges = [(a, b) for a in range(n) for b in range(n) if a != b]
    return Structure(GRAPH_SIGNATURE, range(n), {"e": edges})


class TestRedecompose:
    def test_rebuilds_with_min_degree(self):
        s = path_structure(5)
        td, method = redecompose(s)
        assert method == "min_degree"
        assert td is not None and td.width <= 1
        assert verify_decomposition(td, s) == []

    def test_best_effort_over_envelope(self):
        s = clique(4)  # treewidth 3 -- no order can reach width 1
        td, method = redecompose(s)
        assert td is not None
        assert td.width == 3  # reported for the ladder to arbitrate
        assert method == "min_degree"

    def test_exhausted_budget_yields_nothing(self):
        s = path_structure(5)
        meter = SolveBudget(max_seconds=1e-6).start()
        time.sleep(0.01)  # the meter is already over before the build
        td, reason = redecompose(s, meter=meter)
        assert td is None
        assert reason.startswith("the admission budget ran out")

    def test_every_strategy_failing_yields_nothing(self, monkeypatch):
        def broken(ids):
            raise RuntimeError("order failed")

        monkeypatch.setattr(admission, "min_degree_decomposition", broken)
        td, reason = redecompose(path_structure(5))
        assert td is None
        assert reason == (
            "the min-degree rebuild failed with RuntimeError: order failed"
        )


@st.composite
def width_two_graphs(draw):
    """``(graph, bound)``: a random partial 2-tree, a 2 x N ladder with
    ~10% of its vertices deleted (bound 2), or a random forest (bound
    1); small sizes are drawn as often as large ones so the exact
    treewidth can be compared."""
    family = draw(st.sampled_from(("partial-2-tree", "ladder", "forest")))
    n = draw(st.one_of(st.integers(1, 10), st.integers(11, 60)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if family == "partial-2-tree":
        graph, _ = random_partial_ktree(rng, n, 2, rng.choice((0.3, 0.6, 0.9)))
        return graph, 2
    if family == "ladder":
        ladder = Graph.grid(2, max(1, n // 2))
        keep = [v for v in sorted(ladder.vertices) if rng.random() >= 0.10]
        return subgraph(ladder, keep), 2
    graph = Graph(range(n))
    for v in range(1, n):
        if rng.random() < 0.8:
            graph.add_edge(v, rng.randrange(v))
    return graph, 1


@settings(max_examples=120)
@given(width_two_graphs())
def test_rebuild_is_exact_at_the_compiled_widths(case):
    """Min-degree never rebuilds a treewidth-<=2 graph wider than 2 (a
    forest wider than 1), and on small graphs its width is the exact
    treewidth."""
    graph, bound = case
    structure = graph_to_structure(graph)
    td, method = redecompose(structure)
    assert method == "min_degree"
    assert verify_decomposition(td, structure) == []
    assert td.width <= bound
    if 0 < graph.vertex_count() <= 10:  # the empty graph's width is -1
        assert td.width == treewidth_exact(graph)
