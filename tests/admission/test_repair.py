"""Repair: fix repairable decompositions in place, else rebuild."""

import time

from repro.admission import redecompose, repair_decomposition, verify_decomposition
from repro.datalog.budget import SolveBudget
from repro.structures import GRAPH_SIGNATURE, Structure
from repro.treewidth import heuristics

from .test_verify import corrupt_td, path_structure


def clique(n):
    edges = [(a, b) for a in range(n) for b in range(n) if a != b]
    return Structure(GRAPH_SIGNATURE, range(n), {"e": edges})


class TestRepairDecomposition:
    def test_drops_alien_elements(self):
        s = path_structure(4)
        td = corrupt_td(
            {0: [0, 1, 99], 1: [1, 2], 2: [2, 3, 77]},
            {0: [1], 1: [2], 2: []},
        )
        repaired, repairs = repair_decomposition(td, s)
        assert repaired is not None
        assert "dropped-alien-elements:2" in repairs
        assert verify_decomposition(repaired, s) == []

    def test_covers_missing_tuple(self):
        s = path_structure(4)
        # edge (2, 3) is in no bag
        td = corrupt_td(
            {0: [0, 1], 1: [1, 2], 2: [2]},
            {0: [1], 1: [2], 2: []},
        )
        repaired, repairs = repair_decomposition(td, s)
        assert repaired is not None
        assert any(r.startswith("covered-missing-tuples:") for r in repairs)
        assert verify_decomposition(repaired, s) == []

    def test_covers_missing_element(self):
        edges = [(0, 1), (1, 0)]
        s = Structure(GRAPH_SIGNATURE, range(3), {"e": edges})  # 2 isolated
        td = corrupt_td({0: [0, 1]}, {0: []})
        repaired, repairs = repair_decomposition(td, s)
        assert repaired is not None
        assert "covered-missing-elements:1" in repairs
        assert verify_decomposition(repaired, s) == []

    def test_splices_connectedness(self):
        s = path_structure(4)
        # element 1 occurs in bags 0 and 2 but not the bag between them
        td = corrupt_td(
            {0: [0, 1], 1: [2], 2: [1, 2], 3: [2, 3]},
            {0: [1], 1: [2], 2: [3], 3: []},
        )
        repaired, repairs = repair_decomposition(td, s)
        assert repaired is not None
        assert "spliced-connectedness:1" in repairs
        assert verify_decomposition(repaired, s) == []

    def test_passes_compose(self):
        # aliens + a missing tuple + an isolated element, all at once
        edges = [(0, 1), (1, 0), (1, 2), (2, 1)]
        s = Structure(GRAPH_SIGNATURE, range(4), {"e": edges})  # 3 isolated
        td = corrupt_td(
            {0: [0, 1, 42], 1: [1]},
            {0: [1], 1: []},
        )
        repaired, repairs = repair_decomposition(td, s)
        assert repaired is not None
        assert verify_decomposition(repaired, s) == []
        assert any(r.startswith("dropped-alien-elements") for r in repairs)
        assert any(r.startswith("covered-missing-tuples") for r in repairs)
        assert any(r.startswith("covered-missing-elements") for r in repairs)

    def test_input_decomposition_untouched(self):
        s = path_structure(4)
        td = corrupt_td(
            {0: [0, 1, 99], 1: [1, 2], 2: [2, 3]},
            {0: [1], 1: [2], 2: []},
        )
        before = {n: set(b) for n, b in td.bags.items()}
        repair_decomposition(td, s)
        assert {n: set(b) for n, b in td.bags.items()} == before


class TestRedecompose:
    def test_min_fill_first(self):
        s = path_structure(5)
        td, method = redecompose(s, width_limit=1)
        assert method == "min_fill"
        assert td is not None and td.width <= 1
        assert verify_decomposition(td, s) == []

    def test_best_effort_over_envelope(self):
        s = clique(4)  # treewidth 3 -- no strategy can reach width 1
        td, method = redecompose(s, width_limit=1)
        assert td is not None
        assert td.width == 3  # best achievable, reported for the ladder
        assert method is not None

    def test_exhausted_budget_yields_nothing(self):
        s = path_structure(5)
        meter = SolveBudget(max_seconds=1e-6).start()
        time.sleep(0.01)  # the meter is already over before any strategy runs
        td, method = redecompose(s, width_limit=1, meter=meter)
        assert td is None and method is None

    def test_failing_strategy_is_skipped(self, monkeypatch):
        def broken(graph):
            raise RuntimeError("min-fill failed")

        monkeypatch.setitem(heuristics._ORDERS, "min_fill", broken)
        s = path_structure(5)
        td, method = redecompose(s, width_limit=1)
        assert method == "min_degree"
        assert td is not None and verify_decomposition(td, s) == []

    def test_every_strategy_failing_yields_nothing(self, monkeypatch):
        def broken(graph):
            raise RuntimeError("strategy failed")

        for method in heuristics.ESCALATION:
            monkeypatch.setitem(heuristics._ORDERS, method, broken)
        assert redecompose(path_structure(5), width_limit=1) == (None, None)
