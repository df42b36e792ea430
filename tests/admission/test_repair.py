"""Repair: a failing decomposition is rebuilt from the structure."""

import time

from repro.admission import redecompose, verify_decomposition
from repro.datalog.budget import SolveBudget
from repro.structures import GRAPH_SIGNATURE, Structure
from repro.treewidth import heuristics

from .test_verify import path_structure


def clique(n):
    edges = [(a, b) for a in range(n) for b in range(n) if a != b]
    return Structure(GRAPH_SIGNATURE, range(n), {"e": edges})


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
        td, reason = redecompose(s, width_limit=1, meter=meter)
        assert td is None
        assert reason.startswith("the admission budget ran out")

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
        td, reason = redecompose(path_structure(5), width_limit=1)
        assert td is None
        assert reason == (
            "every decomposition strategy failed, the last with "
            "RuntimeError: strategy failed"
        )
