"""The solve front end: decompose exactly at width 2, check once.

Two properties of ``CourcelleSolver._prepare``:

* **Exactness.** A td-less solve decomposes through the min-fill ->
  min-degree escalation of :func:`repro.treewidth.decompose_within`.
  Min-fill alone overshoots width 2 on some treewidth-2 inputs; the
  escalation does not, because min-degree is exact at treewidth <= 2.
* **One validation.** A td-less ``query`` runs the Section 2.2 axiom
  check once, on the normalized decomposition it encodes; a request
  admission has already verified runs it zero more times.
"""

import random

import pytest

from repro.core import CourcelleSolver, grid_graph_filter, undirected_graph_filter
from repro.errors import WidthExceeded
from repro.mso import formulas, query
from repro.problems import random_partial_ktree
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure
from repro.treewidth import TreeDecomposition, decompose_structure, heuristics

from ..conftest import deleted_ladders


def non_isolated(graph: Graph) -> frozenset:
    """Closed form of ``has_neighbor``: the non-isolated vertices."""
    return frozenset(v for v in graph.vertices if graph.neighbors(v))


@pytest.fixture(scope="module")
def grid_solver():
    return CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=2,
        free_var="x",
        structure_filter=grid_graph_filter,
    )


@pytest.fixture(scope="module")
def path_solver():
    return CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )


class TestWidthTwoExactness:
    def test_deleted_ladders_solve_at_width_2(self, grid_solver):
        """Every ladder subgraph min-fill decomposes too wide is still
        solved, and correctly; so is a sample of the others."""
        overshoots = checked = 0
        for i, graph in enumerate(deleted_ladders()):
            structure = graph_to_structure(graph)
            over = decompose_structure(structure).width > 2
            overshoots += over
            if not over and i % 30:
                continue
            assert grid_graph_filter(structure)
            answer = grid_solver.query(structure)  # no WidthExceeded
            assert answer == non_isolated(graph)
            if checked < 4:
                assert answer == query(structure, formulas.has_neighbor("x"), "x")
                checked += 1
        # the draw does exercise the escalation
        assert overshoots > 0

    def test_partial_2_trees_never_exceed_width_2(self, grid_solver):
        """``query`` never refuses a random partial 2-tree.  Answers are
        compared on the grid-class draws only: the grid program is
        complete on its class, not beyond it."""
        rng = random.Random(4)
        overshoots = in_class = 0
        for p in (0.15, 0.3, 0.5, 0.7):
            for _ in range(20):
                graph, _ = random_partial_ktree(rng, rng.randint(8, 60), 2, p)
                structure = graph_to_structure(graph)
                overshoots += decompose_structure(structure).width > 2
                try:
                    answer = grid_solver.query(structure)
                except WidthExceeded as exc:  # pragma: no cover - the bug
                    pytest.fail(f"width-2 input refused: {exc}")
                if grid_graph_filter(structure):
                    in_class += 1
                    assert answer == non_isolated(graph)
                    assert answer == query(
                        structure, formulas.has_neighbor("x"), "x"
                    )
        assert overshoots > 0 and in_class > 0


class TestFailingStrategies:
    def test_solve_skips_a_failing_strategy(self, path_solver, monkeypatch):
        def broken(graph):
            raise RuntimeError("min-fill failed")

        monkeypatch.setitem(heuristics._ORDERS, "min_fill", broken)
        graph = Graph.path(9)
        assert path_solver.query(graph_to_structure(graph)) == non_isolated(graph)

    def test_error_surfaces_when_every_strategy_fails(
        self, path_solver, monkeypatch
    ):
        def broken(graph):
            raise RuntimeError("strategy failed")

        for method in heuristics.ESCALATION:
            monkeypatch.setitem(heuristics._ORDERS, method, broken)
        with pytest.raises(RuntimeError, match="strategy failed"):
            path_solver.query(graph_to_structure(Graph.path(9)))


class TestOneValidationPerSolve:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Count Section 2.2 axiom checks, overall and inside ``_prepare``."""
        counts = {"all": 0, "prepare": 0}
        axiom_violations = TreeDecomposition.axiom_violations
        in_prepare = []

        def counted(self, *args, **kwargs):
            counts["all"] += 1
            counts["prepare"] += bool(in_prepare)
            return axiom_violations(self, *args, **kwargs)

        prepare = CourcelleSolver._prepare

        def tracked(self, *args, **kwargs):
            in_prepare.append(True)
            try:
                return prepare(self, *args, **kwargs)
            finally:
                in_prepare.pop()

        monkeypatch.setattr(TreeDecomposition, "axiom_violations", counted)
        monkeypatch.setattr(CourcelleSolver, "_prepare", tracked)
        return counts

    def test_td_less_query_checks_once(self, path_solver, checks):
        graph = Graph.path(12)
        assert path_solver.query(graph_to_structure(graph)) == non_isolated(graph)
        assert checks == {"all": 1, "prepare": 1}

    def test_supplied_td_is_checked_once(self, path_solver, checks):
        structure = graph_to_structure(Graph.path(12))
        td = decompose_structure(structure)  # a public call: checked itself
        checks["all"] = 0
        path_solver.query(structure, td)
        assert checks == {"all": 1, "prepare": 1}

    def test_verified_request_is_not_rechecked(self, path_solver, checks):
        structure = graph_to_structure(Graph.path(12))
        td = decompose_structure(structure)
        checks["all"] = 0
        answer, report = path_solver.solve_admitted(structure, td, policy="strict")
        assert report.verdict == "admitted"
        assert answer == frozenset(range(12))
        # admission's verification is the one check; _prepare adds none
        assert checks == {"all": 1, "prepare": 0}

    def test_redecomposed_request_is_checked_once(self, path_solver, checks):
        structure = graph_to_structure(Graph.path(12))
        answer, report = path_solver.solve_admitted(structure, policy="repair")
        assert answer == frozenset(range(12))
        assert checks == {"all": 1, "prepare": 0}
