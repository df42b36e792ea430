"""The solve front end: decompose exactly at width 2, check once.

Two properties of the admitted solve:

* **Exactness.** A td-less solve decomposes through admission's
  min-degree rebuild (:func:`repro.admission.redecompose`).  Min-fill
  (the Section 5 front end's order) overshoots width 2 on some
  treewidth-2 inputs; min-degree does not, because it is exact at
  treewidth <= 2.
* **One validation.** Every request runs the Section 2.2 axiom check
  once, in admission, on the decomposition it rebuilt or was handed;
  ``CourcelleSolver._load`` checks only the Definition 2.3 shape.
"""

import random

import pytest

from repro import admission
from repro.core import CourcelleSolver, grid_graph_filter, undirected_graph_filter
from repro.errors import AdmissionRejected
from repro.mso import formulas, query
from repro.problems import random_partial_ktree
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure
from repro.treewidth import decompose_structure
from repro.treewidth.decomposition import IdDecomposition

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
            answer = grid_solver.query(structure)  # not rejected
            assert answer == non_isolated(graph)
            if checked < 4:
                assert answer == query(structure, formulas.has_neighbor("x"), "x")
                checked += 1
        # the draw does hold inputs min-fill would decompose too wide
        assert overshoots > 0

    def test_no_budget_leaves_the_rebuild_unbounded(
        self, grid_solver, monkeypatch
    ):
        """Without a caller budget no clock stops the rebuild, even on
        an input min-fill decomposes too wide.  The admission clock
        bounds only a degraded evaluation."""
        from repro.datalog.budget import SolveBudget

        monkeypatch.setattr(
            admission, "DEFAULT_ADMISSION_BUDGET", SolveBudget(max_seconds=1e-9)
        )
        graph = next(
            g
            for g in deleted_ladders()
            if decompose_structure(graph_to_structure(g)).width > 2
        )
        assert grid_solver.query(graph_to_structure(graph)) == non_isolated(graph)

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
                except AdmissionRejected as exc:  # pragma: no cover - the bug
                    pytest.fail(f"width-2 input refused: {exc}")
                if grid_graph_filter(structure):
                    in_class += 1
                    assert answer == non_isolated(graph)
                    assert answer == query(
                        structure, formulas.has_neighbor("x"), "x"
                    )
        assert overshoots > 0 and in_class > 0


class TestFailingStrategies:
    def test_error_surfaces_when_every_strategy_fails(
        self, path_solver, monkeypatch
    ):
        def broken(ids):
            raise RuntimeError("strategy failed")

        monkeypatch.setattr(admission, "min_degree_decomposition", broken)
        with pytest.raises(AdmissionRejected, match="strategy failed") as err:
            path_solver.query(graph_to_structure(Graph.path(9)))
        (violation,) = err.value.report.residual
        assert violation.code == "no-decomposition"
        assert "RuntimeError: strategy failed" in violation.message
        assert "width -1" not in str(err.value)


class TestOneValidationPerSolve:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Count Section 2.2 axiom checks, overall and inside the
        solver's normalize-and-load step (``_load``)."""
        counts = {"all": 0, "prepare": 0}
        axiom_defects = IdDecomposition.axiom_defects
        in_prepare = []

        def counted(self, *args, **kwargs):
            counts["all"] += 1
            counts["prepare"] += bool(in_prepare)
            return axiom_defects(self, *args, **kwargs)

        load = CourcelleSolver._load

        def tracked(self, *args, **kwargs):
            in_prepare.append(True)
            try:
                return load(self, *args, **kwargs)
            finally:
                in_prepare.pop()

        monkeypatch.setattr(IdDecomposition, "axiom_defects", counted)
        monkeypatch.setattr(CourcelleSolver, "_load", tracked)
        return counts

    def test_td_less_query_checks_once(self, path_solver, checks):
        graph = Graph.path(12)
        assert path_solver.query(graph_to_structure(graph)) == non_isolated(graph)
        # admission checks the decomposition it rebuilt; _load adds none
        assert checks == {"all": 1, "prepare": 0}

    def test_supplied_td_is_checked_once(self, path_solver, checks):
        structure = graph_to_structure(Graph.path(12))
        td = decompose_structure(structure)  # a public call: checked itself
        checks["all"] = 0
        path_solver.query(structure, td)
        # admission checks the supplied decomposition; _load adds none
        assert checks == {"all": 1, "prepare": 0}

    def test_verified_request_is_not_rechecked(self, path_solver, checks):
        structure = graph_to_structure(Graph.path(12))
        td = decompose_structure(structure)
        checks["all"] = 0
        answer, report = path_solver.solve_admitted(structure, td, policy="strict")
        assert report.verdict == "admitted"
        assert answer == frozenset(range(12))
        # admission's verification is the one check; _load adds none
        assert checks == {"all": 1, "prepare": 0}

    def test_redecomposed_request_is_checked_once(self, path_solver, checks):
        structure = graph_to_structure(Graph.path(12))
        answer, report = path_solver.solve_admitted(structure, policy="repair")
        assert answer == frozenset(range(12))
        assert checks == {"all": 1, "prepare": 0}
