"""Admission wired through CourcelleSolver.decide/query/solve_many."""

import pickle

import pytest

from repro.errors import AdmissionRejected, WidthExceeded
from repro.mso import formulas, query as mso_query
from repro.structures import GRAPH_SIGNATURE, Structure
from repro.treewidth import decompose_structure

from .conftest import CORPUS_DIR
from .test_verify import corrupt_td, path_structure

HAS_NEIGHBOR = formulas.has_neighbor("x")


def clique(n):
    edges = [(a, b) for a in range(n) for b in range(n) if a != b]
    return Structure(GRAPH_SIGNATURE, range(n), {"e": edges})


class TestLegacyPathUnchanged:
    """With ``admission=None`` (the default) behaviour is byte-identical
    to the pre-admission solver -- including its failure mode."""

    def test_clean_query(self, neighbor_solver):
        s = path_structure(5)
        assert neighbor_solver.query(s) == frozenset(s.domain)

    def test_overwidth_still_raises_value_error(self, neighbor_solver):
        s = path_structure(5)
        wide = decompose_structure(clique(4))
        with pytest.raises(ValueError, match="exceeds"):
            neighbor_solver.query(path_structure(4), wide)

    def test_width_exceeded_carries_fingerprint(self, neighbor_solver):
        from repro.structures import structure_fingerprint

        s = path_structure(4)
        wide = decompose_structure(clique(4))
        with pytest.raises(WidthExceeded) as err:
            neighbor_solver.query(s, wide)
        assert err.value.limit == 1
        assert err.value.width == wide.width
        assert err.value.fingerprint == structure_fingerprint(s)
        assert err.value.fingerprint in str(err.value)


class TestPerCallAdmission:
    def test_query_repairs_corrupt_td(self, neighbor_solver):
        s = path_structure(4)
        td = corrupt_td(
            {0: [0, 1, 99], 1: [1, 2], 2: [2, 3]},
            {0: [1], 1: [2], 2: []},
        )
        got = neighbor_solver.query(s, td, admission="repair")
        assert got == frozenset(s.domain)

    def test_query_degrades_over_envelope(self, neighbor_solver):
        s = clique(4)
        got = neighbor_solver.query(s, admission="degrade")
        assert got == mso_query(s, HAS_NEIGHBOR, "x")

    def test_query_strict_rejects(self, neighbor_solver):
        s = clique(4)
        with pytest.raises(AdmissionRejected):
            neighbor_solver.query(s, admission="strict")

    def test_solve_admitted_returns_report(self, neighbor_solver):
        s = clique(4)
        answer, report = neighbor_solver.solve_admitted(s, policy="degrade")
        assert answer == mso_query(s, HAS_NEIGHBOR, "x")
        assert report.verdict == "degraded"

    def test_invalid_policy_rejected_at_call(self, neighbor_solver):
        with pytest.raises(ValueError, match="admission policy"):
            neighbor_solver.query(path_structure(4), admission="bogus")


class TestDefaultAdmission:
    def test_ctor_policy_applies_to_every_call(self):
        from repro.core import CourcelleSolver, undirected_graph_filter

        solver = CourcelleSolver(
            HAS_NEIGHBOR,
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
            admission="degrade",
        )
        s = clique(4)
        assert solver.query(s) == mso_query(s, HAS_NEIGHBOR, "x")

    def test_ctor_rejects_unknown_policy(self):
        from repro.core import CourcelleSolver, undirected_graph_filter

        with pytest.raises(ValueError, match="admission policy"):
            CourcelleSolver(
                HAS_NEIGHBOR,
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
                admission="everything-goes",
            )


class TestSolveMany:
    def mixed_batch(self):
        return [path_structure(4), clique(4), path_structure(3)]

    def test_serial_per_item_verdicts(self, neighbor_solver):
        batch = self.mixed_batch()
        results = neighbor_solver.solve_many(batch, admission="degrade")
        assert results[0] == frozenset(batch[0].domain)
        assert results[1] == mso_query(batch[1], HAS_NEIGHBOR, "x")
        assert results[2] == frozenset(batch[2].domain)

    def test_serial_rejected_item_resolves_in_place(self, neighbor_solver):
        from repro.admission import load_corpus_case
        import os

        raw = load_corpus_case(
            os.path.join(CORPUS_DIR, "10_domain_closure.json")
        )["structure"]
        batch = [path_structure(4), raw, path_structure(3)]
        results = neighbor_solver.solve_many(batch, admission="degrade")
        assert results[0] == frozenset(batch[0].domain)
        assert isinstance(results[1], AdmissionRejected)
        assert results[1].report.verdict == "rejected"
        assert results[2] == frozenset(batch[2].domain)

    def test_pool_matches_serial(self, neighbor_solver):
        batch = self.mixed_batch()
        serial = neighbor_solver.solve_many(batch, admission="degrade")
        from repro.service import SolverService

        with SolverService(workers=2) as service:
            pooled = neighbor_solver.solve_many(
                batch, admission="degrade", service=service
            )
        assert pooled == serial


class TestCloningAndPickling:
    def solver_with_default(self):
        from repro.core import CourcelleSolver, undirected_graph_filter

        return CourcelleSolver(
            HAS_NEIGHBOR,
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
            admission="repair",
        )

    def test_pickle_carries_admission(self):
        solver = self.solver_with_default()
        back = pickle.loads(pickle.dumps(solver))
        assert back.admission == "repair"
