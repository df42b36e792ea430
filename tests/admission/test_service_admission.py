"""Admission at the service boundary: malformed traffic is contained,
counted, and quarantined -- a malformed request can never kill a
worker or hang a future."""

import pytest

from repro.admission import load_corpus
from repro.core import CourcelleSolver, undirected_graph_filter
from repro.errors import AdmissionRejected
from repro.mso import formulas, query as mso_query
from repro.service import SolverService
from repro.structures import GRAPH_SIGNATURE, Structure
from repro.treewidth import decompose_structure

from .conftest import CORPUS_DIR
from .test_verify import corrupt_td, path_structure

HAS_NEIGHBOR = formulas.has_neighbor("x")


def clique(n):
    edges = [(a, b) for a in range(n) for b in range(n) if a != b]
    return Structure(GRAPH_SIGNATURE, range(n), {"e": edges})


def raw_rejected_structure():
    cases = {c["name"]: c for c in load_corpus(CORPUS_DIR)}
    return cases["domain_closure"]["structure"]


class TestServiceAdmission:
    def test_mixed_batch_all_resolve_without_worker_deaths(
        self, neighbor_solver
    ):
        batch = [path_structure(6), clique(4), raw_rejected_structure(),
                 path_structure(4)]
        with SolverService(workers=2, admission="degrade") as service:
            handle = service.register(neighbor_solver)
            results = handle.solve_many(batch, timeout=120)
            stats = service.stats
        assert results[0] == frozenset(batch[0].domain)
        assert results[1] == mso_query(batch[1], HAS_NEIGHBOR, "x")
        assert isinstance(results[2], AdmissionRejected)
        assert results[3] == frozenset(batch[3].domain)
        assert stats.worker_restarts == 0
        assert stats.admitted == 2
        assert stats.degraded == 1
        assert stats.admission_rejected == 1

    def test_per_request_override_on_plain_service(self, neighbor_solver):
        wide = clique(4)
        with SolverService(workers=1) as service:
            handle = service.register(neighbor_solver)
            # the plain service admits strictly: the over-width input
            # is rejected in its slot, and degrades on request
            (rejected,) = handle.solve_many([wide])
            assert isinstance(rejected, AdmissionRejected)
            assert rejected.report.policy == "strict"
            assert "exceeds" in str(rejected)
            got = handle.solve_many([wide], admission="degrade")
            assert got[0] == mso_query(wide, HAS_NEIGHBOR, "x")

    def test_rejected_td_does_not_quarantine_the_structure(
        self, neighbor_solver
    ):
        """A rejection is quarantined with the decomposition it was
        rejected under: the same request fast-fails, the same structure
        with a valid decomposition or none is answered."""
        s = path_structure(4)
        bad = corrupt_td(
            {0: [0, 1, 99], 1: [1, 2], 2: [2, 3]},
            {0: [1], 1: [2], 2: []},
        )
        with SolverService(workers=1) as service:
            handle = service.register(neighbor_solver)
            for _ in range(2):
                with pytest.raises(AdmissionRejected, match="non-elements"):
                    handle.submit(s, td=bad).result(timeout=120)
            assert service.stats.quarantine_rejections == 1
            good = decompose_structure(s)
            assert handle.submit(s, td=good).result(timeout=120) == frozenset(
                s.domain
            )
            assert handle.submit(s).result(timeout=120) == frozenset(s.domain)
            assert service.stats.quarantine_rejections == 1

    def test_rejection_by_one_program_does_not_block_another(
        self, neighbor_solver
    ):
        """A triangle is over width 1 but within width 2: the width-1
        program's rejection does not fast-fail it on the width-2
        program."""
        triangle = clique(3)
        wider = CourcelleSolver(
            HAS_NEIGHBOR,
            GRAPH_SIGNATURE,
            width=2,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )
        with SolverService(workers=1) as service:
            narrow = service.register(neighbor_solver)
            with pytest.raises(AdmissionRejected, match="exceeds"):
                narrow.submit(triangle).result(timeout=120)
            wide = service.register(wider)
            assert wide.submit(triangle).result(timeout=120) == frozenset(
                triangle.domain
            )
            assert service.stats.quarantine_rejections == 0

    def test_rejections_are_quarantined_and_fast_fail(self, neighbor_solver):
        raw = raw_rejected_structure()
        with SolverService(workers=1, admission="degrade") as service:
            handle = service.register(neighbor_solver)
            first = handle.solve_many([raw])
            assert isinstance(first[0], AdmissionRejected)
            records = service.quarantined()
            assert len(records) == 1
            assert records[0].reason == "admission"
            # resubmission fast-fails from the quarantine with the
            # stored rejection -- no worker round trip
            again = handle.solve_many([raw])
            assert isinstance(again[0], AdmissionRejected)
            assert again[0].report.verdict == "rejected"
            assert service.stats.quarantine_rejections == 1
            # evicting re-opens the door
            assert service.evict_quarantine(records[0].fingerprint) == 1
            assert service.quarantined() == ()

    def test_invalid_service_policy_rejected(self):
        with pytest.raises(ValueError, match="admission policy"):
            SolverService(workers=1, admission="yolo")

    def test_whole_corpus_chaos(self, neighbor_solver):
        """The acceptance gate: the full malformed corpus through a
        live service -- zero worker deaths, zero hung futures, every
        request resolves to an answer or a typed rejection."""
        cases = load_corpus(CORPUS_DIR)
        with SolverService(workers=2, admission="degrade") as service:
            handle = service.register(neighbor_solver)
            futures = [
                handle.submit(case["structure"], td=case["td"])
                for case in cases
            ]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(("ok", future.result(timeout=120)))
                except AdmissionRejected as exc:
                    outcomes.append(("rejected", exc))
            stats = service.stats
        assert len(outcomes) == len(cases)
        assert stats.worker_restarts == 0
        for case, (kind, payload) in zip(cases, outcomes):
            if case["expect"] == "rejected":
                assert kind == "rejected", case["name"]
                assert payload.report.verdict == "rejected"
            else:
                assert kind == "ok", case["name"]
                assert isinstance(payload, frozenset)
        assert stats.admitted + stats.repaired + stats.degraded == sum(
            1 for c in cases if c["expect"] != "rejected"
        )
        assert stats.admission_rejected == sum(
            1 for c in cases if c["expect"] == "rejected"
        )

    def test_legacy_traffic_untouched_by_default(self, neighbor_solver):
        """Clean traffic gets the same answers under the strict
        default, and every request is counted as admitted."""
        batch = [path_structure(5), path_structure(3)]
        with SolverService(workers=1) as service:
            assert service.admission is None  # admit's default: strict
            handle = service.register(neighbor_solver)
            results = handle.solve_many(batch)
            stats = service.stats
        assert results == [frozenset(s.domain) for s in batch]
        assert stats.admitted == 2
        assert stats.repaired == 0
        assert stats.degraded == 0
        assert stats.admission_rejected == 0


class TestSolverAdmissionDefault:
    """A request's policy resolves as the request's own, then the
    service's, then ``"strict"``: a solver carries no policy, so equal
    programs share one handle and the service's policy is never
    shadowed by a per-solver setting."""

    @staticmethod
    def fresh_solver():
        return CourcelleSolver(
            HAS_NEIGHBOR,
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )

    def test_one_program_one_handle(self, neighbor_solver):
        k5 = clique(5)
        with SolverService(workers=1, admission="degrade") as service:
            first = service.register(neighbor_solver)
            again = service.register(self.fresh_solver())
            assert again is first
            # the service's policy applies to every registered solver
            assert again.submit(k5).result(timeout=120) == mso_query(
                k5, HAS_NEIGHBOR, "x"
            )
            assert service.stats.degraded == 1

    def test_handle_solve_many_resolves_rejections_per_slot(self):
        batch = [path_structure(5), clique(5), path_structure(3)]
        with SolverService(workers=1) as service:
            handle = service.register(self.fresh_solver())
            results = handle.solve_many(batch, timeout=120)
            stats = service.stats
        assert results[0] == frozenset(batch[0].domain)
        assert isinstance(results[1], AdmissionRejected)
        assert results[2] == frozenset(batch[2].domain)
        assert stats.admitted == 2
        assert stats.admission_rejected == 1
