"""Admission wired through CourcelleSolver.decide/query/solve_many:
every request goes through the ladder, under ``"strict"`` unless the
call names another policy."""

import pickle

import pytest

from repro.errors import AdmissionRejected
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
    """What a caller saw before every request went through admission
    holds under the ``"strict"`` default: clean input is answered, and
    an over-width decomposition is refused with a ``ValueError`` that
    says it ``exceeds`` the width -- now the typed
    ``AdmissionRejected`` carrying the report."""

    def test_clean_query(self, neighbor_solver):
        s = path_structure(5)
        assert neighbor_solver.query(s) == frozenset(s.domain)

    def test_overwidth_still_raises_value_error(self, neighbor_solver):
        wide = decompose_structure(clique(4))
        with pytest.raises(ValueError, match="exceeds") as err:
            neighbor_solver.query(path_structure(4), wide)
        assert isinstance(err.value, AdmissionRejected)

    def test_width_exceeded_carries_fingerprint(self, neighbor_solver):
        from repro.structures import structure_fingerprint

        s = path_structure(4)
        wide = decompose_structure(clique(4))
        with pytest.raises(AdmissionRejected) as err:
            neighbor_solver.query(s, wide)
        report = err.value.report
        assert report.policy == "strict"
        assert report.verdict == "rejected"
        assert report.width_limit == 1
        (violation,) = [
            v for v in err.value.violations if v.code == "width-exceeded"
        ]
        assert violation.subject == (wide.width, 1)
        assert report.fingerprint == structure_fingerprint(s)
        assert report.fingerprint in str(err.value)


class TestStrictDefault:
    """Inputs the trusting route answered silently are refused."""

    def test_foreign_signature_is_rejected_not_answered(
        self, neighbor_solver
    ):
        from repro.structures import Signature

        s = Structure(
            Signature({"edge": 2}), range(4), {"edge": [(0, 1), (1, 2)]}
        )
        # direct MSO cannot evaluate it either: it has no ``e``
        with pytest.raises(KeyError):
            mso_query(s, HAS_NEIGHBOR, "x")
        with pytest.raises(AdmissionRejected) as err:
            neighbor_solver.query(s)
        codes = {v.code for v in err.value.violations}
        assert codes == {"unknown-predicate", "missing-predicate"}
        assert err.value.report.verdict == "rejected"

    def test_extra_predicate_rejected_by_default_repaired_on_request(
        self, neighbor_solver
    ):
        from repro.structures import Signature

        s = Structure(
            Signature({"e": 2, "p": 1}),
            range(4),
            {"e": [(0, 1), (1, 0), (1, 2), (2, 1)], "p": [(3,)]},
        )
        with pytest.raises(AdmissionRejected) as err:
            neighbor_solver.query(s)
        assert [v.code for v in err.value.violations] == ["unknown-predicate"]
        answer, report = neighbor_solver.solve_admitted(s, policy="repair")
        assert answer == frozenset({0, 1, 2})
        assert report.verdict == "repaired"
        assert neighbor_solver.query(s, admission="repair") == answer

    def test_overwidth_structure_is_rejected(self, neighbor_solver):
        with pytest.raises(AdmissionRejected, match="exceeds") as err:
            neighbor_solver.query(clique(4))
        assert [v.code for v in err.value.report.residual] == [
            "width-exceeded"
        ]


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

    def test_strict_default_resolves_rejections_per_slot(
        self, neighbor_solver
    ):
        batch = self.mixed_batch()
        results = neighbor_solver.solve_many(batch)
        assert results[0] == frozenset(batch[0].domain)
        assert isinstance(results[1], AdmissionRejected)
        assert results[1].report.policy == "strict"
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
    def test_pickle_carries_admission(self, neighbor_solver):
        """A pickled solver (the service handoff) admits as the
        original does: strictly by default, per call otherwise."""
        back = pickle.loads(pickle.dumps(neighbor_solver))
        s = clique(4)
        with pytest.raises(AdmissionRejected):
            back.query(s)
        assert back.query(s, admission="degrade") == mso_query(
            s, HAS_NEIGHBOR, "x"
        )
