"""The admission ladder itself: verify -> rebuild -> degrade -> reject,
arbitrated by policy."""

import pytest

from repro.admission import POLICIES, admit, verify_decomposition
from repro.errors import AdmissionRejected
from repro.structures import GRAPH_SIGNATURE, Signature, Structure
from repro.treewidth import decompose_structure

from .test_verify import corrupt_td, path_structure


def clique(n):
    edges = [(a, b) for a in range(n) for b in range(n) if a != b]
    return Structure(GRAPH_SIGNATURE, range(n), {"e": edges})


class TestPolicyValidation:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            admit(
                path_structure(),
                signature=GRAPH_SIGNATURE,
                width=1,
                policy="lenient",
            )

    def test_policies_are_ordered_by_leniency(self):
        assert POLICIES == ("strict", "repair", "degrade")


class TestCleanTraffic:
    def test_clean_with_td_is_admitted_untouched(self):
        s = path_structure(5)
        td = decompose_structure(s)
        result = admit(s, signature=GRAPH_SIGNATURE, width=1, td=td)
        assert result.action == "solve"
        assert result.td is td
        assert result.structure is s
        assert result.report.verdict == "admitted"
        assert result.report.violations == ()
        assert result.report.repairs == ()

    def test_clean_without_td_decomposes(self):
        s = path_structure(5)
        result = admit(s, signature=GRAPH_SIGNATURE, width=1)
        assert result.action == "solve"
        assert result.td is not None and result.td.width <= 1
        # clean td-less traffic is not "repaired": nothing was wrong
        assert result.report.verdict == "admitted"
        assert result.report.repairs == ()

    def test_small_structure_goes_direct(self):
        s = Structure(GRAPH_SIGNATURE, [0], {"e": []})
        result = admit(s, signature=GRAPH_SIGNATURE, width=2)
        assert result.action == "direct"
        assert result.td is None
        assert result.report.verdict == "admitted"


class TestStrict:
    def test_strict_rejects_any_structure_violation(self):
        sig = Signature.of(e=2, colour=1)
        s = Structure(sig, range(3), {"e": [(0, 1), (1, 0)], "colour": [(0,)]})
        with pytest.raises(AdmissionRejected) as err:
            admit(s, signature=GRAPH_SIGNATURE, width=1, policy="strict")
        report = err.value.report
        assert report.verdict == "rejected"
        assert report.fingerprint is not None
        assert "unknown-predicate" in {v.code for v in report.violations}

    def test_strict_rejects_any_decomposition_violation(self):
        s = path_structure(4)
        td = corrupt_td(
            {0: [0, 1, 99], 1: [1, 2], 2: [2, 3]},
            {0: [1], 1: [2], 2: []},
        )
        with pytest.raises(AdmissionRejected) as err:
            admit(s, signature=GRAPH_SIGNATURE, width=1, td=td, policy="strict")
        assert "alien-element" in {v.code for v in err.value.report.violations}

    def test_strict_admits_clean(self):
        s = path_structure(4)
        td = decompose_structure(s)
        result = admit(
            s, signature=GRAPH_SIGNATURE, width=1, td=td, policy="strict"
        )
        assert result.report.verdict == "admitted"


class TestRepair:
    def test_in_place_repair(self):
        s = path_structure(4)
        td = corrupt_td(
            {0: [0, 1, 99], 1: [1, 2], 2: [2, 3]},
            {0: [1], 1: [2], 2: []},
        )
        # the alien element 99 sends the decomposition to the rebuild
        result = admit(s, signature=GRAPH_SIGNATURE, width=1, td=td)
        assert result.action == "solve"
        assert result.report.verdict == "repaired"
        assert result.report.repairs == ("redecomposed:min_fill",)
        assert result.report.redecomposed
        assert verify_decomposition(result.td, s, 1) == []

    def test_redecompose_on_corrupt_tree(self):
        s = path_structure(4)
        td = corrupt_td(  # a cycle: a corrupt tree
            {0: [0, 1], 1: [1, 2], 2: [2, 3]},
            {0: [1], 1: [2], 2: [0]},
        )
        result = admit(s, signature=GRAPH_SIGNATURE, width=1, td=td)
        assert result.action == "solve"
        assert result.report.verdict == "repaired"
        assert result.report.redecomposed
        assert any(
            r.startswith("redecomposed:") for r in result.report.repairs
        )

    def test_structure_coercion_then_solve(self):
        sig = Signature.of(e=2, colour=1)
        s = Structure(
            sig,
            range(4),
            {"e": [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
             "colour": [(0,)]},
        )
        result = admit(s, signature=GRAPH_SIGNATURE, width=1)
        assert result.action == "solve"
        assert result.structure.signature == GRAPH_SIGNATURE
        assert "restricted-structure-to-signature" in result.report.repairs
        assert result.report.verdict == "repaired"

    def test_repair_rejects_over_envelope(self):
        s = clique(4)
        with pytest.raises(AdmissionRejected) as err:
            admit(s, signature=GRAPH_SIGNATURE, width=1, policy="repair")
        report = err.value.report
        assert report.verdict == "rejected"
        assert any(v.code == "width-exceeded" for v in report.residual)

    def test_repair_rejects_fatal_structure(self):
        s = Structure(Signature.of(e=3), range(3), {"e": [(0, 1, 2)]})
        with pytest.raises(AdmissionRejected) as err:
            admit(s, signature=GRAPH_SIGNATURE, width=1, policy="repair")
        assert "arity-mismatch" in {
            v.code for v in err.value.report.violations
        }


class TestDegrade:
    def test_over_envelope_degrades(self):
        s = clique(4)
        result = admit(s, signature=GRAPH_SIGNATURE, width=1, policy="degrade")
        assert result.action == "degrade"
        assert result.td is None
        assert result.report.verdict == "degraded"
        assert result.report.degrade_reason is not None
        assert "exceeds the compiled width" in result.report.degrade_reason
        assert result.meter is not None

    def test_degrade_still_rejects_fatal_structure(self):
        s = Structure(Signature.of(e=3), range(3), {"e": [(0, 1, 2)]})
        with pytest.raises(AdmissionRejected):
            admit(s, signature=GRAPH_SIGNATURE, width=1, policy="degrade")


class TestReport:
    def test_to_dict_round_trips_json(self):
        import json

        s = clique(4)
        result = admit(s, signature=GRAPH_SIGNATURE, width=1, policy="degrade")
        payload = json.loads(json.dumps(result.report.to_dict()))
        assert payload["verdict"] == "degraded"
        assert payload["width_limit"] == 1
        assert payload["policy"] == "degrade"

    def test_rejection_message_names_policy_and_fingerprint(self):
        s = clique(4)
        with pytest.raises(AdmissionRejected) as err:
            admit(s, signature=GRAPH_SIGNATURE, width=1, policy="strict")
        msg = str(err.value)
        assert "policy strict" in msg
        assert err.value.report.fingerprint in msg
