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

    def test_no_policy_is_strict(self):
        """Without a policy admit refuses what ``query`` refuses: the
        default is ``"strict"``, as on every solver and service route."""
        sig = Signature.of(e=2, colour=1)
        s = Structure(sig, range(3), {"e": [(0, 1), (1, 0)], "colour": [(0,)]})
        with pytest.raises(AdmissionRejected) as err:
            admit(s, signature=GRAPH_SIGNATURE, width=1)
        assert err.value.report.policy == "strict"
        assert admit(
            s, signature=GRAPH_SIGNATURE, width=1, policy="repair"
        ).report.verdict == "repaired"


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
        result = admit(
            s, signature=GRAPH_SIGNATURE, width=1, td=td, policy="repair"
        )
        assert result.action == "solve"
        assert result.report.verdict == "repaired"
        assert result.report.repairs == ("redecomposed:min_degree",)
        assert result.report.redecomposed
        assert verify_decomposition(result.td, s, 1) == []

    def test_redecompose_on_corrupt_tree(self):
        s = path_structure(4)
        td = corrupt_td(  # a cycle: a corrupt tree
            {0: [0, 1], 1: [1, 2], 2: [2, 3]},
            {0: [1], 1: [2], 2: [0]},
        )
        result = admit(
            s, signature=GRAPH_SIGNATURE, width=1, td=td, policy="repair"
        )
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
        result = admit(
            s, signature=GRAPH_SIGNATURE, width=1, policy="repair"
        )
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

    def test_spent_budget_degrades_with_no_decomposition(self):
        import time

        from repro.datalog.budget import SolveBudget

        meter = SolveBudget(max_seconds=1e-6).start()
        time.sleep(0.01)  # spent before the rebuild starts
        result = admit(
            path_structure(5),
            signature=GRAPH_SIGNATURE,
            width=1,
            policy="degrade",
            budget=meter,
        )
        assert result.action == "degrade"
        (violation,) = result.report.residual
        assert violation.code == "no-decomposition"
        assert "admission budget ran out" in violation.message
        assert "admission budget ran out" in result.report.degrade_reason

    def test_failing_strategies_are_named_not_blamed_on_the_budget(
        self, monkeypatch
    ):
        from repro import admission

        def broken(ids):
            raise RuntimeError("strategy failed")

        monkeypatch.setattr(admission, "min_degree_decomposition", broken)
        result = admit(
            path_structure(5), signature=GRAPH_SIGNATURE, width=1,
            policy="degrade",
        )
        reason = result.report.degrade_reason
        assert "RuntimeError: strategy failed" in reason
        assert "budget" not in reason.split(";")[0]
        with pytest.raises(AdmissionRejected) as err:
            admit(path_structure(5), signature=GRAPH_SIGNATURE, width=1,
                  policy="repair")
        assert [v.code for v in err.value.report.residual] == [
            "no-decomposition"
        ]
        assert "width -1" not in str(err.value)

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
