"""The typed exception taxonomy (repro.errors)."""

import pickle

import pytest

from repro.errors import (
    AdmissionRejected,
    InvalidDecomposition,
    InvalidStructure,
    Violation,
    ViolationError,
    summarize_violations,
)


class TestViolation:
    def test_frozen_record(self):
        v = Violation("alien-element", "bags mention non-vertices: [9]")
        with pytest.raises(AttributeError):
            v.code = "other"

    def test_to_dict_is_json_shaped(self):
        v = Violation("connectedness", "connectedness violated for 3", subject=(3,))
        d = v.to_dict()
        assert d["code"] == "connectedness"
        assert d["subject"] == ["3"]
        assert d["repairable"] is False

    def test_summarize_joins_all_messages(self):
        vs = [Violation("a", "first"), Violation("b", "second")]
        assert summarize_violations(vs) == "first; second"


class TestValueErrorCompatibility:
    """Every admission exception must keep satisfying legacy
    ``except ValueError`` handlers and message-substring pins."""

    def test_hierarchy(self):
        assert issubclass(ViolationError, ValueError)
        assert issubclass(InvalidStructure, ViolationError)
        assert issubclass(InvalidDecomposition, ViolationError)
        assert issubclass(AdmissionRejected, ViolationError)

    def test_from_violations_joins_every_message(self):
        vs = [
            Violation("element-uncovered", "vertices never covered: [2]"),
            Violation("connectedness", "connectedness violated for 1"),
        ]
        exc = InvalidDecomposition.from_violations(vs)
        assert "never covered" in str(exc)
        assert "connectedness" in str(exc)
        assert exc.violations == tuple(vs)

    def test_catchable_as_value_error(self):
        with pytest.raises(ValueError, match="never covered"):
            raise InvalidDecomposition.from_violations(
                [Violation("element-uncovered", "vertices never covered: [2]")]
            )


class TestPickling:
    """Exceptions cross the solver service's worker pipes; every class
    must survive a pickle round trip with its payload intact."""

    def test_violation_error(self):
        exc = ViolationError("boom", [Violation("x", "boom")])
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is ViolationError
        assert str(back) == "boom"
        assert back.violations == exc.violations

    def test_subclasses_preserve_type(self):
        for cls in (InvalidStructure, InvalidDecomposition):
            back = pickle.loads(pickle.dumps(cls("bad", ())))
            assert type(back) is cls

    def test_admission_rejected_carries_report(self):
        from repro.admission import AdmissionReport

        report = AdmissionReport(policy="strict", verdict="rejected")
        exc = AdmissionRejected("no", (), report=report)
        back = pickle.loads(pickle.dumps(exc))
        assert back.report.policy == "strict"
        assert back.report.verdict == "rejected"
