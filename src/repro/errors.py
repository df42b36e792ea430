"""Typed exception taxonomy for untrusted-input admission.

The historical error surface of the stack is bare ``ValueError``\\ s with
first-fail messages (``treewidth/decomposition.py``'s validators).  The
admission layer (:mod:`repro.admission`) needs more: *every* violation
collected, machine-readable, and an error type a service can switch on
without parsing strings.

Design constraints:

* **ValueError compatibility.**  Ten PRs of call sites (and the test
  suite) catch ``ValueError`` around validation; every class here
  subclasses it so existing handlers keep working.
* **Structured first.**  A :class:`Violation` is a frozen record --
  ``code`` (stable machine identifier), ``message`` (human text,
  preserving the legacy substrings callers match on), ``subject`` (the
  offending elements/nodes/predicates) and ``repairable`` (whether
  the ladder can fix it without rejecting: a structure defect that
  :func:`repro.admission.coerce_structure` drops, or a bag-content
  defect of a decomposition, which :func:`repro.admission.redecompose`
  clears by rebuilding the decomposition from the structure).
* **Picklable.**  These exceptions cross the solver service's worker
  pipes; each defines ``__reduce__`` so a rejection raised in a worker
  arrives intact (violations, report and all) on the caller's future.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AdmissionRejected",
    "InvalidDecomposition",
    "InvalidStructure",
    "Violation",
    "ViolationError",
]


@dataclass(frozen=True)
class Violation:
    """One machine-readable defect found during admission verification.

    ``code`` is a stable identifier (``"element-uncovered"``,
    ``"arity-mismatch"``, ...); ``subject`` pins the offending values
    (elements, tree nodes, predicate names) as a tuple so reports stay
    hashable and picklable; ``repairable`` marks defects the ladder
    fixes without rejecting.  On a structure it decides whether rung 1
    may restrict the structure to the signature (an unknown or missing
    predicate) or must reject (an arity or domain-closure break).  On a
    decomposition it marks the Section 2.2 axiom defects (alien,
    uncovered, disconnected); a corrupt tree, a width overshoot or a
    structure no strategy decomposes (``no-decomposition``) is not
    repairable.  No decomposition is patched: under ``"repair"`` and
    ``"degrade"`` every failing one is rebuilt from the structure, and
    ``repairable`` only decides which violations a rejection's report
    lists as ``residual``.
    """

    code: str
    message: str
    subject: tuple = ()
    repairable: bool = False

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "subject": [repr(s) for s in self.subject],
            "repairable": self.repairable,
        }


def summarize_violations(violations) -> str:
    """One line per violation, joined -- the human face of a report."""
    return "; ".join(v.message for v in violations)


class ViolationError(ValueError):
    """A ``ValueError`` carrying the full list of structured violations.

    ``str(exc)`` keeps every individual message (so legacy
    ``pytest.raises(ValueError, match=...)`` substring pins keep
    matching), while ``exc.violations`` gives callers the records.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations: tuple[Violation, ...] = tuple(violations)

    @classmethod
    def from_violations(cls, violations, prefix: str | None = None):
        violations = tuple(violations)
        message = summarize_violations(violations)
        if prefix:
            message = f"{prefix}: {message}" if message else prefix
        return cls(message, violations)

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "", self.violations))


class InvalidStructure(ViolationError):
    """The structure itself fails verification against the expected
    signature: unknown predicates, arity mismatches, domain-closure
    breaks, or an object too corrupt to read at all."""


class InvalidDecomposition(ViolationError):
    """The supplied tree decomposition violates the Section 2.2 axioms
    (or the Definition 2.3 / Section 5 normal-form shape)."""


class AdmissionRejected(ViolationError):
    """The admission ladder ran out of rungs: the request cannot be
    served under its policy.

    ``report`` is the full :class:`repro.admission.AdmissionReport` --
    every violation found, every repair attempted, and why the ladder
    stopped (``report.verdict == "rejected"``).  Raised by
    :func:`repro.admission.admit` /
    :meth:`repro.core.CourcelleSolver.solve_admitted`; the solver
    service quarantines the report's fingerprint so resubmissions
    fail fast."""

    def __init__(self, message: str, violations=(), *, report=None):
        super().__init__(message, violations)
        self.report = report

    def __reduce__(self):
        return (
            _rebuild_admission_rejected,
            (self.args[0] if self.args else "", self.violations, self.report),
        )


def _rebuild_admission_rejected(message, violations, report):
    return AdmissionRejected(message, violations, report=report)
