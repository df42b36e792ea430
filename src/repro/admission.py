"""Untrusted-input admission control: verify, rebuild, degrade, reject.

Theorem 4.4's linear-time guarantee presupposes that every structure
arrives well-formed *and* with a valid width-<=k tree decomposition --
a precondition production traffic violates constantly.  This module is
the one front door of every solve: ``CourcelleSolver.decide``,
``query`` and ``solve_many`` and the service's workers all reach
:func:`admit` before the Theorem 4.4 pipeline sees the input.  The
policy ladder:

1. **Verify.**  :func:`verify_structure` checks the structure against
   the compiled signature (unknown predicates, arity mismatches,
   domain closure -- and survives arbitrarily corrupt duck-typed
   objects); :func:`verify_decomposition` checks tree integrity
   (cycles, orphans, missing bags -- with its own cycle-safe traversal,
   since a corrupted ``RootedTree`` can make ``preorder()`` spin
   forever) and then the Section 2.2 axioms, collecting **all**
   violations as structured :class:`repro.errors.Violation` records.
2. **Rebuild.**  A decomposition that fails verification is never
   patched: :func:`redecompose` discards it and builds one from the
   structure with one min-degree elimination
   (:func:`repro.treewidth.heuristics.min_degree_decomposition`) under the
   request's budget.  A structure that arrives without a decomposition
   takes the same route, under every policy.  When no decomposition is
   built the request gets a ``no-decomposition`` violation naming why
   (the build's error or the spent budget).  At the widths that
   compile (1 and 2) min-degree reaches the width whenever the
   structure has it (see :func:`admit`); Gottlob--Pichler--Wei
   likewise take the decomposition from the structure, never from the
   caller.
3. **Degrade.**  When the width still exceeds the compiled envelope,
   policy ``"degrade"`` falls back to direct MSO evaluation
   (:mod:`repro.mso.eval`) under a :class:`repro.datalog.SolveBudget`
   (bridged by :class:`MeterBudget`); only then is the request rejected
   with a typed :class:`repro.errors.AdmissionRejected` carrying the
   full :class:`AdmissionReport`.

:func:`admit` implements the ladder.  ``CourcelleSolver`` and
``SolverService`` resolve a request's policy as the call's
``admission=``, else the service's, else ``"strict"``; ``"strict"``
serves exactly the inputs that need no repair: a structure over the
compiled signature, with a valid decomposition within the width or
one the structure decomposes into within it.  The module also hosts
the malformed-input corpus (de)serialization used by ``tests/data/``
and the admission benchmark.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .datalog.budget import BudgetExceeded, BudgetMeter, SolveBudget, as_meter
from .errors import (
    AdmissionRejected,
    InvalidDecomposition,
    Violation,
    summarize_violations,
)
from .mso.eval import Budget as _EvalBudget
from .structures.signature import Signature
from .structures.structure import Fact, Structure, structure_fingerprint
from .treewidth.decomposition import (
    ElementIds,
    IdDecomposition,
    RootedTree,
    TreeDecomposition,
)
from .treewidth.heuristics import min_degree_decomposition

__all__ = [
    "DEFAULT_ADMISSION_BUDGET",
    "POLICIES",
    "AdmissionReport",
    "AdmissionResult",
    "MeterBudget",
    "RawStructure",
    "admit",
    "coerce_structure",
    "decomposition_from_spec",
    "load_corpus",
    "load_corpus_case",
    "redecompose",
    "structure_from_spec",
    "tree_violations",
    "verify_decomposition",
    "verify_structure",
]

#: the admission policies, in increasing order of leniency
POLICIES = ("strict", "repair", "degrade")

#: bounds the degraded direct-MSO evaluation (exponential in the
#: formula) when the caller supplies no budget; generous, because it is
#: the backstop against pathological inputs, not a latency target --
#: services pass their own ``SolveBudget``.  The rebuild is polynomial
#: and runs unbounded without a caller budget, as the compiled solve
#: does.
DEFAULT_ADMISSION_BUDGET = SolveBudget(max_seconds=30.0)


@dataclass
class AdmissionReport:
    """The machine-readable outcome of one trip through the ladder.

    ``verdict`` is ``"admitted"`` (input was clean), ``"repaired"``
    (violations found and fixed -- the structure restricted to the
    signature, the decomposition rebuilt), ``"degraded"`` (served by
    direct MSO evaluation outside the compiled envelope) or
    ``"rejected"``.  ``violations`` is everything verification found,
    ``repairs`` what the ladder did about it
    (``restricted-structure-to-signature``, ``redecomposed:min_degree``),
    ``residual`` what was still standing when the ladder stopped.
    """

    policy: str
    verdict: str = "admitted"
    fingerprint: str | None = None
    violations: tuple[Violation, ...] = ()
    repairs: tuple[str, ...] = ()
    residual: tuple[Violation, ...] = ()
    #: width of the decomposition actually used (None when degraded)
    width: int | None = None
    #: the compiled envelope the input was admitted against
    width_limit: int | None = None
    #: the supplied decomposition was discarded and rebuilt from scratch
    redecomposed: bool = False
    degrade_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "verdict": self.verdict,
            "fingerprint": self.fingerprint,
            "violations": [v.to_dict() for v in self.violations],
            "repairs": list(self.repairs),
            "residual": [v.to_dict() for v in self.residual],
            "width": self.width,
            "width_limit": self.width_limit,
            "redecomposed": self.redecomposed,
            "degrade_reason": self.degrade_reason,
        }


class AdmissionResult:
    """What :func:`admit` hands back to the solver.

    ``action`` tells the solver how to serve the request: ``"solve"``
    runs the compiled Theorem 4.4 pipeline on the decomposition;
    ``"direct"`` is the O(1) small-structure escape (|dom| < w + 1,
    evaluate directly); ``"degrade"`` is the budgeted direct-MSO
    fallback for structures outside the width envelope.  ``structure``
    is the (possibly coerced) structure to serve; ``meter`` the armed
    budget spanning the rest of the request (``None`` when the caller
    gave none, except on the degrade route, which always carries one).

    A ``"solve"`` result carries the structure's element ids (``ids``,
    an :class:`~repro.treewidth.decomposition.ElementIds`) and the
    admitted decomposition over them (``decomposition``), which the
    solver normalizes and loads without leaving the id space.  ``td``
    is that decomposition at the value level: the caller's own when it
    passed verification, else decoded on first access.
    """

    __slots__ = ("report", "structure", "action", "meter", "ids", "decomposition", "_td")

    def __init__(
        self,
        report: AdmissionReport,
        structure: Structure,
        td: TreeDecomposition | None,
        action: str,
        meter: BudgetMeter | None = None,
        ids: ElementIds | None = None,
        decomposition: IdDecomposition | None = None,
    ):
        self.report = report
        self.structure = structure
        self.action = action
        self.meter = meter
        self.ids = ids
        self.decomposition = decomposition
        self._td = td

    @property
    def td(self) -> TreeDecomposition | None:
        if self._td is None and self.decomposition is not None:
            self._td = self.decomposition.decoded(self.ids.values)
        return self._td


class MeterBudget(_EvalBudget):
    """Bridges :mod:`repro.mso.eval`'s step budget onto a
    :class:`repro.datalog.BudgetMeter`, so the exponential degrade path
    honours the same ``SolveBudget`` (wall clock, memory) as the rest
    of the serving stack.  Checks the meter every ``stride`` formula
    steps -- cooperative, like every other budget checkpoint."""

    def __init__(self, meter: BudgetMeter, stride: int = 1024):
        super().__init__(limit=None)
        self._meter = meter
        self._stride = stride

    def tick(self) -> None:
        self.steps += 1
        if self.steps % self._stride == 0:
            self._meter.check()


# ----------------------------------------------------------------------
# Verify
# ----------------------------------------------------------------------


def verify_structure(structure, signature: Signature) -> list[Violation]:
    """All structure-vs-signature violations (no raise).

    For genuine :class:`Structure` instances whose signature matches
    the compiled one this is two comparisons -- the clean-traffic fast
    path; the constructor already enforced arity and domain closure.
    Signature mismatches decompose into per-predicate violations
    (``unknown-predicate`` and ``missing-predicate`` are repairable by
    :func:`coerce_structure`; ``arity-mismatch`` is fatal).  Arbitrary
    duck-typed objects get the full distrustful scan, and an object too
    corrupt to read yields a single fatal ``unreadable-structure``
    violation instead of an escaped exception.
    """
    if isinstance(structure, Structure) and structure.signature == signature:
        return []
    violations: list[Violation] = []
    trusted = isinstance(structure, Structure)
    try:
        own = structure.signature
        own_names = list(own)
        for name in own_names:
            if name not in signature:
                violations.append(
                    Violation(
                        "unknown-predicate",
                        f"unknown predicate {name!r}",
                        subject=(name,),
                        repairable=True,
                    )
                )
            elif signature.arity(name) != own.arity(name):
                violations.append(
                    Violation(
                        "arity-mismatch",
                        f"{name} expects arity {signature.arity(name)}, "
                        f"declared with arity {own.arity(name)}",
                        subject=(name,),
                    )
                )
        for name in signature:
            if name not in own:
                violations.append(
                    Violation(
                        "missing-predicate",
                        f"predicate {name!r} missing from the structure's "
                        "signature (treated as empty)",
                        subject=(name,),
                        repairable=True,
                    )
                )
        if not trusted:
            # a duck-typed structure's tuples earn no trust: re-check
            # arity and domain closure the way the constructor would
            domain = frozenset(structure.domain)
            for name in own_names:
                arity = own.arity(name)
                for tup in structure.relation(name):
                    tup = tuple(tup)
                    if len(tup) != arity:
                        violations.append(
                            Violation(
                                "arity-mismatch",
                                f"{name} expects arity {arity}, got {tup!r}",
                                subject=(name, tup),
                            )
                        )
                        continue
                    loose = [x for x in tup if x not in domain]
                    if loose:
                        violations.append(
                            Violation(
                                "domain-closure",
                                f"element {loose[0]!r} of {name}{tup!r} is "
                                "not in the domain",
                                subject=(name, tup),
                            )
                        )
    except Exception as exc:
        return [
            Violation(
                "unreadable-structure",
                "structure cannot be read: "
                f"{type(exc).__name__}: {exc}",
            )
        ]
    return violations


def coerce_structure(structure, signature: Signature, violations) -> Structure | None:
    """Rebuild ``structure`` as a genuine :class:`Structure` over the
    compiled ``signature``, dropping unknown predicates -- the repair
    for repairable structure violations.  Returns ``None`` when any
    violation is fatal or the rebuild itself fails."""
    if any(not v.repairable for v in violations):
        return None
    try:
        relations = {
            name: structure.relation(name)
            for name in signature
            if name in structure.signature
        }
        return Structure(signature, structure.domain, relations)
    except Exception:
        return None


def tree_violations(td) -> list[Violation]:
    """Integrity violations of the decomposition's rooted tree.

    Uses its own seen-set traversal (never ``preorder()``): a corrupted
    tree can contain cycles, and the admission layer must diagnose such
    a tree, not hang on it.  All integrity violations are
    non-repairable -- a corrupt tree is re-decomposed, not patched.
    """
    violations: list[Violation] = []
    tree = td.tree
    try:
        children = tree._children
        parent = tree._parent
        bags = td.bags
        root = tree.root
    except AttributeError as exc:
        return [
            Violation(
                "tree-corrupt",
                f"decomposition cannot be read: {exc}",
            )
        ]
    if root not in children or root not in parent:
        return [
            Violation(
                "tree-corrupt",
                f"root {root!r} is not a tree node",
                subject=(root,),
            )
        ]
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in children.get(node, ()):
            if child in seen:
                violations.append(
                    Violation(
                        "tree-corrupt",
                        f"edge {node!r} -> {child!r} creates a cycle",
                        subject=(node, child),
                    )
                )
                continue
            if child not in children or child not in parent:
                violations.append(
                    Violation(
                        "tree-corrupt",
                        f"child {child!r} of {node!r} is not a tree node",
                        subject=(node, child),
                    )
                )
                continue
            if parent.get(child) != node:
                violations.append(
                    Violation(
                        "tree-corrupt",
                        f"node {child!r} records parent "
                        f"{parent.get(child)!r} but is a child of {node!r}",
                        subject=(node, child),
                    )
                )
            seen.add(child)
            stack.append(child)
    unreachable = sorted(set(bags) - seen, key=repr)
    if unreachable:
        violations.append(
            Violation(
                "tree-corrupt",
                f"nodes {unreachable} are unreachable from the root",
                subject=tuple(unreachable),
            )
        )
    bagless = sorted(seen - set(bags), key=repr)
    if bagless:
        violations.append(
            Violation(
                "tree-corrupt",
                f"nodes {bagless} have no bag",
                subject=tuple(bagless),
            )
        )
    return violations


def verify_decomposition(
    td, structure: Structure, width_limit: int | None = None
) -> list[Violation]:
    """All decomposition violations: tree integrity, then the Section
    2.2 axioms, then the width envelope.  Axiom checks are skipped on a
    corrupt tree (they would be meaningless -- and unsafe)."""
    return _verify(td, ElementIds.of_structure(structure), width_limit)[0]


def _verify(
    td, ids: ElementIds, width_limit: int | None
) -> tuple[list[Violation], IdDecomposition | None]:
    """:func:`verify_decomposition` against an interned structure,
    with ``td`` over its ids (``None`` on a corrupt tree)."""
    violations = tree_violations(td)
    if violations:
        return violations, None
    dec = ids.decomposition(td)
    violations = ids.violations(dec)
    if width_limit is not None and dec.width > width_limit:
        violations.append(_width_violation(dec.width, width_limit))
    return violations, dec


def _width_violation(width: int, limit: int) -> Violation:
    # "exceeds" is the historical message pin of the solver's refusal
    return Violation(
        "width-exceeded",
        f"decomposition width {width} exceeds the compiled width {limit}",
        subject=(width, limit),
    )


# ----------------------------------------------------------------------
# Rebuild
# ----------------------------------------------------------------------


def redecompose(
    structure: Structure, meter: BudgetMeter | None = None
) -> tuple[TreeDecomposition | None, str]:
    """Build a decomposition from scratch: one min-degree elimination
    on the Gaifman graph.

    Min-degree is exact at treewidth <= 2 (see :func:`admit`), so at
    the widths that compile a rebuild wider than the envelope proves
    the structure is too.  The budget is checked once, before the
    build.  Returns the decomposition -- possibly still over the
    envelope, which the degrade rung then arbitrates -- and
    ``"min_degree"``.  When nothing was built it returns ``None`` and
    why: the budget ran out first, the build raised (its error is
    named), or the rebuilt decomposition failed its check.  The result
    is checked against the structure once, since the solver trusts
    what admission hands it.
    """
    ids = ElementIds.of_structure(structure)
    dec, method = _rebuild(ids, meter)
    return (dec.decoded(ids.values) if dec is not None else None), method


def _rebuild(
    ids: ElementIds, meter: BudgetMeter | None
) -> tuple[IdDecomposition | None, str]:
    """:func:`redecompose` over an interned structure, in its ids."""
    if meter is not None:
        try:
            meter.check()
        except BudgetExceeded as exc:
            return None, f"the admission budget ran out ({exc})"
    try:
        dec = min_degree_decomposition(ids)
    except Exception as exc:  # admission lets no exception escape
        return None, (
            f"the min-degree rebuild failed with {type(exc).__name__}: {exc}"
        )
    violations = ids.violations(dec)
    if violations:
        return None, (
            "the rebuilt decomposition is invalid "
            f"({InvalidDecomposition.from_violations(violations)})"
        )
    return dec, "min_degree"


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------


def admit(
    structure,
    *,
    signature: Signature,
    width: int,
    td=None,
    policy: str | None = None,
    budget=None,
) -> AdmissionResult:
    """Run one request through the admission ladder.

    Verifies the structure against ``signature`` and the (optional)
    decomposition against the Section 2.2 axioms and the ``width``
    envelope; restricts the structure to the signature and rebuilds a
    failing decomposition where the ``policy`` allows; returns an
    :class:`AdmissionResult` telling the solver how to serve the
    request (``solve`` / ``direct`` / ``degrade``).  ``policy`` is one
    of :data:`POLICIES`; ``None`` means ``"strict"``, the policy of
    every request that names none.  Raises
    :class:`repro.errors.AdmissionRejected` -- carrying the full
    :class:`AdmissionReport` -- when the ladder runs out of rungs:
    immediately on any violation under ``"strict"``, when the rebuild
    stays over the width under ``"repair"``, and only when even the
    degraded direct evaluation is unavailable under ``"degrade"``
    (the degrade *budget* rung lives in the solver, which owns the
    formula).

    A supplied decomposition that fails verification is replaced by
    :func:`redecompose`; ``report.repairs`` then ends with
    ``redecomposed:min_degree``.  Nothing is lost against a patch at
    the widths a program compiles at (1 and 2): min-degree is exact
    there -- a graph of treewidth <= 2 always has a vertex of degree
    <= 2, and eliminating it leaves a minor -- so a structure of
    treewidth <= ``width`` is always rebuilt within ``width``, and a
    wider rebuild proves the treewidth exceeds it.  From width 3 on the
    order is not exact, and a structure of treewidth w >= 3 can be
    rebuilt over the envelope and then degraded or rejected; no
    compiled program reaches that case today.

    ``budget`` (a ``SolveBudget`` or armed ``BudgetMeter``) spans the
    admission work itself -- the rebuild checks it once, before it
    starts -- and rides the result for the rest of the request.
    ``None`` leaves the rebuild unbounded and arms
    :data:`DEFAULT_ADMISSION_BUDGET` for a degraded request only.  A
    request for which no decomposition is built -- its budget already
    spent when the rebuild starts, or the build failing -- gets a
    ``no-decomposition`` violation naming the cause, and is degraded
    or rejected with its report.
    """
    if policy is None:
        policy = "strict"
    elif policy not in POLICIES:
        raise ValueError(
            f"unknown admission policy {policy!r}; expected one of {POLICIES}"
        )
    meter = as_meter(budget)
    report = AdmissionReport(policy=policy, width_limit=width)

    # -- rung 1: the structure itself ----------------------------------
    violations = verify_structure(structure, signature)
    if violations:
        report.violations += tuple(violations)
        report.fingerprint = structure_fingerprint(structure)
        if policy == "strict" or any(not v.repairable for v in violations):
            _reject(report)
        coerced = coerce_structure(structure, signature, violations)
        if coerced is None:
            _reject(report)
        structure = coerced
        report.repairs += ("restricted-structure-to-signature",)

    # -- the O(1) small-structure escape (|dom| < w + 1) ---------------
    if len(structure.domain) < width + 1:
        report.verdict = "repaired" if report.repairs else "admitted"
        return AdmissionResult(report, structure, None, "direct", meter)

    # -- rung 2: the decomposition -------------------------------------
    # the one interning of the request: every later stage runs on ids
    ids = ElementIds.of_structure(structure)
    if td is not None:
        violations, dec = _verify(td, ids, width)
        if not violations:
            report.width = dec.width
            report.verdict = "repaired" if report.repairs else "admitted"
            return AdmissionResult(
                report, structure, td, "solve", meter, ids, dec
            )
        report.violations += tuple(violations)
        if report.fingerprint is None:
            report.fingerprint = structure_fingerprint(structure)
        if policy == "strict":
            _reject(report)
        # a failing decomposition is discarded, never patched: rung 3
        # rebuilds one from the structure

    # -- rung 3: re-decompose from scratch -----------------------------
    rebuilt, method = _rebuild(ids, meter)
    if rebuilt is None:
        residual = Violation(
            "no-decomposition",
            f"no decomposition could be built: {method}",
        )
    elif rebuilt.width > width:
        residual = _width_violation(rebuilt.width, width)
    else:
        if td is not None:
            report.redecomposed = True
        if td is not None or report.repairs:
            report.repairs += (f"redecomposed:{method}",)
            report.verdict = "repaired"
        report.width = rebuilt.width
        return AdmissionResult(
            report, structure, None, "solve", meter, ids, rebuilt
        )

    # -- rung 4: outside the envelope ----------------------------------
    if not any(v.code == residual.code for v in report.violations):
        report.violations += (residual,)
    report.residual += (residual,)
    if report.fingerprint is None:
        report.fingerprint = structure_fingerprint(structure)
    if policy == "degrade":
        report.verdict = "degraded"
        report.width = None
        if rebuilt is None:
            cause = residual.message
        elif width <= 2:  # min-degree is exact here
            cause = (
                f"treewidth exceeds the compiled width {width} (min-degree "
                f"rebuilt it at width {rebuilt.width})"
            )
        else:
            cause = (
                f"min-degree width {rebuilt.width} exceeds the compiled "
                f"width {width}"
            )
        report.degrade_reason = (
            f"{cause}; serving by direct MSO evaluation under budget"
        )
        if meter is None:
            meter = DEFAULT_ADMISSION_BUDGET.start()
        return AdmissionResult(report, structure, None, "degrade", meter)
    _reject(report)


def _reject(report: AdmissionReport) -> None:
    report.verdict = "rejected"
    report.residual = report.residual or tuple(
        v for v in report.violations if not v.repairable
    ) or report.violations
    raise AdmissionRejected(
        f"admission rejected (policy {report.policy}, structure "
        f"{report.fingerprint}): {summarize_violations(report.violations)}",
        report.violations,
        report=report,
    )


# ----------------------------------------------------------------------
# Malformed-input corpus (de)serialization
# ----------------------------------------------------------------------


class RawStructure:
    """A duck-typed stand-in for structures too malformed for
    :class:`Structure`'s constructor (which rightly refuses arity and
    domain-closure breaks).  Exposes just enough surface --
    ``signature`` / ``domain`` / ``relation()`` / ``facts()`` -- for
    verification and fingerprinting, and pickles across the service's
    worker boundary so malformed corpus entries can be served end to
    end."""

    def __init__(self, signature: Signature, domain, relations):
        self.signature = signature
        self.domain = frozenset(domain)
        self._relations = {
            name: frozenset(tuple(t) for t in tuples)
            for name, tuples in (relations or {}).items()
        }

    def relation(self, name: str) -> frozenset:
        return self._relations.get(name, frozenset())

    def facts(self):
        for name in sorted(self._relations):
            for tup in sorted(self._relations[name], key=repr):
                yield Fact(name, tup)

    def __repr__(self) -> str:
        return (
            f"RawStructure(|dom|={len(self.domain)}, "
            f"relations={sorted(self._relations)})"
        )


def structure_from_spec(spec: dict):
    """Build a structure from its corpus JSON spec; falls back to
    :class:`RawStructure` when the spec is (deliberately) too malformed
    for the real constructor."""
    signature = Signature({name: int(a) for name, a in spec["signature"].items()})
    domain = list(spec.get("domain", ()))
    relations = {
        name: [tuple(t) for t in tuples]
        for name, tuples in spec.get("relations", {}).items()
    }
    try:
        return Structure(signature, domain, relations)
    except (ValueError, KeyError, TypeError):
        return RawStructure(signature, domain, relations)


def decomposition_from_spec(spec: dict | None):
    """Build a (possibly invalid) decomposition from its corpus spec.

    Deliberately bypasses the constructors: corpus entries encode
    corruptions -- cycles, orphan nodes, missing bags -- that
    ``RootedTree`` / ``TreeDecomposition`` would refuse (or loop on),
    and the whole point is to hand them to admission as-is.
    """
    if spec is None:
        return None
    nodes = {int(node): d for node, d in spec["nodes"].items()}
    tree = RootedTree.__new__(RootedTree)
    tree.root = int(spec["root"])
    tree._children = {
        node: [int(c) for c in d.get("children", ())]
        for node, d in nodes.items()
    }
    tree._parent = {}
    for node, d in nodes.items():
        for child in d.get("children", ()):
            tree._parent[int(child)] = node
    for node in nodes:
        tree._parent.setdefault(node, None)
    tree._next_id = max(nodes, default=0) + 1
    td = TreeDecomposition.__new__(TreeDecomposition)
    td.tree = tree
    td.bags = {
        node: frozenset(d["bag"]) for node, d in nodes.items() if "bag" in d
    }
    return td


def load_corpus_case(source) -> dict:
    """Load one corpus case (a path or an already-parsed dict) into
    ``{"name", "structure", "td", "expect", "defects"}``."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as handle:
            spec = json.load(handle)
    else:
        spec = source
    return {
        "name": spec.get("name", "unnamed"),
        "structure": structure_from_spec(spec["structure"]),
        "td": decomposition_from_spec(spec.get("decomposition")),
        "expect": spec.get("expect"),
        "defects": tuple(spec.get("defects", ())),
    }


def load_corpus(directory) -> list[dict]:
    """Load every ``*.json`` case under ``directory``, sorted by name."""
    cases = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            cases.append(load_corpus_case(os.path.join(directory, entry)))
    return cases
