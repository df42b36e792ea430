"""End-to-end Courcelle-style solving (Corollary 4.6).

``CourcelleSolver`` wires the whole pipeline together:

    structure  --decompose-->  TD  --normalize-->  Def. 2.3 form
              --load-->  A_td in interned ids  --compiled datalog-->  answers

Admission interns the structure's elements once into dense ids
(:class:`~repro.treewidth.decomposition.ElementIds`) and decomposes
over them; normalizing (:func:`repro.treewidth.normalize.normalize_admitted`)
and the load (:func:`repro.treewidth.encode.load_ids`) stay in those
ids, and the load writes ``A_td`` straight into a
:class:`~repro.datalog.setengine.SetDatabase` in one pass over the
normalized decomposition.  Only the answer's elements are decoded.

The datalog program comes from the Theorem 4.5 compiler (built once per
(query, signature, width) and reusable over any number of structures,
which is what makes the data complexity linear), and is evaluated by the
Theorem 4.4 quasi-guarded pipeline, streamed and demand-pruned.  That
is the only solve route; the generic bottom-up engines behind
:func:`repro.datalog.solve` serve as oracles for compiled programs.

Every request enters through the admission ladder
(:func:`repro.admission.admit`, ``"strict"`` unless the call or the
service names another policy); an input the policy cannot serve is
refused with a typed :class:`repro.errors.AdmissionRejected`.

Batch workloads go through :meth:`CourcelleSolver.solve_many`, which
solves in process, or on a caller-held
:class:`repro.service.SolverService` whose warm workers shard the
batch: the solver pickles as (formula, compiled program, evaluator),
and the evaluator carries its grounding plans and resolved demand
(:class:`~repro.core.quasi_guarded.QuasiGuardedEvaluator`), so a worker
neither recompiles nor re-plans; results come back in input order
regardless of worker count.
"""

from __future__ import annotations

from ..admission import MeterBudget, admit
from ..datalog.budget import BudgetExceeded, as_meter
from ..datalog.guards import is_quasi_guarded
from ..datalog.setengine import SetDatabase
from ..errors import AdmissionRejected
from ..mso.syntax import Formula
from ..structures.signature import Signature
from ..structures.structure import Element, Structure
from ..treewidth.decomposition import (
    ElementIds,
    IdDecomposition,
    TreeDecomposition,
)
from ..treewidth.encode import load_ids
from ..treewidth.normalize import NormalizedTreeDecomposition, normalize_admitted
from .mso_to_datalog import (
    ANSWER_PREDICATE,
    DEFAULT_MAX_WITNESS_SIZE,
    CompiledQuery,
    MSOToDatalogCompiler,
)
from .quasi_guarded import QuasiGuardedEvaluator


class CourcelleSolver:
    """Solve one MSO query over arbitrarily many width-w structures.

    Every request enters through :func:`repro.admission.admit` under
    the call's ``admission`` policy, ``"strict"`` by default
    (:meth:`solve_admitted`).  An admitted structure is evaluated by
    the streamed, demand-pruned Theorem 4.4 pipeline: ground rules
    instantiated on demand into an online LTUR, rules irrelevant to
    the answer predicate pruned at grounding time, one shared intern
    pool from structure load to answer decoding.  The grounding plans
    are made once, when the solver is built, and reused by every
    solve.  The generic bottom-up engines are test
    oracles for compiled programs: run
    ``repro.datalog.solve(solver.compiled.program, encoded)`` (the
    ``semi-naive`` engine; ``backend="naive"`` for the reference) on
    the value-level ``A_td`` encoding
    ``encode_normalized(structure, solver._normalize(structure, td))``
    of an admitted ``td``.
    """

    def __init__(
        self,
        formula: Formula,
        signature: Signature,
        width: int,
        free_var: str | None = None,
        max_witness_size: int = DEFAULT_MAX_WITNESS_SIZE,
        structure_filter=None,
        minimize: bool = True,
        fold: bool = True,
    ):
        self._formula = formula
        self.compiled: CompiledQuery = MSOToDatalogCompiler(
            formula,
            signature,
            width,
            free_var=free_var,
            max_witness_size=max_witness_size,
            structure_filter=structure_filter,
            minimize=minimize,
            fold=fold,
        ).compile()
        # the Theorem 4.5 check runs here, once per construction; the
        # evaluator does not repeat it, and neither does a worker that
        # loads the pickled solver
        if not is_quasi_guarded(
            self.compiled.program, self.compiled.dependencies()
        ):
            raise AssertionError(
                "compiled program is not quasi-guarded -- Theorem 4.5 violated"
            )
        self.evaluator = QuasiGuardedEvaluator(
            self.compiled.program,
            dependencies=self.compiled.dependencies(),
            demand=ANSWER_PREDICATE,
            require_quasi_guarded=False,
        )

    def _prepare(
        self, structure: Structure, td: TreeDecomposition
    ) -> SetDatabase:
        """``A_td`` loaded into interned ids, ready for the evaluator,
        from an admitted ``td`` (interned here; a solve enters
        :meth:`_load` with admission's ids instead)."""
        ids = ElementIds.of_structure(structure)
        return self._load(structure, ids, ids.decomposition(td))

    def _load(
        self, structure: Structure, ids: ElementIds, dec: IdDecomposition
    ) -> SetDatabase:
        """Normalize ``dec`` (admitted, over ``ids``) and load ``A_td``,
        all in the element ids admission assigned."""
        ntd = normalize_admitted(dec, self.compiled.width, ids.values)
        return load_ids(structure, ids, ntd)

    def _normalize(
        self, structure: Structure, td: TreeDecomposition
    ) -> NormalizedTreeDecomposition:
        """The Definition 2.3 decomposition a solve of ``structure``
        loads from an admitted ``td``, decoded to values."""
        ids = ElementIds.of_structure(structure)
        ntd = normalize_admitted(
            ids.decomposition(td), self.compiled.width, ids.values
        )
        return ntd.decoded(ids.values, NormalizedTreeDecomposition)

    def _finish(self, loaded: SetDatabase, budget=None):
        """Evaluate a loaded ``A_td`` and decode the answer (``decide``
        boolean or ``query`` answer set)."""
        result = self.evaluator.evaluate(loaded, budget=budget)
        if self.compiled.is_sentence:
            return result.holds(ANSWER_PREDICATE)
        return result.unary_answers(ANSWER_PREDICATE)

    def _direct_answer(self, structure: Structure, budget=None):
        """Direct MSO evaluation -- the small-structure escape hatch
        and the admission ladder's degraded serving path."""
        from ..mso.eval import evaluate
        from ..mso.eval import query as direct_query

        if self.compiled.is_sentence:
            return evaluate(structure, self.compiled_formula(), budget=budget)
        return direct_query(
            structure,
            self.compiled_formula(),
            self.compiled.free_var,
            budget=budget,
        )

    def decide(
        self,
        structure: Structure,
        td: TreeDecomposition | None = None,
        budget=None,
        admission: str | None = None,
    ) -> bool:
        """Evaluate a compiled *sentence* on a structure.

        ``budget`` (a :class:`repro.datalog.SolveBudget`) spans the
        request: admission work and the quasi-guarded fixpoint loops
        raise :class:`repro.datalog.BudgetExceeded` cooperatively
        instead of running away; the O(1) small-structure path
        ignores it.

        The request goes through :meth:`solve_admitted` under the
        ``admission`` policy (default ``"strict"``): an input the
        policy cannot serve raises
        :class:`repro.errors.AdmissionRejected`, report attached."""
        if not self.compiled.is_sentence:
            raise ValueError("compiled query is unary; use .query()")
        answer, _ = self.solve_admitted(
            structure, td, policy=admission, budget=budget
        )
        return answer

    def query(
        self,
        structure: Structure,
        td: TreeDecomposition | None = None,
        budget=None,
        admission: str | None = None,
    ) -> frozenset[Element]:
        """Evaluate a compiled *unary query*: the set of answers.

        ``budget`` and ``admission`` behave as in :meth:`decide`."""
        if self.compiled.is_sentence:
            raise ValueError("compiled query is a sentence; use .decide()")
        answer, _ = self.solve_admitted(
            structure, td, policy=admission, budget=budget
        )
        return answer

    def solve_admitted(
        self,
        structure,
        td: TreeDecomposition | None = None,
        *,
        policy: str | None = None,
        budget=None,
    ):
        """Solve one request through the admission ladder -- the one
        route every solve takes.

        Returns ``(answer, report)`` -- the ``decide``/``query`` answer
        plus the :class:`repro.admission.AdmissionReport` saying how the
        input was served (``admitted`` / ``repaired`` / ``degraded``).
        ``policy`` is passed to :func:`repro.admission.admit`, where
        ``None`` means ``"strict"``.  Raises
        :class:`repro.errors.AdmissionRejected` when the policy ladder
        runs out: on any violation under ``"strict"``, when
        re-decomposition fails under ``"repair"``, and when
        even the budgeted direct evaluation cannot finish under
        ``"degrade"``.

        ``budget`` spans the whole request -- admission work, the
        compiled solve *and* the degraded direct evaluation all draw on
        one meter; ``None`` leaves the rebuild and the compiled solve
        unbudgeted and bounds only a degraded evaluation
        (:data:`repro.admission.DEFAULT_ADMISSION_BUDGET`).
        """
        meter = as_meter(budget)
        result = admit(
            structure,
            signature=self.compiled.signature,
            width=self.compiled.width,
            td=td,
            policy=policy,
            budget=meter,
        )
        report = result.report
        if result.action == "direct":
            return self._direct_answer(result.structure), report
        if result.action == "degrade":
            try:
                answer = self._direct_answer(
                    result.structure,
                    budget=(
                        MeterBudget(result.meter)
                        if result.meter is not None
                        else None
                    ),
                )
            except BudgetExceeded as exc:
                report.verdict = "rejected"
                report.degrade_reason = (
                    f"{report.degrade_reason}; degraded evaluation "
                    f"exhausted its budget ({exc})"
                )
                raise AdmissionRejected(
                    f"admission rejected (policy {report.policy}, structure "
                    f"{report.fingerprint}): degraded evaluation "
                    f"exhausted its budget ({exc})",
                    report.violations,
                    report=report,
                ) from exc
            return answer, report
        loaded = self._load(result.structure, result.ids, result.decomposition)
        return self._finish(loaded, budget=meter), report

    def solve_many(
        self,
        structures,
        tds=None,
        service=None,
        admission: str | None = None,
    ) -> list:
        """Solve a batch of independent structures.

        Returns one result per structure **in input order** --
        ``query()`` answer sets for unary queries, ``decide()`` booleans
        for sentences.  Without ``service`` the batch is solved in
        process, one structure after another.

        ``service`` routes the batch through a caller-held persistent
        :class:`repro.service.SolverService` instead: its workers are
        already running and hold this solver's compiled program warm,
        so the batch is sharded across them and repeated batches skip
        worker startup and the solver pickle.

        Every item goes through the admission ladder under
        ``admission`` (else the service's policy, else ``"strict"``),
        and a rejection is per item on both routes: the slot of an
        input the policy refuses holds its
        :class:`repro.errors.AdmissionRejected` (report attached) while
        every other slot holds its answer.  Any other failure raises:
        on the service, :class:`repro.service.ShardFailed` carrying the
        structure's fingerprint.
        """
        structures = list(structures)
        if tds is None:
            tds = [None] * len(structures)
        else:
            tds = list(tds)
            if len(tds) != len(structures):
                raise ValueError(
                    f"{len(structures)} structures but {len(tds)} "
                    "decompositions"
                )
        if service is not None:
            return service.register(self).solve_many(
                structures, tds, admission=admission
            )
        return [
            _solve_item(self, s, td, admission)
            for s, td in zip(structures, tds)
        ]

    def compiled_formula(self) -> Formula:
        return self._formula


def _solve_item(solver, structure, td, admission):
    """One batch slot: the answer, or the ``AdmissionRejected``
    instance as a per-item verdict."""
    try:
        answer, _ = solver.solve_admitted(structure, td, policy=admission)
    except AdmissionRejected as exc:
        return exc
    return answer
