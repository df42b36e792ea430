"""Cross-backend differential conformance suite.

Hypothesis generates random stratified programs (a dedicated monadic
strategy plus the shared mixed-arity one) and random extensional
databases, and asserts that every route to the least model lands on the
*same* model:

* ``naive`` and ``semi-naive`` derive identical relations for every
  intensional predicate;
* the Theorem 4.4 quasi-guarded pipeline (streamed and demand-pruned)
  agrees with both ``semi-naive`` and ``naive`` whenever the program is
  in its fragment (groundable by its driver and extensional body),
  never instantiates more than the supported rule instances,
  demand-pruned streaming is exact on the demanded predicate, and the
  deferred sink predicates are exactly the heads no rule body mentions;
* the streamed grounder's group firing feeds the online LTUR exactly
  what the per-rule reference form (``stream_oracle.py``) does -- the
  same ``add_rule`` sequence, counters and derived flags -- on random
  programs and on the compiled width-1 and width-2 programs;
* on compiled Theorem 4.5 programs, the generic engines (``naive``,
  ``semi-naive``) run through ``solve()`` agree with the
  streamed ``CourcelleSolver.query`` and with direct MSO evaluation;
* interning round-trips: decoding an interned database and re-interning
  it is the identity on relations, and the interned grounding -> horn
  boundary carries *only* dense integer ids (no raw-value tuples);
* ``CourcelleSolver.solve_many`` returns identical results in process
  and on a 1- or 2-worker ``SolverService``, in input order.

CI runs this file through a dedicated gate step that fails if it is
skipped or collects zero tests, so a conftest regression can't silently
turn the suite off.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom,
    Constant,
    GroundingStats,
    InternPool,
    Literal,
    NotGroundableError,
    Program,
    Rule,
    SetDatabase,
    Variable,
    ground_program_streamed,
    prepare_grounding,
    solve,
)
from repro.datalog.grounding import resolve_demand
from repro.datalog.setengine import SetSemiNaiveEvaluator
from repro.structures import Fact

from ..conftest import (
    EDB_ARITIES,
    DATALOG_DOMAIN,
    TC_TEXT,
    chain_edges,
    datalog_databases,
    datalog_programs,
    deleted_ladders,
    has_neighbor_solver,
    oracle_encoding,
    supported_instances,
)
from .stream_oracle import RecordingHorn, ground_program_per_rule

FULL_BACKENDS = ("naive", "semi-naive")

_VARS = [Variable(n) for n in ("X", "Y", "Z")]
_MONADIC_IDB = {"q": 1, "r": 1}


#: the width-1 ``A_td`` vocabulary of a graph: the encoding's relations
TD_ARITIES = {"bag": 3, "child1": 2, "child2": 2, "leaf": 1, "root": 1, "e": 2}


@st.composite
def monadic_programs(draw, max_rules: int = 5, edb=EDB_ARITIES):
    """Random safe, stratified *monadic* programs: every IDB predicate
    is unary (the paper's fragment), EDB atoms (drawn from ``edb``) may
    be wider."""
    rules = []
    all_preds = {**edb, **_MONADIC_IDB}
    for _ in range(draw(st.integers(min_value=1, max_value=max_rules))):
        body: list[Literal] = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pred = draw(st.sampled_from(sorted(all_preds)))
            args = tuple(
                draw(st.sampled_from(_VARS))
                for _ in range(all_preds[pred])
            )
            body.append(Literal(Atom(pred, args)))
        bound = sorted(
            {a for lit in body for a in lit.atom.args},
            key=lambda v: v.name,
        )
        if draw(st.booleans()):  # optional negated EDB literal
            pred = draw(st.sampled_from(sorted(edb)))
            args = tuple(
                draw(
                    st.one_of(
                        st.sampled_from(bound),
                        st.sampled_from(DATALOG_DOMAIN).map(Constant),
                    )
                )
                for _ in range(edb[pred])
            )
            body.append(Literal(Atom(pred, args), positive=False))
        head_pred = draw(st.sampled_from(sorted(_MONADIC_IDB)))
        head_arg = draw(
            st.one_of(
                st.sampled_from(bound),
                st.sampled_from(DATALOG_DOMAIN).map(Constant),
            )
        )
        rules.append(Rule(Atom(head_pred, (head_arg,)), tuple(body)))
    return Program(rules)


@st.composite
def _forests(draw, max_vertices: int = 10):
    """Random forests with at least two vertices (the width-1 solver's
    compiled route needs |dom| >= w + 1)."""
    from repro.structures import Graph

    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = Graph(range(n))
    for v in range(1, n):
        parent = draw(st.none() | st.integers(min_value=0, max_value=v - 1))
        if parent is not None:
            graph.add_edge(v, parent)
    return graph


def _derived_relations(db, program):
    return {
        predicate: db.relation(predicate)
        for predicate in program.intensional_predicates()
    }


def _groundable(program):
    """The prepared grounding if the program is in the Theorem 4.4
    fragment (driver and extensional body bind every variable, no
    negated IDB), else None."""
    try:
        return prepare_grounding(program)
    except NotGroundableError:
        return None


class TestFullFixpointAgreement:
    @given(program=monadic_programs(), db=datalog_databases())
    def test_monadic_backends_agree(self, program, db):
        reference = None
        for backend in FULL_BACKENDS:
            rels = _derived_relations(
                solve(program, db, backend=backend), program
            )
            if reference is None:
                reference = rels
            else:
                assert rels == reference, backend

    @given(program=datalog_programs(), db=datalog_databases())
    def test_mixed_arity_backends_agree(self, program, db):
        reference = None
        for backend in FULL_BACKENDS:
            rels = _derived_relations(
                solve(program, db, backend=backend), program
            )
            if reference is None:
                reference = rels
            else:
                assert rels == reference, backend


def _sinks(program):
    """Intensional predicates no rule body mentions, derived
    independently of the grounder."""
    mentioned = set()
    for rule in program.rules:
        for literal in rule.body:
            mentioned.add(literal.atom.predicate)
    return {
        rule.head.predicate
        for rule in program.rules
        if rule.head.predicate not in mentioned
    }


def _streamed_model(prepared, db, stats=None, demand=None):
    """The streamed grounder's model over ``db`` as a set of facts."""
    sdb = SetDatabase.from_edb(db)
    pool = InternPool(sdb.interner)
    sink = ground_program_streamed(
        prepared, sdb, pool, stats=stats, demand=demand
    )
    return {
        pool.decode_atom(i)
        for i, flag in enumerate(sink.flags(len(pool)))
        if flag
    }


def _engine_model(program, db, backend):
    """The generic engine's intensional model as a set of facts."""
    derived = solve(program, db, backend=backend)
    return {
        Fact(predicate, args)
        for predicate in program.intensional_predicates()
        for args in derived.relation(predicate)
    }


class TestQuasiGuardedAgreement:
    @given(program=monadic_programs(), db=datalog_databases())
    def test_eager_and_streamed_pipelines_match_naive_and_semi_naive(
        self, program, db
    ):
        """The streamed pipeline's model is the least model of both
        generic engines."""
        prepared = _groundable(program)
        if prepared is None:
            return  # outside the Theorem 4.4 fragment; nothing to check
        streamed = _streamed_model(prepared, db)
        for backend in ("semi-naive", "naive"):
            assert streamed == _engine_model(program, db, backend), backend

    @given(
        program=st.one_of(monadic_programs(), datalog_programs()),
    )
    def test_deferred_predicates_are_the_sinks(self, program):
        prepared = _groundable(program)
        if prepared is None:
            return
        assert prepared.deferred == _sinks(program)

    @given(program=monadic_programs(), db=datalog_databases())
    def test_no_raw_tuples_cross_the_grounding_horn_boundary(
        self, program, db
    ):
        """The interned pipeline's rule stream is pure dense ids, and
        the Horn model over those ids decodes to the semi-naive model."""
        prepared = _groundable(program)
        if prepared is None:
            return
        sdb = SetDatabase.from_edb(db)
        pool = InternPool(sdb.interner)
        sink = RecordingHorn()
        ground_program_streamed(prepared, sdb, pool, sink=sink)
        for head, body in sink.log:
            assert type(head) is int
            assert all(type(b) is int for b in body)
        decoded = {
            pool.decode_atom(i)
            for i, flag in enumerate(sink.flags(len(pool)))
            if flag
        }
        assert decoded == _engine_model(program, db, "semi-naive")


class TestStreamedGroundingAgreement:
    """The streamed, demand-pruned emitter derives exactly the
    semi-naive engine's model."""

    @given(program=monadic_programs(), db=datalog_databases())
    def test_streamed_matches_eager(self, program, db):
        prepared = _groundable(program)
        if prepared is None:
            return  # outside the Theorem 4.4 fragment; nothing to check
        stats = GroundingStats()
        streamed = _streamed_model(prepared, db, stats=stats)
        assert streamed == _engine_model(program, db, "semi-naive")
        # streaming never *instantiates* more than the supported
        # instances (those whose extensional body holds): it builds an
        # instance once per driver event, and only for bindings the
        # database supports
        assert stats.ground_rules <= supported_instances(program, db)

    @given(program=monadic_programs(), db=datalog_databases(), data=st.data())
    def test_demand_pruned_streaming_is_exact_on_the_demanded_predicate(
        self, program, db, data
    ):
        prepared = _groundable(program)
        if prepared is None:
            return
        predicate = data.draw(
            st.sampled_from(sorted(program.intensional_predicates())),
            label="demanded predicate",
        )
        reference = _engine_model(program, db, "semi-naive")
        streamed = _streamed_model(prepared, db, demand=predicate)
        want = {f for f in reference if f.predicate == predicate}
        got = {f for f in streamed if f.predicate == predicate}
        assert got == want
        # everything derived sits inside the relevance cone, never more
        assert streamed <= reference


def _grouped_and_per_rule(prepared, db, relevant=None):
    """Run the grouped streamed grounder and the per-rule oracle over
    ``db``; return both runs' observations: the ``add_rule`` sequence,
    the three stream counters and the derived flags."""
    observed = []
    for ground in (ground_program_streamed, ground_program_per_rule):
        sdb = SetDatabase.from_edb(db)
        pool = InternPool(sdb.interner)
        sink = RecordingHorn()
        stats = GroundingStats()
        ground(prepared, sdb, pool, sink=sink, stats=stats, relevant=relevant)
        observed.append(
            (
                sink.log,
                stats.ground_rules,
                stats.rules_pruned,
                stats.peak_live_rules,
                bytes(sink.flags(len(pool))),
            )
        )
    return observed


class TestGroupedStreamingMatchesPerRule:
    """Group firing (one prefix run per group and round, tests once per
    row, plan-order emission) feeds the online LTUR exactly what firing
    rule by rule does (``tests/datalog/stream_oracle.py``)."""

    # tiny programs, many draws: a test step only differs from its
    # oracle on databases where its relation is non-empty
    @settings(max_examples=150)
    @given(program=monadic_programs(), db=datalog_databases(), data=st.data())
    def test_random_programs(self, program, db, data):
        prepared = _groundable(program)
        if prepared is None:
            return  # outside the Theorem 4.4 fragment; nothing to check
        demand = data.draw(
            st.none()
            | st.sampled_from(sorted(program.intensional_predicates())),
            label="demanded predicate",
        )
        relevant = resolve_demand(program, demand)
        grouped, per_rule = _grouped_and_per_rule(prepared, db, relevant)
        assert grouped == per_rule

    @staticmethod
    def _check_compiled(width, graph):
        from repro.structures import graph_to_structure

        solver = has_neighbor_solver(width)
        encoded = oracle_encoding(solver, graph_to_structure(graph))
        evaluator = solver.evaluator
        grouped, per_rule = _grouped_and_per_rule(
            evaluator._prepared, encoded, evaluator._relevant
        )
        assert grouped == per_rule

    @given(graph=_forests())
    def test_compiled_width_1_on_forests(self, graph):
        self._check_compiled(1, graph)

    @given(graph=_forests().filter(lambda g: len(g.vertices) >= 3))
    def test_compiled_width_2_on_forests(self, graph):
        self._check_compiled(2, graph)

    @settings(max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_compiled_width_2_on_deleted_ladders(self, seed):
        self._check_compiled(2, next(deleted_ladders(seed=seed, count=1)))


class TestReplannedConformance:
    """Cost-model plans are observation-preserving.  The static
    ``A_td`` model the quasi-guarded pipeline plans with must derive
    the naive model in both modes, on random programs over random
    databases and over ``A_td`` encodings, and on a compiled program."""

    @staticmethod
    def _td_encoding(graph):
        from repro.structures import graph_to_structure
        from repro.treewidth import (
            decompose_structure,
            encode_normalized,
            normalize,
            widen,
        )

        structure = graph_to_structure(graph)
        td = decompose_structure(structure)
        if td.width < 1:
            td = widen(td, 1)
        return encode_normalized(structure, normalize(td))

    @staticmethod
    def _static_model_modes_match_naive(program, db):
        """The streamed solve, planned under the static ``A_td`` model
        of the width-1 key dependencies, derives the naive and the
        semi-naive engine's model."""
        from repro.core import QuasiGuardedEvaluator
        from repro.datalog.guards import td_key_dependencies

        try:
            evaluator = QuasiGuardedEvaluator(
                program,
                dependencies=td_key_dependencies(3),
                require_quasi_guarded=False,
            )
        except NotGroundableError:
            return  # outside the Theorem 4.4 fragment: nothing to pin
        streamed = set(evaluator.evaluate(db).facts)
        for backend in ("naive", "semi-naive"):
            assert streamed == _engine_model(program, db, backend), backend

    @given(program=monadic_programs(), db=datalog_databases())
    def test_static_td_model_quasi_guarded_modes_match_naive(
        self, program, db
    ):
        self._static_model_modes_match_naive(program, db)

    @given(program=monadic_programs(edb=TD_ARITIES), graph=_forests())
    def test_static_td_model_on_td_encodings_matches_naive(
        self, program, graph
    ):
        """Random monadic programs over the ``A_td`` vocabulary, where
        the static model reorders bodies, on encodings of random
        forests."""
        self._static_model_modes_match_naive(
            program, self._td_encoding(graph)
        )

    @given(graph=_forests(max_vertices=6))
    def test_compiled_program_under_static_model_matches_naive(
        self, graph
    ):
        """The compiled width-1 ``has_neighbor`` program, both modes."""
        from repro.core import CourcelleSolver, undirected_graph_filter
        from repro.mso import formulas
        from repro.structures import GRAPH_SIGNATURE

        if not self._COMPILED:
            self._COMPILED.append(
                CourcelleSolver(
                    formulas.has_neighbor("x"),
                    GRAPH_SIGNATURE,
                    width=1,
                    free_var="x",
                    structure_filter=undirected_graph_filter,
                ).compiled.program
            )
        self._static_model_modes_match_naive(
            self._COMPILED[0], self._td_encoding(graph)
        )

    _COMPILED: list = []


class TestSolveManySharding:
    """solve_many: deterministic order, the same in process and on a
    service of any worker count."""

    @classmethod
    def _solver(cls):
        solver = getattr(cls, "_cached_solver", None)
        if solver is None:
            from repro.core import CourcelleSolver, undirected_graph_filter
            from repro.mso import formulas
            from repro.structures import GRAPH_SIGNATURE

            solver = CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
            )
            cls._cached_solver = solver
        return solver

    @classmethod
    def _structures(cls):
        import random

        from repro.problems import random_tree_graph
        from repro.structures import Graph, graph_to_structure

        rng = random.Random(0xD15C)
        graphs = [Graph.path(5), Graph.path(9)] + [
            random_tree_graph(rng, rng.randint(4, 12)) for _ in range(4)
        ]
        return [graph_to_structure(g) for g in graphs]

    def test_one_worker_matches_sequential_solves(self):
        from repro.service import SolverService

        solver = self._solver()
        structures = self._structures()
        batch = solver.solve_many(structures)
        assert batch == [solver.query(s) for s in structures]
        with SolverService(workers=1) as service:
            assert solver.solve_many(structures, service=service) == batch

    def test_pool_results_identical_and_in_input_order(self):
        from repro.service import SolverService

        solver = self._solver()
        structures = self._structures()
        serial = solver.solve_many(structures)
        with SolverService(workers=2) as service:
            sharded = solver.solve_many(structures, service=service)
            # order is positional: a permuted input permutes the output
            reordered = solver.solve_many(
                list(reversed(structures)), service=service
            )
        assert serial == sharded
        assert reordered == list(reversed(serial))
        # the service's workers rebuild the solver from its pickle: the
        # statically planned grounding (step table, per-rule step ids,
        # group table) arrives intact and answers as in process
        clone = pickle.loads(pickle.dumps(solver))
        mine = solver.evaluator._prepared
        theirs = clone.evaluator._prepared
        assert theirs.steps == mine.steps
        assert theirs.stream_plans == mine.stream_plans
        assert theirs.groups == mine.groups
        assert theirs.registry is not None
        assert [clone.query(s) for s in structures] == serial

    def test_pool_failure_raises_shard_failed_with_fingerprint(self):
        """An over-width item is rejected in its slot, with its
        fingerprint, on the pool as in process; a worker-side failure
        still raises ``ShardFailed`` carrying the fingerprint."""
        import pytest

        from repro.errors import AdmissionRejected
        from repro.service import ShardFailed, SolverService
        from repro.structures import Graph, graph_to_structure
        from repro.structures.structure import structure_fingerprint

        from ..service.test_service import unwalkable_request

        solver = self._solver()
        wide = graph_to_structure(Graph.complete(5))
        batch = self._structures()[:2] + [wide] + self._structures()[2:3]
        with SolverService(workers=2) as service:
            pooled = solver.solve_many(batch, service=service)
            structure, td = unwalkable_request(7)
            with pytest.raises(ShardFailed, match="tree walk") as info:
                solver.solve_many([structure], tds=[td], service=service)
        serial = solver.solve_many(batch)
        for results in (pooled, serial):
            rejected = results[2]
            assert isinstance(rejected, AdmissionRejected)
            assert rejected.report.fingerprint == structure_fingerprint(wide)
        assert pooled[:2] + pooled[3:] == serial[:2] + serial[3:]
        assert info.value.fingerprint == structure_fingerprint(structure)

    def test_mismatched_tds_rejected(self):
        import pytest

        solver = self._solver()
        structures = self._structures()
        with pytest.raises(ValueError, match="decompositions"):
            solver.solve_many(structures, tds=[None])


class TestInterningRoundTrip:
    @given(program=monadic_programs(), db=datalog_databases())
    def test_decode_then_reintern_is_identity(self, program, db):
        evaluated = SetSemiNaiveEvaluator(program).run(
            SetDatabase.from_edb(db)
        )
        decoded = evaluated.decode()
        reinterned = SetDatabase.from_edb(decoded)
        assert {
            p: reinterned.decode_relation(p)
            for p in decoded.predicates()
        } == {p: decoded.relation(p) for p in decoded.predicates()}

    @given(db=datalog_databases())
    def test_interner_ids_round_trip(self, db):
        sdb = SetDatabase.from_edb(db)
        interner = sdb.interner
        for ident in range(len(interner)):
            assert interner.id_of(interner.value_of(ident)) == ident


class TestDecodeBoundary:
    """An interned input crosses the value boundary once per solve: the
    set engine decodes its fixpoint at the end, the ``naive`` reference
    decodes its input at the start."""

    @pytest.mark.parametrize("backend", FULL_BACKENDS)
    def test_an_interned_edb_is_decoded_once(self, monkeypatch, backend):
        import repro.datalog.setengine as setengine
        from repro.datalog import parse_program

        sdb = SetDatabase.from_edb(chain_edges(12))
        decodes = []
        original = setengine.SetDatabase.decode

        def counting(self):
            decodes.append(self)
            return original(self)

        monkeypatch.setattr(setengine.SetDatabase, "decode", counting)
        derived = solve(parse_program(TC_TEXT), sdb, backend=backend)
        assert len(derived.relation("path")) == 66
        assert len(decodes) == 1


class TestCompiledProgramOnGenericEngines:
    """The generic bottom-up engines are oracles for compiled programs:
    ``solve(compiled.program, A_td, backend=b)`` for every engine must
    equal the streamed ``CourcelleSolver.query``, which must equal
    direct MSO evaluation."""

    _SOLVER_CACHE: list = []

    @classmethod
    def _solver(cls):
        if not cls._SOLVER_CACHE:
            from repro.core import CourcelleSolver, undirected_graph_filter
            from repro.mso import formulas
            from repro.structures import GRAPH_SIGNATURE

            cls._SOLVER_CACHE.append(
                CourcelleSolver(
                    formulas.has_neighbor("x"),
                    GRAPH_SIGNATURE,
                    width=1,
                    free_var="x",
                    structure_filter=undirected_graph_filter,
                )
            )
        return cls._SOLVER_CACHE[0]

    @given(graph=_forests())
    def test_engines_match_streamed_solver_and_direct_mso(self, graph):
        from repro.core import ANSWER_PREDICATE
        from repro.mso import formulas, query as mso_query
        from repro.structures import graph_to_structure
        from repro.treewidth import (
            decompose_structure,
            encode_normalized,
            normalize,
            widen,
        )

        solver = self._solver()
        structure = graph_to_structure(graph)
        td = decompose_structure(structure)
        if td.width < 1:
            td = widen(td, 1)
        encoded = encode_normalized(structure, normalize(td))
        streamed = solver.query(structure)
        assert streamed == mso_query(
            structure, formulas.has_neighbor("x"), "x"
        )
        for backend in FULL_BACKENDS:
            derived = solve(solver.compiled.program, encoded, backend=backend)
            answers = {args[0] for args in derived.relation(ANSWER_PREDICATE)}
            assert answers == streamed, backend


class TestCompiledWidth2Conformance:
    """The Theorem 4.5 width-2 envelope, differentially verified.

    The ``has_neighbor`` query compiled at width 2 relative to the grid
    class (``grid_graph_filter``) must agree with *direct MSO
    evaluation* on ladder grids and on random small in-class
    structures, and with the hand-written ``A_td`` cover DP on the
    ladder's encoding -- the compiled program is the production route
    the grid solver benchmark now takes, so its answers are pinned
    here as well as in the benchmark gates.
    """

    _SOLVER_CACHE: list = []

    @classmethod
    def _solver(cls):
        # one compile per test session: the width-2 fixpoint is the
        # expensive part (seconds), every solve afterwards is cheap
        if not cls._SOLVER_CACHE:
            from repro.core import CourcelleSolver, grid_graph_filter
            from repro.mso import formulas
            from repro.structures import GRAPH_SIGNATURE

            cls._SOLVER_CACHE.append(
                CourcelleSolver(
                    formulas.has_neighbor("x"),
                    GRAPH_SIGNATURE,
                    width=2,
                    free_var="x",
                    structure_filter=grid_graph_filter,
                )
            )
        return cls._SOLVER_CACHE[0]

    def test_program_fingerprint_is_pinned(self):
        """The width-2 program, rule for rule and in order (the
        width-1 program is pinned in the compiler tests)."""
        from repro.datalog import program_fingerprint

        assert program_fingerprint(self._solver().compiled.program) == (
            "9f489441eb00ae4118c1dd9c46ed7ed944af9513babda5b713f0f2e34fb95ce4"
        )

    def test_type_space_matches_the_checked_in_compiler_record(self):
        """The width-2 type fixpoint, count for count: the same compile's
        ``CompilerStats`` (which carry the ``TypeAlgebraStats``) equal
        the ``graph-neighbor-w2-grid`` record of ``BENCH_compiler.json``
        and the figures pinned here."""
        import json
        from pathlib import Path

        pinned = {
            "types": 416,
            "classes": 17,
            "classes_folded": 191,
            "rules": 21413,
            "rules_after_passes": 735,
            "type_computations": 9934,
            "glue_pairs": 6151,
            "max_reduced_witness": 10,
            "max_witness_typed": 12,
        }
        stats = self._solver().compiled.stats
        measured = {
            "types": stats.up_types,
            "classes": stats.up_classes,
            "classes_folded": stats.classes_folded,
            "rules": stats.rules,
            "rules_after_passes": stats.rules_after_passes,
            "type_computations": stats.type_computations,
            "glue_pairs": stats.glue_pairs,
            "max_reduced_witness": stats.max_reduced_witness,
            "max_witness_typed": stats.max_witness_typed,
        }
        bench = Path(__file__).resolve().parents[2] / "BENCH_compiler.json"
        record = json.loads(bench.read_text())["compiles"][
            "graph-neighbor-w2-grid"
        ]
        assert measured == pinned
        assert {name: record[name] for name in pinned} == pinned
        assert (stats.reductions, stats.elements_deleted) == (416, 0)

    def test_ladder_matches_direct_mso_and_cover_dp(self):
        from repro.bench import atd_cover_program
        from repro.core import QuasiGuardedEvaluator
        from repro.datalog.guards import td_key_dependencies
        from repro.mso import formulas, query as mso_query
        from repro.structures import Graph, graph_to_structure
        from repro.treewidth import (
            decompose_structure,
            encode_normalized,
            normalize,
        )

        structure = graph_to_structure(Graph.grid(2, 7))
        td = decompose_structure(structure)
        assert td.width == 2  # the ladder is the width-2 grid family
        want = mso_query(structure, formulas.has_neighbor("x"), "x")
        assert self._solver().query(structure, td) == want
        encoded = encode_normalized(structure, normalize(td))
        dp = QuasiGuardedEvaluator(
            atd_cover_program(td.width + 2),
            dependencies=td_key_dependencies(td.width + 2),
        )
        assert dp.evaluate(encoded).unary_answers("covered") == want

    def test_random_grid_class_structures_match_direct_mso(self):
        import random

        from repro.core import grid_graph_filter
        from repro.mso import formulas, query as mso_query
        from repro.structures import Graph, graph_to_structure
        from repro.treewidth import decompose_structure

        solver = self._solver()
        rng = random.Random(0x5EED)
        checked = 0
        while checked < 12:
            n = rng.randint(2, 8)
            g = Graph(range(n))
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.35:
                        g.add_edge(u, v)
            structure = graph_to_structure(g)
            if not grid_graph_filter(structure):
                continue
            if decompose_structure(structure).width > 2:
                continue
            want = mso_query(structure, formulas.has_neighbor("x"), "x")
            assert solver.query(structure) == want
            checked += 1

    def test_minimized_program_matches_unminimized(self):
        """Type minimization is an observation-preserving congruence:
        the class-level program and the one-predicate-per-type program
        must answer identically."""
        import random

        from repro.core import (
            CourcelleSolver,
            undirected_graph_filter,
        )
        from repro.mso import formulas
        from repro.problems import random_tree_graph
        from repro.structures import GRAPH_SIGNATURE, graph_to_structure

        minimized = CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )
        unminimized = CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
            minimize=False,
            fold=False,  # the raw one-predicate-per-type ablation
        )
        assert len(minimized.compiled.program) < len(
            unminimized.compiled.program
        )
        rng = random.Random(0xABCD)
        for _ in range(6):
            structure = graph_to_structure(
                random_tree_graph(rng, rng.randint(2, 14))
            )
            assert minimized.query(structure) == unminimized.query(
                structure
            )

    def test_shrinking_passes_match_unoptimized(self):
        """Program shrinking is conformance-pinned: folded, unfolded
        and unminimized solvers over the same query must
        answer identically on random in-class structures."""
        import random

        from repro.core import (
            CourcelleSolver,
            undirected_graph_filter,
        )
        from repro.mso import formulas, query as mso_query
        from repro.problems import random_tree_graph
        from repro.structures import GRAPH_SIGNATURE, graph_to_structure

        def solver(**kw):
            return CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
                **kw,
            )

        variants = [
            solver(),  # production default: fold
            solver(fold=False),  # folding ablated
            solver(minimize=False, fold=False),  # fully unoptimized
        ]
        rng = random.Random(0xF01D)
        for _ in range(6):
            structure = graph_to_structure(
                random_tree_graph(rng, rng.randint(2, 14))
            )
            want = mso_query(structure, formulas.has_neighbor("x"), "x")
            for v in variants:
                assert v.query(structure) == want, v.compiled.stats
