"""Feedback-directed planning: profile, cost model, MinIndexSelection.

Covers the profile -> replan -> re-index loop end to end:

* :func:`min_index_selection` solves MinChainCover over the subset
  partial order -- nested signatures share one lexicographic index,
  antichains keep per-pattern indexes, and every input signature is
  provably covered (the hypothesis property);
* shared lex indexes answer probes identically to per-pattern hash
  indexes on random data;
* :class:`PlanProfile` / :class:`CostModel` record and estimate as
  documented (exact fanout first, independence fallback, delta-round
  scaling);
* the satellite regression: a rule whose textual order joins a huge
  intensional relation before its EDB guard explodes
  ``bindings_explored`` under the static plan and collapses after a
  profiled replan -- while static plans stay byte-identical to the old
  textual tie-break;
* profiled plans and profiled magic rewrites are built directly
  (``prepare_program(cost=)``, ``magic_rewrite(cost=)``) and derive the
  static answers, while the program cache keeps the static plans;
* the static ``A_td`` cost model plans compiled programs once: key
  probes of ``child1``/``child2`` come before any probe of ``bag`` by
  its contents, the grounding cache keys plans by the dependencies they
  were planned under, and a solve binds each distinct join step (and
  each database handle) once.
"""

import pytest
from hypothesis import given, strategies as st

from repro.datalog import (
    CostModel,
    Database,
    PlanProfile,
    ProgramCache,
    SetDatabase,
    SetSemiNaiveEvaluator,
    min_index_selection,
    parse_program,
    prepare_grounding,
    prepare_program,
)

from ..conftest import TC_TEXT, chain_edges

#: transitive closure plus a guarded projection whose textual body
#: order (huge IDB first, tiny EDB guard second) is the satellite bug
GUARDED_TC_TEXT = TC_TEXT + "\n    q(Y) :- path(X, Y), src(X)."


def _guarded_chain(n: int) -> Database:
    db = Database()
    for i in range(n - 1):
        db.add("edge", (i, i + 1))
    db.add("src", (0,))
    return db


class TestMinIndexSelection:
    def test_nested_chain_shares_one_lex_index(self):
        selection = min_index_selection(
            {"arc": [(0,), (0, 1), (0, 1, 2)]}
        )
        assert selection.n_signatures == 3
        assert selection.n_indexes == 1
        (spec,) = selection.lex_specs
        assert spec.predicate == "arc"
        assert spec.order == (0, 1, 2)
        assert selection.probe_spec("arc", (0,)) == ((0, 1, 2), 1)
        assert selection.probe_spec("arc", (0, 1)) == ((0, 1, 2), 2)
        assert selection.probe_spec("arc", (0, 1, 2)) == ((0, 1, 2), 3)

    def test_antichain_keeps_per_pattern_indexes(self):
        selection = min_index_selection({"r": [(0,), (1,)]})
        assert selection.n_signatures == 2
        assert selection.n_indexes == 2
        assert selection.lex_specs == ()
        # singleton chains fall back to the hash index...
        assert selection.probe_spec("r", (0,)) is None
        # ...but are still *covered* (the coverage proof counts them)
        assert selection.covers("r", (0,))
        assert selection.covers("r", (1,))
        assert not selection.covers("r", (0, 1))

    def test_mixed_poset_covers_with_minimum_chains(self):
        # {0} < {0,1} and {2} are two chains: one lex, one hash
        selection = min_index_selection({"r": [(0,), (0, 1), (2,)]})
        assert selection.n_indexes == 2
        assert len(selection.lex_specs) == 1
        assert selection.probe_spec("r", (2,)) is None
        assert selection.covers("r", (2,))

    @given(
        sigs=st.lists(
            st.sets(
                st.integers(min_value=0, max_value=4), min_size=1, max_size=5
            ).map(lambda s: tuple(sorted(s))),
            min_size=1,
            max_size=8,
        )
    )
    def test_every_signature_is_covered_by_a_prefix_or_hash(self, sigs):
        selection = min_index_selection({"r": sigs})
        distinct = {tuple(sorted(s)) for s in sigs}
        assert selection.n_signatures == len(distinct)
        # never more indexes than the one-hash-per-pattern baseline
        assert selection.n_indexes <= len(distinct)
        for sig in distinct:
            assert selection.covers("r", sig)
            spec = selection.probe_spec("r", sig)
            if spec is not None:
                order, prefix_len = spec
                # the lex prefix is exactly the signature, permuted
                assert set(order[:prefix_len]) == set(sig)
                assert len(order[:prefix_len]) == len(sig)

    def test_lex_probes_match_hash_probes_on_random_data(self):
        import random

        rng = random.Random(0x1DE5)
        facts = {
            (rng.randrange(5), rng.randrange(5), rng.randrange(5))
            for _ in range(60)
        }
        plain = SetDatabase()
        shared = SetDatabase()
        for f in facts:
            plain.add("t", f)
            shared.add("t", f)
        shared.use_index_selection(
            min_index_selection({"t": [(0,), (0, 2)]})
        )
        for positions in ((0,), (0, 2)):
            get_hash, order_hash = plain.probe_plan("t", positions)
            get_lex, order_lex = shared.probe_plan("t", positions)
            assert tuple(sorted(order_lex)) == positions
            for probe in range(6):  # includes ids with no matches
                if len(positions) == 1:
                    key_hash, key_lex = probe, probe
                else:
                    key_hash = tuple(probe for _ in order_hash)
                    key_lex = tuple(probe for _ in order_lex)
                want = sorted(get_hash(key_hash) or [])
                got = sorted(get_lex(key_lex) or [])
                assert got == want
        assert shared.index_stats.lex_builds == 1
        assert shared.index_stats.builds == 0


class TestPlanProfile:
    def test_probe_fanout_and_sizes(self):
        profile = PlanProfile()
        profile.record_size("edge", 100)
        profile.record_size("edge", 80)  # max wins
        profile.record_probe("edge", (0,), probes=10, matches=30)
        profile.record_probe("edge", (0,), probes=10, matches=10)
        assert profile.size("edge") == 100
        assert profile.fanout("edge", (0,)) == 2.0
        assert profile.fanout("edge", (1,)) is None

    def test_cost_model_prefers_exact_fanout(self):
        profile = PlanProfile()
        profile.record_size("r", 10_000)
        profile.record_probe("r", (0,), 100, 300)
        cost = CostModel(profile)
        assert cost.estimate("r", 2, (0,)) == 3.0  # observed
        # unobserved pattern: size ** (1 - bound/arity)
        assert cost.estimate("r", 2, (1,)) == 10_000 ** 0.5
        assert cost.estimate("r", 2, (0, 1)) == 1.0
        assert cost.estimate("unknown", 2, (0,)) is None

    def test_cost_model_scales_delta_scans_by_rounds(self):
        profile = PlanProfile()
        profile.record_size("path", 5_000)
        profile.record_rounds(100)
        cost = CostModel(profile)
        assert cost.estimate("path", 2, ()) == 5_000.0
        assert cost.estimate("path", 2, (), delta=True) == 50.0


class TestReplanRegression:
    """The satellite bugfix: textual tie-breaks join a huge intensional
    relation before its EDB guard; the profiled replan flips them."""

    N = 60

    def _run(self, prepared, profile=None):
        evaluator = SetSemiNaiveEvaluator.from_prepared(
            prepared, profile=profile
        )
        db = evaluator.run(SetDatabase.from_edb(_guarded_chain(self.N)))
        return evaluator, db.decode().relation("q")

    def test_static_plan_keeps_textual_order(self):
        # the static tie-break must stay textual: recursive rules and
        # magic guard prefixes rely on body order, so only a cost model
        # may reorder equal-score ties
        program = parse_program(GUARDED_TC_TEXT)
        prepared = prepare_program(program)
        q_plan = [s.literal.atom.predicate for s in prepared.plans[2]]
        assert q_plan == ["path", "src"]

    def test_profiled_replan_collapses_bindings_explored(self):
        program = parse_program(GUARDED_TC_TEXT)
        static_prepared = prepare_program(program)
        profile = PlanProfile()
        static_eval, static_q = self._run(static_prepared, profile)

        replanned = prepare_program(program, cost=CostModel(profile))
        rerun_profile = PlanProfile()
        replan_eval, replan_q = self._run(replanned, rerun_profile)

        # same answers, reordered q-rule plan
        assert replan_q == static_q and len(static_q) == self.N - 1
        q_plan = [s.literal.atom.predicate for s in replanned.plans[2]]
        assert q_plan == ["src", "path"]
        # the q rule's first step drops from |path| = O(n^2) rows to 1
        # (the src guard); its widest step is the O(n) bound probe
        static_first = profile.step_rows[(2, 0)][1]
        assert static_first >= self.N * (self.N - 1) // 2
        replanned_widest = max(
            rows[1]
            for (rule, _step), rows in rerun_profile.step_rows.items()
            if rule == 2
        )
        assert static_first >= 10 * replanned_widest
        assert (
            replan_eval.stats.bindings_explored
            < static_eval.stats.bindings_explored
        )

    def test_recursive_atom_is_not_demoted_by_feedback(self):
        # delta scaling: path's scan estimate is size/rounds, so the
        # recursive rule keeps path (the delta source) before edge
        program = parse_program(GUARDED_TC_TEXT)
        profile = PlanProfile()
        self._run(prepare_program(program), profile)
        replanned = prepare_program(program, cost=CostModel(profile))
        rec_plan = [s.literal.atom.predicate for s in replanned.plans[1]]
        assert rec_plan == ["path", "edge"]


class TestProfiledPlans:
    def test_profiled_plans_leave_the_cache_static(self):
        cache = ProgramCache()
        program = parse_program(GUARDED_TC_TEXT)
        static = cache.prepared(program)
        profile = PlanProfile()
        evaluator = SetSemiNaiveEvaluator(
            program, prepared=static, profile=profile
        )
        static_q = (
            evaluator.run(SetDatabase.from_edb(_guarded_chain(30)))
            .decode()
            .relation("q")
        )
        assert len(static_q) == 29

        replanned = prepare_program(program, cost=CostModel(profile))
        q_plan = [s.literal.atom.predicate for s in replanned.plans[2]]
        assert q_plan == ["src", "path"]
        replanned_q = (
            SetSemiNaiveEvaluator.from_prepared(replanned)
            .run(SetDatabase.from_edb(_guarded_chain(30)))
            .decode()
            .relation("q")
        )
        assert replanned_q == static_q
        assert cache.prepared(program) is static and len(cache) == 1

    def test_profiled_magic_matches_static(self):
        from repro.datalog import atom, const, magic_rewrite, solve, var

        program = parse_program(TC_TEXT)
        query = atom("path", const(0), var("Y"))
        profile = PlanProfile()
        profile.record_size("edge", 64)
        cost = CostModel(profile)
        rewrite = magic_rewrite(program, query, cost=cost)
        prepared = prepare_program(rewrite.program, cost=cost)
        edb = chain_edges(12)
        derived = SetSemiNaiveEvaluator.from_prepared(prepared).evaluate(edb)
        static = solve(program, edb, backend="magic", query=query)
        answers = derived.relation(rewrite.answer_predicate)
        assert answers == static.relation("path") and len(answers) == 11


class TestStaticTdModel:
    def test_model_encodes_key_fanout_and_size_order(self):
        from repro.datalog.guards import key_cost_model, td_key_dependencies

        assert key_cost_model(()) is None
        cost = key_cost_model(td_key_dependencies(4))
        # a probe covering a key determinant has fanout at most one,
        # smaller relations first among them
        keyed = [
            cost.estimate("child2", 2, (1,)),
            cost.estimate("child1", 2, (0,)),
            cost.estimate("bag", 4, (0,)),
        ]
        assert keyed == sorted(keyed) and keyed[-1] <= 1.0
        assert cost.estimate("bag", 4, (0, 2, 3)) == keyed[-1]
        # bag by its contents alone (node free) is not a key probe
        assert cost.estimate("bag", 4, (1, 2, 3)) > 1.0
        scans = [
            cost.estimate(p, 1, ())
            for p in ("root", "leaf", "child2", "child1", "bag")
        ]
        assert scans == sorted(scans) and len(set(scans)) == 5
        # relations outside A_td stay unknown: textual tie-break
        assert cost.estimate("e", 2, (0,)) is None


class TestCompiledPlans:
    """Planning and binding of the compiled ``has_neighbor`` programs."""

    _SOLVERS: dict = {}

    @classmethod
    def _solver(cls, width: int):
        if width not in cls._SOLVERS:
            from repro.core import (
                CourcelleSolver,
                grid_graph_filter,
                undirected_graph_filter,
            )
            from repro.mso import formulas
            from repro.structures import GRAPH_SIGNATURE

            cls._SOLVERS[width] = CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=width,
                free_var="x",
                structure_filter=(
                    grid_graph_filter
                    if width == 2
                    else undirected_graph_filter
                ),
            )
        return cls._SOLVERS[width]

    @staticmethod
    def _encoding(width: int):
        from repro.structures import Graph, graph_to_structure
        from repro.treewidth import decompose_structure, encode_normalized
        from repro.treewidth import normalize

        graph = Graph.grid(2, 24) if width == 2 else Graph.path(40)
        structure = graph_to_structure(graph)
        td = decompose_structure(structure)
        assert td.width == width
        return structure, encode_normalized(structure, normalize(td))

    @pytest.mark.parametrize("width", [1, 2])
    def test_no_bag_content_probe_before_a_child_key_probe(self, width):
        """No rule probes ``bag`` by its contents with the node free
        while a ``child1``/``child2`` atom that could bind that node by
        key is still to come."""
        prepared = self._solver(width).evaluator._prepared
        for plan in prepared.stream_plans:
            bound = {s for _, s in plan.driver_slots}
            steps = [prepared.steps[i] for i in plan.step_ids]
            for index, step in enumerate(steps):
                node = dict(step.free).get(0)
                by_contents = node is not None and bool(step.bound)
                if step.predicate == "bag" and by_contents:
                    for later in steps[index + 1 :]:
                        if later.predicate not in ("child1", "child2"):
                            continue
                        slots = {s for _, s in later.bound}
                        could_bind = node in slots and slots - {node} <= bound
                        assert not could_bind, plan.rule
                bound |= {s for _, s in step.free}

    @pytest.mark.parametrize("width, distinct", [(1, 28), (2, 45)])
    def test_a_solve_binds_each_distinct_step_once(
        self, monkeypatch, width, distinct
    ):
        """The per-solve binding: the database handles (bitsets,
        relations, probe getters) one solve fetches are at most the
        program's distinct join steps, not one per step instance."""
        from repro.core import ANSWER_PREDICATE
        from repro.mso import formulas, query as mso_query

        solver = self._solver(width)
        prepared = solver.evaluator._prepared
        instances = sum(len(plan.step_ids) for plan in prepared.stream_plans)
        assert len(prepared.steps) == distinct < instances // 10
        calls = []
        for name in ("bits", "relation", "index_for"):
            original = getattr(SetDatabase, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append((_name,) + args)
                return _original(self, *args)

            monkeypatch.setattr(SetDatabase, name, counted)
        structure, encoded = self._encoding(width)
        db = SetDatabase.from_edb(encoded)
        calls.clear()
        result = solver.evaluator.evaluate(db)
        assert calls and len(calls) <= len(prepared.steps)
        assert len(set(calls)) == len(calls)  # each handle fetched once
        assert result.unary_answers(ANSWER_PREDICATE) == mso_query(
            structure, formulas.has_neighbor("x"), "x"
        )

    def test_dependencies_key_the_grounding_cache(self):
        from repro.core import QuasiGuardedEvaluator
        from repro.datalog.guards import td_key_dependencies

        program = self._solver(1).compiled.program
        deps = td_key_dependencies(3)
        cache = ProgramCache()
        static = cache.grounding(program, dependencies=deps)
        plain = cache.grounding(program)
        assert static is not plain
        assert static.stream_plans != plain.stream_plans
        assert cache.grounding(program, dependencies=deps) is static
        assert cache.grounding(program) is plain
        # no dependencies, no model: the textual tie-break of old
        bare = prepare_grounding(program)
        assert (plain.plans, plain.stream_plans, plain.steps) == (
            bare.plans,
            bare.stream_plans,
            bare.steps,
        )
        with_deps = QuasiGuardedEvaluator(
            program, dependencies=deps, cache=cache
        )
        without = QuasiGuardedEvaluator(
            program, require_quasi_guarded=False, cache=cache
        )
        assert with_deps._prepared is static
        assert without._prepared is plain
