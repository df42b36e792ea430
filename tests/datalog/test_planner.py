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
  scaling), and the fingerprint buckets away run-to-run jitter;
* the satellite regression: a rule whose textual order joins a huge
  intensional relation before its EDB guard explodes
  ``bindings_explored`` under the static plan and collapses after a
  profiled replan -- while static plans stay byte-identical to the old
  textual tie-break;
* profiled plans are cached per (program, profile fingerprint) and
  ride the solver's pickle handoff.
"""

import pickle

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
    prepare_program,
)

from ..conftest import TC_TEXT

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

    def test_merge_accumulates(self):
        a, b = PlanProfile(), PlanProfile()
        a.record_probe("r", (0,), 5, 5)
        b.record_probe("r", (0,), 5, 15)
        b.record_size("r", 40)
        b.record_rounds(7)
        a.merge(b)
        assert a.fanout("r", (0,)) == 2.0
        assert a.size("r") == 40
        assert a.rounds == 7

    def test_fingerprint_buckets_away_jitter(self):
        a, b, c = PlanProfile(), PlanProfile(), PlanProfile()
        a.record_size("edge", 100)
        b.record_size("edge", 101)  # same power-of-two bucket
        c.record_size("edge", 400)  # different magnitude
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

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
        replan_profile = PlanProfile()
        replan_eval, replan_q = self._run(replanned, replan_profile)

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
            for (rule, _step), rows in replan_profile.step_rows.items()
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


class TestProfiledCache:
    def test_profiled_plans_key_on_fingerprint(self):
        cache = ProgramCache()
        program = parse_program(GUARDED_TC_TEXT)
        profile = PlanProfile()
        evaluator = SetSemiNaiveEvaluator(
            program,
            prepared=cache.prepared(program),
            profile=profile,
        )
        evaluator.run(SetDatabase.from_edb(_guarded_chain(30)))

        static = cache.prepared(program)
        replanned = cache.prepared(program, profile=profile)
        assert replanned is not static
        assert cache.prepared(program, profile=profile) is replanned
        again = PlanProfile()
        again.merge(profile)  # same contents -> same fingerprint -> hit
        assert cache.prepared(program, profile=again) is replanned

    def test_magic_entries_key_on_profile_too(self):
        from repro.datalog import atom, const, var

        cache = ProgramCache()
        program = parse_program(TC_TEXT)
        query = atom("path", const(0), var("Y"))
        profile = PlanProfile()
        profile.record_size("edge", 64)
        static = cache.magic(program, query)
        profiled = cache.magic(program, query, profile=profile)
        assert profiled is not static
        assert cache.magic(program, query, profile=profile) is profiled


class TestSolverReplanLoop:
    _CACHE: list = []

    @classmethod
    def _solver(cls, **kwargs):
        from repro.core import CourcelleSolver, undirected_graph_filter
        from repro.mso import formulas
        from repro.structures import GRAPH_SIGNATURE

        return CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
            **kwargs,
        )

    @classmethod
    def _structures(cls):
        from repro.structures import Graph, graph_to_structure

        return [graph_to_structure(Graph.path(n)) for n in (5, 8, 11)]

    def test_profile_replan_round_trip(self):
        import pytest

        profile = PlanProfile()
        solver = self._solver(profile=profile)
        structures = self._structures()
        want = [solver.query(s) for s in structures]
        assert profile.relation_sizes  # the solves recorded feedback

        replanned = solver.replanned()
        assert replanned is not solver
        assert [replanned.query(s) for s in structures] == want

        # the replanned prepared plans (and their index selection) ride
        # the existing pickle handoff to solve_many workers
        clone = pickle.loads(pickle.dumps(replanned))
        assert [clone.query(s) for s in structures] == want
        selection = replanned.evaluator._prepared.index_selection
        cloned = clone.evaluator._prepared.index_selection
        assert cloned.lex_specs == selection.lex_specs
        assert cloned.n_indexes == selection.n_indexes

        with pytest.raises(ValueError, match="no profile"):
            self._solver().replanned()

    def test_non_quasi_guarded_backends_reject_the_knobs(self):
        import pytest

        # the generic engines are not solver backends at all
        with pytest.raises(ValueError, match="quasi-guarded"):
            self._solver(backend="semi-naive", profile=PlanProfile())
        # both quasi-guarded modes take them
        profile = PlanProfile()
        eager = self._solver(backend="quasi-guarded-eager", profile=profile)
        structures = self._structures()
        want = [self._solver().query(s) for s in structures]
        assert [eager.query(s) for s in structures] == want
        assert profile.relation_sizes
        assert [eager.replanned().query(s) for s in structures] == want
