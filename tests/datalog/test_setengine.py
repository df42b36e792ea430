"""The set-at-a-time engine: interning, bitsets, batch joins, and
agreement with the tuple-at-a-time ``naive`` reference."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.datalog import (
    Database,
    Interner,
    bitset_of,
    iter_bits,
    parse_program,
    popcount,
    solve,
)
from repro.datalog.setengine import (
    SetDatabase,
    SetSemiNaiveEvaluator,
    least_fixpoint,
)

from ..conftest import TC_TEXT, chain_edges, datalog_databases, datalog_programs

TC = parse_program(TC_TEXT)

#: the engines ``solve`` runs -- the agreement property quantifies
#: over these
FULL_BACKENDS = ["naive", "semi-naive"]

hashable_values = st.one_of(
    st.integers(-5, 40),
    st.text(max_size=4),
    st.booleans(),
    st.frozensets(st.integers(0, 3), max_size=3),
    st.tuples(st.integers(0, 5), st.text(max_size=2)),
)


# ----------------------------------------------------------------------
# Interning
# ----------------------------------------------------------------------


class TestInterner:
    @given(st.lists(hashable_values, max_size=30))
    def test_round_trip_id_value_id(self, values):
        interner = Interner()
        ids = [interner.intern(v) for v in values]
        for value, ident in zip(values, ids):
            assert interner.value_of(ident) == value
            assert interner.id_of(value) == ident
            assert interner.intern(value) == ident  # idempotent

    @given(st.lists(hashable_values, max_size=30))
    def test_ids_are_dense(self, values):
        interner = Interner()
        for v in values:
            interner.intern(v)
        # every allocated id is in 0..len-1 and every one is used
        assert {interner.intern(v) for v in values} == set(
            range(len(interner))
        )
        assert list(interner.values()) == [
            interner.value_of(i) for i in range(len(interner))
        ]

    def test_id_of_unknown_is_none(self):
        interner = Interner()
        interner.intern("a")
        assert interner.id_of("b") is None

    def test_identity_mode(self):
        interner = Interner.identity(5)
        assert interner.is_identity
        assert interner.intern(3) == 3
        assert interner.value_of(4) == 4
        # a non-int value breaks identity but keeps decoding correct
        fresh = interner.intern("x")
        assert fresh == 5
        assert not interner.is_identity
        assert interner.value_of(fresh) == "x"

    @given(st.lists(hashable_values, min_size=1, max_size=12), st.data())
    def test_a_bitset_set_decodes_to_its_members(self, values, data):
        interner = Interner(values)
        ids = sorted(set(map(interner.id_of, values)))
        chosen = data.draw(st.sets(st.sampled_from(ids)))
        members = frozenset(map(interner.value_of, chosen))
        had = interner.id_of(members)  # a frozenset value may be there
        ident = interner.intern_set(bitset_of(chosen))
        assert interner.value_of(ident) == members
        assert interner.id_of(members) == ident
        assert had is None or had == ident  # one id per value
        assert interner.set_bits(ident) == bitset_of(chosen)
        assert interner.intern_set(bitset_of(chosen)) == ident
        assert len(interner) == len(set(interner.values()))

    def test_set_bits_only_for_sets_interned_as_bitsets(self):
        interner = Interner([0, 1, frozenset({0})])
        assert interner.set_bits(interner.id_of(frozenset({0}))) is None
        assert interner.set_bits(interner.intern(frozenset({1}))) is None
        # the element frozenset({0}) is also the set {0}: one id, now
        # with its bits
        ident = interner.intern_set(0b1)
        assert ident == interner.id_of(frozenset({0})) == 2
        assert interner.set_bits(ident) == 0b1

    def test_identity_detected_incrementally(self):
        interner = Interner()
        assert interner.intern(0) == 0
        assert interner.intern(1) == 1
        assert interner.is_identity
        interner.intern(7)  # id 2 != 7
        assert not interner.is_identity


# ----------------------------------------------------------------------
# Bitsets
# ----------------------------------------------------------------------


class TestBitsets:
    @given(st.sets(st.integers(0, 200), max_size=40))
    def test_bitset_round_trip(self, ids):
        bits = bitset_of(ids)
        assert set(iter_bits(bits)) == ids
        assert list(iter_bits(bits)) == sorted(ids)
        assert popcount(bits) == len(ids)

    @given(
        st.sets(st.integers(0, 120), max_size=30),
        st.sets(st.integers(0, 120), max_size=30),
    )
    def test_int_ops_are_set_ops(self, a, b):
        ba, bb = bitset_of(a), bitset_of(b)
        assert set(iter_bits(ba | bb)) == a | b
        assert set(iter_bits(ba & bb)) == a & b
        assert set(iter_bits(ba & ~bb)) == a - b


# ----------------------------------------------------------------------
# SetDatabase
# ----------------------------------------------------------------------


class TestSetDatabase:
    @given(datalog_databases())
    def test_decode_round_trips(self, db):
        sdb = SetDatabase.from_edb(db)
        decoded = sdb.decode()
        for pred in db.predicates():
            assert decoded.relation(pred) == db.relation(pred)

    def test_non_integer_domain_round_trips(self):
        db = Database()
        db.add("edge", ("a", "b"))
        db.add("edge", ("b", "c"))
        db.add("label", (frozenset({"x"}),))
        sdb = SetDatabase.from_edb(db)
        assert not sdb.interner.is_identity
        decoded = sdb.decode()
        assert decoded.relation("edge") == {("a", "b"), ("b", "c")}
        assert decoded.relation("label") == {(frozenset({"x"}),)}

    def test_dense_int_domain_uses_identity_interner(self):
        sdb = SetDatabase.from_edb(chain_edges(10))
        assert sdb.interner.is_identity
        assert sdb.relation("edge") == chain_edges(10).relation("edge")

    def test_unary_bitset_mirrors_relation(self):
        sdb = SetDatabase(Interner())
        sdb.merge("p", [(sdb.interner.intern(v),) for v in ("a", "b")])
        sdb.merge("p", [(sdb.interner.intern("c"),)])
        assert set(iter_bits(sdb.bits("p"))) == {
            args[0] for args in sdb.relation("p")
        }
        assert sdb.bits("missing") == 0

    def test_indexes_maintained_incrementally(self):
        sdb = SetDatabase.from_edb(chain_edges(4))
        index = sdb.index_for("edge", (0,))
        assert index[0] == [(0, 1)]
        # inserting after the index exists must keep it current --
        # this is the per-predicate incremental maintenance fix
        assert sdb.merge("edge", [(0, 9), (0, 1)]) == {(0, 9)}
        assert sorted(index[0]) == [(0, 1), (0, 9)]
        pair_index = sdb.index_for("edge", (0, 1))
        assert pair_index[(0, 9)] == [(0, 9)]
        # duplicates: nothing new, no index churn
        assert sdb.merge("edge", [(0, 9), (0, 9)]) == set()
        assert sorted(index[0]) == [(0, 1), (0, 9)]


class TestDatabaseIndexMaintenance:
    def test_add_only_touches_own_predicate_indexes(self):
        db = chain_edges(5)
        edge_index = db.lookup("edge", (0,))
        assert edge_index[(0,)] == [(0, 1)]
        # an insert into another predicate must not scan edge's indexes
        db.add("color", (1,))
        db.add("edge", (0, 7))
        assert sorted(edge_index[(0,)]) == [(0, 1), (0, 7)]
        from repro.datalog import UNBOUND

        assert sorted(db.match("edge", (0, UNBOUND))) == [(0, 1), (0, 7)]


# ----------------------------------------------------------------------
# Engine semantics
# ----------------------------------------------------------------------


MONADIC = parse_program(
    """
    reach(X) :- start(X).
    reach(X) :- reach(Y), edge(Y, X).
    unreached(X) :- node(X), not reach(X).
    """
)


def monadic_db():
    db = Database()
    for i in range(10):
        db.add("node", (i,))
    db.add("start", (0,))
    for u, v in [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]:
        db.add("edge", (u, v))
    return db


class TestSetEngine:
    def test_monadic_bitset_path_matches_tuple_engine(self):
        """The unary chain (bitset fast path) and the tuple-at-a-time
        reference agree, including negation against the interned
        domain."""
        db = monadic_db()
        new = solve(MONADIC, db, backend="semi-naive")
        old = solve(MONADIC, db, backend="naive")
        assert new.relation("reach") == old.relation("reach")
        assert new.relation("unreached") == old.relation("unreached")
        assert new.relation("unreached") == {
            (i,) for i in (4, 5, 6, 7, 8, 9)
        }

    def test_negation_only_over_interned_domain(self):
        """Negation complements against facts, not the raw bit width:
        ids interned for constants never leak into answers."""
        program = parse_program("q(X) :- node(X), not p(X).")
        db = Database()
        for i in range(4):
            db.add("node", (i,))
        db.add("p", (2,))
        result = least_fixpoint(program, db)
        assert result.relation("q") == {(0,), (1,), (3,)}

    def test_zero_arity_heads(self):
        from repro.datalog import Program, atom, pos, rule, var

        program = Program(
            [rule(atom("found"), pos("edge", var("X"), var("Y")))]
        )
        assert least_fixpoint(program, chain_edges(3)).relation(
            "found"
        ) == {()}
        empty = Database()
        assert (
            least_fixpoint(program, empty).relation("found") == set()
        )

    def test_repeated_variables_in_atoms(self):
        program = parse_program("loop(X) :- edge(X, X).")
        db = chain_edges(4)
        db.add("edge", (2, 2))
        for backend in FULL_BACKENDS:
            assert solve(program, db, backend=backend).relation(
                "loop"
            ) == {(2,)}

    def test_builtin_values_round_trip_through_interning(self):
        """Built-ins see raw values and their outputs (fresh sets) are
        interned on the way back in."""
        program = parse_program("t(T) :- base(S), add(S, V, T), item(V).")
        db = Database()
        db.add("base", (frozenset(),))
        db.add("item", ("a",))
        db.add("item", ("b",))
        new = solve(program, db, backend="semi-naive")
        old = solve(program, db, backend="naive")
        assert new.relation("t") == old.relation("t")
        assert new.relation("t") == {
            (frozenset({"a"}),),
            (frozenset({"b"}),),
        }

    def test_stats_count_derived_facts_identically(self):
        from repro.datalog import EvaluationStats

        new_stats, old_stats = EvaluationStats(), EvaluationStats()
        solve(TC, chain_edges(20), backend="semi-naive", stats=new_stats)
        solve(TC, chain_edges(20), backend="naive", stats=old_stats)
        assert new_stats.facts_derived == old_stats.facts_derived

    def test_evaluator_accepts_prepared_program(self):
        from repro.datalog import prepare_program

        prepared = prepare_program(TC)
        evaluator = SetSemiNaiveEvaluator.from_prepared(prepared)
        result = evaluator.evaluate(chain_edges(6))
        assert len(result.relation("path")) == 15


# ----------------------------------------------------------------------
# The agreement property (all engines, random stratified programs)
# ----------------------------------------------------------------------


class TestRoundZeroSkip:
    """Round 0 and the fire-once strata skip a rule whose positive
    relation atoms include a still-empty relation: it cannot fire, so
    its guard scans would explore bindings for nothing."""

    def test_rule_over_an_empty_relation_explores_nothing(self):
        program = parse_program("q(X) :- edge(X, Y), none(Y).")
        evaluator = SetSemiNaiveEvaluator(program)
        db = evaluator.run(SetDatabase.from_edb(chain_edges(30)))
        assert not db.relation("q")
        assert evaluator.stats.bindings_explored == 0

    def test_figure5_round_zero_fires_only_the_leaf_rule(self, monkeypatch):
        from repro.problems import random_partial_ktree
        from repro.problems.three_coloring import (
            ThreeColoringDatalog,
            three_coloring_direct,
        )

        fired = []
        run_steps = SetSemiNaiveEvaluator._run_steps

        def record(self, steps, *args):
            if steps in self.prepared.steps:
                fired.append(self.prepared.steps.index(steps))
            return run_steps(self, steps, *args)

        monkeypatch.setattr(SetSemiNaiveEvaluator, "_run_steps", record)
        graph, td = random_partial_ktree(
            random.Random("round-zero"), 24, 3, edge_probability=0.5
        )
        colorable, _ = three_coloring_direct(graph, td)
        assert ThreeColoringDatalog().decide(graph, td) == colorable
        # the leaf rule in round 0, then the fire-once success rule; the
        # rules probing the empty solve relation never start a scan
        assert fired == [0, 9]


class TestEngineAgreement:
    @given(program=datalog_programs(), db=datalog_databases())
    def test_all_full_backends_agree(self, program, db):
        """Every engine gives the same fixpoint, from a value-level
        database and from the same facts pre-interned."""
        relations = []
        for backend in FULL_BACKENDS:
            for edb in (db, SetDatabase.from_edb(db)):
                result = solve(program, edb, backend=backend)
                relations.append(
                    {
                        pred: result.relation(pred)
                        for pred in program.intensional_predicates()
                    }
                )
        assert all(r == relations[0] for r in relations)


class TestIndexStatsAndValidation:
    def test_out_of_range_positions_raise(self):
        db = SetDatabase.from_edb(chain_edges(4))
        with pytest.raises(ValueError, match="out of range"):
            db.index_for("edge", (0, 2))
        with pytest.raises(ValueError, match="out of range"):
            db.index_for("edge", (-1,))

    def test_empty_relation_defers_validation(self):
        # arity is unknown until a fact arrives; a (possibly bad)
        # pattern on an empty relation yields an empty index, and the
        # first merge does not retroactively validate it
        db = SetDatabase()
        assert db.index_for("later", (5,)) == {}

    def test_builds_and_rebuilds_are_counted(self):
        db = SetDatabase.from_edb(chain_edges(4))
        db.index_for("edge", (0,))
        db.index_for("edge", (0,))  # cached: no second build
        assert db.index_stats.builds == 1
        assert db.index_stats.rebuilds == 0
        # merge extends the existing index in place, so a re-request
        # after it is still the same build
        db2 = SetDatabase.from_edb(chain_edges(3))
        db2.merge("edge2", db2.relation("edge"))
        index = db2.index_for("edge2", (0,))
        db2.merge("edge2", [(7, 8)])
        assert db2.index_for("edge2", (0,)) is index
        assert index[7] == [(7, 8)]
        assert db2.index_stats.builds == 1
        assert db2.index_stats.rebuilds == 0

    def test_fixpoint_never_rebuilds_an_index(self):
        # the satellite bugfix: delta rounds used to invalidate and
        # rebuild per-pattern indexes; a healthy fixpoint builds each
        # pattern exactly once
        program = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        evaluator = SetSemiNaiveEvaluator(program)
        db = evaluator.run(SetDatabase.from_edb(chain_edges(20)))
        assert len(db.relation("path")) == 20 * 19 // 2
        assert db.index_stats.builds > 0
        assert db.index_stats.rebuilds == 0
