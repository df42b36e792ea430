"""The generic engines behind ``solve``: names, agreement, magic-set
rewriting."""

import pytest
from hypothesis import given, strategies as st

from repro.datalog import (
    Atom,
    Constant,
    Database,
    EvaluationStats,
    ProgramCache,
    Variable,
    atom,
    const,
    is_magic_predicate,
    magic_rewrite,
    normalize_query,
    parse_program,
    solve,
    var,
)

from ..conftest import (
    TC_TEXT,
    chain_edges as chain_db,
    datalog_databases,
    datalog_programs,
)

TC = parse_program(TC_TEXT)


# ----------------------------------------------------------------------
# Engine names and query validation
# ----------------------------------------------------------------------

BACKENDS = ("naive", "semi-naive", "semi-naive-tuple", "magic")


class TestRegistry:
    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown evaluation") as err:
            solve(TC, chain_db(3), backend="quantum")
        assert str(err.value).endswith("available: " + ", ".join(BACKENDS))

    def test_magic_requires_a_query(self):
        with pytest.raises(ValueError, match="goal-directed") as err:
            solve(TC, chain_db(3), backend="magic")
        assert "pass query= either" in str(err.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_is_validated_on_every_engine(self, backend):
        db = solve(TC, chain_db(4), backend=backend, query="path")
        assert db.relation("path") == {
            (i, j) for i in range(4) for j in range(i + 1, 4)
        }
        # a full-fixpoint engine must not hand back the whole database
        # for a query it cannot answer: db.relation("nosuch") would read
        # as a plausible empty answer
        with pytest.raises(ValueError, match="'nosuch' is not intensional"):
            solve(TC, chain_db(3), backend=backend, query="nosuch")
        unary = atom("path", var("X"))
        with pytest.raises(ValueError, match="arity"):
            solve(TC, chain_db(3), backend=backend, query=unary)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bool_constants_decode_as_bools(self, backend):
        """``True == 1``, so an interner that gives ``True`` the id 1
        must not count as the identity: decoding would return ``1``.
        Compared with ``==`` the two answers look equal, hence the
        type check."""
        program = parse_program("r(X) :- q(X).")
        db = Database.from_relations({"q": {(0,), (True,)}})
        derived = solve(program, db, backend=backend, query="r")
        values = sorted(args[0] for args in derived.relation("r"))
        assert values == [0, True]
        assert [type(v) for v in values] == [int, bool]


# ----------------------------------------------------------------------
# Magic-set rewriting
# ----------------------------------------------------------------------


class TestMagicRewrite:
    def test_bound_source_prunes_derivations(self):
        n = 40
        semi_stats, magic_stats = EvaluationStats(), EvaluationStats()
        query = atom("path", const(0), var("Y"))
        solve(TC, chain_db(n), backend="semi-naive", stats=semi_stats)
        result = solve(
            TC, chain_db(n), backend="magic", query=query, stats=magic_stats
        )
        assert result.relation("path") == {(0, j) for j in range(1, n)}
        assert magic_stats.facts_derived < semi_stats.facts_derived

    def test_all_free_query_matches_full_extent(self):
        full = solve(TC, chain_db(12), backend="semi-naive")
        goal = solve(TC, chain_db(12), backend="magic", query="path")
        assert goal.relation("path") == full.relation("path")

    def test_left_recursion(self):
        left = parse_program(
            """
            path(X, Z) :- edge(X, Y), path(Y, Z).
            path(X, Y) :- edge(X, Y).
            """
        )
        db = chain_db(8)
        db.add("edge", (2, 0))  # a cycle for good measure
        full = solve(left, db, backend="semi-naive")
        query = atom("path", const(0), var("Y"))
        goal = solve(left, db, backend="magic", query=query)
        want = {t for t in full.relation("path") if t[0] == 0}
        got = {t for t in goal.relation("path") if t[0] == 0}
        assert got == want

    def test_negated_idb_predicates_stay_total(self):
        program = parse_program(
            """
            reach(X) :- start(X).
            reach(X) :- reach(Y), edge(Y, X).
            unreached(X) :- node(X), not reach(X).
            """
        )
        rewrite = magic_rewrite(program, "unreached")
        assert "reach" in rewrite.stats.total_predicates
        db = Database()
        for i in range(6):
            db.add("node", (i,))
        db.add("start", (0,))
        for u, v in [(0, 1), (1, 2), (4, 5)]:
            db.add("edge", (u, v))
        full = solve(program, db, backend="semi-naive")
        goal = solve(program, db, backend="magic", query="unreached")
        assert goal.relation("unreached") == full.relation("unreached")

    def test_rewrite_drops_irrelevant_rules(self):
        program = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            other(X) :- color(X).
            """
        )
        rewrite = magic_rewrite(program, atom("path", const(0), var("Y")))
        heads = {rule.head.predicate for rule in rewrite.program.rules}
        assert not any("other" in h for h in heads)

    def test_normalize_query_unknown_predicate(self):
        with pytest.raises(ValueError, match="not defined"):
            normalize_query(TC, "nope")

    def test_is_magic_predicate(self):
        rewrite = magic_rewrite(TC, atom("path", const(0), var("Y")))
        magic_preds = {
            r.head.predicate
            for r in rewrite.program.rules
            if is_magic_predicate(r.head.predicate)
        }
        assert magic_preds  # the seed and the demand rules
        assert not is_magic_predicate("path")


# ----------------------------------------------------------------------
# Backend agreement (the hypothesis property)
# ----------------------------------------------------------------------


def _matching(relation, query_atom):
    """The tuples of ``relation`` consistent with the query's constants."""
    out = set()
    for args in relation:
        if all(
            not isinstance(term, Constant) or term.value == value
            for term, value in zip(query_atom.args, args)
        ):
            out.add(args)
    return out


class TestBackendAgreement:
    @given(
        program=datalog_programs(),
        db=datalog_databases(),
        data=st.data(),
    )
    def test_all_backends_agree_on_query_answers(self, program, db, data):
        cache = ProgramCache()
        naive = solve(program, db, backend="naive", cache=cache)
        semi = solve(program, db, backend="semi-naive", cache=cache)
        for predicate in program.intensional_predicates():
            assert naive.relation(predicate) == semi.relation(predicate)

        predicate = data.draw(
            st.sampled_from(sorted(program.intensional_predicates())),
            label="query predicate",
        )
        arity = next(
            r.head.arity
            for r in program.rules
            if r.head.predicate == predicate
        )
        args = []
        for i in range(arity):
            bind = data.draw(st.booleans(), label=f"bind arg {i}")
            if bind:
                args.append(
                    Constant(data.draw(st.integers(0, 4), label=f"arg {i}"))
                )
            else:
                args.append(Variable(f"Q{i}"))
        query_atom = Atom(predicate, tuple(args))

        goal = solve(
            program, db, backend="magic", query=query_atom, cache=cache
        )
        want = _matching(semi.relation(predicate), query_atom)
        got = _matching(goal.relation(predicate), query_atom)
        assert got == want

    @given(db=datalog_databases(max_facts=20), data=st.data())
    def test_transitive_closure_single_source_agreement(self, db, data):
        source = data.draw(st.integers(0, 4), label="source")
        query = atom("path", const(source), var("Y"))
        full = solve(TC, db, backend="semi-naive")
        goal = solve(TC, db, backend="magic", query=query)
        want = {t for t in full.relation("path") if t[0] == source}
        got = {t for t in goal.relation("path") if t[0] == source}
        assert got == want
