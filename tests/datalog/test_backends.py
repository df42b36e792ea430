"""The generic engines behind ``solve``: names, query validation,
agreement."""

import pytest
from hypothesis import given, strategies as st

from repro.datalog import (
    Atom,
    Constant,
    Database,
    Variable,
    atom,
    const,
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

BACKENDS = ("naive", "semi-naive")


class TestRegistry:
    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown evaluation") as err:
            solve(TC, chain_db(3), backend="quantum")
        assert str(err.value).endswith("available: " + ", ".join(BACKENDS))

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
        naive = solve(program, db, backend="naive")
        semi = solve(program, db, backend="semi-naive")
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

        # query= is checked, not goal-directed: both engines still
        # compute the full fixpoint
        want = _matching(semi.relation(predicate), query_atom)
        for backend in BACKENDS:
            answered = solve(
                program, db, backend=backend, query=query_atom
            )
            assert _matching(answered.relation(predicate), query_atom) == want

    @given(db=datalog_databases(max_facts=20), data=st.data())
    def test_transitive_closure_single_source_agreement(self, db, data):
        source = data.draw(st.integers(0, 4), label="source")
        query = atom("path", const(source), var("Y"))
        full = solve(TC, db, backend="naive")
        goal = solve(TC, db, backend="semi-naive", query=query)
        want = {t for t in full.relation("path") if t[0] == source}
        got = {t for t in goal.relation("path") if t[0] == source}
        assert got == want
