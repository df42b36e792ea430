"""The set engine's gather kernels.

Each step builds its output batch in two passes: it collects every
row's matches (facts or built-in solutions), then builds each column
at C speed -- input columns pass through unchanged when every row
matched exactly once, are compressed when each matched at most once,
and are gathered by repeated row indices otherwise
(``builtins.gather_columns``).  One batch may feed several prefix
groups, so no kernel may mutate a column it was handed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import Database, parse_program, prepare_program, solve
from repro.datalog import builtins as builtins_module
from repro.datalog import setengine as setengine_module
from repro.datalog.builtins import gather_columns
from repro.datalog.setengine import (
    Batch,
    SetDatabase,
    SetSemiNaiveEvaluator,
    _take,
)

DOMAIN = range(5)

#: rule shapes that exercise every kernel path; a program is the seed
#: rule plus a random non-empty subset of the others.  ``succ`` is
#: total on the domain, so a batch of
#: ``q`` rows joined with it matches every row exactly once and passes
#: its input column through to the sibling groups below it.
RULES = (
    "q(X) :- color(X).",
    "q(Y) :- q(X), succ(X, Y).",
    "q(Y) :- q(X), succ(X, Y), color(Y).",
    "q(Z) :- q(X), succ(X, Y), edge(Y, Z).",
    "q(Z) :- q(X), succ(X, Y), not edge(Y, X), succ(Y, Z).",
    "p(X, Z) :- q(X), edge(X, Y), edge(Y, Z).",
    "q(X) :- edge(X, X).",
    "p(X, Y) :- q(X), edge(Y, Y).",
    "p(X, Y) :- p(Y, X), edge(X, X).",
    "q(V) :- q(X), owns(X, T), add(S, V, T).",
    "q(V) :- q(X), owns(X, T), subset(S, T), add(R, V, S).",
    "p(X, X) :- owns(X, T), partition2(T, S, S).",
    "p(X, V) :- q(X), owns(X, T), add(S, V, T), not neq(X, V).",
    "p(X, Y) :- q(X), q(Y), owns(X, T), member(Y, T).",
    "q(X) :- q(X), owns(X, T), not empty(T).",
)
BUILTINS = ("add", "subset", "member", "partition2", "neq", "empty")


@st.composite
def kernel_programs(draw):
    picked = draw(
        st.lists(
            st.sampled_from(RULES[1:]), min_size=1, max_size=6, unique=True
        )
    )
    return parse_program(
        "\n".join([RULES[0], *picked]), builtin_names=BUILTINS
    )


@st.composite
def kernel_databases(draw):
    db = Database()
    for x in DOMAIN:
        db.add("succ", (x, draw(st.sampled_from(DOMAIN))))
        db.add(
            "owns",
            (x, draw(st.frozensets(st.sampled_from(DOMAIN), max_size=3))),
        )
    for x in draw(st.lists(st.sampled_from(DOMAIN), min_size=1, max_size=3)):
        db.add("color", (x,))
    edges = st.tuples(st.sampled_from(DOMAIN), st.sampled_from(DOMAIN))
    for edge in draw(st.lists(edges, max_size=10)):
        db.add("edge", edge)
    return db


def _idb(db, program):
    return {
        p: db.relation(p) for p in sorted(program.intensional_predicates())
    }


def _gather_shapes(monkeypatch):
    """Record the shape of every ``gather_columns`` call the set
    engine and the built-in kernel make."""
    shapes = set()

    def recording(columns, live, counts, total):
        if total == len(counts) and 0 not in counts:
            shapes.add("pass-through")
        elif counts and max(counts) > 1:
            shapes.add("fan-out")
        else:
            shapes.add("filter")
        return gather_columns(columns, live, counts, total)

    monkeypatch.setattr(setengine_module, "gather_columns", recording)
    monkeypatch.setattr(builtins_module, "gather_columns", recording)
    return shapes


class TestAgainstNaive:
    @settings(max_examples=200)
    @given(program=kernel_programs(), db=kernel_databases())
    def test_set_engine_matches_naive(self, program, db):
        naive = solve(program, db, backend="naive")
        fast = solve(program, db, backend="semi-naive")
        assert _idb(fast, program) == _idb(naive, program)

    def test_strategy_reaches_every_shape(self, monkeypatch):
        shapes = _gather_shapes(monkeypatch)

        @settings(max_examples=60, database=None)
        @given(program=kernel_programs(), db=kernel_databases())
        def probe(program, db):
            solve(program, db, backend="semi-naive")

        probe()
        assert shapes == {"pass-through", "filter", "fan-out"}

    def test_sibling_groups_share_a_passed_through_batch(self, monkeypatch):
        """Three ``succ`` rules share the delta scan and the ``succ``
        join, which matches every row once; their later steps differ
        (a semi-join, a fan-out join, a negation then a join).  The
        first child filters out the row the second child needs, so a
        kernel that filtered the shared batch in place would lose
        ``q(3)``."""
        program = parse_program("\n".join((RULES[0], *RULES[2:5])))
        (stratum,) = [
            plan
            for plan in prepare_program(program).stratum_plans
            if plan.recursive
        ]
        (root,) = stratum.groups
        assert len(root.steps) == 2 and not root.heads
        assert len(root.children) == 3
        db = Database()
        for x in DOMAIN:
            db.add("succ", (x, (x + 1) % len(DOMAIN)))
        db.add("color", (0,))
        db.add("edge", (1, 3))
        db.add("edge", (2, 1))
        shapes = _gather_shapes(monkeypatch)
        naive = solve(program, db, backend="naive")
        fast = solve(program, db, backend="semi-naive")
        assert _idb(fast, program) == _idb(naive, program)
        assert (3,) in fast.relation("q")
        assert "pass-through" in shapes


# ----------------------------------------------------------------------
# No kernel mutates the columns it is handed
# ----------------------------------------------------------------------


def _snapshot(columns):
    return {v: (col, list(col)) for v, col in columns.items()}


def _unchanged(snapshot, columns):
    """Same list objects under the same slots, with the same contents."""
    return set(columns) == set(snapshot) and all(
        columns[v] is col and col == before
        for v, (col, before) in snapshot.items()
    )


@pytest.fixture
def fan_out():
    """A database where node 0 has three successors, 1 has one, and 2
    none, plus the compiled steps of a two-hop join over it."""
    program = parse_program(
        """
        p(X, Z) :- q(X), edge(X, Y), edge(Y, Z).
        q(V) :- owns(X, T), add(S, V, T).
        """,
        builtin_names=("add",),
    )
    edb = Database()
    for edge in ((0, 1), (0, 2), (0, 3), (1, 4), (3, 4)):
        edb.add("edge", edge)
    edb.add("owns", (0, frozenset({1, 2})))
    edb.add("owns", (1, frozenset()))
    db = SetDatabase.from_edb(edb)
    prepared = prepare_program(program)
    return prepared, db, SetSemiNaiveEvaluator(program, prepared=prepared)


class TestInputColumnsUnchanged:
    def test_join(self, fan_out):
        prepared, db, evaluator = fan_out
        steps = prepared.steps[0]
        hop = steps[1]  # edge(X, Y), keyed on X
        assert hop.kind == "relation" and hop.key == (0,)
        x = db.interner.intern
        successors = {0: 3, 1: 1, 2: 0}
        for rows in ([0, 1, 2], [1], [0], [2], []):
            columns = {hop.bound[0][1]: [x(r) for r in rows]}
            snapshot = _snapshot(columns)
            out = evaluator._join(
                Batch(columns, len(rows)), hop, db, db.interner
            )
            assert _unchanged(snapshot, columns)
            assert out.length == sum(successors[r] for r in rows)

    def test_builtin_join(self, fan_out):
        prepared, db, evaluator = fan_out
        (call_step,) = [s for s in prepared.steps[1] if s.kind == "builtin"]
        t = call_step.bound[0][1]
        x = db.interner.intern
        ids = [x(frozenset({1, 2})), x(frozenset()), x(frozenset({1, 2}))]
        columns = {t: ids}
        snapshot = _snapshot(columns)
        out, count = call_step.call.join(
            columns, len(ids), None, db.interner, {}
        )
        assert _unchanged(snapshot, columns)
        assert count == 4  # two solutions per {1, 2}, none for {}
        assert out[t] == [ids[0], ids[0], ids[2], ids[2]]

    def test_take(self):
        columns = {0: [5, 6, 7], 1: [8, 9, 10]}
        snapshot = _snapshot(columns)
        batch = Batch(columns, 3)
        kept = _take(batch, [True, False, True])
        assert _unchanged(snapshot, columns)
        assert kept.columns == {0: [5, 7], 1: [8, 10]} and kept.length == 2
        assert _take(batch, [True, True, True]) is batch

    def test_project(self, fan_out):
        prepared, db, evaluator = fan_out
        head = prepared.heads[0]
        columns = {v: [1, 2] for _, v in head.vars}
        snapshot = _snapshot(columns)
        out = {}
        evaluator._project(head, Batch(columns, 2), db.interner, out)
        evaluator._project(head, Batch(columns, 2), db.interner, out)
        assert _unchanged(snapshot, columns)
        assert out == {"p": [(1, 1), (2, 2), (1, 1), (2, 2)]}


class TestGatherColumns:
    COLUMNS = {0: [10, 11, 12], 1: [20, 21, 22]}

    def test_every_row_once_passes_lists_through(self):
        out = gather_columns(self.COLUMNS, None, [1, 1, 1], 3)
        assert out == self.COLUMNS and out is not self.COLUMNS
        assert all(out[v] is self.COLUMNS[v] for v in out)

    def test_at_most_once_compresses(self):
        out = gather_columns(self.COLUMNS, frozenset({1}), [1, 0, 1], 2)
        assert out == {1: [20, 22]}

    def test_fan_out_gathers_by_row(self):
        out = gather_columns(self.COLUMNS, None, [2, 0, 1], 3)
        assert out == {0: [10, 10, 12], 1: [20, 20, 22]}

    def test_empty(self):
        assert gather_columns(self.COLUMNS, None, [0, 0, 0], 0) == {
            0: [],
            1: [],
        }
        assert gather_columns({0: []}, None, [], 0) == {0: []}
        assert gather_columns({}, None, [3, 1], 4) == {}
