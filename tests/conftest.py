"""Shared hypothesis strategies and settings for the test-suite."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.datalog import (
    Atom,
    Constant,
    Database,
    GroundRule,
    InternPool,
    Literal,
    Program,
    Rule,
    SetDatabase,
    Variable,
    ground_program_ids,
    prepare_grounding,
)
from repro.structures import (
    FunctionalDependency,
    Graph,
    RelationalSchema,
    subgraph,
)

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def small_graphs(draw, max_vertices: int = 7):
    """Random simple undirected graphs with up to ``max_vertices`` nodes."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    graph = Graph(range(n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        chosen = draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        )
        for u, v in chosen:
            graph.add_edge(u, v)
    return graph


@st.composite
def small_trees(draw, max_vertices: int = 9):
    """Random labelled trees (treewidth <= 1)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    graph = Graph(range(n))
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        graph.add_edge(v, parent)
    return graph


@st.composite
def small_schemas(draw, max_attrs: int = 6, max_fds: int = 5):
    """Random relational schemas small enough for brute-force checking."""
    n = draw(st.integers(min_value=1, max_value=max_attrs))
    attrs = [chr(ord("a") + i) for i in range(n)]
    num_fds = draw(st.integers(min_value=0, max_value=max_fds))
    fds = []
    for i in range(num_fds):
        rhs = draw(st.sampled_from(attrs))
        pool = [x for x in attrs if x != rhs]
        if not pool:
            continue
        lhs_size = draw(st.integers(min_value=1, max_value=min(3, len(pool))))
        lhs = frozenset(
            draw(
                st.lists(
                    st.sampled_from(pool),
                    min_size=lhs_size,
                    max_size=lhs_size,
                    unique=True,
                )
            )
        )
        fds.append(FunctionalDependency(f"f{i + 1}", lhs, rhs))
    return RelationalSchema(attrs, fds)


#: the canonical query-driven workload shared by the backend and cache
#: tests (and mirrored by benchmarks/bench_datalog_engine.py): right-
#: linear transitive closure, whose linearity is load-bearing for the
#: magic-set O(n) single-source claim.
TC_TEXT = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
"""


def chain_edges(n: int) -> Database:
    """An n-node chain as an ``edge`` database."""
    db = Database()
    for i in range(n - 1):
        db.add("edge", (i, i + 1))
    return db


#: vocabulary shared by the random-program strategies: fixed arities so
#: generated rules and databases always line up.
EDB_ARITIES = {"edge": 2, "color": 1}
IDB_ARITIES = {"p": 2, "q": 1, "r": 1}
DATALOG_DOMAIN = list(range(5))

_VARS = [Variable(n) for n in ("X", "Y", "Z")]


@st.composite
def _rule(draw):
    """One safe rule: all variables occur in a positive body literal."""
    body: list[Literal] = []
    n_literals = draw(st.integers(min_value=1, max_value=3))
    all_preds = {**EDB_ARITIES, **IDB_ARITIES}
    for _ in range(n_literals):
        pred = draw(st.sampled_from(sorted(all_preds)))
        args = tuple(
            draw(st.sampled_from(_VARS))
            for _ in range(all_preds[pred])
        )
        body.append(Literal(Atom(pred, args)))
    bound = sorted(
        {a for lit in body for a in lit.atom.args}, key=lambda v: v.name
    )
    # optional negated *extensional* literal over already-bound variables
    if draw(st.booleans()):
        pred = draw(st.sampled_from(sorted(EDB_ARITIES)))
        args = tuple(
            draw(
                st.one_of(
                    st.sampled_from(bound),
                    st.sampled_from(DATALOG_DOMAIN).map(Constant),
                )
            )
            for _ in range(EDB_ARITIES[pred])
        )
        body.append(Literal(Atom(pred, args), positive=False))
    head_pred = draw(st.sampled_from(sorted(IDB_ARITIES)))
    head_args = tuple(
        draw(
            st.one_of(
                st.sampled_from(bound),
                st.sampled_from(DATALOG_DOMAIN).map(Constant),
            )
        )
        for _ in range(IDB_ARITIES[head_pred])
    )
    return Rule(Atom(head_pred, head_args), tuple(body))


@st.composite
def datalog_programs(draw, max_rules: int = 5):
    """Random safe, stratified programs over the shared vocabulary."""
    n = draw(st.integers(min_value=1, max_value=max_rules))
    return Program([draw(_rule()) for _ in range(n)])


@st.composite
def datalog_databases(draw, max_facts: int = 12):
    """Random extensional databases matching the shared vocabulary."""
    db = Database()
    n = draw(st.integers(min_value=0, max_value=max_facts))
    for _ in range(n):
        pred = draw(st.sampled_from(sorted(EDB_ARITIES)))
        args = tuple(
            draw(st.sampled_from(DATALOG_DOMAIN))
            for _ in range(EDB_ARITIES[pred])
        )
        db.add(pred, args)
    return db


def ground_decoded(program: Program, db: Database, stats=None):
    """The eager interned ground program, decoded to readable
    :class:`~repro.datalog.GroundRule` values over ``Fact`` atoms."""
    sdb = SetDatabase.from_edb(db)
    pool = InternPool(sdb.interner)
    rules = ground_program_ids(prepare_grounding(program), sdb, pool, stats)
    decode = pool.decode_atom
    return [
        GroundRule(decode(head), tuple(decode(b) for b in body))
        for head, body in rules
    ]


def deleted_ladders(seed=7, count=300, deleted=0.10):
    """Random vertex-deleted 2 x N ladders, N in [32, 128]."""
    rng = random.Random(seed)
    for _ in range(count):
        ladder = Graph.grid(2, rng.randint(32, 128))
        keep = [v for v in sorted(ladder.vertices) if rng.random() >= deleted]
        yield subgraph(ladder, keep)


@functools.lru_cache(maxsize=None)
def has_neighbor_solver(width: int):
    """The compiled ``has_neighbor`` solver -- width 1 over undirected
    graphs, width 2 over the grid class -- compiled once per session
    (the width-2 compile takes seconds).  Read-only: tests that change
    a solver build their own."""
    from repro.core import (
        CourcelleSolver,
        grid_graph_filter,
        undirected_graph_filter,
    )
    from repro.mso import formulas
    from repro.structures import GRAPH_SIGNATURE

    return CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=width,
        free_var="x",
        structure_filter=(
            grid_graph_filter if width == 2 else undirected_graph_filter
        ),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBEEF)
