"""Shared hypothesis strategies and settings for the test-suite."""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.datalog import (
    Atom,
    Constant,
    Database,
    InternPool,
    Literal,
    Program,
    Rule,
    SetDatabase,
    Variable,
    ground_program_streamed,
    prepare_grounding,
    solve,
)
from repro.structures import (
    Fact,
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


#: the canonical recursive workload shared by the backend and cache
#: tests: right-linear transitive closure.
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


class LoggedRule(NamedTuple):
    """One ``add_rule`` call of the streamed grounder, decoded."""

    head: Fact
    body: tuple[Fact, ...]


def streamed_ground_rules(program: Program, db: Database, stats=None):
    """The ground rules the streamed grounder feeds its online LTUR on
    ``db``, in order, decoded to :class:`LoggedRule` values over
    ``Fact`` atoms.  A driven rule's body lists only its non-driver
    intensional atoms (its driver has derived when it is emitted), and
    a deferred sink's rule arrives as a fact once its body holds."""
    from .datalog.stream_oracle import RecordingHorn

    sdb = SetDatabase.from_edb(db)
    pool = InternPool(sdb.interner)
    sink = RecordingHorn()
    ground_program_streamed(
        prepare_grounding(program), sdb, pool, sink=sink, stats=stats
    )
    decode = pool.decode_atom
    return [
        LoggedRule(decode(head), tuple(map(decode, body)))
        for head, body in sink.log
    ]


def supported_instances(program: Program, db) -> int:
    """The number of ground instances of ``program``'s rules whose
    extensional body holds on ``db`` and whose driver -- the first
    intensional body atom, if any -- is in the least model: an upper
    bound on what the streamed grounder instantiates.  Counted by the
    semi-naive engine, with one rule added per program rule that keeps
    the extensional body and the driver and heads a fresh predicate
    over all the rule's variables."""
    idb = program.intensional_predicates()
    counting = []
    for index, rule in enumerate(program.rules):
        drivers = [lit for lit in rule.body if lit.atom.predicate in idb]
        body = tuple(
            lit for lit in rule.body if lit.atom.predicate not in idb
        ) + tuple(drivers[:1])
        variables = sorted(rule.variables(), key=lambda v: v.name)
        counting.append(Rule(Atom(f"instance{index}", tuple(variables)), body))
    model = solve(
        Program(list(program.rules) + counting), db, backend="semi-naive"
    )
    return sum(len(model.relation(r.head.predicate)) for r in counting)


def admitted_td(solver, structure, td=None):
    """The decomposition a ``"strict"`` admission of ``(structure, td)``
    hands the solver's load -- what ``solver._prepare`` and
    ``solver._normalize`` take."""
    from repro.admission import admit

    return admit(
        structure,
        signature=solver.compiled.signature,
        width=solver.compiled.width,
        td=td,
    ).td


def oracle_encoding(solver, structure, td=None):
    """The value-level ``A_td`` of ``structure`` (``encode_normalized``)
    on the normalized decomposition the solver's own load would use --
    the oracle form of ``solver._prepare`` on the admitted ``td``."""
    from repro.treewidth import encode_normalized

    admitted = admitted_td(solver, structure, td)
    return encode_normalized(structure, solver._normalize(structure, admitted))


def reference_query(solver, structure, td=None):
    """``solver.query(structure, td)`` recomputed by the semi-naive set
    engine on the value-level ``A_td`` encoding of the same normalized
    decomposition."""
    from repro.core import ANSWER_PREDICATE

    derived = solve(
        solver.compiled.program,
        oracle_encoding(solver, structure, td),
        backend="semi-naive",
    )
    return frozenset(args[0] for args in derived.relation(ANSWER_PREDICATE))


def deleted_ladders(seed=7, count=300, deleted=0.10):
    """Random vertex-deleted 2 x N ladders, N in [32, 128]."""
    rng = random.Random(seed)
    for _ in range(count):
        ladder = Graph.grid(2, rng.randint(32, 128))
        keep = [v for v in sorted(ladder.vertices) if rng.random() >= deleted]
        yield subgraph(ladder, keep)


@functools.lru_cache(maxsize=None)
def graph_query_compile(name: str, width: int):
    """The ``formulas.<name>("x")`` query compiled once per session --
    width 1 over undirected graphs, width 2 over the grid class (the
    width-2 compile takes seconds) -- as ``(solver, witnesses)``: the
    ``CourcelleSolver`` and the canonical witness structure of every
    type in the compiler's ``TypeTable``.  Read-only: tests that change
    a solver build their own."""
    from unittest import mock

    import repro.core.solver as solver_module
    from repro.core import (
        CourcelleSolver,
        MSOToDatalogCompiler,
        grid_graph_filter,
        undirected_graph_filter,
    )
    from repro.mso import formulas
    from repro.structures import GRAPH_SIGNATURE

    formula = getattr(formulas, name)("x")
    structure_filter = grid_graph_filter if width == 2 else undirected_graph_filter
    compiler = MSOToDatalogCompiler(
        formula,
        GRAPH_SIGNATURE,
        width,
        free_var="x",
        structure_filter=structure_filter,
    )
    compiled = compiler.compile()
    # the solver's own compile would rebuild the same program; hand it
    # this one, so the type table it came from is the witnesses'
    with mock.patch.object(
        solver_module.MSOToDatalogCompiler, "compile", lambda self: compiled
    ):
        solver = CourcelleSolver(
            formula,
            GRAPH_SIGNATURE,
            width=width,
            free_var="x",
            structure_filter=structure_filter,
        )
    return solver, tuple(entry.structure for entry in compiler._table)


def has_neighbor_solver(width: int):
    """The compiled ``has_neighbor`` solver of :func:`graph_query_compile`."""
    return graph_query_compile("has_neighbor", width)[0]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBEEF)
