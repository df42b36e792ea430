"""3-Colorability over bounded-treewidth graphs (Section 5.1, Figure 5).

Two interchangeable solvers, cross-validated against each other and
against exhaustive search in the test-suite:

* :class:`ThreeColoringDatalog` -- the Figure 5 program, verbatim up to
  engine syntax, executed by the semi-naive datalog engine.  ``solve(s,
  R, G, B)`` is the succinct non-monadic predicate whose arguments are
  fixed-size subsets of the bag (Theorem 5.1 explains why this is a
  succinct monadic program); ``partition`` and ``allowed`` are the
  helper predicates the paper precomputes alongside the decomposition.
  From graph to ``success`` it runs in one id space: :meth:`run`
  interns the graph once
  (:meth:`~repro.treewidth.decomposition.ElementIds.of_graph`, ids in
  ``repr`` order), builds the min-fill decomposition on those ids or
  reads a caller's ``td`` into them, builds the nice form there
  (:func:`~repro.treewidth.nice.make_nice_ids`, nodes in preorder) and
  checks the Section 2.2 axioms once, on the nice bags, against the
  graph (:func:`prepare_ids`, :func:`nice_form`).  The load
  (:func:`load_for_three_coloring_ids`, over
  :func:`repro.treewidth.encode.load_nice_ids`) writes ``A_td`` with
  its ``copynode`` tags and the ``allowed`` facts, computed and
  interned once per distinct bag, straight into a
  :class:`~repro.datalog.setengine.SetDatabase`: vertex ``i`` keeps
  the id ``i`` and is the bit ``1 << i``, node ``k`` gets the id
  after the vertices', and every set -- each bag and each ``allowed``
  subset -- is an integer bitset over the vertex ids
  (:meth:`~repro.datalog.interning.Interner.intern_set`), so the
  ``add`` and ``partition3`` calls run as integer operations in ids
  (:meth:`~repro.datalog.builtins.Builtin.id_kernel`).  No value is
  built on the way: tree nodes and sets get their values only when
  read back.  The set engine runs the fixpoint there, and
  :meth:`ThreeColoringDatalog.decide` reads the one nullary fact
  ``success`` without decoding anything;
  :attr:`ThreeColoringRun.database` decodes the sets back to
  frozensets of vertices.  :func:`prepare_decomposition` and
  :func:`load_for_three_coloring` are the value-level entries (intern,
  run the id route, decode); :func:`encode_for_three_coloring` is the
  value-level form of the same input, with frozensets throughout: the
  load's oracle.
* :func:`three_coloring_direct` -- the same dynamic program hand-coded
  in Python ("one can of course go one step further and implement our
  algorithms directly in Java, C++, etc.", Section 1), including witness
  extraction.  It is :func:`k_coloring_direct` with k = 3: one
  transition per nice-node kind on the one bottom-up walk
  (:func:`~repro.treewidth.nice.bottom_up`), computing per node exactly
  the ``solve`` facts of Figure 5 (:func:`coloring_states`).

The ground truth for small instances is exhaustive search,
:func:`repro.problems.k_coloring.k_coloring_bruteforce` with k = 3, and
a witness is checked by :func:`~repro.problems.k_coloring.
is_valid_k_coloring`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Hashable

from ..datalog.ast import Program, atom, pos, rule, var
from ..datalog.evaluate import Database, prepare_program
from ..datalog.interning import Interner, iter_bits
from ..datalog.setengine import SetDatabase, SetSemiNaiveEvaluator
from ..errors import InvalidDecomposition
from ..structures.graphs import Graph, graph_to_structure
from ..structures.signature import GRAPH_SIGNATURE
from ..structures.structure import Structure
from ..treewidth.decomposition import (
    ElementIds,
    IdDecomposition,
    NodeId,
    TreeDecomposition,
)
from ..treewidth.encode import TDNode, encode_nice, load_nice_ids
from ..treewidth.heuristics import decompose_ids
from ..treewidth.nice import NiceTreeDecomposition, bottom_up, make_nice_ids

Vertex = Hashable
Coloring = dict[Vertex, int]


# ----------------------------------------------------------------------
# Shared preparation
# ----------------------------------------------------------------------


def prepare_ids(
    ids: ElementIds, td: TreeDecomposition | None = None
) -> IdDecomposition:
    """Figure 5's front end on a graph interned as ``ids``
    (:meth:`~repro.treewidth.decomposition.ElementIds.of_graph`): the
    min-fill decomposition, or ``td`` read into ids, in the Section 5
    normal form, checked once (:func:`nice_form`).  Raises
    :class:`~repro.errors.InvalidDecomposition` if ``td`` does not
    decompose the graph."""
    return nice_form(
        ids, decompose_ids(ids, True) if td is None else ids.decomposition(td)
    )


def nice_form(ids: ElementIds, dec: IdDecomposition) -> IdDecomposition:
    """The Section 5 normal form of ``dec``
    (:func:`~repro.treewidth.nice.make_nice_ids`, nodes in preorder),
    with the Section 2.2 axioms checked on its bags against the graph
    ``ids`` interns: the one check, whether ``dec`` was built or given.
    The violations, and the order they are listed in, are those of
    :meth:`~repro.treewidth.decomposition.TreeDecomposition.
    graph_violations` on the decoded nice form."""
    nice = make_nice_ids(dec)
    violations = ids.violations(nice)
    if violations:
        raise InvalidDecomposition.from_violations(violations)
    return nice


def prepare_decomposition(
    graph: Graph, td: TreeDecomposition | None = None
) -> NiceTreeDecomposition:
    """:func:`prepare_ids` on ``graph``, decoded: the nice tree of the
    min-fill decomposition (or of ``td``), its nodes labelled in
    preorder.  Raises :class:`~repro.errors.InvalidDecomposition` if
    ``td`` does not decompose ``graph``."""
    ids = ElementIds.of_graph(graph)
    return prepare_ids(ids, td).decoded(ids.values, NiceTreeDecomposition)


def encode_for_three_coloring(
    graph: Graph, nice: NiceTreeDecomposition
) -> Structure:
    """``A_td`` plus the precomputed ``allowed`` facts.

    ``allowed(s, X)`` holds iff ``X`` is a subset of the bag of ``s``
    containing no two adjacent vertices; the paper computes these "as
    part of the computation of the tree decomposition", which "fits into
    the linear time bound" for fixed w.  Every set is a frozenset here.
    """
    encoded = encode_nice(graph_to_structure(graph), nice)
    ids = ElementIds.of_graph(graph)
    vertices, index = ids.values, ids.index
    near = _neighbour_bits(ids)
    allowed = {
        (TDNode(node), frozenset(map(vertices.__getitem__, iter_bits(bits))))
        for node, bag in nice.bags.items()
        for bits in _allowed(near, sum(1 << index[v] for v in bag))
    }
    signature = encoded.signature.extended({"allowed": 2})
    relations = {name: set(encoded.relation(name)) for name in encoded.signature}
    relations["allowed"] = allowed
    return Structure(
        signature,
        set(encoded.domain).union(chosen for _, chosen in allowed),
        relations,
    )


def load_for_three_coloring(
    graph: Graph, nice: NiceTreeDecomposition
) -> SetDatabase:
    """:func:`encode_for_three_coloring`, loaded straight into ids: the
    value-level entry of :func:`load_for_three_coloring_ids`, which it
    reaches by interning ``graph`` and ``nice`` (labels kept)."""
    ids = ElementIds.of_graph(graph)
    return load_for_three_coloring_ids(ids, ids.decomposition(nice))


def load_for_three_coloring_ids(
    ids: ElementIds, nice: IdDecomposition
) -> SetDatabase:
    """Figure 5's input for the graph ``ids`` interns and its nice form
    over those ids (:func:`~repro.treewidth.encode.load_nice_ids`).

    Vertex ``i`` is bit ``1 << i``: every bag and every ``allowed``
    subset is interned as a bitset set over the vertex ids
    (:meth:`~repro.datalog.interning.Interner.intern_set`), so Figure
    5's ``add`` and ``partition3`` run as integer operations;
    ``allowed`` is computed once per distinct bag, by integer
    operations over the neighbour bitsets.  No value-level structure
    is built: ``e`` is written from the interned edges.
    """
    near = _neighbour_bits(ids)

    def bag_facts(interner: Interner):
        intern_set = interner.intern_set

        def facts(bag):
            bits = 0
            for x in bag:
                bits |= 1 << x
            allowed = [(intern_set(chosen),) for chosen in _allowed(near, bits)]
            return (intern_set(bits),), {"allowed": allowed}

        return facts

    edges = ids.relations[None]
    e = set(edges)
    e.update([(v, u) for u, v in edges])
    return load_nice_ids(GRAPH_SIGNATURE, {"e": e}, ids, nice, bag_facts)


def _neighbour_bits(ids: ElementIds) -> list[int]:
    """Per vertex id, the bitset of its neighbours' ids in the graph
    ``ids`` interns."""
    near = [0] * len(ids.values)
    for u, v in ids.relations[None]:
        near[u] |= 1 << v
        near[v] |= 1 << u
    return near


def _allowed(near: list[int], bag: int) -> list[int]:
    """The subsets of the bitset ``bag`` with no two vertices adjacent
    under ``near`` (per vertex id, its neighbours' bitset); a vertex
    with a self-loop is in none of them."""
    subsets = [0]
    while bag:
        v = bag & -bag
        bag ^= v
        adjacent = near[v.bit_length() - 1]
        if not adjacent & v:
            subsets += [s | v for s in subsets if not s & adjacent]
    return subsets


# ----------------------------------------------------------------------
# The Figure 5 program
# ----------------------------------------------------------------------


def three_coloring_program() -> Program:
    """The datalog program of Figure 5.

    Data-independent: the same program runs on every encoded instance.
    ``⊎`` is the ``add`` built-in, ``partition`` is ``partition3``; the
    ``copy`` rule extends the paper's set to the equal-bag copy nodes
    that the Section 5.3 transformation introduces.
    """
    S, S1, S2 = var("S"), var("S1"), var("S2")
    X, XV, V = var("X"), var("XV"), var("V")
    R, G, B = var("R"), var("G"), var("B")
    R2, G2, B2 = var("R2"), var("G2"), var("B2")

    rules = [
        # leaf node
        rule(
            atom("solve", S, R, G, B),
            pos("leaf", S),
            pos("bag", S, X),
            pos("partition3", X, R, G, B),
            pos("allowed", S, R),
            pos("allowed", S, G),
            pos("allowed", S, B),
        ),
    ]
    # element introduction node: the new vertex joins R, G or B.
    for color, grown in (("R", R2), ("G", G2), ("B", B2)):
        old = {"R": R, "G": G, "B": B}
        head_args = [S] + [grown if c == color else old[c] for c in "RGB"]
        rules.append(
            rule(
                atom("solve", *head_args),
                pos("bag", S, XV),
                pos("child1", S1, S),
                pos("bag", S1, X),
                pos("add", X, V, XV),
                pos("solve", S1, R, G, B),
                pos("add", old[color], V, grown),
                pos("allowed", S, grown),
            )
        )
    # element removal node: the removed vertex was in R, G or B.
    for color, grown in (("R", R2), ("G", G2), ("B", B2)):
        old = {"R": R, "G": G, "B": B}
        body_args = [S1] + [grown if c == color else old[c] for c in "RGB"]
        rules.append(
            rule(
                atom("solve", S, R, G, B),
                pos("bag", S, X),
                pos("child1", S1, S),
                pos("bag", S1, XV),
                pos("add", X, V, XV),
                pos("solve", *body_args),
                pos("add", old[color], V, grown),
            )
        )
    rules += [
        # branch node
        rule(
            atom("solve", S, R, G, B),
            pos("bag", S, X),
            pos("child1", S1, S),
            pos("child2", S2, S),
            pos("bag", S1, X),
            pos("bag", S2, X),
            pos("solve", S1, R, G, B),
            pos("solve", S2, R, G, B),
        ),
        # copy node (equal-bag unary node; identity transition)
        rule(
            atom("solve", S, R, G, B),
            pos("copynode", S),
            pos("child1", S1, S),
            pos("solve", S1, R, G, B),
        ),
        # result (at the root node)
        rule(
            atom("success"),
            pos("root", S),
            pos("solve", S, R, G, B),
        ),
    ]
    return Program(rules, builtin_names=("add", "partition3"))


@dataclass
class ThreeColoringRun:
    colorable: bool
    solve_fact_count: int
    #: the fixpoint in id space (None for the empty graph)
    interned: SetDatabase | None = field(default=None, repr=False)

    @cached_property
    def database(self) -> Database:
        """The fixpoint as a value-level database, decoded on first
        access."""
        if self.interned is None:
            return Database()
        return self.interned.decode()


class ThreeColoringDatalog:
    """Figure 5, executed by the set-at-a-time semi-naive engine on
    the input :func:`load_for_three_coloring` writes in id space.
    The program is planned once, here; every :meth:`run` reuses the
    plan."""

    def __init__(self) -> None:
        self.program = three_coloring_program()
        self.prepared = prepare_program(self.program)

    def run(
        self, graph: Graph, td: TreeDecomposition | None = None
    ) -> ThreeColoringRun:
        if graph.vertex_count() == 0:
            return ThreeColoringRun(True, 0)
        ids = ElementIds.of_graph(graph)
        nice = prepare_ids(ids, td)
        evaluator = SetSemiNaiveEvaluator.from_prepared(self.prepared)
        db = evaluator.run(load_for_three_coloring_ids(ids, nice))
        return ThreeColoringRun(
            colorable=db.contains("success", ()),
            solve_fact_count=len(db.relation("solve")),
            interned=db,
        )

    def decide(self, graph: Graph, td: TreeDecomposition | None = None) -> bool:
        return self.run(graph, td).colorable


# ----------------------------------------------------------------------
# Direct dynamic program (the paper's "C++ implementation" analogue)
# ----------------------------------------------------------------------

#: a DP state: the bag projections of the colour classes 0..k-1
State = tuple[frozenset, ...]


def coloring_states(
    graph: Graph, nice: NiceTreeDecomposition, k: int
) -> tuple[dict[NodeId, set[State]], dict[tuple[NodeId, State], State]]:
    """Exactly the ``solve`` facts of Property A, with k colour
    classes, per node: Figure 5's transitions on the one bottom-up walk
    (:func:`~repro.treewidth.nice.bottom_up`).

    Returns the state sets and, for every state of an introduction or
    removal node, one child state it came from (the witness trail; a
    branch or copy node's children hold the state itself)."""
    near = graph.neighbor_map()
    colours = range(k)
    came_from: dict[tuple[NodeId, State], State] = {}

    def leaf(node: NodeId) -> set[State]:
        # every colouring of the bag, kept if no class holds an edge
        bag = tuple(nice.bag(node))
        here = set()
        for assignment in product(colours, repeat=len(bag)):
            parts: list[set] = [set() for _ in colours]
            for v, colour in zip(bag, assignment):
                parts[colour].add(v)
            state = tuple(map(frozenset, parts))
            if all(near[v].isdisjoint(part) for part in state for v in part):
                here.add(state)
        return here

    def introduce(node: NodeId, states: set[State], v: Vertex) -> set[State]:
        adjacent = near[v]
        here = set()
        for state in states:
            for i in colours:
                grown = tuple(
                    part | {v} if j == i else part
                    for j, part in enumerate(state)
                )
                if not adjacent.isdisjoint(grown[i]):
                    continue  # v next to a vertex of its class, or looped
                here.add(grown)
                came_from.setdefault((node, grown), state)
        return here

    def remove(node: NodeId, states: set[State], v: Vertex) -> set[State]:
        here = set()
        for state in states:
            shrunk = tuple(part - {v} for part in state)
            here.add(shrunk)
            came_from.setdefault((node, shrunk), state)
        return here

    def branch(node: NodeId, left: set[State], right: set[State]) -> set[State]:
        return left & right

    states = bottom_up(nice, leaf, introduce, remove, branch)
    return states, came_from


def k_coloring_direct(
    graph: Graph,
    k: int,
    td: TreeDecomposition | None = None,
    want_witness: bool = False,
) -> tuple[bool, Coloring | None]:
    """Is ``graph`` properly k-colourable?  Figure 5's dynamic program
    with k colour classes (:func:`coloring_states`); O(k^{w+1} * |T|)
    for width w.

    Returns ``(colourable, witness)``; the witness, when requested and
    one exists, maps every vertex to its colour in ``0..k-1``.
    """
    if k < 1:
        raise ValueError("need at least one color")
    if graph.vertex_count() == 0:
        return True, ({} if want_witness else None)
    nice = prepare_decomposition(graph, td)
    states, came_from = coloring_states(graph, nice, k)
    tree = nice.tree
    root_states = states[tree.root]
    if not root_states:
        return False, None
    if not want_witness:
        return True, None
    coloring: Coloring = {}
    trail = [(tree.root, next(iter(root_states)))]
    while trail:
        node, state = trail.pop()
        for colour, part in enumerate(state):
            coloring.update(dict.fromkeys(part, colour))
        below = came_from.get((node, state), state)
        trail.extend((child, below) for child in tree.children(node))
    return True, coloring


def three_coloring_direct(
    graph: Graph,
    td: TreeDecomposition | None = None,
    want_witness: bool = False,
) -> tuple[bool, Coloring | None]:
    """:func:`k_coloring_direct` with the three colours of Figure 5."""
    return k_coloring_direct(graph, 3, td, want_witness)
