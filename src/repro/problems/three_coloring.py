"""3-Colorability over bounded-treewidth graphs (Section 5.1, Figure 5).

Three interchangeable solvers, cross-validated against each other in the
test-suite:

* :class:`ThreeColoringDatalog` -- the Figure 5 program, verbatim up to
  engine syntax, executed by the semi-naive datalog engine.  ``solve(s,
  R, G, B)`` is the succinct non-monadic predicate whose arguments are
  fixed-size subsets of the bag (Theorem 5.1 explains why this is a
  succinct monadic program); ``partition`` and ``allowed`` are the
  helper predicates the paper precomputes alongside the decomposition.
  :func:`prepare_decomposition` builds the nice form in one pass
  (:func:`~repro.treewidth.nice.make_nice`, which checks its shape and
  width) and checks the Section 2.2 axioms once, on the nice bags,
  against the graph.  The input is loaded in id space:
  :func:`load_for_three_coloring` writes ``A_td`` with its
  ``copynode`` tags and the ``allowed`` facts, computed and interned
  once per distinct bag, straight into a
  :class:`~repro.datalog.setengine.SetDatabase`
  (:func:`repro.treewidth.encode.load_nice_ids`).  Every set there --
  each bag and each ``allowed`` subset -- is an integer bitset over the
  vertex ids (:meth:`~repro.datalog.interning.Interner.intern_set`), so
  the ``add`` and ``partition3`` calls run as integer operations in ids
  (:meth:`~repro.datalog.builtins.Builtin.id_kernel`).  The set engine
  runs the fixpoint there, and :meth:`ThreeColoringDatalog.decide`
  reads the one nullary fact ``success`` without decoding anything;
  :attr:`ThreeColoringRun.database` decodes the sets back to
  frozensets of vertices.  :func:`encode_for_three_coloring` is the
  value-level form of the same input, with frozensets throughout: the
  load's oracle.
* :func:`three_coloring_direct` -- the same dynamic program hand-coded
  in Python ("one can of course go one step further and implement our
  algorithms directly in Java, C++, etc.", Section 1), including witness
  extraction.
* :func:`three_coloring_bruteforce` -- exhaustive search, the ground
  truth for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Hashable, Mapping

from ..datalog.ast import Program, atom, pos, rule, var
from ..datalog.evaluate import Database, prepare_program
from ..datalog.interning import Interner, iter_bits
from ..datalog.setengine import SetDatabase, SetSemiNaiveEvaluator
from ..structures.graphs import Graph, graph_to_structure
from ..structures.structure import Structure
from ..treewidth.decomposition import TreeDecomposition
from ..treewidth.encode import TDNode, encode_nice, load_nice_ids
from ..treewidth.heuristics import decomposition_from_order, min_fill_order
from ..treewidth.nice import NiceNodeKind, NiceTreeDecomposition, make_nice

Vertex = Hashable
Coloring = dict[Vertex, str]


# ----------------------------------------------------------------------
# Shared preparation
# ----------------------------------------------------------------------


def prepare_decomposition(
    graph: Graph, td: TreeDecomposition | None = None
) -> NiceTreeDecomposition:
    """Heuristic (min-fill) decomposition + Section 5 normal form.

    ``make_nice`` checks the width and the normal-form shape.  The
    Section 2.2 axioms are checked here, once, on the nice bags and
    against the graph itself, whether ``td`` is given or built.
    Raises :class:`~repro.errors.InvalidDecomposition` if ``td`` does
    not decompose ``graph``."""
    if td is None:
        td = decomposition_from_order(graph, min_fill_order(graph))
    nice = make_nice(td)
    nice.validate_for_graph(graph)
    return nice


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
    near = graph.neighbor_map()
    vertices = list(near)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    neighbours = _neighbour_bits(near, bit)
    allowed = {
        (TDNode(node), frozenset(map(vertices.__getitem__, iter_bits(bits))))
        for node, bag in nice.bags.items()
        for bits in _allowed(neighbours, sum(map(bit.__getitem__, bag)))
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
    """:func:`encode_for_three_coloring`, loaded straight into ids
    (:func:`~repro.treewidth.encode.load_nice_ids`).

    Every bag and every ``allowed`` subset is interned as a bitset set
    over the vertex ids (:meth:`~repro.datalog.interning.Interner.
    intern_set`), so Figure 5's ``add`` and ``partition3`` run as
    integer operations; ``allowed`` is computed once per distinct bag,
    by integer operations over a neighbour bitmap built once per load.
    """
    near = graph.neighbor_map()

    def bag_facts(interner: Interner):
        bit = {v: 1 << interner.id_of(v) for v in near}
        neighbours = _neighbour_bits(near, bit)
        intern_set = interner.intern_set

        def facts(bag):
            bits = sum(map(bit.__getitem__, bag))
            return (intern_set(bits),), [
                ("allowed", (intern_set(chosen),))
                for chosen in _allowed(neighbours, bits)
            ]

        return facts

    return load_nice_ids(graph_to_structure(graph), nice, bag_facts)


def _neighbour_bits(
    near: Mapping[Vertex, frozenset], bit: Mapping[Vertex, int]
) -> dict[int, int]:
    """Each vertex's bit -> the bitset of its neighbours under ``near``,
    with the vertex bits ``bit`` gives."""
    return {
        bit[v]: sum(map(bit.__getitem__, adjacent))
        for v, adjacent in near.items()
    }


def _allowed(near: Mapping[int, int], bag: int) -> list[int]:
    """The subsets of the bitset ``bag`` with no two vertices adjacent
    under ``near`` (a vertex's bit -> its neighbours' bitset); a vertex
    with a self-loop is in none of them."""
    subsets = [0]
    while bag:
        v = bag & -bag
        bag ^= v
        adjacent = near[v]
        if not adjacent & v:
            subsets += [s | v for s in subsets if not s & adjacent]
    return subsets


def _has_internal_edge(
    near: Mapping[Vertex, frozenset], vertices: frozenset
) -> bool:
    return any(not near[v].isdisjoint(vertices) for v in vertices)


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
        nice = prepare_decomposition(graph, td)
        evaluator = SetSemiNaiveEvaluator.from_prepared(self.prepared)
        db = evaluator.run(load_for_three_coloring(graph, nice))
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

State = tuple[frozenset, frozenset, frozenset]  # (R, G, B) projections


def three_coloring_direct(
    graph: Graph,
    td: TreeDecomposition | None = None,
    want_witness: bool = False,
) -> tuple[bool, Coloring | None]:
    """Bottom-up DP computing exactly the ``solve`` facts of Property A.

    Returns ``(colorable, witness)`` where the witness is a full
    3-coloring when requested and one exists.
    """
    if graph.vertex_count() == 0:
        return True, {} if want_witness else None
    nice = prepare_decomposition(graph, td)
    tree = nice.tree
    near = graph.neighbor_map()

    states: dict[int, set[State]] = {}
    # provenance for witness extraction: (node, state) -> choice record
    provenance: dict[tuple[int, State], tuple] = {}

    for node in tree.postorder():
        kind = nice.node_kind(node)
        bag = nice.bag(node)
        here: set[State] = set()
        if kind is NiceNodeKind.LEAF:
            for state in _leaf_states(near, bag):
                here.add(state)
                provenance[(node, state)] = ("leaf",)
        elif kind is NiceNodeKind.INTRODUCTION:
            (child,) = tree.children(node)
            v = nice.introduced_element(node)
            for state in states[child]:
                for i in range(3):
                    grown = tuple(
                        part | {v} if j == i else part
                        for j, part in enumerate(state)
                    )
                    if _conflicts(near, v, grown[i]):
                        continue
                    grown = (grown[0], grown[1], grown[2])
                    here.add(grown)
                    provenance.setdefault(
                        (node, grown), ("intro", state, v, "RGB"[i])
                    )
        elif kind is NiceNodeKind.REMOVAL:
            (child,) = tree.children(node)
            v = nice.removed_element(node)
            for state in states[child]:
                shrunk = tuple(part - {v} for part in state)
                shrunk = (shrunk[0], shrunk[1], shrunk[2])
                here.add(shrunk)
                provenance.setdefault((node, shrunk), ("forget", state))
        elif kind is NiceNodeKind.COPY:
            (child,) = tree.children(node)
            for state in states[child]:
                here.add(state)
                provenance.setdefault((node, state), ("copy", state))
        else:  # branch
            c1, c2 = tree.children(node)
            for state in states[c1] & states[c2]:
                here.add(state)
                provenance.setdefault((node, state), ("branch", state, state))
        states[node] = here

    root_states = states[tree.root]
    if not root_states:
        return False, None
    if not want_witness:
        return True, None
    coloring: Coloring = {}
    _reconstruct(
        nice, states, provenance, tree.root, next(iter(root_states)), coloring
    )
    return True, coloring


def _leaf_states(near: Mapping[Vertex, frozenset], bag: frozenset):
    items = sorted(bag, key=repr)
    for assignment in product(range(3), repeat=len(items)):
        parts: list[set] = [set(), set(), set()]
        for v, color in zip(items, assignment):
            parts[color].add(v)
        if any(_has_internal_edge(near, frozenset(p)) for p in parts):
            continue
        yield (frozenset(parts[0]), frozenset(parts[1]), frozenset(parts[2]))


def _conflicts(
    near: Mapping[Vertex, frozenset], v: Vertex, part: frozenset
) -> bool:
    adjacent = near[v]
    return v in adjacent or not adjacent.isdisjoint(part)


def _reconstruct(
    nice: NiceTreeDecomposition,
    states: dict,
    provenance: dict,
    node: int,
    state: State,
    coloring: Coloring,
) -> None:
    for part, color in zip(state, "RGB"):
        for v in part:
            coloring[v] = color
    record = provenance[(node, state)]
    kind = record[0]
    children = nice.tree.children(node)
    if kind == "leaf":
        return
    if kind in ("forget", "copy"):
        _reconstruct(nice, states, provenance, children[0], record[1], coloring)
    elif kind == "intro":
        _reconstruct(nice, states, provenance, children[0], record[1], coloring)
    elif kind == "branch":
        _reconstruct(nice, states, provenance, children[0], record[1], coloring)
        _reconstruct(nice, states, provenance, children[1], record[2], coloring)


# ----------------------------------------------------------------------
# Brute force baseline
# ----------------------------------------------------------------------


def three_coloring_bruteforce(graph: Graph) -> bool:
    """Try all 3^n colorings; ground truth for small graphs."""
    vertices = sorted(graph.vertices, key=repr)
    for assignment in product(range(3), repeat=len(vertices)):
        color = dict(zip(vertices, assignment))
        if all(
            color[u] != color[v] for u, v in graph.edges() if u != v
        ) and not any(graph.has_edge(v, v) for v in vertices):
            return True
    return not vertices


def is_valid_coloring(graph: Graph, coloring: Mapping[Vertex, str]) -> bool:
    if set(coloring) != set(graph.vertices):
        return False
    return all(
        coloring[u] != coloring[v] for u, v in graph.edges() if u != v
    ) and not any(graph.has_edge(v, v) for v in graph.vertices)
