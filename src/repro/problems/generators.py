"""Workload generators for tests, examples and benchmarks.

Section 6: "Due to the lack of available test data, we generated a
balanced normalized tree decomposition.  Test data sets with increasing
input parameters are then generated by expanding the tree in a
depth-first style.  We have ensured that all different kinds of nodes
occur evenly in the tree decomposition."

:func:`table1_instance` mirrors that: a balanced binary tree of schema
gadgets (3 attributes + 1 FD each, so #Att = 3·#FD exactly as in
Table 1), whose decomposition is widened to width 3 -- the ``tw``
column of the paper's table is the width of the *generated* full-bag
decomposition.  The nice-form conversion then exhibits every node kind.

The remaining generators produce random bounded-treewidth graphs and
random schemas for the property-based tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..structures.graphs import Graph
from ..structures.schema import FunctionalDependency, RelationalSchema
from ..treewidth.decomposition import RootedTree, TreeDecomposition
from ..treewidth.heuristics import decompose_structure
from ..treewidth.normalize import widen


@dataclass(frozen=True)
class Table1Instance:
    """One row of the Table 1 workload."""

    schema: RelationalSchema
    decomposition: TreeDecomposition  # width 3, covers the schema structure
    num_attributes: int
    num_fds: int

    @property
    def treewidth(self) -> int:
        return self.decomposition.width


#: The (#Att, #FD) columns of Table 1.
TABLE1_SIZES: tuple[tuple[int, int], ...] = (
    (3, 1),
    (6, 2),
    (9, 3),
    (12, 4),
    (21, 7),
    (33, 11),
    (45, 15),
    (57, 19),
    (69, 23),
    (81, 27),
    (93, 31),
)


def table1_schema(num_gadgets: int) -> RelationalSchema:
    """A balanced binary tree of FD gadgets.

    Gadget i contributes attributes ``p_i, q_i, r_i`` and one FD; the
    root gadget has ``p·q -> r`` and every other gadget couples to its
    parent: ``r_parent · p_i -> q_i``.  The result has 3·n attributes
    and n FDs, a tree-shaped incidence graph, and a non-trivial mix of
    prime and non-prime attributes.
    """
    if num_gadgets < 1:
        raise ValueError("need at least one gadget")
    attributes: list[str] = []
    fds: list[FunctionalDependency] = []
    for i in range(num_gadgets):
        attributes += [f"p{i}", f"q{i}", f"r{i}"]
    fds.append(FunctionalDependency("f0", frozenset({"p0", "q0"}), "r0"))
    for i in range(1, num_gadgets):
        parent = (i - 1) // 2
        fds.append(
            FunctionalDependency(
                f"f{i}", frozenset({f"r{parent}", f"p{i}"}), f"q{i}"
            )
        )
    return RelationalSchema(attributes, fds)


def table1_instance(num_gadgets: int, width: int = 3) -> Table1Instance:
    """A Table 1 row: the gadget schema plus a width-3 decomposition."""
    schema = table1_schema(num_gadgets)
    structure = schema.to_structure()
    td = decompose_structure(structure)
    if td.width < width:
        td = widen(td, width)
    td.validate_for_structure(structure)
    return Table1Instance(
        schema=schema,
        decomposition=td,
        num_attributes=len(schema.attributes),
        num_fds=len(schema.fds),
    )


# ----------------------------------------------------------------------
# Random instances for property-based testing
# ----------------------------------------------------------------------


def random_schema(
    rng: random.Random,
    num_attributes: int,
    num_fds: int,
    max_lhs: int = 3,
) -> RelationalSchema:
    """A uniformly messy random schema (no treewidth guarantee)."""
    if num_attributes < 1:
        raise ValueError("need at least one attribute")
    attributes = [chr(ord("a") + i) for i in range(num_attributes)]
    fds = []
    for i in range(num_fds):
        rhs = rng.choice(attributes)
        pool = [x for x in attributes if x != rhs]
        if not pool:
            continue
        size = rng.randint(1, min(max_lhs, len(pool)))
        lhs = frozenset(rng.sample(pool, size))
        fds.append(FunctionalDependency(f"f{i + 1}", lhs, rhs))
    return RelationalSchema(attributes, fds)


def random_partial_ktree(
    rng: random.Random,
    num_vertices: int,
    k: int,
    edge_probability: float = 0.7,
) -> tuple[Graph, TreeDecomposition]:
    """A random graph of treewidth <= k together with a witnessing
    decomposition.

    Grows a width-k decomposition node by node (each new vertex replaces
    one element of an existing bag) and keeps each bag-internal edge
    with ``edge_probability`` -- a random partial k-tree.
    """
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    base = list(range(min(k + 1, num_vertices)))
    graph = Graph(range(num_vertices))
    tree = RootedTree()
    bags: dict[int, frozenset] = {tree.root: frozenset(base)}
    anchors = [tree.root]
    for v in range(len(base), num_vertices):
        host = rng.choice(anchors)
        bag = sorted(bags[host], key=repr)
        dropped = rng.choice(bag)
        new_bag = frozenset(set(bags[host]) - {dropped} | {v})
        node = tree.add_child(host)
        bags[node] = new_bag
        anchors.append(node)
    td = TreeDecomposition(tree, bags)
    for node in td.tree.nodes():
        bag = sorted(td.bags[node], key=repr)
        for i, u in enumerate(bag):
            for w in bag[i + 1 :]:
                if rng.random() < edge_probability:
                    graph.add_edge(u, w)
    td.validate_for_graph(graph)
    return graph, td


def random_tree_graph(rng: random.Random, num_vertices: int) -> Graph:
    """A uniformly random labelled tree (treewidth 1)."""
    graph = Graph(range(num_vertices))
    for v in range(1, num_vertices):
        graph.add_edge(v, rng.randrange(v))
    return graph


def random_graph(
    rng: random.Random, num_vertices: int, edge_probability: float
) -> Graph:
    """An Erdos-Renyi graph (no treewidth guarantee; small n only)."""
    graph = Graph(range(num_vertices))
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_probability:
                graph.add_edge(u, v)
    return graph
