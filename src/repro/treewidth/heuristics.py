"""Tree-decomposition construction via elimination orderings.

The paper invokes Bodlaender's linear-time exact algorithm [3] as a black
box.  That algorithm is famously impractical; like every implementation
the paper's experiments rely on directly constructed or heuristic
decompositions (their Section 6 *generates* the decomposition together
with the data).  We substitute the classic greedy elimination heuristics
-- min-degree and min-fill -- which produce valid decompositions whose
width is near-optimal on the graph families used here, plus an exact
branch-and-bound in :mod:`repro.treewidth.exact` for small instances.
Each caller uses one order.  Admission's rebuild
(:func:`repro.admission.redecompose`) runs min-degree, which is exact
at treewidth <= 2 -- such a graph always has a vertex of degree <= 2,
and eliminating it contracts an edge, leaving a minor of treewidth <= 2
again -- so it rebuilds every structure of the widths that compile
within them.  :func:`decompose_graph` and :func:`decompose_structure`,
the Section 5 front end's, run min-fill.  Neither order is exact from
width 3 on.
``src/repro/core/README.md`` records the substitution (**Substitutions**)
and what each front-end stage costs per solve (**The solve front end**).

On bounded-degree graphs the orders cost O(n log n), one heap pop per
step: a lazy heap keyed ``(cost, repr(v), insertion index)`` replaces a
``min`` scan over all remaining vertices, and eliminating ``v``
re-costs only the vertices whose cost it can change.  The order is exactly the one the
scan picked -- the insertion index breaks ``repr`` ties the way
``min`` did, by first occurrence.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Sequence

from ..structures.graphs import Graph, gaifman_graph
from ..structures.structure import Structure
from .decomposition import RootedTree, TreeDecomposition

Vertex = Hashable


def _neighbor_sets(graph: Graph) -> dict[Vertex, set[Vertex]]:
    return {v: set(graph.neighbors(v)) - {v} for v in graph.vertices}


def _fill_in_count(adj: dict[Vertex, set[Vertex]], v: Vertex) -> int:
    """Number of edges that eliminating ``v`` would add: the pairs of
    its neighbours less the edges among them, each of which the set
    intersections see from both ends."""
    nbrs = adj[v]
    k = len(nbrs)
    return k * (k - 1) // 2 - sum(len(adj[a] & nbrs) for a in nbrs) // 2


def _degree(adj: dict[Vertex, set[Vertex]], v: Vertex) -> int:
    return len(adj[v])


def min_degree_order(graph: Graph) -> list[Vertex]:
    """Greedy elimination order, always removing a minimum-degree vertex."""
    return _greedy_order(graph, _degree, second_ring=False)


def min_fill_order(graph: Graph) -> list[Vertex]:
    """Greedy elimination order, always removing a minimum-fill-in vertex."""
    return _greedy_order(graph, _fill_in_count, second_ring=True)


def _greedy_order(
    graph: Graph,
    cost: Callable[[dict[Vertex, set[Vertex]], Vertex], int],
    second_ring: bool,
) -> list[Vertex]:
    """Repeatedly eliminate the vertex of least ``(cost, repr)``.

    Eliminating ``v`` turns ``N(v)`` into a clique, which changes the
    degree of ``N(v)`` only, and the fill-in of ``N(v)`` and of the
    neighbours of those members of ``N(v)`` that gained an edge (the
    only vertices that can see a new edge between two of their
    neighbours); ``second_ring`` asks for the latter.  Re-costed
    vertices get a fresh heap entry; entries whose cost is no longer
    current are skipped when popped.  Leaving out the neighbours of a
    member that gained nothing keeps the order and saves re-costing the
    whole neighbourhood of a hub each time one of its leaves goes.
    """
    adj = _neighbor_sets(graph)
    vertices = list(adj)
    index = {v: i for i, v in enumerate(vertices)}
    # repr once per vertex keeps the heuristics deterministic across runs
    keys = [repr(v) for v in vertices]
    current = [cost(adj, v) for v in vertices]
    heap = [(c, keys[i], i) for i, c in enumerate(current)]
    heapq.heapify(heap)
    order: list[Vertex] = []
    while heap:
        c, _, i = heapq.heappop(heap)
        v = vertices[i]
        if v not in adj or c != current[i]:
            continue
        order.append(v)
        nbrs = adj.pop(v)
        touched = set(nbrs)
        for a in nbrs:
            row = adj[a]
            row.discard(v)
            before = len(row)
            row |= nbrs
            row.discard(a)
            if second_ring and len(row) > before:
                touched |= row
        for u in touched:
            j = index[u]
            c = cost(adj, u)
            if c != current[j]:
                current[j] = c
                heapq.heappush(heap, (c, keys[j], j))
    return order


def decomposition_from_order(
    graph: Graph, order: Sequence[Vertex]
) -> TreeDecomposition:
    """Build a tree decomposition from an elimination order.

    Standard construction: eliminating ``v`` creates the bag
    ``{v} ∪ N(v)`` (neighbors at elimination time, which are then made a
    clique).  The bag of ``v`` hangs under the bag of the first-eliminated
    vertex among ``N(v)``; vertices with no later neighbor start new
    components that are stitched to the previous root (harmless for the
    TD axioms).
    """
    vertices = list(order)
    if set(vertices) != set(graph.vertices):
        raise ValueError("order must enumerate exactly the vertices")
    if not vertices:
        return TreeDecomposition.single_node(frozenset())

    adj = _neighbor_sets(graph)
    position = {v: i for i, v in enumerate(vertices)}
    bag_of: dict[Vertex, frozenset[Vertex]] = {}
    attach_to: dict[Vertex, Vertex | None] = {}
    for v in vertices:
        nbrs = adj.pop(v)
        bag_of[v] = frozenset(nbrs | {v})
        attach_to[v] = min(nbrs, key=lambda u: position[u]) if nbrs else None
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}

    # Build the tree: process in reverse elimination order so parents exist.
    tree = RootedTree()
    bags: dict[int, frozenset[Vertex]] = {}
    node_of: dict[Vertex, int] = {}
    reverse = list(reversed(vertices))
    root_vertex = reverse[0]
    node_of[root_vertex] = tree.root
    bags[tree.root] = bag_of[root_vertex]
    for v in reverse[1:]:
        anchor = attach_to[v]
        parent_node = node_of[anchor] if anchor is not None else node_of[root_vertex]
        node = tree.add_child(parent_node)
        node_of[v] = node
        bags[node] = bag_of[v]
    return TreeDecomposition(tree, bags)


def decompose_graph(graph: Graph) -> TreeDecomposition:
    """Min-fill tree decomposition of a graph.

    The result is always a *valid* decomposition, checked against
    ``graph``; only its width is heuristic.
    """
    td = decomposition_from_order(graph, min_fill_order(graph))
    td.validate_for_graph(graph)
    return td


def decompose_structure(structure: Structure) -> TreeDecomposition:
    """Min-fill tree decomposition of an arbitrary tau-structure.

    Decomposes the Gaifman graph; bags then automatically cover every
    relation tuple (each tuple's elements form a clique there).  The
    result is checked once, against the structure's own tuples (which
    subsumes the Gaifman edges).
    """
    graph = gaifman_graph(structure)
    td = decomposition_from_order(graph, min_fill_order(graph))
    td.validate_for_structure(structure)
    return td
