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

Both orders run on one kernel over dense element ids
(:class:`~repro.treewidth.decomposition.ElementIds`: ids in ``(repr,
first occurrence)`` order, the Gaifman adjacency as int sets), which
builds the bags and the tree in the same pass
(:func:`decompose_ids`).  On bounded-degree graphs it costs
O(n log n), one heap pop per step: a lazy heap keyed ``(cost, id)``,
packed into one int, replaces a ``min`` scan over all remaining
vertices, and eliminating ``v`` re-costs only the vertices whose cost
it can change.  The order is exactly the one the scan picked, since
id order breaks cost ties as ``repr`` and then first occurrence did.
The value-level functions here intern, run the kernel and decode.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Sequence

from ..errors import InvalidDecomposition
from ..structures.graphs import Graph
from ..structures.structure import Structure
from .decomposition import ElementIds, IdDecomposition, TreeDecomposition

Vertex = Hashable


def _fill_in_count(adj: list[set[int]], v: int) -> int:
    """Number of edges that eliminating ``v`` would add: the pairs of
    its neighbours less the edges among them, each of which the set
    intersections see from both ends."""
    nbrs = adj[v]
    k = len(nbrs)
    return k * (k - 1) // 2 - sum(len(adj[a] & nbrs) for a in nbrs) // 2


def eliminate(adj: list[set[int]], fill: bool) -> tuple[list[int], list[set[int]]]:
    """Repeatedly eliminate the id of least ``(cost, id)``: degree, or
    with ``fill`` the fill-in.  Consumes ``adj``.

    Returns the order and, per id, its neighbours when it was
    eliminated (its bag less itself).  Eliminating ``v`` turns ``N(v)``
    into a clique, which changes the degree of ``N(v)`` only, and the
    fill-in of ``N(v)`` and of the neighbours of those members of
    ``N(v)`` that gained an edge (the only vertices that can see a new
    edge between two of their neighbours).  Re-costed vertices get a
    fresh heap entry; entries whose cost is no longer current are
    skipped when popped.  Leaving out the neighbours of a member that
    gained nothing keeps the order and saves re-costing the whole
    neighbourhood of a hub each time one of its leaves goes.
    """
    n = len(adj)
    shift = n.bit_length()
    mask = (1 << shift) - 1
    current = (
        [_fill_in_count(adj, v) for v in range(n)]
        if fill
        else [len(row) for row in adj]
    )
    heap = [c << shift | v for v, c in enumerate(current)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order: list[int] = []
    cliques: list = [None] * n
    while heap:
        key = pop(heap)
        v = key & mask
        if cliques[v] is not None or key >> shift != current[v]:
            continue
        order.append(v)
        nbrs = cliques[v] = adj[v]
        if not fill:
            for a in nbrs:
                row = adj[a]
                row.discard(v)
                row |= nbrs
                row.discard(a)
                c = len(row)
                if c != current[a]:
                    current[a] = c
                    push(heap, c << shift | a)
            continue
        touched = set(nbrs)
        for a in nbrs:
            row = adj[a]
            row.discard(v)
            before = len(row)
            row |= nbrs
            row.discard(a)
            if len(row) > before:
                touched |= row
        for u in touched:
            c = _fill_in_count(adj, u)
            if c != current[u]:
                current[u] = c
                push(heap, c << shift | u)
    return order, cliques


def tree_from_elimination(
    order: Sequence[int], cliques: Sequence[set[int]]
) -> IdDecomposition:
    """The decomposition of an elimination: one node per id, numbered
    in reverse elimination order.

    Standard construction: eliminating ``v`` creates the bag ``{v} ∪
    N(v)`` (neighbours at elimination time, ``cliques[v]``).  The bag
    of ``v`` hangs under the bag of the first-eliminated vertex among
    ``N(v)`` -- the one of highest node number -- and a vertex with no
    later neighbour starts a component stitched to the root (harmless
    for the TD axioms).
    """
    n = len(order)
    if not n:
        return IdDecomposition([-1], [[]], [frozenset()], -1)
    node_of = [0] * n
    for k, v in enumerate(reversed(order)):
        node_of[v] = k
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    bags: list = [None] * n
    width = 0
    get = node_of.__getitem__
    for k, v in enumerate(reversed(order)):
        nbrs = cliques[v]
        if len(nbrs) > width:
            width = len(nbrs)
        bags[k] = frozenset(nbrs).union((v,))
        if k:
            p = max(map(get, nbrs)) if nbrs else 0
            parent[k] = p
            children[p].append(k)
    return IdDecomposition(parent, children, bags, width)


def decompose_ids(ids: ElementIds, fill: bool) -> IdDecomposition:
    """The min-degree (or, with ``fill``, min-fill) decomposition of
    the Gaifman graph of ``ids``, unchecked."""
    return tree_from_elimination(*eliminate(ids.adjacency(), fill))


def min_degree_decomposition(ids: ElementIds) -> IdDecomposition:
    """Admission's rebuild: the min-degree decomposition, unchecked."""
    return decompose_ids(ids, False)


def min_degree_order(graph: Graph) -> list[Vertex]:
    """Greedy elimination order, always removing a minimum-degree vertex."""
    ids = ElementIds.of_graph(graph)
    return [ids.values[v] for v in eliminate(ids.adjacency(), False)[0]]


def min_fill_order(graph: Graph) -> list[Vertex]:
    """Greedy elimination order, always removing a minimum-fill-in vertex."""
    ids = ElementIds.of_graph(graph)
    return [ids.values[v] for v in eliminate(ids.adjacency(), True)[0]]


def decomposition_from_order(
    graph: Graph, order: Sequence[Vertex]
) -> TreeDecomposition:
    """Build a tree decomposition from an elimination order (see
    :func:`tree_from_elimination`)."""
    vertices = list(order)
    if set(vertices) != set(graph.vertices):
        raise ValueError("order must enumerate exactly the vertices")
    ids = ElementIds.of_graph(graph)
    adj = ids.adjacency()
    cliques: list = [None] * len(adj)
    for v in map(ids.index.__getitem__, vertices):
        nbrs = cliques[v] = adj[v]
        for a in nbrs:
            row = adj[a]
            row.discard(v)
            row |= nbrs
            row.discard(a)
    order_ids = [ids.index[v] for v in vertices]
    return tree_from_elimination(order_ids, cliques).decoded(ids.values)


def _checked_min_fill(ids: ElementIds) -> TreeDecomposition:
    dec = decompose_ids(ids, True)
    violations = ids.violations(dec)
    if violations:
        raise InvalidDecomposition.from_violations(violations)
    return dec.decoded(ids.values)


def decompose_graph(graph: Graph) -> TreeDecomposition:
    """Min-fill tree decomposition of a graph.

    The result is always a *valid* decomposition, checked against
    ``graph``; only its width is heuristic.
    """
    return _checked_min_fill(ElementIds.of_graph(graph))


def decompose_structure(structure: Structure) -> TreeDecomposition:
    """Min-fill tree decomposition of an arbitrary tau-structure.

    Decomposes the Gaifman graph; bags then automatically cover every
    relation tuple (each tuple's elements form a clique there).  The
    result is checked once, against the structure's own tuples (which
    subsumes the Gaifman edges).
    """
    return _checked_min_fill(ElementIds.of_structure(structure))
