"""k-Colorability: the natural generalization of Figure 5.

The paper presents 3-Colorability; the same bottom-up scheme works for
any fixed number of colors (k-Colorability is MSO-expressible for every
fixed k, so Courcelle applies verbatim).  Exposing the generalized
solver demonstrates the "flexibility" advantage the introduction claims
for the datalog approach -- the DP is parameterized where an FTA would
have to be reconstructed -- and gives the library a chromatic-number
routine for bounded-treewidth graphs.
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Mapping

from ..structures.graphs import Graph
from ..treewidth.decomposition import TreeDecomposition
from ..treewidth.nice import NiceNodeKind
from .three_coloring import prepare_decomposition

Vertex = Hashable
Coloring = dict[Vertex, int]


def k_coloring_direct(
    graph: Graph,
    k: int,
    td: TreeDecomposition | None = None,
    want_witness: bool = False,
) -> tuple[bool, Coloring | None]:
    """Is ``graph`` properly k-colorable?  Figure 5's DP with k classes.

    States are k-tuples of bag projections of the color classes; the
    complexity is O(k^{w+1} * |T|) for width w.
    """
    if k < 1:
        raise ValueError("need at least one color")
    if graph.vertex_count() == 0:
        return True, ({} if want_witness else None)
    if any(graph.has_edge(v, v) for v in graph.vertices):
        return False, None
    nice = prepare_decomposition(graph, td)
    tree = nice.tree

    states: dict[int, set[tuple]] = {}
    provenance: dict[tuple[int, tuple], tuple] = {}

    near = graph.neighbor_map()

    def conflicts(v, part):
        return not near[v].isdisjoint(part)

    for node in tree.postorder():
        kind = nice.node_kind(node)
        bag = nice.bag(node)
        here: set[tuple] = set()
        if kind is NiceNodeKind.LEAF:
            items = sorted(bag, key=repr)
            for assignment in product(range(k), repeat=len(items)):
                parts = [set() for _ in range(k)]
                for v, color in zip(items, assignment):
                    if conflicts(v, parts[color]):
                        break
                    parts[color].add(v)
                else:
                    state = tuple(frozenset(p) for p in parts)
                    here.add(state)
                    provenance.setdefault((node, state), ("leaf",))
        elif kind is NiceNodeKind.INTRODUCTION:
            (child,) = tree.children(node)
            v = nice.introduced_element(node)
            for state in states[child]:
                for i in range(k):
                    if conflicts(v, state[i]):
                        continue
                    grown = tuple(
                        part | {v} if j == i else part
                        for j, part in enumerate(state)
                    )
                    here.add(grown)
                    provenance.setdefault((node, grown), ("intro", state))
        elif kind is NiceNodeKind.REMOVAL:
            (child,) = tree.children(node)
            v = nice.removed_element(node)
            for state in states[child]:
                shrunk = tuple(part - {v} for part in state)
                here.add(shrunk)
                provenance.setdefault((node, shrunk), ("forget", state))
        elif kind is NiceNodeKind.COPY:
            (child,) = tree.children(node)
            for state in states[child]:
                here.add(state)
                provenance.setdefault((node, state), ("copy", state))
        else:
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

    def reconstruct(node, state):
        for color, part in enumerate(state):
            for v in part:
                coloring[v] = color
        record = provenance[(node, state)]
        children = tree.children(node)
        if record[0] == "leaf":
            return
        if record[0] == "branch":
            reconstruct(children[0], record[1])
            reconstruct(children[1], record[2])
        else:
            reconstruct(children[0], record[1])

    reconstruct(tree.root, next(iter(root_states)))
    return True, coloring


def chromatic_number(graph: Graph, td: TreeDecomposition | None = None) -> int:
    """The chromatic number of a bounded-treewidth graph.

    Tries k = 1, 2, ... -- each check is linear in the data for fixed
    width, and chi(G) <= tw(G) + 1 bounds the search.
    """
    if graph.vertex_count() == 0:
        return 0
    if any(graph.has_edge(v, v) for v in graph.vertices):
        raise ValueError("chromatic number undefined with self-loops")
    k = 1
    while True:
        colorable, _ = k_coloring_direct(graph, k, td)
        if colorable:
            return k
        k += 1


def k_coloring_bruteforce(graph: Graph, k: int) -> bool:
    """Exhaustive ground truth for small graphs."""
    vertices = sorted(graph.vertices, key=repr)
    if any(graph.has_edge(v, v) for v in vertices):
        return False
    for assignment in product(range(k), repeat=len(vertices)):
        color = dict(zip(vertices, assignment))
        if all(color[u] != color[v] for u, v in graph.edges() if u != v):
            return True
    return not vertices


def is_valid_k_coloring(
    graph: Graph, coloring: Mapping[Vertex, int], k: int
) -> bool:
    if set(coloring) != set(graph.vertices):
        return False
    if any(not 0 <= c < k for c in coloring.values()):
        return False
    return all(
        coloring[u] != coloring[v] for u, v in graph.edges() if u != v
    )
