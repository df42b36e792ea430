"""k-Colorability: the natural generalization of Figure 5.

The paper presents 3-Colorability; the same bottom-up scheme works for
any fixed number of colors (k-Colorability is MSO-expressible for every
fixed k, so Courcelle applies verbatim).  The hand-coded dynamic program
is parameterized by k -- where an FTA would have to be reconstructed,
the "flexibility" advantage the introduction claims for the datalog
approach -- so there is one of it: :func:`k_coloring_direct` (defined
beside Figure 5 in :mod:`repro.problems.three_coloring`, whose
:func:`~repro.problems.three_coloring.three_coloring_direct` is its
k = 3 entry).  This module adds a chromatic-number routine for
bounded-treewidth graphs, the exhaustive oracle
:func:`k_coloring_bruteforce` and the witness check
:func:`is_valid_k_coloring`.
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Mapping

from ..structures.graphs import Graph
from ..treewidth.decomposition import TreeDecomposition
from .three_coloring import (
    coloring_states,
    k_coloring_direct,
    prepare_decomposition,
)

__all__ = [
    "chromatic_number",
    "is_valid_k_coloring",
    "k_coloring_bruteforce",
    "k_coloring_direct",
]

Vertex = Hashable


def chromatic_number(graph: Graph, td: TreeDecomposition | None = None) -> int:
    """The chromatic number of a bounded-treewidth graph.

    Tries k = 1, 2, ... on one nice form (built and checked once: it
    does not depend on k) -- each check is Figure 5's dynamic program
    with k colour classes, linear in the data for fixed width, and
    chi(G) <= tw(G) + 1 bounds the search.
    """
    if graph.vertex_count() == 0:
        return 0
    if any(graph.has_edge(v, v) for v in graph.vertices):
        raise ValueError("chromatic number undefined with self-loops")
    nice = prepare_decomposition(graph, td)
    root = nice.tree.root
    k = 1
    while not coloring_states(graph, nice, k)[0][root]:
        k += 1
    return k


def k_coloring_bruteforce(graph: Graph, k: int) -> bool:
    """Try all k^n colorings; ground truth for small graphs.  A graph
    with a self-loop has none, the empty graph has the empty one."""
    vertices = sorted(graph.vertices, key=repr)
    if any(graph.has_edge(v, v) for v in vertices):
        return False
    for assignment in product(range(k), repeat=len(vertices)):
        color = dict(zip(vertices, assignment))
        if all(color[u] != color[v] for u, v in graph.edges()):
            return True
    return False


def is_valid_k_coloring(
    graph: Graph, coloring: Mapping[Vertex, int], k: int
) -> bool:
    """Does ``coloring`` give every vertex a color in ``0..k-1`` and
    the two ends of every edge different colors?  A self-loop makes
    every coloring invalid."""
    if set(coloring) != set(graph.vertices):
        return False
    if any(not 0 <= c < k for c in coloring.values()):
        return False
    return all(coloring[u] != coloring[v] for u, v in graph.edges())
