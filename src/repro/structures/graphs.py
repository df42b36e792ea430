"""Graphs as {e}-structures and graphs derived from structures.

The 3-Colorability algorithm of Section 5.1 works on graphs ``(V, E)``
given as tau-structures with ``tau = {e}``.  This module converts between
a lightweight adjacency representation and such structures, and exposes
the Gaifman / incidence graphs used to decompose arbitrary structures.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .signature import GRAPH_SIGNATURE
from .structure import Element, Structure

Edge = tuple[Hashable, Hashable]


class Graph:
    """A simple undirected graph with hashable vertices.

    Self-loops are allowed (a self-loop makes a graph trivially not
    3-colorable under the paper's criterion, and keeping them lets the
    brute-force and datalog solvers be compared on the full input space).
    """

    __slots__ = ("_adj",)

    def __init__(
        self,
        vertices: Iterable[Hashable] = (),
        edges: Iterable[Edge] = (),
    ):
        self._adj: dict[Hashable, set[Hashable]] = {}
        for v in vertices:
            self._adj.setdefault(v, set())
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    @property
    def vertices(self) -> frozenset[Hashable]:
        return frozenset(self._adj)

    def edges(self) -> set[tuple[Hashable, Hashable]]:
        """Each undirected edge once, in a canonical orientation."""
        seen: set[tuple[Hashable, Hashable]] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if (v, u) not in seen:
                    seen.add((u, v))
        return seen

    def neighbors(self, v: Hashable) -> frozenset[Hashable]:
        return frozenset(self._adj[v])

    def neighbor_map(self) -> dict[Hashable, frozenset[Hashable]]:
        """Every vertex's neighbours, copied once: a caller that probes
        adjacency in a loop reads this instead of paying
        :meth:`neighbors`' copy per call."""
        return {v: frozenset(nbrs) for v, nbrs in self._adj.items()}

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return u in self._adj and v in self._adj[u]

    def vertex_count(self) -> int:
        return len(self._adj)

    def edge_count(self) -> int:
        return len(self.edges())

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count()}, m={self.edge_count()})"

    # -- standard families, used by tests, examples and benchmarks -----

    @classmethod
    def path(cls, n: int) -> "Graph":
        g = cls(range(n))
        for i in range(n - 1):
            g.add_edge(i, i + 1)
        return g

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        g = cls.path(n)
        if n > 2:
            g.add_edge(n - 1, 0)
        elif n == 2:
            g.add_edge(1, 0)
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        g = cls(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(i, j)
        return g

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Graph":
        g = cls((r, c) for r in range(rows) for c in range(cols))
        for r in range(rows):
            for c in range(cols):
                if r + 1 < rows:
                    g.add_edge((r, c), (r + 1, c))
                if c + 1 < cols:
                    g.add_edge((r, c), (r, c + 1))
        return g


def graph_to_structure(graph: Graph) -> Structure:
    """Encode an undirected graph as an {e}-structure.

    Both orientations of every edge are stored so that the (symmetric)
    MSO formula of Section 5.1 and the datalog programs can read ``e``
    without worrying about direction.
    """
    tuples: set[tuple[Element, Element]] = set()
    for u, v in graph.edges():
        tuples.add((u, v))
        tuples.add((v, u))
    return Structure(GRAPH_SIGNATURE, graph.vertices, {"e": tuples})


def structure_to_graph(structure: Structure) -> Graph:
    """Decode an {e}-structure back into an undirected graph."""
    if "e" not in structure.signature:
        raise ValueError("structure has no edge predicate 'e'")
    g = Graph(structure.domain)
    for u, v in structure.relation("e"):
        g.add_edge(u, v)
    return g


def gaifman_graph(structure: Structure) -> Graph:
    """The Gaifman (primal) graph of a structure.

    Vertices are the domain elements; two are adjacent iff they co-occur
    in a tuple.  A tree decomposition of the structure is precisely a
    tree decomposition of this graph, so all decomposition routines in
    :mod:`repro.treewidth` operate on it.

    For a schema structure over {fd, att, lh, rh} this graph *is* the
    incidence graph of the hypergraph H(R, F) from the remark in
    Section 2.2, hence ``tw(structure) == tw(incidence graph)`` exactly
    as the paper notes.
    """
    g = Graph(structure.domain)
    for u, v in structure.gaifman_edges():
        g.add_edge(u, v)
    return g


def subgraph(graph: Graph, vertices: Iterable[Hashable]) -> Graph:
    keep = frozenset(vertices)
    g = Graph(keep)
    for u, v in graph.edges():
        if u in keep and v in keep:
            g.add_edge(u, v)
    return g


def relabel(graph: Graph, mapping: Mapping[Hashable, Hashable]) -> Graph:
    """Rename vertices; identity for vertices missing from ``mapping``."""
    def rho(x: Hashable) -> Hashable:
        return mapping.get(x, x)

    g = Graph(rho(v) for v in graph.vertices)
    if g.vertex_count() != graph.vertex_count():
        raise ValueError("relabeling is not injective")
    for u, v in graph.edges():
        g.add_edge(rho(u), rho(v))
    return g
