"""Structure classes the Theorem 4.5 compiler restricts to.

A ``structure_filter`` confines the compiler's type fixpoint to a class
of structures closed under induced substructures.  The fixpoint asks
the class about three kinds of candidate, and only the first is a whole
structure:

* a **base** structure over one bag, and a **reduction** candidate (an
  induced substructure of a witness): ``predicate(structure)``;
* a **glue**: two stored canonical witnesses with the same bag EDB,
  united over the bag ``0..w`` (:meth:`TypeEntry.glued`):
  ``predicate.glue_ok(a, b)``;
* a **replacement**: a stored witness whose bag position 0 is taken by
  a fresh element carrying the EDB delta ``chosen``
  (:meth:`TypeEntry.replaced`): ``predicate.chosen_ok(chosen)``, once
  per compile for each delta, then ``predicate.replace_ok(entry,
  chosen)``.

The delta checks are *exact*: given that the stored witnesses are in
the class (every one is -- it passed a check when it was built, and
reduction keeps it inside), each answers what the whole-structure
check would answer on the candidate.  They read only the entries' bag
EDB and the ``summary`` the predicate read off each witness when it
was stored (:meth:`ClassPredicate.summarize`), so a rejected candidate
is never built.

:class:`ClassPredicate` itself is the class of all structures.  A plain
callable is wrapped by :func:`as_class_predicate` into a
:class:`CallableClass`, whose delta checks build the candidate and call
it -- the compiler has one glue path and one replacement path either
way.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable

from ..structures.structure import Structure
from .typealg import TypeEntry, ids_structure

__all__ = [
    "CallableClass",
    "ClassPredicate",
    "all_structures",
    "as_class_predicate",
    "grid_graph_filter",
    "undirected_graph_filter",
]


class ClassPredicate:
    """A class of structures closed under induced substructures, with
    exact delta checks for the compiler's glue and replacement steps.

    This base is the class of all structures: every check accepts.  A
    subclass overrides ``__call__`` and each delta check its class can
    fail.  An instance bound to a module-level name pickles as that
    name (``__name__``), so unpickling returns the same object.
    """

    def __init__(self, name: str):
        self.__name__ = name

    def __call__(self, structure: Structure) -> bool:
        """Whole-structure membership."""
        return True

    def summarize(self, structure: Structure, bag: tuple) -> object:
        """What the delta checks read off a stored witness (``None``)."""
        return None

    def glue_ok(self, a: TypeEntry, b: TypeEntry) -> bool:
        """Is ``a``'s witness glued with ``b``'s (same bag EDB) in the
        class?"""
        return True

    def chosen_ok(self, chosen: frozenset) -> bool:
        """The part of a replacement verdict that reads ``chosen``
        alone: ``False`` rejects the delta for every entry."""
        return True

    def replace_ok(self, entry: TypeEntry, chosen: frozenset) -> bool:
        """Is ``entry``'s witness with bag position 0 replaced by a
        fresh element carrying ``chosen`` in the class?  Asked only
        for a ``chosen`` that :meth:`chosen_ok` accepts."""
        return True

    def __reduce__(self):
        return self.__name__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.__name__}>"


def _loop_free_symmetric(chosen: frozenset) -> bool:
    """The ``e`` facts of a replacement delta, over the new bag, keep a
    symmetric loop-free relation so: no ``e(0, 0)``, and ``e(0, i)``
    iff ``e(i, 0)`` (every delta fact mentions position 0)."""
    edges = {indices for name, indices in chosen if name == "e"}
    return all(u != v and (v, u) in edges for u, v in edges)


@lru_cache(maxsize=1024)
def _fresh_neighbours(chosen: frozenset) -> tuple[int, ...]:
    """The bag positions a replacement delta joins the fresh element to
    (cached: one compile asks once per entry and delta, and a compile
    has at most ``2 ** (2w + 1)`` graph deltas)."""
    return tuple(
        sorted(i for name, (u, i) in chosen if name == "e" and u == 0)
    )


class UndirectedGraphs(ClassPredicate):
    """Symmetric, loop-free ``{e}``-structures (undirected simple graphs).

    A glue of two members over a shared bag with the same bag EDB is a
    member: the union of symmetric loop-free relations is one.  A
    replacement adds only edges at the fresh element, so its verdict is
    whether ``chosen`` is symmetric and loop-free -- one check per
    delta per compile.
    """

    def __call__(self, structure: Structure) -> bool:
        edges = structure.relation("e")
        for u, v in edges:
            if u == v or (v, u) not in edges:
                return False
        return True

    def chosen_ok(self, chosen: frozenset) -> bool:
        return _loop_free_symmetric(chosen)


class GridGraphs(ClassPredicate):
    """The grid class: symmetric, loop-free, triangle-free
    ``{e}``-structures of maximum degree 3.

    Every induced subgraph of a 2 x n grid (ladder) graph satisfies all
    three constraints, and the class is closed under induced
    substructures (each constraint is universal), so compiling relative
    to it is sound for ladder inputs -- the width-2 grid family of the
    solver benchmarks.  Rejecting out-of-class glues additionally keeps
    the fixpoint inside the class (a branch/selection structure of an
    in-class input is an induced subgraph of that input), which is what
    makes the width-2 type space practical: the rank-1 type count drops
    from ~1000 (all undirected graphs) to a few hundred, and the
    minimized program to a few hundred rules.

    The whole-structure check is linear in the number of edges: once
    every vertex is known to have at most 3 neighbours, the triangle
    check scans a constant-size neighbourhood per edge.

    A witness's summary is ``(degree, non-bag degree)`` per bag
    position.  A glue joins no non-bag element of one part to one of
    the other, so it creates no asymmetric edge, loop or triangle, and
    only a bag element's degree can grow: to ``deg_a(p) + deg_b(p) -
    deg_bag(p)``, which is ``deg_a(p)`` plus ``b``'s non-bag degree of
    ``p``.  A replacement adds only the fresh element's edges: it stays
    in the class iff ``chosen`` is symmetric and loop-free with at most
    3 neighbours, each neighbour had degree <= 2, and no two neighbours
    are adjacent.
    """

    def __call__(self, structure: Structure) -> bool:
        edges = structure.relation("e")
        adjacent: dict = {}
        for u, v in edges:
            if u == v or (v, u) not in edges:
                return False
            neighbours = adjacent.setdefault(u, set())
            neighbours.add(v)
            if len(neighbours) > 3:
                return False
        for u, v in edges:
            for y in adjacent[v]:
                if y != u and u in adjacent[y]:
                    return False  # triangle u-v-y
        return True

    def summarize(self, structure: Structure, bag: tuple) -> tuple:
        position = {element: i for i, element in enumerate(bag)}
        degree = [0] * len(bag)
        outside = [0] * len(bag)
        for u, v in structure.relation("e"):
            i = position.get(u)
            if i is not None:
                degree[i] += 1
                if v not in position:
                    outside[i] += 1
        return tuple(zip(degree, outside))

    def glue_ok(self, a: TypeEntry, b: TypeEntry) -> bool:
        for (degree, _), (_, outside) in zip(a.summary, b.summary):
            if degree + outside > 3:
                return False
        return True

    def chosen_ok(self, chosen: frozenset) -> bool:
        return (
            _loop_free_symmetric(chosen)
            and len(_fresh_neighbours(chosen)) <= 3
        )

    def replace_ok(self, entry: TypeEntry, chosen: frozenset) -> bool:
        neighbours = _fresh_neighbours(chosen)
        summary = entry.summary
        for i in neighbours:
            if summary[i][0] > 2:
                return False
        edb = entry.edb
        for i, j in combinations(neighbours, 2):
            if ("e", (i, j)) in edb:
                return False  # triangle with the fresh element
        return True


class CallableClass(ClassPredicate):
    """A plain ``Structure -> bool`` callable as a class predicate: the
    delta checks build the candidate :class:`Structure` and call it."""

    def __init__(self, check: Callable[[Structure], bool]):
        super().__init__(getattr(check, "__name__", type(check).__name__))
        self.check = check

    def __call__(self, structure: Structure) -> bool:
        return bool(self.check(structure))

    def glue_ok(self, a: TypeEntry, b: TypeEntry) -> bool:
        return self(ids_structure(a.structure.signature, *a.glued(b)))

    def replace_ok(self, entry: TypeEntry, chosen: frozenset) -> bool:
        signature = entry.structure.signature
        return self(ids_structure(signature, *entry.replaced(chosen)))

    def __reduce__(self):
        return (CallableClass, (self.check,))


def as_class_predicate(structure_filter) -> ClassPredicate:
    """The compiler's view of a ``structure_filter``: ``None`` is the
    class of all structures, a :class:`ClassPredicate` is itself, any
    other callable is wrapped in a :class:`CallableClass`."""
    if structure_filter is None:
        return all_structures
    if isinstance(structure_filter, ClassPredicate):
        return structure_filter
    return CallableClass(structure_filter)


all_structures = ClassPredicate("all_structures")
undirected_graph_filter = UndirectedGraphs("undirected_graph_filter")
grid_graph_filter = GridGraphs("grid_graph_filter")
