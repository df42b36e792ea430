"""Tree decompositions of graphs and structures (Section 2.2).

A tree decomposition ``T = <T, (A_t)_{t in T}>`` of a structure ``A`` is a
rooted tree whose nodes carry *bags* of domain elements such that

1. every element appears in some bag,
2. for every relation tuple there is a bag containing all its elements,
3. the bags containing any fixed element form a connected subtree
   (the *connectedness condition*).

The width is ``max |A_t| - 1``; the treewidth of ``A`` is the minimum
width over all decompositions.

This module provides the rooted-tree container, the decomposition with
set-valued bags, and an executable validator for the three axioms (used
pervasively by the test-suite's property tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from ..errors import InvalidDecomposition, Violation
from ..structures.graphs import Graph
from ..structures.structure import Element, Structure

NodeId = int


class RootedTree:
    """A rooted tree with ordered children and integer node ids."""

    __slots__ = ("root", "_children", "_parent", "_next_id")

    def __init__(self, root: NodeId = 0):
        self.root = root
        self._children: dict[NodeId, list[NodeId]] = {root: []}
        self._parent: dict[NodeId, NodeId | None] = {root: None}
        self._next_id = root + 1

    # -- construction ---------------------------------------------------

    def fresh_node(self) -> NodeId:
        node = self._next_id
        self._next_id += 1
        return node

    def add_child(self, parent: NodeId, child: NodeId | None = None) -> NodeId:
        """Append a (possibly fresh) child under ``parent``."""
        if child is None:
            child = self.fresh_node()
        if child in self._parent:
            raise ValueError(f"node {child} already in the tree")
        self._children[parent].append(child)
        self._children[child] = []
        self._parent[child] = parent
        return child

    def insert_above(self, node: NodeId) -> NodeId:
        """Insert a fresh node between ``node`` and its parent.

        If ``node`` is the root, the fresh node becomes the new root.
        Returns the fresh node.
        """
        fresh = self.fresh_node()
        parent = self._parent[node]
        self._children[fresh] = [node]
        self._parent[node] = fresh
        if parent is None:
            self.root = fresh
            self._parent[fresh] = None
        else:
            siblings = self._children[parent]
            siblings[siblings.index(node)] = fresh
            self._parent[fresh] = parent
        return fresh

    # -- queries ----------------------------------------------------------

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(self._children[node])

    def parent(self, node: NodeId) -> NodeId | None:
        return self._parent[node]

    def is_leaf(self, node: NodeId) -> bool:
        return not self._children[node]

    def nodes(self) -> Iterator[NodeId]:
        yield from self.preorder()

    def node_count(self) -> int:
        return len(self._parent)

    def leaves(self) -> Iterator[NodeId]:
        for node in self.preorder():
            if self.is_leaf(node):
                yield node

    def preorder(self) -> Iterator[NodeId]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def postorder(self) -> Iterator[NodeId]:
        """Children before parents (the order of bottom-up passes)."""
        result: list[NodeId] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(self._children[node])
        return reversed(result)

    def subtree_nodes(self, node: NodeId) -> Iterator[NodeId]:
        """All nodes of the subtree T_t rooted at ``node`` (Definition 3.1)."""
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(self._children[current])

    def copy(self) -> "RootedTree":
        clone = RootedTree.__new__(RootedTree)
        clone.root = self.root
        clone._children = {n: list(c) for n, c in self._children.items()}
        clone._parent = dict(self._parent)
        clone._next_id = self._next_id
        return clone

    def rerooted(self, new_root: NodeId) -> "RootedTree":
        """The same undirected tree, rooted at ``new_root``."""
        if new_root not in self._parent:
            raise ValueError(f"unknown node {new_root}")
        adjacency: dict[NodeId, list[NodeId]] = {n: [] for n in self._parent}
        for node, parent in self._parent.items():
            if parent is not None:
                adjacency[node].append(parent)
                adjacency[parent].append(node)
        clone = RootedTree.__new__(RootedTree)
        clone.root = new_root
        clone._children = {n: [] for n in self._parent}
        clone._parent = {new_root: None}
        clone._next_id = self._next_id
        stack = [new_root]
        seen = {new_root}
        while stack:
            node = stack.pop()
            for nbr in adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    clone._children[node].append(nbr)
                    clone._parent[nbr] = node
                    stack.append(nbr)
        return clone


class TreeDecomposition:
    """A tree decomposition with set-valued bags.

    ``bags[t]`` is a frozenset of domain elements.  Tuple-bag
    (Definition 2.3) and nice (Section 5) refinements live in
    :mod:`repro.treewidth.normalize` and :mod:`repro.treewidth.nice`;
    both are subclasses, and the Definition 2.3 one keeps its bags as
    tuples.  The axiom checks need of a bag only ``in`` and iteration,
    so they run on either kind.
    """

    __slots__ = ("tree", "bags")

    def __init__(self, tree: RootedTree, bags: Mapping[NodeId, Iterable[Element]]):
        self.tree = tree
        self.bags = {n: frozenset(bags[n]) for n in tree.nodes()}
        if len(self.bags) != tree.node_count():
            raise ValueError("bags must cover exactly the tree nodes")

    @classmethod
    def single_node(cls, bag: Iterable[Element]) -> "TreeDecomposition":
        tree = RootedTree()
        return cls(tree, {tree.root: frozenset(bag)})

    # -- basic measures ---------------------------------------------------

    @property
    def width(self) -> int:
        return max(len(bag) for bag in self.bags.values()) - 1

    def node_count(self) -> int:
        return self.tree.node_count()

    def all_elements(self) -> frozenset[Element]:
        out: set[Element] = set()
        for bag in self.bags.values():
            out.update(bag)
        return frozenset(out)

    def copy(self) -> "TreeDecomposition":
        return TreeDecomposition(self.tree.copy(), dict(self.bags))

    def rerooted(self, new_root: NodeId) -> "TreeDecomposition":
        return TreeDecomposition(self.tree.rerooted(new_root), dict(self.bags))

    def find_node_containing(self, element: Element) -> NodeId:
        for node in self.tree.preorder():
            if element in self.bags[node]:
                return node
        raise ValueError(f"element {element!r} occurs in no bag")

    # -- validation -------------------------------------------------------

    def graph_violations(self, graph: Graph) -> list[Violation]:
        """All Section 2.2 axiom violations against ``graph`` (no raise).

        The messages preserve the historical first-fail phrasings
        (callers and tests substring-match on them); the codes and
        subjects are the machine-readable layer the admission control
        of :mod:`repro.admission` consumes.
        """
        return self.axiom_violations(
            graph.vertices,
            (((u, v), (u, v)) for u, v in graph.edges()),
            _GRAPH_WORDS,
            lambda edge: f"edge ({edge[0]!r}, {edge[1]!r}) covered by no bag",
        )

    def structure_violations(self, structure: Structure) -> list[Violation]:
        """All Section 2.2 axiom violations against ``structure``.

        Checks conditions (1)-(3) directly against the relations
        (condition 2 is per-tuple, which on the Gaifman graph coincides
        with per-edge coverage only for arity <= 2; here we check the
        real thing).  Collects *every* violation instead of stopping at
        the first -- the admission layer repairs them as a set.
        """
        return self.axiom_violations(
            structure.domain,
            (
                (tup, (name, tup))
                for name in structure.signature
                for tup in structure.relation(name)
            ),
            _STRUCTURE_WORDS,
            lambda fact: f"tuple {fact[0]}{fact[1]!r} covered by no bag",
        )

    def axiom_violations(
        self,
        domain: Iterable[Element],
        tuples: Iterable[tuple[tuple, tuple]],
        words: tuple[str, str],
        uncovered: Callable[[tuple], str],
    ) -> list[Violation]:
        """The one Section 2.2 axiom check, linear in the bags.

        ``domain`` is what the bags must cover, ``tuples`` yields
        ``(elements, subject)`` per tuple that some bag must hold,
        ``words`` phrase the element-uncovered and alien-element
        messages, and ``uncovered(subject)`` the tuple-uncovered one.
        Violations come in a fixed order: uncovered elements, alien
        elements, uncovered tuples (in ``tuples`` order), connectedness.
        """
        index = OccurrenceIndex(self.bags, self.tree.parent)
        domain = frozenset(domain)
        elements = frozenset(index.where)
        violations: list[Violation] = []
        missing = domain - elements
        if missing:
            ordered = sorted(missing, key=repr)
            violations.append(
                Violation(
                    "element-uncovered",
                    f"{words[0]}: {ordered}",
                    subject=tuple(ordered),
                    repairable=True,
                )
            )
        alien = elements - domain
        if alien:
            ordered = sorted(alien, key=repr)
            violations.append(
                Violation(
                    "alien-element",
                    f"{words[1]}: {ordered}",
                    subject=tuple(ordered),
                    repairable=True,
                )
            )
        for needed, subject in tuples:
            if not index.covers(needed):
                violations.append(
                    Violation(
                        "tuple-uncovered",
                        uncovered(subject),
                        subject=subject,
                        repairable=True,
                    )
                )
        bad = index.disconnected()
        if bad:
            ordered = sorted(bad, key=repr)
            violations.append(
                Violation(
                    "connectedness",
                    f"connectedness violated for {ordered}",
                    subject=tuple(ordered),
                    repairable=True,
                )
            )
        return violations

    def validate_for_graph(self, graph: Graph) -> None:
        """Raise :class:`repro.errors.InvalidDecomposition` (a
        ``ValueError``) unless this is a valid TD of ``graph``."""
        violations = self.graph_violations(graph)
        if violations:
            raise InvalidDecomposition.from_violations(violations)

    def validate_for_structure(self, structure: Structure) -> None:
        """Raise :class:`repro.errors.InvalidDecomposition` (a
        ``ValueError``) unless this is a valid TD of ``structure``,
        reporting **all** violations of the Section 2.2 axioms."""
        violations = self.structure_violations(structure)
        if violations:
            raise InvalidDecomposition.from_violations(violations)

    # -- induced substructures (Definitions 3.1 / 3.2) --------------------

    def subtree_elements(self, node: NodeId) -> frozenset[Element]:
        """Elements occurring in the bags of T_t (the subtree at ``node``)."""
        out: set[Element] = set()
        for n in self.tree.subtree_nodes(node):
            out.update(self.bags[n])
        return frozenset(out)

    def envelope_elements(self, node: NodeId) -> frozenset[Element]:
        """Elements occurring in the bags of the envelope T̄_t.

        The envelope removes the subtree at ``node`` except ``node``
        itself (Definition 3.1).
        """
        inside = set(self.tree.subtree_nodes(node)) - {node}
        out: set[Element] = set()
        for n in self.tree.nodes():
            if n not in inside:
                out.update(self.bags[n])
        return frozenset(out)

    def induced_substructure(self, structure: Structure, node: NodeId) -> Structure:
        """I(A, T_t, t) without the distinguished tuple (Definition 3.2)."""
        return structure.induced(self.subtree_elements(node))

    def induced_envelope_substructure(
        self, structure: Structure, node: NodeId
    ) -> Structure:
        """I(A, T̄_t, t) without the distinguished tuple."""
        return structure.induced(self.envelope_elements(node))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.node_count()}, "
            f"width={self.width})"
        )


#: the historical phrasings of the element-uncovered / alien-element messages
_GRAPH_WORDS = ("vertices never covered", "bags mention non-vertices")
_STRUCTURE_WORDS = ("elements never covered", "bags mention non-elements")


class OccurrenceIndex:
    """Where each element occurs in a decomposition, built in one pass
    over its ``bags`` (``parent`` is its tree's parent lookup).

    ``where[x]`` lists the nodes whose bag holds ``x``; ``tops[x]``
    counts its *top* nodes -- occurrences whose parent's bag lacks
    ``x`` (or that are the root).  The occurrence set of ``x`` induces
    one subtree per top node, so ``x`` satisfies the connectedness
    condition iff it has exactly one.  A tuple is held by some bag iff
    it is held by a bag among the shortest occurrence list of its
    elements.  Both checks are thereby linear in the total bag size
    (for tuples, times the shortest list), where scanning every bag
    per element and per tuple was quadratic.
    """

    __slots__ = ("bags", "parent", "where", "tops")

    def __init__(
        self,
        bags: Mapping[NodeId, frozenset[Element]],
        parent: Callable[[NodeId], NodeId | None],
    ):
        where: dict[Element, list[NodeId]] = {}
        tops: dict[Element, int] = {}
        empty: frozenset = frozenset()
        for node, bag in bags.items():
            above = parent(node)
            above_bag = empty if above is None else bags[above]
            for x in bag:
                nodes = where.get(x)
                if nodes is None:
                    where[x] = [node]
                else:
                    nodes.append(node)
                if x not in above_bag:
                    tops[x] = tops.get(x, 0) + 1
        self.bags = bags
        self.parent = parent
        self.where = where
        self.tops = tops

    def covers(self, needed: Iterable[Element]) -> bool:
        """Whether some bag holds every element of ``needed``."""
        where = self.where
        shortest: list[NodeId] | None = None
        for x in needed:
            nodes = where.get(x)
            if nodes is None:
                return False
            if shortest is None or len(nodes) < len(shortest):
                shortest = nodes
        if shortest is None:
            return bool(self.bags)  # the empty tuple: any bag holds it
        bags = self.bags
        for node in shortest:
            bag = bags[node]
            for x in needed:
                if x not in bag:
                    break
            else:
                return True
        return False

    def disconnected(self) -> list[Element]:
        """Elements whose occurrences do not form one subtree."""
        return [x for x, count in self.tops.items() if count != 1]


# ----------------------------------------------------------------------
# Shared validation for the normal-form refinements
# ----------------------------------------------------------------------


def refinement_violations(dec) -> list[Violation]:
    """The nodes of a refined decomposition that ``dec.node_kind``
    cannot classify, as ``malformed-node`` violations in preorder.

    ``dec`` is :class:`repro.treewidth.nice.NiceTreeDecomposition` or
    :class:`repro.treewidth.normalize.NormalizedTreeDecomposition`,
    whose ``node_kind`` raises ``ValueError`` on a malformed node.
    Every node is classified in one pass over the tree's child map;
    only when one fails is the tree walked in preorder to order the
    messages.
    """
    node_kind = dec.node_kind
    failed: dict[NodeId, ValueError] = {}
    for node in dec.tree._children:
        try:
            node_kind(node)
        except ValueError as exc:
            failed[node] = exc
    if not failed:
        return []
    return [
        Violation("malformed-node", str(failed[node]), subject=(node,))
        for node in dec.tree.preorder()
        if node in failed
    ]


def validate_refinement(dec, structure: Structure | None = None) -> None:
    """The shared ``validate`` implementation of the nice/normalized
    refinements: normal-form shape first (``dec.shape_violations()``),
    then -- if a structure is supplied -- the Section 2.2 axioms
    against it.  Raises :class:`repro.errors.InvalidDecomposition`
    carrying all collected violations."""
    violations = dec.shape_violations()
    if violations:
        raise InvalidDecomposition.from_violations(violations)
    if structure is not None:
        dec.validate_for_structure(structure)
