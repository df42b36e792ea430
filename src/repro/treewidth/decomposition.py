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
from typing import Iterable, Iterator, Mapping

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
        ids = ElementIds.of_graph(graph)
        return ids.violations(ids.decomposition(self))

    def structure_violations(self, structure: Structure) -> list[Violation]:
        """All Section 2.2 axiom violations against ``structure``.

        Checks conditions (1)-(3) directly against the relations
        (condition 2 is per-tuple, which on the Gaifman graph coincides
        with per-edge coverage only for arity <= 2; here we check the
        real thing).  Collects *every* violation instead of stopping at
        the first -- the admission layer repairs them as a set.
        """
        ids = ElementIds.of_structure(structure)
        return ids.violations(ids.decomposition(self))

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


# ----------------------------------------------------------------------
# The id space of the front end
# ----------------------------------------------------------------------


class ElementIds:
    """A domain interned once into the dense ids ``0 .. n - 1``, with
    the tuples a decomposition of it must cover.

    ``values[i]`` is the element with id ``i``; the ids follow
    ``(repr, first occurrence)`` order, so sorting ids sorts elements
    the way ``sorted(..., key=repr)`` does, and every tie the
    value-level front end broke by ``repr`` breaks the same way by id.
    ``index`` maps an element to its id.  ``relations`` maps each
    predicate to its tuples as id tuples, in the relation's iteration
    order; a graph has the one relation ``None``, its edges.
    """

    __slots__ = ("values", "index", "relations", "_graph")

    def __init__(self, values: list, relations: dict, graph: bool = False):
        self.values = values
        self.index = dict(zip(values, range(len(values))))
        self.relations = relations
        self._graph = graph

    @classmethod
    def of_elements(cls, elements: Iterable[Element]) -> "ElementIds":
        """Just the elements, with no tuples to cover."""
        return cls(sorted(elements, key=repr), {})

    @classmethod
    def of_structure(cls, structure: Structure) -> "ElementIds":
        ids = cls(sorted(structure.domain, key=repr), {})
        index = ids.index
        get = index.__getitem__
        for name in structure.signature:
            rel = structure.relation(name)
            if structure.signature.arity(name) == 2:
                ids.relations[name] = [(index[a], index[b]) for a, b in rel]
            else:
                ids.relations[name] = [tuple(map(get, t)) for t in rel]
        return ids

    @classmethod
    def of_graph(cls, graph: Graph) -> "ElementIds":
        ids = cls(sorted(graph.vertices, key=repr), {}, graph=True)
        index = ids.index
        ids.relations[None] = [(index[u], index[v]) for u, v in graph.edges()]
        return ids

    def adjacency(self) -> list[set[int]]:
        """The Gaifman graph over ids: the neighbours of each id, the
        ids it shares a tuple with, itself left out."""
        adj: list[set[int]] = [set() for _ in self.values]
        for tuples in self.relations.values():
            for t in tuples:
                if len(t) == 2:
                    a, b = t
                    if a != b:
                        adj[a].add(b)
                        adj[b].add(a)
                    continue
                for a in t:
                    row = adj[a]
                    row.update(t)
                    row.discard(a)
        return adj

    def decomposition(self, td: TreeDecomposition) -> "IdDecomposition":
        """``td`` over these ids, its nodes numbered in preorder.

        An element of a bag outside the domain gets an id after the
        domain's, in ``repr`` order; the result keeps those elements as
        its ``aliens``.  ``td``'s tree must be sound (see
        :func:`repro.admission.tree_violations`)."""
        tree = td.tree
        kids_of = tree._children
        labels: list[NodeId] = []
        append = labels.append
        stack = [tree.root]
        pop = stack.pop
        while stack:
            node = pop()
            append(node)
            kids = kids_of[node]
            while len(kids) == 1:  # a unary chain needs no stack
                node = kids[0]
                append(node)
                kids = kids_of[node]
            if kids:
                stack += reversed(kids)
        position = dict(zip(labels, range(len(labels))))
        parent = [-1]
        parent += map(position.__getitem__, map(tree._parent.__getitem__, labels[1:]))
        source = list(map(td.bags.__getitem__, labels))
        kind = tuple if source and type(source[0]) is tuple else frozenset
        index = self.index
        aliens: tuple = ()
        try:
            get = index.__getitem__
            bags = [kind(map(get, bag)) for bag in source]
        except KeyError:
            aliens = tuple(
                sorted({x for bag in source for x in bag if x not in index}, key=repr)
            )
            n = len(self.values)
            get = {**index, **dict(zip(aliens, range(n, n + len(aliens))))}.__getitem__
            bags = [kind(map(get, bag)) for bag in source]
        width = max(map(len, bags)) - 1
        return IdDecomposition(parent, None, bags, width, labels, aliens)

    def violations(self, dec: "IdDecomposition") -> list[Violation]:
        """All Section 2.2 axiom violations of ``dec`` against this
        domain and its tuples, decoded: the messages, subjects and
        order of :meth:`TreeDecomposition.structure_violations` (or
        ``graph_violations``)."""
        groups = list(self.relations.items())
        missing, alien, uncovered, disconnected = dec.axiom_defects(
            len(self.values), [tuples for _, tuples in groups]
        )
        if not (missing or alien or uncovered or disconnected):
            return []
        values = self.values + list(dec.aliens)
        words = _GRAPH_WORDS if self._graph else _STRUCTURE_WORDS
        violations: list[Violation] = []
        for code, found, word in (
            ("element-uncovered", missing, words[0]),
            ("alien-element", alien, words[1]),
        ):
            if found:
                ordered = [values[x] for x in found]
                violations.append(
                    Violation(
                        code,
                        f"{word}: {ordered}",
                        subject=tuple(ordered),
                        repairable=True,
                    )
                )
        for r, i in uncovered:
            name, tuples = groups[r]
            tup = tuple(values[x] for x in tuples[i])
            if self._graph:
                message = f"edge ({tup[0]!r}, {tup[1]!r}) covered by no bag"
                subject = tup
            else:
                message = f"tuple {name}{tup!r} covered by no bag"
                subject = (name, tup)
            violations.append(
                Violation(
                    "tuple-uncovered", message, subject=subject, repairable=True
                )
            )
        if disconnected:
            ordered = sorted((values[x] for x in disconnected), key=repr)
            violations.append(
                Violation(
                    "connectedness",
                    f"connectedness violated for {ordered}",
                    subject=tuple(ordered),
                    repairable=True,
                )
            )
        return violations


class IdDecomposition:
    """A tree decomposition over dense element ids, its tree as arrays.

    Node ``0`` is the root and every other node ``k`` has its parent
    ``parent[k] < k``; ``children[k]`` lists its children in order
    (derived from ``parent`` on first use when not given, which needs
    the nodes numbered in preorder) and ``bags[k]`` is its bag: a
    frozenset of ids, or for a Definition 2.3 form a tuple of them,
    whose nodes are then numbered in preorder.
    ``width`` is the width, carried from where the bags were made so
    no stage rescans them.  ``labels[k]`` is the node's value-level id
    (``None``: ``k`` itself), and ``aliens`` are the values of the ids
    past the domain's, elements a supplied bag holds but the domain
    lacks.
    """

    __slots__ = ("parent", "_children", "bags", "width", "labels", "aliens")

    def __init__(self, parent, children, bags, width, labels=None, aliens=()):
        self.parent = parent
        self._children = children
        self.bags = bags
        self.width = width
        self.labels = labels
        self.aliens = aliens

    @property
    def children(self) -> list[list[int]]:
        if self._children is None:
            children: list[list[int]] = [[] for _ in self.parent]
            for node, up in enumerate(self.parent[1:], 1):
                children[up].append(node)
            self._children = children
        return self._children

    def axiom_defects(
        self, n: int, groups: Iterable[list[tuple[int, ...]]]
    ) -> tuple[list[int], list[int], list[tuple[int, int]], list[int]]:
        """The one Section 2.2 axiom check, linear in the bags.

        ``n`` is the domain size (ids ``0 .. n - 1``), ``groups`` the
        tuples some bag must hold, one list per relation.  Returns the
        uncovered domain ids and the alien ids (both sorted), the
        uncovered tuples as ``(group, position)`` pairs in order, and
        the ids whose occurrences do not form one subtree.

        One pass over the bags counts each id's *top* nodes, those whose
        parent's bag lacks it: an id is connected iff it has one.  Since
        a parent precedes its children, its one top is its first
        occurrence.  Subtrees of a tree that meet pairwise share a node
        (the Helly property), and the lowest of their tops is one, so a
        tuple of connected ids is covered iff the bag at its last top
        holds it; a tuple with a disconnected id is looked for in every
        bag.
        """
        bags, parent = self.bags, self.parent
        size = n + len(self.aliens)
        first = [-1] * size
        tops = [0] * size
        empty: tuple = ()
        for node, bag in enumerate(bags):
            above = bags[parent[node]] if node else empty
            for x in bag:
                if x not in above:
                    if tops[x]:
                        tops[x] += 1
                    else:
                        tops[x] = 1
                        first[x] = node
        uncovered: list[tuple[int, int]] = []
        for r, tuples in enumerate(groups):
            for i, t in enumerate(tuples):
                if len(t) == 2:
                    a, b = t
                    fa, fb = first[a], first[b]
                    if fa >= 0 and fb >= 0 and tops[a] == 1 and tops[b] == 1:
                        bag = bags[fa if fa > fb else fb]
                        if a not in bag or b not in bag:
                            uncovered.append((r, i))
                        continue
                if not _covered(t, bags, first, tops):
                    uncovered.append((r, i))
        missing = [x for x in range(n) if not tops[x]] if 0 in tops else []
        disconnected = (
            [x for x in range(size) if tops[x] > 1] if size and max(tops) > 1 else []
        )
        return missing, list(range(n, size)), uncovered, disconnected

    def decoded(self, values: list, cls=None) -> TreeDecomposition:
        """This decomposition over ``values`` (the element of each id),
        as a ``cls`` (default :class:`TreeDecomposition`) on a
        :class:`RootedTree` with the nodes' labels."""
        labels = self.labels if self.labels is not None else range(len(self.bags))
        if self.aliens:
            values = values + list(self.aliens)
        tree = RootedTree.__new__(RootedTree)
        tree.root = labels[0]
        tree._children = {
            labels[k]: [labels[c] for c in kids]
            for k, kids in enumerate(self.children)
        }
        tree._parent = {
            labels[k]: labels[p] if k else None for k, p in enumerate(self.parent)
        }
        tree._next_id = max(labels) + 1
        get = values.__getitem__
        td = (cls or TreeDecomposition).__new__(cls or TreeDecomposition)
        td.tree = tree
        td.bags = {
            labels[k]: type(bag)(map(get, bag)) for k, bag in enumerate(self.bags)
        }
        return td


def _covered(t, bags, first, tops) -> bool:
    """Whether some bag holds every id of ``t`` (the general case of
    :meth:`IdDecomposition.axiom_defects`)."""
    last = -1
    for x in t:
        if first[x] < 0:
            return False
        if tops[x] > 1:
            return any(all(y in bag for y in t) for bag in bags)
        last = max(last, first[x])
    if last < 0:
        return bool(bags)  # the empty tuple: any bag holds it
    bag = bags[last]
    return all(x in bag for x in t)


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
