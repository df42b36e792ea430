"""The modified ("nice") normal form of Section 5.

For the hand-crafted algorithms the paper refines Definition 2.3:
element replacement is split into an *element removal* node and an
*element introduction* node, bags become plain sets, permutation nodes
disappear, and bags need not have full size.  (This is the normal form
also considered in Kloks [23].)

Node kinds:

* ``leaf`` -- no children;
* ``introduction`` -- one child, ``bag = child_bag ⊎ {v}``;
* ``removal`` -- one child, ``bag = child_bag \\ {v}``;
* ``branch`` -- two children, both bags identical to the node's;
* ``copy`` -- one child with an identical bag.  Copy nodes arise from
  the Section 5.3 transformation that surrounds every branch node with
  equal-bag neighbours; the dynamic programs treat them as identity
  transitions.

:func:`make_nice_ids` builds the form from any decomposition over
dense element ids (:class:`~repro.treewidth.decomposition.
IdDecomposition`) in one top-down pass, writing each nice node once,
numbered in preorder: no intermediate decompositions, tree copies or
bag rebuilds, and its steps sorted by id, which is ``repr`` order
(:class:`~repro.treewidth.decomposition.ElementIds`).  Figure 5 runs
it on the ids its graph was interned into and checks the Section 2.2
axioms once, on the nice id bags
(:func:`repro.problems.three_coloring.prepare_ids`).  :func:`make_nice`
is its value-level entry: intern, build, decode.  A
:class:`NiceTreeDecomposition` is a :class:`TreeDecomposition`, so the
Section 2.2 axioms are checked on its own bags.

This module also hosts the two PRIMALITY-specific refinements of
Sections 5.2/5.3: every bag containing an FD also contains the FD's
right-hand attribute, and (for the enumeration problem) every domain
element of interest occurs in at least one leaf bag.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable

from ..errors import Violation
from ..structures.structure import Element, Structure
from .decomposition import (
    ElementIds,
    IdDecomposition,
    NodeId,
    TreeDecomposition,
    refinement_violations,
    validate_refinement,
)


class NiceNodeKind(Enum):
    LEAF = "leaf"
    INTRODUCTION = "introduction"
    REMOVAL = "removal"
    BRANCH = "branch"
    COPY = "copy"


class NiceTreeDecomposition(TreeDecomposition):
    """A Section 5 normal-form decomposition with set bags.

    It is a :class:`TreeDecomposition`, so the Section 2.2 axiom checks
    (``validate_for_graph``, ``validate_for_structure``) run on its own
    bags with no copy."""

    __slots__ = ()

    def bag(self, node: NodeId) -> frozenset[Element]:
        return self.bags[node]

    def node_kind(self, node: NodeId) -> NiceNodeKind:
        children = self.tree._children[node]
        if not children:
            return NiceNodeKind.LEAF
        bags = self.bags
        here = bags[node]
        if len(children) == 1:
            child = bags[children[0]]
            if here == child:
                return NiceNodeKind.COPY
            if len(here) == len(child) + 1 and child < here:
                return NiceNodeKind.INTRODUCTION
            if len(here) == len(child) - 1 and here < child:
                return NiceNodeKind.REMOVAL
            raise ValueError(
                f"node {node} differs from its child by more than one element: "
                f"{sorted(here, key=repr)} vs {sorted(child, key=repr)}"
            )
        if len(children) == 2:
            left, right = children
            if bags[left] != here or bags[right] != here:
                raise ValueError(f"branch node {node} has unequal children bags")
            return NiceNodeKind.BRANCH
        raise ValueError(f"node {node} has {len(children)} children")

    def introduced_element(self, node: NodeId) -> Element:
        """The element ``v`` with ``bag = child_bag ⊎ {v}``."""
        (child,) = self.tree.children(node)
        (v,) = self.bags[node] - self.bags[child]
        return v

    def removed_element(self, node: NodeId) -> Element:
        """The element ``v`` with ``bag = child_bag \\ {v}``."""
        (child,) = self.tree.children(node)
        (v,) = self.bags[child] - self.bags[node]
        return v

    def shape_violations(self) -> list[Violation]:
        """The nodes :meth:`node_kind` cannot classify, in preorder."""
        return refinement_violations(self)

    def validate(self, structure: Structure | None = None) -> None:
        """The normal-form shape, then, given ``structure``, the
        Section 2.2 axioms against it."""
        validate_refinement(self, structure)


def bottom_up(
    nice: NiceTreeDecomposition,
    leaf: Callable[[NodeId], set],
    introduce: Callable[[NodeId, set, Element], set],
    remove: Callable[[NodeId, set, Element], set],
    branch: Callable[[NodeId, set, set], set],
) -> dict[NodeId, set]:
    """The state set of every node, computed in postorder: the one
    bottom-up walk of the Section 5 dynamic programs.

    Each node's kind is read once.  A leaf's states are ``leaf(node)``;
    an introduction or removal node hands its child's states and the
    introduced or removed element to ``introduce`` / ``remove``; a
    branch node hands both children's states to ``branch``; a copy node
    takes its child's state set as it is (the identity transition)."""
    children = nice.tree.children
    states: dict[NodeId, set] = {}
    for node in nice.tree.postorder():
        kind = nice.node_kind(node)
        if kind is NiceNodeKind.LEAF:
            here = leaf(node)
        elif kind is NiceNodeKind.BRANCH:
            left, right = children(node)
            here = branch(node, states[left], states[right])
        else:
            (child,) = children(node)
            below = states[child]
            if kind is NiceNodeKind.COPY:
                here = below
            elif kind is NiceNodeKind.INTRODUCTION:
                here = introduce(node, below, nice.introduced_element(node))
            else:
                here = remove(node, below, nice.removed_element(node))
        states[node] = here
    return states


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

SortKey = Callable[[Element], object]
IdKey = Callable[[int], object]


def make_nice_ids(
    dec: IdDecomposition,
    removal_key: IdKey | None = None,
    introduction_key: IdKey | None = None,
) -> IdDecomposition:
    """The Section 5 normal form of ``dec`` (set bags of element ids,
    root ``0``), its nodes numbered in preorder.

    One top-down pass over ``dec`` builds the nice tree directly.  At
    each node it

    * collapses the chain of one-child nodes below it whose bags equal
      its own;
    * splits more than two children into a chain of equal-bag branch
      copies: the node keeps its first child and a copy, the copy the
      second child and the next copy, and so on;
    * puts an equal-bag node above each branch child whose bag differs,
      so both children of a branch carry its bag;
    * expands each one-child edge into single-element steps.  Walking
      bottom-up from child bag ``B'`` to parent bag ``B``, first the
      ids of ``B' \\ B`` are removed one at a time, ordered by
      ``(removal_key, id)``, then the ids of ``B \\ B'`` are
      introduced, ordered by ``(introduction_key, id)``.  Ids follow
      ``repr`` order (:class:`~repro.treewidth.decomposition.ElementIds`),
      so this is the ``(key, repr)`` order of the elements.  The keys
      let callers keep bag invariants along the chain: the PRIMALITY
      refinement removes FDs before attributes and introduces
      attributes before FDs, so that "f in bag implies rhs(f) in bag"
      survives.

    A branch's second child waits on a stack until the first child's
    subtree is built, so nodes are numbered as a preorder walk meets
    them.  The root bag is ``dec``'s and children keep their order.
    By construction every node is one of the five kinds and the width
    and ``aliens`` are ``dec``'s, so nothing is checked here.
    """
    removal_order = _descending(removal_key)
    introduction_order = _descending(introduction_key)
    source, below = dec.bags, dec.children
    parent = [-1]
    bags = [source[0]]
    children: list[list[int]] = [[]]
    #: (branch node, source child) to hang below it, or (branch node,
    #: source children) for an equal-bag copy of it over those
    stack: list[tuple[int, object]] = []

    def add(top: int, bag: frozenset) -> int:
        k = len(bags)
        bags.append(bag)
        parent.append(top)
        children.append([])
        children[top].append(k)
        return k

    top, node = 0, 0  # nice ``top`` carries source ``node``'s bag
    while True:
        bag = bags[top]
        kids = below[node]
        while len(kids) == 1 and source[kids[0]] == bag:
            kids = below[kids[0]]
        if len(kids) == 1:
            node = kids[0]
        else:
            if kids:  # a branch: its children wait, the first on top
                stack.append((top, kids[1] if len(kids) == 2 else kids[1:]))
                stack.append((top, kids[0]))
            while stack:
                top, node = stack.pop()
                bag = bags[top]
                if type(node) is not int:  # the equal-bag copy over the rest
                    k = add(top, bag)
                    stack.append((k, node[1] if len(node) == 2 else node[1:]))
                    stack.append((k, node[0]))
                    continue
                if source[node] != bag:  # an equal-bag node above it
                    top = add(top, bag)
                break
            else:
                break  # every subtree is built
        # hang ``node`` below ``top`` through single-element steps
        # (one equal-bag node if the bags are equal); top-down, the
        # chain undoes the introductions, then the removals
        upper = bags[top]
        lower = source[node]
        steps = []
        current = upper
        for v in introduction_order(upper - lower):
            current = current - {v}
            steps.append(current)
        for v in removal_order(lower - upper):
            current = current | {v}
            steps.append(current)
        steps[-1:] = [lower]  # the last step, or none, reaches ``node``
        for bag in steps:
            top = add(top, bag)
    return IdDecomposition(parent, children, bags, dec.width, None, dec.aliens)


def _descending(key: IdKey | None) -> Callable[[frozenset], list[int]]:
    """Sort ids by descending ``(key, id)``."""
    if key is None:
        return lambda ids: sorted(ids, reverse=True)
    return lambda ids: sorted(ids, key=lambda x: (key(x), x), reverse=True)


def make_nice(
    td: TreeDecomposition,
    removal_key: SortKey | None = None,
    introduction_key: SortKey | None = None,
) -> NiceTreeDecomposition:
    """:func:`make_nice_ids` on a value-level decomposition: intern its
    elements (:meth:`~repro.treewidth.decomposition.ElementIds.
    of_elements`), build the nice form over their ids, and decode it,
    its nodes labelled ``0, 1, ...`` in preorder.  The keys take
    elements and order as ``(key, repr)``."""
    ids = ElementIds.of_elements(td.all_elements())
    values = ids.values
    nice = make_nice_ids(
        ids.decomposition(td),
        _on_ids(removal_key, values),
        _on_ids(introduction_key, values),
    )
    return nice.decoded(values, NiceTreeDecomposition)


def _on_ids(key: SortKey | None, values: list) -> IdKey | None:
    return None if key is None else lambda x: key(values[x])


def surround_branches(nice: NiceTreeDecomposition) -> NiceTreeDecomposition:
    """Insert an equal-bag copy parent above every branch node.

    Section 5.3: "for every branch node s we insert a new node u as new
    parent of s, s.t. u and s have identical bags" -- so a branch node
    has equal-bag neighbours on all three sides and the root is never a
    branch node.
    """
    tree = nice.tree.copy()
    bags = dict(nice.bags)
    for node in list(tree.nodes()):
        if len(tree.children(node)) == 2:
            mid = tree.insert_above(node)
            bags[mid] = bags[node]
    return NiceTreeDecomposition(tree, bags)


def ensure_elements_in_leaves(
    td: TreeDecomposition, elements: Iterable[Element]
) -> TreeDecomposition:
    """Attach equal-bag leaf children so each element reaches a leaf bag.

    Used by the enumeration algorithm (Section 5.3), whose ``prime``
    rule fires at leaves: every attribute must occur in at least one
    leaf bag.
    """
    tree = td.tree.copy()
    bags = dict(td.bags)
    covered: set[Element] = set()
    for node in tree.nodes():
        if tree.is_leaf(node):
            covered |= bags[node]
    # in id order, which is repr order (ElementIds)
    for element in ElementIds.of_elements(set(elements) - covered).values:
        host = next(
            n for n in tree.preorder() if element in bags[n]
        )
        leaf = tree.add_child(host)
        bags[leaf] = bags[host]
        covered |= bags[host]
    return TreeDecomposition(tree, bags)


def reroot_to_contain(
    td: TreeDecomposition, element: Element
) -> TreeDecomposition:
    """Reroot so that ``element`` occurs in the root bag.

    The PRIMALITY decision program expects the distinguished attribute
    ``a`` in the bag at the root (Section 5.2).
    """
    node = td.find_node_containing(element)
    return td.rerooted(node)
