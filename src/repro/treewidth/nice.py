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

:func:`make_nice` builds the form from any valid decomposition in one
top-down pass, writing each nice node once: no intermediate
decompositions, tree copies or bag rebuilds.  A
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
    NodeId,
    RootedTree,
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


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

SortKey = Callable[[Element], object]


def make_nice(
    td: TreeDecomposition,
    removal_key: SortKey | None = None,
    introduction_key: SortKey | None = None,
) -> NiceTreeDecomposition:
    """Convert any valid decomposition into the Section 5 normal form.

    One top-down pass over ``td`` builds the nice tree directly.  At
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
      elements of ``B' \\ B`` are removed one at a time, ordered by
      ``(removal_key, repr)``, then the elements of ``B \\ B'`` are
      introduced, ordered by ``(introduction_key, repr)``.  The keys
      let callers keep bag invariants along the chain: the PRIMALITY
      refinement removes FDs before attributes and introduces
      attributes before FDs, so that "f in bag implies rhs(f) in bag"
      survives.

    Width is preserved (asserted), the root bag is ``td``'s, children
    keep their order, and the result has passed its shape check
    (:meth:`NiceTreeDecomposition.validate`).
    """
    removal_key = removal_key or (lambda e: 0)
    introduction_key = introduction_key or (lambda e: 0)
    removal_order = lambda e: (removal_key(e), repr(e))
    introduction_order = lambda e: (introduction_key(e), repr(e))
    source, children = td.bags, td.tree.children
    tree = RootedTree()
    bags = {tree.root: source[td.tree.root]}
    stack = [(td.tree.root, tree.root)]

    def step_down(top: NodeId, node: NodeId) -> None:
        """Hang ``node`` below ``top`` through single-element steps."""
        upper, lower = bags[top], source[node]
        # top-down, the chain undoes the introductions, then the removals
        steps = []
        current = upper
        for v in reversed(sorted(upper - lower, key=introduction_order)):
            current = current - {v}
            steps.append(current)
        for v in reversed(sorted(lower - upper, key=removal_order)):
            current = current | {v}
            steps.append(current)
        steps[-1:] = [lower]  # the last step, or none, reaches ``node``
        for bag in steps:
            top = tree.add_child(top)
            bags[top] = bag
        stack.append((node, top))

    def below_branch(branch: NodeId, node: NodeId) -> None:
        """Hang ``node`` below a branch node, through an equal-bag node
        if its bag differs from the branch's."""
        if source[node] != bags[branch]:
            mid = tree.add_child(branch)
            bags[mid] = bags[branch]
            branch = mid
        step_down(branch, node)

    while stack:
        node, here = stack.pop()
        bag = bags[here]
        kids = children(node)
        while len(kids) == 1 and source[kids[0]] == bag:
            kids = children(kids[0])
        if len(kids) == 1:
            step_down(here, kids[0])
            continue
        while len(kids) > 2:
            below_branch(here, kids[0])
            here = tree.add_child(here)
            bags[here] = bag
            kids = kids[1:]
        for kid in kids:  # none at a leaf, else two
            below_branch(here, kid)
    nice = NiceTreeDecomposition(tree, bags)
    if nice.width != td.width:
        raise AssertionError(f"width changed: {td.width} -> {nice.width}")
    nice.validate()
    return nice


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
    for element in sorted(set(elements) - covered, key=repr):
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
