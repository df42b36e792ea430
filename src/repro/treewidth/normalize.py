"""Normalized tree decompositions (Definition 2.3, Proposition 2.4).

The normal form used for the generic MSO-to-datalog construction of
Section 4:

1. bags are *tuples* of exactly ``w + 1`` pairwise distinct elements;
2. every internal node has 1 or 2 children;
3. a node with one child is a *permutation node* (child bag is a
   permutation of the parent's other than the same tuple) or an
   *element replacement node* (child bag replaces the parent's
   position-0 element by one not in the bag);
4. a node with two children is a *branch node* and both children carry
   the parent's bag verbatim.

A one-child node whose tuple equals its child's fits neither unary
kind: no Theorem 4.5 rule fires at it, so it would derive no type, and
the shape check rejects it.

:func:`normalize` builds the form in one top-down walk over the input
decomposition (the linear-time construction of Proposition 2.4),
writing each normalized node once: no intermediate decompositions,
tree copies or bag rebuilds.  It preserves the width exactly.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

from ..errors import Violation
from ..structures.structure import Element, Structure
from .decomposition import (
    NodeId,
    RootedTree,
    TreeDecomposition,
    refinement_violations,
    validate_refinement,
)


class NormalizedNodeKind(Enum):
    LEAF = "leaf"
    PERMUTATION = "permutation"
    ELEMENT_REPLACEMENT = "element_replacement"
    BRANCH = "branch"


class NormalizedTreeDecomposition(TreeDecomposition):
    """A Definition 2.3 normal-form decomposition with tuple bags.

    It is a :class:`TreeDecomposition` whose ``bags`` are the tuples,
    so the Section 2.2 axiom checks run on them in place; ``copy`` and
    ``rerooted`` give a plain set-bag decomposition."""

    __slots__ = ()

    def __init__(
        self, tree: RootedTree, tuples: Mapping[NodeId, tuple[Element, ...]]
    ):
        self.tree = tree
        self.bags = {n: tuple(tuples[n]) for n in tree.nodes()}
        widths = {len(t) for t in self.bags.values()}
        if len(widths) > 1:
            raise ValueError(f"bags have mixed sizes {sorted(widths)}")

    def bag(self, node: NodeId) -> tuple[Element, ...]:
        return self.bags[node]

    def node_kind(self, node: NodeId) -> NormalizedNodeKind:
        """Classify ``node`` per Definition 2.3 (raises if malformed).

        Tuples are compared before any element is looked up, and no set
        is built: a one-child node is an element replacement when its
        child's tuple differs only at position 0, by an element not in
        the node's tuple, and a permutation when the two tuples contain
        each other."""
        children = self.tree._children[node]
        if not children:
            return NormalizedNodeKind.LEAF
        bags = self.bags
        here = bags[node]
        if len(children) == 1:
            child = bags[children[0]]
            if child == here:
                raise ValueError(
                    f"node {node} has one child with the same tuple {here}"
                )
            if child[1:] == here[1:] and child[0] not in here:
                return NormalizedNodeKind.ELEMENT_REPLACEMENT
            for x in child:
                if x not in here:
                    break
            else:
                for x in here:
                    if x not in child:
                        break
                else:
                    return NormalizedNodeKind.PERMUTATION
            raise ValueError(
                f"node {node} is neither permutation nor element replacement: "
                f"{here} -> {child}"
            )
        if len(children) == 2:
            left, right = children
            if bags[left] != here or bags[right] != here:
                raise ValueError(f"branch node {node} has non-identical children")
            return NormalizedNodeKind.BRANCH
        raise ValueError(f"node {node} has {len(children)} children")

    def permutation_of(self, node: NodeId) -> tuple[int, ...]:
        """For a permutation node: pi with child_bag[i] == bag[pi[i]]."""
        here = self.bags[node]
        (child,) = self.tree.children(node)
        child_bag = self.bags[child]
        position = {x: i for i, x in enumerate(here)}
        return tuple(position[x] for x in child_bag)

    def shape_violations(self) -> list[Violation]:
        """The Definition 2.3 shape violations: bags that repeat an
        element, then the nodes :meth:`node_kind` cannot classify, in
        preorder.

        Repeats are inferred rather than searched for: every tuple
        descends from the root's along classified edges, and each kind
        keeps a repeat-free tuple repeat-free (the constructor keeps
        all tuples one length).  So the bags are scanned only when the
        root's tuple repeats or a node fails."""
        violations = refinement_violations(self)
        root = self.bags[self.tree.root]
        if not violations and len(set(root)) == len(root):
            return violations
        repeats = [
            Violation(
                "bag-repeats-elements",
                f"bag of {node} repeats elements: {bag}",
                subject=(node,),
            )
            for node, bag in self.bags.items()
            if len(set(bag)) != len(bag)
        ]
        return repeats + violations

    def validate(self, structure: Structure | None = None) -> None:
        """The Definition 2.3 shape, then, given ``structure``, the
        Section 2.2 axioms against it, on the tuple bags."""
        validate_refinement(self, structure)


# ----------------------------------------------------------------------
# Proposition 2.4
# ----------------------------------------------------------------------


def widen(td: TreeDecomposition, width: int) -> TreeDecomposition:
    """Grow every bag of a decomposition of width at most ``width`` to
    exactly ``width + 1`` elements.

    Sweeps repeat until every bag is full: in preorder, a short bag
    borrows the elements it lacks from each neighbour in turn, by
    ``repr``, which keeps the connectedness condition (a borrowed
    element's occurrences gain an adjacent node).  While a bag is
    short, some short bag has a neighbour holding an element it lacks,
    unless all bags are equal.  Raises if the decomposition covers
    fewer than ``width + 1`` elements (the paper's "w.l.o.g. the domain
    has at least w + 1 elements").
    """
    if td.width > width:
        raise ValueError(f"decomposition already wider than {width}")
    if len(td.all_elements()) < width + 1:
        raise ValueError(
            f"cannot widen to {width}: only {len(td.all_elements())} elements"
        )
    tree = td.tree
    bags = dict(td.bags)
    while any(len(bag) <= width for bag in bags.values()):
        for node in tree.preorder():
            neighbours = list(tree.children(node))
            if tree.parent(node) is not None:
                neighbours.append(tree.parent(node))
            for nbr in neighbours:
                lack = sorted(bags[nbr] - bags[node], key=repr)
                bags[node] |= frozenset(lack[: width + 1 - len(bags[node])])
    return TreeDecomposition(tree.copy(), bags)


def normalize(td: TreeDecomposition) -> NormalizedTreeDecomposition:
    """Convert any valid decomposition into the Definition 2.3 form.

    One top-down walk over ``td`` builds the normalized tree directly,
    writing each node once.  It starts at ``td``'s root; if the root bag
    is short, the bags on the path up to it from the first full bag in
    preorder are padded first, each from the one below.  The root tuple
    is the root bag sorted by ``repr``.  At each node, with its tuple
    fixed, the walk

    * merges into the node each child whose bag lies inside the node's
      (that child's children take its place), so unary equal-bag chains
      collapse;
    * splits more than two children into a chain of equal-tuple branch
      copies: the node keeps its first child and a copy, the copy the
      second child and the next copy, and so on; each child hangs below
      an equal-tuple branch child;
    * pads a short child's bag to ``w + 1`` elements, first from its
      own children's bags (by ``repr``), then from the end of the
      node's tuple;
    * writes each differing edge as single-element swaps, the outgoing
      elements in tuple order and the incoming ones by ``repr``: an
      element not at position 0 is brought there by a permutation node,
      then replaced.

    Padding borrows elements of an adjacent bag, which keeps the
    connectedness condition.  The output decomposes whatever ``td``
    decomposes, has the same width (asserted), and has no one-child
    node whose tuple equals its child's.  The input must be a valid
    tree decomposition.
    """
    width = td.width
    full = width + 1
    children, parent, root = td.tree.children, td.tree.parent, td.tree.root
    source = td.bags
    node = next(n for n in td.tree.preorder() if len(source[n]) == full)
    if node != root:
        source = dict(source)
        while node != root:
            node, below = parent(node), source[node]
            lack = sorted(below - source[node], key=repr)
            source[node] = source[node].union(lack[: full - len(source[node])])
    tree = RootedTree()
    add_child = tree.add_child
    tuples = {tree.root: tuple(sorted(source[root], key=repr))}
    stack = [(root, tree.root, source[root])]  # input node, output node, bag

    def swap_down(top: NodeId, node: NodeId) -> None:
        """Hang ``node`` below ``top`` through permutation and
        replacement nodes, padding its bag first."""
        upper = tuples[top]
        lower = source[node]
        for kid in children(node) if len(lower) < full else ():
            lack = sorted(source[kid] - lower, key=repr)
            lower = lower.union(lack[: full - len(lower)])
        outs = [x for x in upper if x not in lower]
        kept = len(outs) - (full - len(lower))  # the rest pad ``lower``
        if kept < len(outs):
            lower = lower.union(outs[kept:])
            del outs[kept:]
        ins = [x for x in lower if x not in upper]
        if len(ins) > 1:
            ins.sort(key=repr)
        current = upper
        for out, into in zip(outs, ins):
            if current[0] != out:
                current = (out,) + tuple(x for x in current if x != out)
                top = add_child(top)
                tuples[top] = current
            current = (into,) + current[1:]
            top = add_child(top)
            tuples[top] = current
        stack.append((node, top, lower))

    while stack:
        node, here, bag = stack.pop()
        kids = []
        merged = [node]
        while merged:
            for kid in children(merged.pop()):
                (merged if source[kid] <= bag else kids).append(kid)
        if len(kids) == 1:
            swap_down(here, kids[0])
            continue
        tup = tuples[here]
        while len(kids) > 2:
            child = add_child(here)
            tuples[child] = tup
            swap_down(child, kids.pop(0))
            here = add_child(here)
            tuples[here] = tup
        for kid in kids:  # none at a leaf, else two
            child = add_child(here)
            tuples[child] = tup
            swap_down(child, kid)
    result = NormalizedTreeDecomposition(tree, tuples)
    if result.width != width:
        raise AssertionError(
            f"normalization changed the width: {width} -> {result.width}"
        )
    return result
