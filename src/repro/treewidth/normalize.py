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

:func:`normalize_ids` builds the form in one top-down walk over the
input decomposition (the linear-time construction of Proposition 2.4),
writing each normalized node once, in preorder: no intermediate
decompositions, tree copies or bag rebuilds.  It preserves the width
exactly.  It runs over dense element ids
(:class:`~repro.treewidth.decomposition.IdDecomposition`), as do
:func:`widen_ids` and the shape check :func:`shape_violations`; a
solve reaches them with the ids admission assigned.  :func:`normalize`,
:func:`widen` and :meth:`NormalizedTreeDecomposition.shape_violations`
are their value-level entries: they intern, run the kernel and decode.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

from ..errors import Violation
from ..structures.structure import Element, Structure
from .decomposition import (
    ElementIds,
    IdDecomposition,
    NodeId,
    RootedTree,
    TreeDecomposition,
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
        """Classify ``node`` per Definition 2.3 (raises if malformed)."""
        bags = self.bags
        return _node_kind(
            node, bags[node], [bags[c] for c in self.tree._children[node]]
        )

    def permutation_of(self, node: NodeId) -> tuple[int, ...]:
        """For a permutation node: pi with child_bag[i] == bag[pi[i]]."""
        here = self.bags[node]
        (child,) = self.tree.children(node)
        child_bag = self.bags[child]
        position = {x: i for i, x in enumerate(here)}
        return tuple(position[x] for x in child_bag)

    def shape_violations(self) -> list[Violation]:
        """The Definition 2.3 shape violations (see
        :func:`shape_violations`), the nodes in preorder."""
        labels = list(self.tree.preorder())
        position = dict(zip(labels, range(len(labels))))
        kids_of = self.tree._children
        return shape_violations(
            [[position[c] for c in kids_of[label]] for label in labels],
            [self.bags[label] for label in labels],
            labels,
        )

    def validate(self, structure: Structure | None = None) -> None:
        """The Definition 2.3 shape, then, given ``structure``, the
        Section 2.2 axioms against it, on the tuple bags."""
        validate_refinement(self, structure)


def _node_kind(node, here: tuple, below: list[tuple]) -> NormalizedNodeKind:
    """The Definition 2.3 kind of a node with tuple ``here`` and child
    tuples ``below``; raises :class:`ValueError` naming ``node`` if it
    has none.

    Tuples are compared before any element is looked up, and no set is
    built: a one-child node is an element replacement when its child's
    tuple differs only at position 0, by an element not in the node's
    tuple, and a permutation when the two tuples contain each other."""
    if not below:
        return NormalizedNodeKind.LEAF
    if len(below) == 1:
        child = below[0]
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
    if len(below) == 2:
        left, right = below
        if left != here or right != here:
            raise ValueError(f"branch node {node} has non-identical children")
        return NormalizedNodeKind.BRANCH
    raise ValueError(f"node {node} has {len(below)} children")


def shape_violations(
    children: list[list[int]], tuples: list[tuple], labels=None
) -> list[Violation]:
    """The one Definition 2.3 shape check, over a tree as arrays: node
    ``k`` (in preorder, the root ``0``) has the children ``children[k]``
    and the tuple ``tuples[k]``, and is named ``labels[k]`` (default
    ``k``) in messages.

    Returns the bags that repeat an element, then the nodes
    :func:`_node_kind` cannot classify, in preorder.  Repeats are
    inferred rather than searched for: every tuple descends from the
    root's along classified edges, and each kind keeps a repeat-free
    tuple repeat-free (the tuples all have one length).  So the bags
    are scanned only when the root's tuple repeats or a node fails."""
    failed = []
    for k, kids in enumerate(children):
        # the common kinds are accepted inline; anything else is
        # classified, or refused, by _node_kind
        if len(kids) == 1:
            here, child = tuples[k], tuples[kids[0]]
            if child[1:] == here[1:]:
                if child[0] not in here:
                    continue  # an element replacement
            elif set(child) == set(here):
                continue  # a permutation
        elif len(kids) == 2:
            if tuples[kids[0]] == tuples[k] == tuples[kids[1]]:
                continue  # a branch
        elif not kids:
            continue  # a leaf
        try:
            _node_kind(k, tuples[k], [tuples[c] for c in kids])
        except ValueError:
            failed.append(k)
    root = tuples[0]
    if not failed and len(set(root)) == len(root):
        return []
    name = labels.__getitem__ if labels is not None else int
    repeats = [
        Violation(
            "bag-repeats-elements",
            f"bag of {name(k)} repeats elements: {bag}",
            subject=(name(k),),
        )
        for k, bag in enumerate(tuples)
        if len(set(bag)) != len(bag)
    ]
    malformed = []
    for k in failed:
        try:
            _node_kind(name(k), tuples[k], [tuples[c] for c in children[k]])
        except ValueError as exc:
            malformed.append(
                Violation("malformed-node", str(exc), subject=(name(k),))
            )
    return repeats + malformed


# ----------------------------------------------------------------------
# Proposition 2.4, over element ids
# ----------------------------------------------------------------------


def _preorder(children: list[list[int]]) -> list[int]:
    order = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children[node]))
    return order


def widen_ids(dec: IdDecomposition, width: int) -> IdDecomposition:
    """Grow every bag of a decomposition of width at most ``width`` to
    exactly ``width + 1`` ids.

    Sweeps repeat until every bag is full: in preorder, a short bag
    borrows the ids it lacks from each neighbour in turn (children,
    then parent), smallest first, which keeps the connectedness
    condition (a borrowed id's occurrences gain an adjacent node).
    While a bag is short, some short bag has a neighbour holding an id
    it lacks, unless all bags are equal.  Raises if the decomposition
    covers fewer than ``width + 1`` ids (the paper's "w.l.o.g. the
    domain has at least w + 1 elements").
    """
    if dec.width > width:
        raise ValueError(f"decomposition already wider than {width}")
    bags = list(dec.bags)
    covered = len(frozenset().union(*bags))
    if covered < width + 1:
        raise ValueError(f"cannot widen to {width}: only {covered} elements")
    children, parent = dec.children, dec.parent
    order = _preorder(children)
    while any(len(bag) <= width for bag in bags):
        for node in order:
            if len(bags[node]) > width:
                continue
            neighbours = children[node] + [parent[node]] if node else children[node]
            for nbr in neighbours:
                lack = sorted(bags[nbr] - bags[node])
                bags[node] |= frozenset(lack[: width + 1 - len(bags[node])])
    return IdDecomposition(parent, children, bags, width, dec.labels, dec.aliens)


def normalize_ids(dec: IdDecomposition) -> IdDecomposition:
    """Convert a valid decomposition over ids into the Definition 2.3
    form, its nodes numbered in preorder.

    One top-down walk over ``dec`` builds the normalized tree directly,
    writing each node once.  It starts at ``dec``'s root; if the root
    bag is short, the bags on the path up to it from the first full bag
    in preorder are padded first, each from the one below.  The root
    tuple is the root bag sorted.  At each node, with its tuple fixed,
    the walk

    * merges into the node each child whose bag lies inside the node's
      (that child's children take its place), so unary equal-bag chains
      collapse;
    * splits more than two children into a chain of equal-tuple branch
      copies: the node keeps its first child and a copy, the copy the
      second child and the next copy, and so on; each child hangs below
      an equal-tuple branch child;
    * pads a short child's bag to ``w + 1`` ids, first from its own
      children's bags (smallest first), then from the end of the
      node's tuple;
    * writes each differing edge as single-element swaps, the outgoing
      ids in tuple order and the incoming ones smallest first: an id
      not at position 0 is brought there by a permutation node, then
      replaced.

    Padding borrows ids of an adjacent bag, which keeps the
    connectedness condition.  The output decomposes whatever ``dec``
    decomposes, has the same width (asserted), and has no one-child
    node whose tuple equals its child's.  The walk visits the output
    in preorder: a node's second child is written once the first
    child's subtree is done.
    """
    width = dec.width
    full = width + 1
    kids_of, up = dec.children, dec.parent
    source = dec.bags
    if len(source[0]) < full:
        node = next(n for n in _preorder(kids_of) if len(source[n]) == full)
        source = list(source)
        while node:
            node, below = up[node], source[node]
            lack = sorted(below - source[node])
            source[node] = source[node].union(lack[: full - len(source[node])])
    parent = [-1]
    children: list[list[int]] = [[]]
    tuples = [tuple(sorted(source[0]))]

    def add(top: int, tup: tuple) -> int:
        """Write a child of ``top`` with tuple ``tup``: the next node in
        preorder."""
        node = len(tuples)
        tuples.append(tup)
        parent.append(top)
        children.append([])
        children[top].append(node)
        return node

    # (0, input node, output node, bag): write the node's children;
    # (1, output node, input child): hang the child below a branch copy;
    # (2, output node, input children): a branch copy for the rest
    tasks: list = [(0, 0, 0, source[0])]
    push = tasks.append

    def swap_down(top: int, node: int) -> None:
        """Hang ``node`` below ``top`` through permutation and
        replacement nodes, padding its bag first."""
        upper = tuples[top]
        lower = source[node]
        for kid in kids_of[node] if len(lower) < full else ():
            lack = sorted(source[kid] - lower)
            lower = lower.union(lack[: full - len(lower)])
        outs = [x for x in upper if x not in lower]
        kept = len(outs) - (full - len(lower))  # the rest pad ``lower``
        if kept < len(outs):
            lower = lower.union(outs[kept:])
            del outs[kept:]
        ins = [x for x in lower if x not in upper]
        if len(ins) > 1:
            ins.sort()
        current = upper
        for out, into in zip(outs, ins):
            if current[0] != out:
                i = current.index(out)
                current = (out,) + current[:i] + current[i + 1 :]
                top = add(top, current)
            current = (into,) + current[1:]
            top = add(top, current)
        push((0, node, top, lower))

    def branch(here: int, kids: list[int]) -> None:
        """Hang two or more children below ``here`` (pushed so that the
        first is written first)."""
        push((1, here, kids[1]) if len(kids) == 2 else (2, here, kids[1:]))
        push((1, here, kids[0]))

    while tasks:
        task = tasks.pop()
        if task[0] == 1:
            _, here, kid = task
            swap_down(add(here, tuples[here]), kid)
            continue
        if task[0] == 2:
            _, here, kids = task
            branch(add(here, tuples[here]), kids)
            continue
        _, node, here, bag = task
        kids = []
        merged = [node]
        while merged:
            for kid in kids_of[merged.pop()]:
                (merged if source[kid] <= bag else kids).append(kid)
        if len(kids) == 1:
            swap_down(here, kids[0])
        elif kids:
            branch(here, kids)
    if len(tuples[0]) != full:
        raise AssertionError(
            f"normalization changed the width: {width} -> {len(tuples[0]) - 1}"
        )
    return IdDecomposition(parent, children, tuples, width)


def normalize_admitted(
    dec: IdDecomposition, width: int, values: list
) -> IdDecomposition:
    """The Definition 2.3 form a solve at ``width`` loads, over ids.

    ``dec`` is a decomposition :func:`repro.admission.admit` admitted:
    valid for the structure and at most ``width`` wide, which its
    carried ``width`` says without a rescan.  It is widened to
    ``width`` if narrower, normalized, and given the Definition 2.3
    shape check only, since admission checked the Section 2.2 axioms.
    A shape violation raises
    :class:`~repro.errors.InvalidDecomposition` naming the elements
    (``values[i]`` is the element of id ``i``).
    """
    if dec.width < width:
        dec = widen_ids(dec, width)
    ntd = normalize_ids(dec)
    if shape_violations(ntd.children, ntd.bags):
        ntd.decoded(values, NormalizedTreeDecomposition).validate()
    return ntd


# ----------------------------------------------------------------------
# The value-level entries: intern, run the id kernel, decode
# ----------------------------------------------------------------------


def widen(td: TreeDecomposition, width: int) -> TreeDecomposition:
    """Grow every bag of a decomposition of width at most ``width`` to
    exactly ``width + 1`` elements, borrowing from neighbours by
    ``repr`` (see :func:`widen_ids`)."""
    ids = ElementIds.of_elements(td.all_elements())
    return widen_ids(ids.decomposition(td), width).decoded(ids.values)


def normalize(td: TreeDecomposition) -> NormalizedTreeDecomposition:
    """Convert any valid decomposition into the Definition 2.3 form
    (see :func:`normalize_ids`; ``repr`` order stands for id order).
    The nodes are numbered ``0 ..`` in preorder."""
    ids = ElementIds.of_elements(td.all_elements())
    return normalize_ids(ids.decomposition(td)).decoded(
        ids.values, NormalizedTreeDecomposition
    )
