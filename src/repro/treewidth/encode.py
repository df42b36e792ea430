"""Encoding ``A_td``: the structure plus its tree decomposition (Section 4).

The extended signature is ``tau_td = tau ∪ {root, leaf, child1, child2,
bag}``.  ``child1(s1, s)`` says s1 is the first (or only) child of s;
``child2(s2, s)`` the second child; ``bag`` has arity ``w + 2`` with
``bag(t, a0, ..., aw)`` in the Definition 2.3 tuple form.

For the Section 5 algorithms bags are sets; there we encode
``bag(t, X)`` where ``X`` is a frozenset *constant* -- the paper's
"succinct representation by non-monadic datalog" where fixed-size sets
are first-class values handled by built-ins (Section 6, optimizations
(1) and (4)).  A hook lets problem modules split the payload, e.g.
PRIMALITY's ``bag(t, At, Fd)``.  A Section 5 encoding also tags each
copy node (one child, equal bag) with ``copynode(t)``, which the
Section 5 programs treat as an identity transition.

Tree nodes live in the same domain as the structure's elements
(Section 4: "The domain of A_td is the union of dom(A) and the nodes of
T"); :class:`TDNode` wrappers keep them collision-free.

:func:`load_ids` is the solve path's form of :func:`encode_normalized`:
it writes ``A_td`` from a normalized decomposition over element ids
straight into an interned :class:`~repro.datalog.setengine.SetDatabase`,
with the node-keyed indexes the Theorem 4.4 grounder probes already
filled; the element ids and id tuples are the ones admission assigned.
:func:`load_normalized` is its value-level entry, and
``encode_normalized`` stays as its value-level oracle.
:func:`load_nice_ids` does the same for :func:`encode_nice` and the
Section 5 programs: from a nice decomposition over element ids (nodes
in preorder, :func:`~repro.treewidth.nice.make_nice_ids`), the
structure's relations as id tuples and each problem's facts per
distinct bag, computed in ids -- Figure 5 writes its bags and
``allowed`` subsets as bitset sets, whose values, like the nodes', are
built only when read back.  :func:`load_nice` is its value-level entry
(intern, load, with a per-bag payload over values), and
``encode_nice`` its value-level oracle.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Mapping

from ..datalog.interning import Interner, LazyTailInterner
from ..datalog.setengine import SetDatabase
from ..structures.signature import Signature
from ..structures.structure import Element, Structure
from .decomposition import ElementIds, IdDecomposition, NodeId
from .nice import NiceTreeDecomposition
from .normalize import NormalizedTreeDecomposition


class TDNode:
    """A tree-decomposition node as a domain element of ``A_td``: equal
    only to a ``TDNode`` of the same index.  A plain slotted class, since
    a solve creates one per node."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __eq__(self, other) -> bool:
        return other.__class__ is TDNode and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.index,))

    def __repr__(self) -> str:
        return f"TDNode(index={self.index})"

    def __str__(self) -> str:
        return f"s{self.index}"


def _tree_facts(
    tree,
    node_const: Callable[[NodeId], TDNode],
) -> tuple[set, set, set, set]:
    roots = {(node_const(tree.root),)}
    leaves = set()
    child1 = set()
    child2 = set()
    for node in tree.nodes():
        children = tree.children(node)
        if not children:
            leaves.add((node_const(node),))
        if len(children) >= 1:
            child1.add((node_const(children[0]), node_const(node)))
        if len(children) == 2:
            child2.add((node_const(children[1]), node_const(node)))
        if len(children) > 2:
            raise ValueError(f"node {node} has more than two children")
    return roots, leaves, child1, child2


def encode_normalized(
    structure: Structure, ntd: NormalizedTreeDecomposition
) -> Structure:
    """``A_td`` for a Definition 2.3 decomposition (Example 4.2).

    ``bag`` has arity ``w + 2``: the node followed by the bag tuple.
    """
    w = ntd.width
    signature = structure.signature.extended(
        {"root": 1, "leaf": 1, "child1": 2, "child2": 2, "bag": w + 2}
    )
    node_const = TDNode
    roots, leaves, child1, child2 = _tree_facts(ntd.tree, node_const)
    bags = {
        (node_const(node),) + ntd.bag(node) for node in ntd.tree.nodes()
    }
    domain = set(structure.domain) | {node_const(n) for n in ntd.tree.nodes()}
    relations = {name: set(structure.relation(name)) for name in structure.signature}
    relations.update(
        root=roots, leaf=leaves, child1=child1, child2=child2, bag=bags
    )
    return Structure(signature, domain, relations)


def load_normalized(
    structure: Structure, ntd: NormalizedTreeDecomposition
) -> SetDatabase:
    """``A_td`` for a Definition 2.3 decomposition, loaded into ids.

    The database equals ``SetDatabase.from_edb(encode_normalized(
    structure, ntd))`` up to the choice of ids: the value-level entry
    of :func:`load_ids`, which it reaches by interning ``structure``
    and ``ntd`` (nodes in preorder).  Raises :class:`ValueError` on a
    bag element outside the domain and on a node with more than two
    children.
    """
    ids = ElementIds.of_structure(structure)
    return load_ids(structure, ids, ids.decomposition(ntd))


def load_ids(
    structure: Structure, ids: ElementIds, ntd: IdDecomposition
) -> SetDatabase:
    """``A_td`` for a Definition 2.3 decomposition over ``ids`` (tuple
    bags, nodes numbered in preorder), loaded into a
    :class:`~repro.datalog.setengine.SetDatabase`.

    The elements keep their ids ``0 .. |dom| - 1`` and their id tuples
    (``ids.relations``, made once, by admission on a solve); node ``k``
    gets the id ``|dom| + k``, so the ids follow the tree's preorder and
    not its node labels.  The stored values stay the elements and
    ``TDNode(label)``, so every decode is unchanged; the ``TDNode``
    values are built only if a caller reads a node back
    (:class:`~repro.datalog.interning.LazyTailInterner`).

    The load also fills the single-position hash indexes the grounder
    probes by node: ``bag`` on its node and ``child1``/``child2`` on
    either end.  By the key dependencies of Definition 4.3 every bucket
    holds one row.

    Raises :class:`ValueError` on a bag element outside the domain and
    on a node with more than two children.
    """
    # raises, as in encode_normalized, if the structure already has a
    # tau_td predicate name with another arity
    structure.signature.extended(
        {"root": 1, "leaf": 1, "child1": 2, "child2": 2, "bag": ntd.width + 2}
    )
    n = len(ids.values)
    labels = ntd.labels if ntd.labels is not None else range(len(ntd.bags))
    _check_domain(ntd, n, labels)
    rows = [(t, *bag) for t, bag in enumerate(ntd.bags, n)]
    facts, indexes = _tree_relations(ntd.children, n, labels)
    for name, tuples in ids.relations.items():
        facts[name] = set(tuples)
    facts["bag"] = set(rows)
    indexes["bag"] = {(0,): {row[0]: [row] for row in rows}}
    interner = LazyTailInterner(ids.values, ids.index, labels, TDNode)
    return SetDatabase.from_interned(interner, facts, indexes)


def _check_domain(dec: IdDecomposition, n: int, labels) -> None:
    """Raise :class:`ValueError` on the first bag (in node order) that
    holds an id past the domain's ``n``, naming its element."""
    if dec.aliens:
        for k, bag in enumerate(dec.bags):
            for x in bag:
                if x >= n:
                    raise ValueError(
                        f"element {dec.aliens[x - n]!r} of the bag of node "
                        f"{labels[k]} is not in the domain"
                    )


def _tree_relations(
    children: list[list[int]], base: int, labels
) -> tuple[dict[str, set], dict[str, dict]]:
    """``root``, ``leaf``, ``child1`` and ``child2`` of a tree rooted
    at node ``0`` whose node ``k`` has the children ``children[k]`` and
    the id ``base + k``, with the ``child1``/``child2`` hash indexes on
    either end.  By the key dependencies of Definition 4.3 every bucket
    holds one row.

    Raises :class:`ValueError` on a node with more than two children
    (named by ``labels[k]``)."""
    child1_by_child: dict[int, list] = {}
    child1_by_parent: dict[int, list] = {}
    child2_by_child: dict[int, list] = {}
    child2_by_parent: dict[int, list] = {}
    leaves = set()
    for t, kids in enumerate(children, base):
        if not kids:
            leaves.add((t,))
            continue
        if len(kids) > 2:
            raise ValueError(f"node {labels[t - base]} has more than two children")
        # one bucket list per index: SetDatabase.merge appends to them
        row = (base + kids[0], t)
        child1_by_child[row[0]] = [row]
        child1_by_parent[t] = [row]
        if len(kids) == 2:
            row = (base + kids[1], t)
            child2_by_child[row[0]] = [row]
            child2_by_parent[t] = [row]
    facts = {
        "root": {(base,)},
        "leaf": leaves,
        "child1": {rows[0] for rows in child1_by_child.values()},
        "child2": {rows[0] for rows in child2_by_child.values()},
    }
    indexes = {
        "child1": {(0,): child1_by_child, (1,): child1_by_parent},
        "child2": {(0,): child2_by_child, (1,): child2_by_parent},
    }
    return facts, indexes


def encode_nice(
    structure: Structure,
    nice: NiceTreeDecomposition,
    bag_payload: Callable[[frozenset[Element]], tuple] | None = None,
) -> Structure:
    """``A_td`` for a Section 5 decomposition with set-valued bags.

    ``bag_payload`` maps a bag to the constant tuple stored after the
    node in the ``bag`` relation.  The default stores the whole bag as a
    single frozenset constant; PRIMALITY passes a splitter producing
    ``(At, Fd)``.  ``copynode(s)`` tags each copy node, which the
    Section 5 programs treat as an identity transition.
    """
    if bag_payload is None:
        bag_payload = lambda bag: (bag,)
    payload_arity = None
    bags = set()
    for node in nice.tree.nodes():
        payload = tuple(bag_payload(nice.bag(node)))
        if payload_arity is None:
            payload_arity = len(payload)
        elif payload_arity != len(payload):
            raise ValueError("bag_payload must have a fixed arity")
        bags.add((TDNode(node),) + payload)
    signature = structure.signature.extended(
        _nice_signature(payload_arity or 1)
    )
    roots, leaves, child1, child2 = _tree_facts(nice.tree, TDNode)
    domain = set(structure.domain) | {TDNode(n) for n in nice.tree.nodes()}
    # Frozenset payload constants also enter the domain so that A_td is a
    # well-formed structure (datalog constants must be domain elements).
    for bag_fact in bags:
        domain.update(bag_fact)
    relations = {name: set(structure.relation(name)) for name in structure.signature}
    relations.update(
        root=roots,
        leaf=leaves,
        child1=child1,
        child2=child2,
        bag=bags,
        copynode={(TDNode(node),) for node in _copy_nodes(nice)},
    )
    return Structure(signature, domain, relations)


def _nice_signature(payload_arity: int) -> dict[str, int]:
    """The predicates a Section 5 encoding adds, with their arities."""
    return {
        "root": 1,
        "leaf": 1,
        "child1": 2,
        "child2": 2,
        "bag": 1 + payload_arity,
        "copynode": 1,
    }


def _copy_nodes(nice: NiceTreeDecomposition) -> Iterable[NodeId]:
    """The nodes with one child of an equal bag."""
    bags, children = nice.bags, nice.tree.children
    for node, bag in bags.items():
        below = children(node)
        if len(below) == 1 and bags[below[0]] == bag:
            yield node


#: per distinct bag (a frozenset of element ids), its ``bag`` payload
#: ids and its extra facts: per predicate, the id tuples past the node
BagFacts = Callable[
    [frozenset[int]],
    tuple[tuple[int, ...], Mapping[str, Iterable[tuple[int, ...]]]],
]


def load_nice(
    structure: Structure,
    nice: NiceTreeDecomposition,
    bag_payload: Callable[[frozenset[Element]], tuple] | None = None,
) -> SetDatabase:
    """``A_td`` for a Section 5 decomposition, loaded into ids.

    ``bag_payload`` is that of :func:`encode_nice`.  The database
    equals ``SetDatabase.from_edb`` of ``encode_nice(structure, nice,
    bag_payload)``, up to the choice of ids: the value-level entry of
    :func:`load_nice_ids`, which it reaches by interning ``structure``
    and ``nice`` (nodes in preorder, labels kept) and handing each
    distinct bag, decoded, to ``bag_payload``.
    """
    if bag_payload is None:
        bag_payload = lambda bag: (bag,)
    ids = ElementIds.of_structure(structure)
    values = ids.values

    def bag_facts(interner: Interner) -> BagFacts:
        intern = interner.intern
        return lambda bag: (
            tuple(map(intern, bag_payload(frozenset(map(values.__getitem__, bag))))),
            {},
        )

    relations = {name: set(ids.relations[name]) for name in structure.signature}
    return load_nice_ids(
        structure.signature, relations, ids, ids.decomposition(nice), bag_facts
    )


def load_nice_ids(
    signature: Signature,
    relations: Mapping[str, set[tuple[int, ...]]],
    ids: ElementIds,
    nice: IdDecomposition,
    bag_facts: Callable[[Interner], BagFacts],
) -> SetDatabase:
    """``A_td`` for a Section 5 decomposition over ``ids`` (set bags,
    nodes numbered in preorder, :func:`~repro.treewidth.nice.
    make_nice_ids`), with per-bag facts given in ids.

    ``signature`` is the structure's and ``relations`` maps each of its
    predicates to its tuples as id tuples (adopted, not copied).  The
    elements keep their ids ``0 .. |dom| - 1`` and node ``k`` gets the
    id ``|dom| + k``; the stored values stay the elements and
    ``TDNode(label)``, the ``TDNode`` values built only if a caller
    reads a node back (:class:`~repro.datalog.interning.
    LazyTailInterner`).

    ``bag_facts(interner)`` is called once, with the load's interner;
    the function it returns runs once per distinct bag and gives the
    bag's payload ids and its extra facts, per predicate the id tuples
    ``ids`` (a repeat counts once), and every node with that bag gets
    the fact ``predicate(node, *ids)``.  Extra predicates must be new
    names, each of one arity.  The values it interns get the ids after the
    nodes', in the order first met; a value met twice, as an element
    and as a payload, or as the payload of one bag and an extra value
    of another, keeps one id, as it is one element of the encoded
    domain.  ``copynode(t)`` tags each node with one child of an equal
    bag.

    The load also fills the node-keyed hash indexes: ``bag`` and every
    extra relation of arity one or more past the node, on the node;
    ``child1``/``child2`` on either end.

    Raises :class:`ValueError` on a bag element outside the domain, on
    a node with more than two children, and if a domain element is a
    ``TDNode`` of the tree.
    """
    n = len(ids.values)
    bags = nice.bags
    labels = nice.labels if nice.labels is not None else range(len(bags))
    _check_domain(nice, n, labels)
    if TDNode in map(type, ids.values):
        nodes = set(labels)
        for value in ids.values:
            if type(value) is TDNode and value.index in nodes:
                raise ValueError(f"domain element {value!r} is a node of the tree")
    interner = LazyTailInterner(ids.values, ids.index, labels, TDNode)
    facts_of = bag_facts(interner)

    # per distinct bag: its payload ids and, per extra predicate, the
    # distinct id tuples of its values
    per_bag: dict[frozenset, tuple[tuple, list]] = {}
    payload_arity = None
    arities: dict[str, int] = {}
    bag_by_node: dict[int, list] = {}
    extra_by_node: dict[str, dict[int, list]] = {}
    for t, bag in enumerate(bags, n):
        known = per_bag.get(bag)
        if known is None:
            payload, extra = facts_of(bag)
            if payload_arity is None:
                payload_arity = len(payload)
            elif payload_arity != len(payload):
                raise ValueError("bag_payload must have a fixed arity")
            by_predicate = []
            for predicate, args in extra.items():
                args = list(dict.fromkeys(args))
                if not args:
                    continue
                arity = len(args[0])
                if (
                    len(set(map(len, args))) > 1
                    or arities.setdefault(predicate, arity) != arity
                ):
                    raise ValueError(
                        f"extra predicate {predicate!r} mixes arities"
                    )
                by_predicate.append((extra_by_node.setdefault(predicate, {}), args))
            known = per_bag[bag] = (payload, by_predicate)
        payload, by_predicate = known
        head = (t,)
        bag_by_node[t] = [head + payload]
        for by_node, args in by_predicate:
            by_node[t] = list(map(head.__add__, args))
    children = nice.children
    tree_facts, indexes = _tree_relations(children, n, labels)

    # raises, as in encode_nice, if the structure already has a tau_td
    # predicate name with another arity
    nice_signature = _nice_signature(payload_arity or 1)
    signature.extended(nice_signature)
    for predicate in arities:
        if predicate in signature or predicate in nice_signature:
            raise ValueError(
                f"extra predicate {predicate!r} is already in the encoding"
            )

    facts = dict(relations)
    facts.update(
        tree_facts,
        bag={rows[0] for rows in bag_by_node.values()},
        copynode={
            (n + k,)
            for k, kids in enumerate(children)
            if len(kids) == 1 and bags[kids[0]] == bags[k]
        },
    )
    indexes["bag"] = {(0,): bag_by_node}
    for predicate, by_node in extra_by_node.items():
        facts[predicate] = set(chain.from_iterable(by_node.values()))
        if arities[predicate]:
            indexes[predicate] = {(0,): by_node}
    return SetDatabase.from_interned(interner, facts, indexes)
