"""Reference implementations of the treewidth front end.

These are the straightforward forms that the fast front end replaced:
a ``min`` over all remaining vertices per elimination step, a scan over
every bag per element and per tuple, and the staged constructions of
the Section 4 and Section 5 normal forms.  They define what the fast
versions must reproduce exactly -- the same elimination orders, the
same Gaifman edge orientations, the same violation lists (codes,
messages, subjects, order) and the same nice trees -- or, for the
Definition 2.3 form, bound: the same width and no more nodes.
"""

from __future__ import annotations

from repro.errors import Violation
from repro.treewidth import (
    NiceTreeDecomposition,
    NormalizedTreeDecomposition,
    TreeDecomposition,
)
from repro.treewidth.heuristics import _neighbor_sets
from repro.treewidth.normalize import widen


def greedy_order(graph, cost):
    """The ``min``-scan elimination order under ``cost(adj, v)``."""
    adj = _neighbor_sets(graph)
    order = []
    while adj:
        v = min(adj, key=lambda u: (cost(adj, u), repr(u)))
        order.append(v)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}
    return order


def min_degree_order(graph):
    return greedy_order(graph, lambda adj, v: len(adj[v]))


def fill_in_count(adj, v):
    """The edges eliminating ``v`` would add, pair by pair."""
    nbrs = list(adj[v])
    missing = 0
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            if b not in adj[a]:
                missing += 1
    return missing


def min_fill_order(graph):
    return greedy_order(graph, fill_in_count)


def gaifman_edges(structure):
    """Gaifman edges oriented by comparing the two tuples' reprs."""
    edges = set()
    for name in structure.signature:
        for tup in structure.relation(name):
            for a in set(tup):
                for b in set(tup):
                    if a != b and repr((a, b)) <= repr((b, a)):
                        edges.add((a, b))
    return edges


def _occurrences(td, element):
    return {n for n, bag in td.bags.items() if element in bag}


def _is_connected(td, nodes):
    if not nodes:
        return True
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        neighbors = list(td.tree.children(node))
        parent = td.tree.parent(node)
        if parent is not None:
            neighbors.append(parent)
        for nbr in neighbors:
            if nbr in nodes and nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return seen == nodes


def connectedness_violations(td):
    return [
        element
        for element in td.all_elements()
        if not _is_connected(td, _occurrences(td, element))
    ]


def _element_violations(td, domain, noun_missing, noun_alien):
    violations = []
    elements = td.all_elements()
    missing = domain - elements
    if missing:
        violations.append(
            Violation(
                "element-uncovered",
                f"{noun_missing}: {sorted(missing, key=repr)}",
                subject=tuple(sorted(missing, key=repr)),
                repairable=True,
            )
        )
    alien = elements - domain
    if alien:
        violations.append(
            Violation(
                "alien-element",
                f"{noun_alien}: {sorted(alien, key=repr)}",
                subject=tuple(sorted(alien, key=repr)),
                repairable=True,
            )
        )
    return violations


def _connectedness(td):
    bad = connectedness_violations(td)
    if not bad:
        return []
    return [
        Violation(
            "connectedness",
            f"connectedness violated for {sorted(bad, key=repr)}",
            subject=tuple(sorted(bad, key=repr)),
            repairable=True,
        )
    ]


def graph_violations(td, graph):
    violations = _element_violations(
        td, graph.vertices, "vertices never covered", "bags mention non-vertices"
    )
    for u, v in graph.edges():
        if not any({u, v} <= bag for bag in td.bags.values()):
            violations.append(
                Violation(
                    "tuple-uncovered",
                    f"edge ({u!r}, {v!r}) covered by no bag",
                    subject=(u, v),
                    repairable=True,
                )
            )
    return violations + _connectedness(td)


def structure_violations(td, structure):
    violations = _element_violations(
        td,
        structure.domain,
        "elements never covered",
        "bags mention non-elements",
    )
    for name in structure.signature:
        for tup in structure.relation(name):
            if not any(set(tup) <= bag for bag in td.bags.values()):
                violations.append(
                    Violation(
                        "tuple-uncovered",
                        f"tuple {name}{tup!r} covered by no bag",
                        subject=(name, tup),
                        repairable=True,
                    )
                )
    return violations + _connectedness(td)


def staged_make_nice(td, removal_key=None, introduction_key=None):
    """``make_nice`` as four staged passes, each building a whole new
    decomposition: contract unary equal-bag edges, binarize, put
    equal-bag nodes above differing branch children, interpolate the
    unary edges."""
    removal_key = removal_key or (lambda e: 0)
    introduction_key = introduction_key or (lambda e: 0)
    staged = _interpolate(
        equalize_branches(binarize(_contract_copy_edges(td))),
        removal_key,
        introduction_key,
    )
    nice = NiceTreeDecomposition(staged.tree, staged.bags)
    assert nice.width == td.width
    nice.validate()
    return nice


def _contract_copy_edges(td):
    """Merge unary equal-bag edges left over from the input decomposition."""
    tree = td.tree.copy()
    bags = dict(td.bags)
    changed = True
    while changed:
        changed = False
        for node in list(tree.nodes()):
            children = tree.children(node)
            if len(children) == 1 and bags[children[0]] == bags[node]:
                (child,) = children
                grandchildren = tree.children(child)
                tree._children[node] = list(grandchildren)
                for g in grandchildren:
                    tree._parent[g] = node
                del tree._children[child]
                del tree._parent[child]
                del bags[child]
                changed = True
                break
    return TreeDecomposition(tree, bags)


def _interpolate(td, removal_key, introduction_key):
    """Expand each unary edge into single-element removal/introduction
    steps: bottom-up, the child's extra elements are removed by
    ``(removal_key, repr)``, then the parent's are introduced by
    ``(introduction_key, repr)``."""
    tree = td.tree.copy()
    bags = dict(td.bags)
    for node in list(tree.nodes()):
        for child in list(tree.children(node)):
            if len(tree.children(node)) == 2:
                continue  # branch edges are already equal-bag
            removals = sorted(
                bags[child] - bags[node], key=lambda e: (removal_key(e), repr(e))
            )
            introductions = sorted(
                bags[node] - bags[child],
                key=lambda e: (introduction_key(e), repr(e)),
            )
            steps = len(removals) + len(introductions)
            if steps <= 1:
                continue
            chain = [tree.insert_above(child) for _ in range(steps - 1)]
            current = bags[child]
            bottom_up = list(reversed(chain))
            for i, v in enumerate(removals + introductions):
                current = current - {v} if i < len(removals) else current | {v}
                if i < len(bottom_up):
                    bags[bottom_up[i]] = current
            assert current == bags[node]
    return TreeDecomposition(tree, bags)


# ----------------------------------------------------------------------
# Proposition 2.4 as staged passes (the Definition 2.3 normal form)
# ----------------------------------------------------------------------


def pad_bags_to_full_size(td, width=None):
    """Step (1): grow every bag to ``w + 1`` elements."""
    return widen(td, td.width if width is None else width)


def binarize(td):
    """Step (2): give every node at most two children by inserting copies."""
    tree = td.tree.copy()
    bags = dict(td.bags)
    for node in list(tree.nodes()):
        while len(tree.children(node)) > 2:
            children = list(tree.children(node))
            keep, spill = children[0], children[1:]
            copy = tree.fresh_node()
            bags[copy] = bags[node]
            # splice: node keeps [keep, copy]; copy adopts the spill.
            tree._children[node] = [keep, copy]
            tree._children[copy] = spill
            tree._parent[copy] = node
            for child in spill:
                tree._parent[child] = copy
            node = copy  # continue splitting the spill if still > 2
    return TreeDecomposition(tree, bags)


def equalize_branches(td):
    """Step (3): children of a 2-child node get bags identical to it."""
    tree = td.tree.copy()
    bags = dict(td.bags)
    for node in list(tree.nodes()):
        if len(tree.children(node)) != 2:
            continue
        for child in list(tree.children(node)):
            if bags[child] != bags[node]:
                mid = tree.insert_above(child)
                bags[mid] = bags[node]
    return TreeDecomposition(tree, bags)


def interpolate_edges(td):
    """Steps (4)+(5a): adjacent bags differ by at most one swap.

    For a parent/child pair of full bags with symmetric difference of
    size ``2d`` we insert ``d - 1`` interpolation nodes so that every
    consecutive pair exchanges exactly one element.
    """
    tree = td.tree.copy()
    bags = dict(td.bags)
    for node in list(tree.nodes()):
        for child in list(tree.children(node)):
            outs = sorted(bags[node] - bags[child], key=repr)
            ins = sorted(bags[child] - bags[node], key=repr)
            if len(outs) != len(ins):
                raise ValueError("bags must be padded before interpolation")
            d = len(outs)
            if d <= 1:
                continue
            chain = [tree.insert_above(child) for _ in range(d - 1)]
            current = bags[node]
            for i, mid in enumerate(chain):
                current = (current - {outs[i]}) | {ins[i]}
                bags[mid] = current
    return TreeDecomposition(tree, bags)


def assign_tuples(td):
    """Step (5b): orient the set bags into Definition 2.3 tuples.

    Walks top-down.  An edge whose bags swap ``p`` (out) for ``q`` (in)
    becomes: permutation node bringing ``p`` to position 0, followed by
    the replacement putting ``q`` at position 0.
    """
    tree = td.tree.copy()
    bags = dict(td.bags)
    tuples = {}
    root = tree.root
    tuples[root] = tuple(sorted(bags[root], key=repr))
    stack = [root]
    while stack:
        node = stack.pop()
        here = tuples[node]
        for child in list(tree.children(node)):
            child_set = bags[child]
            if child_set == frozenset(here):
                tuples[child] = here
            else:
                (p,) = frozenset(here) - child_set
                (q,) = child_set - frozenset(here)
                if here[0] == p:
                    tuples[child] = (q,) + here[1:]
                else:
                    fronted = (p,) + tuple(x for x in here if x != p)
                    mid = tree.insert_above(child)
                    bags[mid] = frozenset(fronted)
                    tuples[mid] = fronted
                    tuples[child] = (q,) + fronted[1:]
            stack.append(child)
    return NormalizedTreeDecomposition(tree, tuples)


def staged_normalize(td):
    """``normalize`` as staged passes, each building a whole new
    decomposition: pad, contract unary equal-bag edges (which would
    become identity-permutation nodes), binarize, equalize branches,
    interpolate, assign tuples."""
    staged = interpolate_edges(
        equalize_branches(
            binarize(_contract_copy_edges(pad_bags_to_full_size(td)))
        )
    )
    ntd = assign_tuples(staged)
    assert ntd.width == td.width
    return ntd


# ----------------------------------------------------------------------
# The per-node shape check
# ----------------------------------------------------------------------


def scan_shape_violations(dec):
    """The shape violations by definition: a distinctness set per tuple
    bag of a normalized decomposition, then every node classified in
    preorder."""
    violations = []
    if isinstance(dec, NormalizedTreeDecomposition):
        violations = [
            Violation(
                "bag-repeats-elements",
                f"bag of {node} repeats elements: {bag}",
                subject=(node,),
            )
            for node, bag in dec.bags.items()
            if len(set(bag)) != len(bag)
        ]
    for node in dec.tree.preorder():
        try:
            dec.node_kind(node)
        except ValueError as exc:
            violations.append(
                Violation("malformed-node", str(exc), subject=(node,))
            )
    return violations
