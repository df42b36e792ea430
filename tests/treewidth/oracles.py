"""Scan-based reference implementations of the treewidth front end.

These are the straightforward quadratic forms that the heap-ordered
elimination and the occurrence-indexed axiom check replaced: a ``min``
over all remaining vertices per elimination step, and a scan over every
bag per element and per tuple.  They define what the fast versions must
reproduce exactly -- the same elimination orders, the same Gaifman
edge orientations, and the same violation lists (codes, messages,
subjects, order).
"""

from __future__ import annotations

from repro.errors import Violation
from repro.treewidth.heuristics import _neighbor_sets


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
