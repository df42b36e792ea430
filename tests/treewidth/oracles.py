"""Reference implementations of the treewidth front end.

These are the straightforward forms that the fast front end replaced:
a ``min`` over all remaining vertices per elimination step, a scan over
every bag per element and per tuple, and the staged constructions of
the Section 4 and Section 5 normal forms.  They define what the fast
versions must reproduce exactly -- the same elimination orders, the
same Gaifman edge orientations, the same violation lists (codes,
messages, subjects, order) and the same nice trees -- or, for the
Definition 2.3 form, bound: the same width and no more nodes.

The last section is the value-level front end the id route replaced
(element values hashed and ``repr``-sorted at every stage): the heap
elimination on a value-keyed graph, the occurrence-indexed axiom check,
``widen``, the one-walk ``normalize``, its shape check, the one-pass
load, and the admission ladder over them.  The id route must match it
exactly, up to the numbering of the normalized nodes, and
``benchmarks/bench_treewidth.py`` times the two against each other.
"""

from __future__ import annotations

import heapq

from repro import admission
from repro.admission import AdmissionReport
from repro.datalog.interning import Interner
from repro.datalog.setengine import SetDatabase
from repro.errors import AdmissionRejected, InvalidDecomposition, Violation
from repro.structures.graphs import gaifman_graph
from repro.structures.structure import structure_fingerprint
from repro.treewidth import (
    NiceTreeDecomposition,
    NormalizedTreeDecomposition,
    RootedTree,
    TreeDecomposition,
)
from repro.treewidth.decomposition import refinement_violations
from repro.treewidth.encode import TDNode


def _neighbor_sets(graph):
    return {v: set(graph.neighbors(v)) - {v} for v in graph.vertices}


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


def value_make_nice(td, removal_key=None, introduction_key=None):
    """The one-pass value-level ``make_nice`` that ``make_nice_ids``
    replaced: the same top-down pass over element values, each
    one-child edge's steps sorted by ``(key, repr)``, nodes numbered
    as they are created.  Asserts the width and checks the shape of
    its result."""
    removal_key = removal_key or (lambda e: 0)
    introduction_key = introduction_key or (lambda e: 0)
    removal_order = lambda e: (removal_key(e), repr(e))
    introduction_order = lambda e: (introduction_key(e), repr(e))
    source, children = td.bags, td.tree.children
    tree = RootedTree()
    bags = {tree.root: source[td.tree.root]}
    stack = [(td.tree.root, tree.root)]

    def step_down(top, node):
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

    def below_branch(branch, node):
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
    return value_widen(td, td.width if width is None else width)


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


# ----------------------------------------------------------------------
# The value-level front end (what the id route replaced)
# ----------------------------------------------------------------------


def heap_order(graph, cost, second_ring):
    """The lazy-heap elimination order on the value-keyed graph, keyed
    ``(cost(adj, v), repr(v), insertion index)``; ``second_ring``
    re-costs the neighbours of a member of ``N(v)`` that gained an
    edge (min-fill needs them, min-degree does not)."""
    adj = _neighbor_sets(graph)
    vertices = list(adj)
    index = {v: i for i, v in enumerate(vertices)}
    keys = [repr(v) for v in vertices]
    current = [cost(adj, v) for v in vertices]
    heap = [(c, keys[i], i) for i, c in enumerate(current)]
    heapq.heapify(heap)
    order = []
    while heap:
        c, _, i = heapq.heappop(heap)
        v = vertices[i]
        if v not in adj or c != current[i]:
            continue
        order.append(v)
        nbrs = adj.pop(v)
        touched = set(nbrs)
        for a in nbrs:
            row = adj[a]
            row.discard(v)
            before = len(row)
            row |= nbrs
            row.discard(a)
            if second_ring and len(row) > before:
                touched |= row
        for u in touched:
            j = index[u]
            c = cost(adj, u)
            if c != current[j]:
                current[j] = c
                heapq.heappush(heap, (c, keys[j], j))
    return order


def _fill_in_by_intersection(adj, v):
    nbrs = adj[v]
    k = len(nbrs)
    return k * (k - 1) // 2 - sum(len(adj[a] & nbrs) for a in nbrs) // 2


def value_min_degree_order(graph):
    return heap_order(graph, lambda adj, v: len(adj[v]), False)


def value_min_fill_order(graph):
    return heap_order(graph, _fill_in_by_intersection, True)


def value_decomposition_from_order(graph, order):
    """The elimination decomposition built on values: the bag of ``v``
    hangs under the bag of its first-eliminated later neighbour, a
    vertex with none under the root; node ``k`` is the ``k``-th vertex
    in reverse elimination order."""
    vertices = list(order)
    if not vertices:
        return TreeDecomposition.single_node(frozenset())
    adj = _neighbor_sets(graph)
    position = {v: i for i, v in enumerate(vertices)}
    bag_of, attach_to = {}, {}
    for v in vertices:
        nbrs = adj.pop(v)
        bag_of[v] = frozenset(nbrs | {v})
        attach_to[v] = min(nbrs, key=lambda u: position[u]) if nbrs else None
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}
    tree = RootedTree()
    reverse = list(reversed(vertices))
    node_of = {reverse[0]: tree.root}
    bags = {tree.root: bag_of[reverse[0]]}
    for v in reverse[1:]:
        anchor = attach_to[v]
        node = tree.add_child(node_of[anchor if anchor is not None else reverse[0]])
        node_of[v] = node
        bags[node] = bag_of[v]
    return TreeDecomposition(tree, bags)


class OccurrenceIndex:
    """Where each element occurs (``where``) and how many top nodes it
    has (``tops``: occurrences whose parent's bag lacks it), in one
    pass over the bags; a tuple is covered iff some bag among the
    shortest occurrence list of its elements holds it."""

    def __init__(self, td):
        where, tops = {}, {}
        parent, bags = td.tree.parent, td.bags
        empty = frozenset()
        for node, bag in bags.items():
            above = parent(node)
            above_bag = empty if above is None else bags[above]
            for x in bag:
                where.setdefault(x, []).append(node)
                if x not in above_bag:
                    tops[x] = tops.get(x, 0) + 1
        self.bags, self.where, self.tops = bags, where, tops

    def covers(self, needed):
        shortest = None
        for x in needed:
            nodes = self.where.get(x)
            if nodes is None:
                return False
            if shortest is None or len(nodes) < len(shortest):
                shortest = nodes
        if shortest is None:
            return bool(self.bags)
        return any(all(x in self.bags[n] for x in needed) for n in shortest)

    def disconnected(self):
        return [x for x, count in self.tops.items() if count != 1]


def value_axiom_violations(td, domain, tuples, words, uncovered):
    """The occurrence-indexed Section 2.2 check on values: uncovered
    elements, alien elements, uncovered tuples (``(elements, subject)``
    pairs, in order), connectedness."""
    index = OccurrenceIndex(td)
    domain = frozenset(domain)
    elements = frozenset(index.where)
    violations = []
    for code, found, word in (
        ("element-uncovered", domain - elements, words[0]),
        ("alien-element", elements - domain, words[1]),
    ):
        if found:
            ordered = sorted(found, key=repr)
            violations.append(
                Violation(
                    code, f"{word}: {ordered}", subject=tuple(ordered),
                    repairable=True,
                )
            )
    for needed, subject in tuples:
        if not index.covers(needed):
            violations.append(
                Violation(
                    "tuple-uncovered", uncovered(subject), subject=subject,
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


def value_structure_violations(td, structure):
    return value_axiom_violations(
        td,
        structure.domain,
        (
            (tup, (name, tup))
            for name in structure.signature
            for tup in structure.relation(name)
        ),
        ("elements never covered", "bags mention non-elements"),
        lambda fact: f"tuple {fact[0]}{fact[1]!r} covered by no bag",
    )


def value_graph_violations(td, graph):
    return value_axiom_violations(
        td,
        graph.vertices,
        (((u, v), (u, v)) for u, v in graph.edges()),
        ("vertices never covered", "bags mention non-vertices"),
        lambda edge: f"edge ({edge[0]!r}, {edge[1]!r}) covered by no bag",
    )


def value_decompose_structure(structure):
    """``decompose_structure`` on values: min-fill, then checked."""
    graph = gaifman_graph(structure)
    td = value_decomposition_from_order(graph, value_min_fill_order(graph))
    violations = value_structure_violations(td, structure)
    if violations:
        raise InvalidDecomposition.from_violations(violations)
    return td


def value_redecompose(structure):
    """Admission's rebuild on values: min-degree, then checked."""
    graph = gaifman_graph(structure)
    td = value_decomposition_from_order(graph, value_min_degree_order(graph))
    violations = value_structure_violations(td, structure)
    if violations:
        return None, (
            "the rebuilt decomposition is invalid "
            f"({InvalidDecomposition.from_violations(violations)})"
        )
    return td, "min_degree"


def value_admit(structure, *, signature, width, td=None, policy="strict"):
    """The admission ladder (no budget) over the value-level checks and
    rebuild: ``(report, action, structure served, td)``, the report of
    a rejection with the action ``"reject"``."""
    report = AdmissionReport(policy=policy, width_limit=width)
    try:
        return _value_ladder(report, structure, signature, width, td, policy)
    except AdmissionRejected:
        return report, "reject", None, None


def _value_ladder(report, structure, signature, width, td, policy):
    violations = admission.verify_structure(structure, signature)
    if violations:
        report.violations += tuple(violations)
        report.fingerprint = structure_fingerprint(structure)
        if policy == "strict" or any(not v.repairable for v in violations):
            admission._reject(report)
        structure = admission.coerce_structure(structure, signature, violations)
        if structure is None:
            admission._reject(report)
        report.repairs += ("restricted-structure-to-signature",)
    if len(structure.domain) < width + 1:
        report.verdict = "repaired" if report.repairs else "admitted"
        return report, "direct", structure, None
    if td is not None:
        violations = admission.tree_violations(td)
        if not violations:
            violations = value_structure_violations(td, structure)
            if td.width > width:
                violations.append(admission._width_violation(td.width, width))
        if not violations:
            report.width = td.width
            report.verdict = "repaired" if report.repairs else "admitted"
            return report, "solve", structure, td
        report.violations += tuple(violations)
        if report.fingerprint is None:
            report.fingerprint = structure_fingerprint(structure)
        if policy == "strict":
            admission._reject(report)
    rebuilt, method = value_redecompose(structure)
    if rebuilt is None:
        residual = Violation(
            "no-decomposition", f"no decomposition could be built: {method}"
        )
    elif rebuilt.width > width:
        residual = admission._width_violation(rebuilt.width, width)
    else:
        if td is not None:
            report.redecomposed = True
        if td is not None or report.repairs:
            report.repairs += (f"redecomposed:{method}",)
            report.verdict = "repaired"
        report.width = rebuilt.width
        return report, "solve", structure, rebuilt
    if not any(v.code == residual.code for v in report.violations):
        report.violations += (residual,)
    report.residual += (residual,)
    if report.fingerprint is None:
        report.fingerprint = structure_fingerprint(structure)
    if policy != "degrade":
        admission._reject(report)
    report.verdict = "degraded"
    report.width = None
    if rebuilt is None:
        cause = residual.message
    elif width <= 2:
        cause = (
            f"treewidth exceeds the compiled width {width} (min-degree "
            f"rebuilt it at width {rebuilt.width})"
        )
    else:
        cause = (
            f"min-degree width {rebuilt.width} exceeds the compiled "
            f"width {width}"
        )
    report.degrade_reason = (
        f"{cause}; serving by direct MSO evaluation under budget"
    )
    return report, "degrade", structure, None


def value_widen(td, width):
    """``widen`` on values: short bags borrow from their neighbours by
    ``repr``, in preorder sweeps."""
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


def value_normalize(td):
    """The one-walk Proposition 2.4 construction on values (``repr``
    orders what id order orders now); the nodes are numbered as the
    walk creates them, not in preorder."""
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
    stack = [(root, tree.root, source[root])]

    def swap_down(top, node):
        upper = tuples[top]
        lower = source[node]
        for kid in children(node) if len(lower) < full else ():
            lack = sorted(source[kid] - lower, key=repr)
            lower = lower.union(lack[: full - len(lower)])
        outs = [x for x in upper if x not in lower]
        kept = len(outs) - (full - len(lower))
        if kept < len(outs):
            lower = lower.union(outs[kept:])
            del outs[kept:]
        ins = sorted((x for x in lower if x not in upper), key=repr)
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
        for kid in kids:
            child = add_child(here)
            tuples[child] = tup
            swap_down(child, kid)
    result = NormalizedTreeDecomposition(tree, tuples)
    assert result.width == width
    return result


def value_shape_violations(ntd):
    """The inferred-repeat shape check on a value-level normalized
    decomposition: repeating bags, then unclassifiable nodes."""
    violations = refinement_violations(ntd)
    root = ntd.bags[ntd.tree.root]
    if not violations and len(set(root)) == len(root):
        return violations
    repeats = [
        Violation(
            "bag-repeats-elements",
            f"bag of {node} repeats elements: {bag}",
            subject=(node,),
        )
        for node, bag in ntd.bags.items()
        if len(set(bag)) != len(bag)
    ]
    return repeats + violations


def value_load_normalized(structure, ntd):
    """The one-pass ``A_td`` load keyed by values: elements get ids in
    domain order, nodes the ids after them in bag-map order."""
    elements = list(structure.domain)
    element_id = dict(zip(elements, range(len(elements))))
    tree, tuples = ntd.tree, ntd.bags
    node_id = dict(zip(tuples, range(len(elements), len(elements) + len(tuples))))
    bag_by_node = {
        node_id[node]: [(node_id[node], *map(element_id.__getitem__, bag))]
        for node, bag in tuples.items()
    }
    by_child = {"child1": {}, "child2": {}}
    by_parent = {"child1": {}, "child2": {}}
    leaves = set()
    for node, t in node_id.items():
        kids = tree.children(node)
        if not kids:
            leaves.add((t,))
        for name, kid in zip(("child1", "child2"), kids):
            row = (node_id[kid], t)
            by_child[name][row[0]] = [row]
            by_parent[name][t] = [row]
    to_id = element_id.__getitem__
    facts = {
        name: {tuple(map(to_id, args)) for args in structure.relation(name)}
        for name in structure.signature
    }
    facts.update(
        root={(node_id[tree.root],)},
        leaf=leaves,
        child1={rows[0] for rows in by_child["child1"].values()},
        child2={rows[0] for rows in by_child["child2"].values()},
        bag={rows[0] for rows in bag_by_node.values()},
    )
    indexes = {
        name: {(0,): by_child[name], (1,): by_parent[name]}
        for name in ("child1", "child2")
    }
    indexes["bag"] = {(0,): bag_by_node}
    interner = Interner.of_distinct(elements + [TDNode(n) for n in tuples])
    return SetDatabase.from_interned(interner, facts, indexes)


def value_front_end(structure, *, signature, width, td=None, policy="strict"):
    """A solve's front end on values: the admission ladder, then for a
    ``"solve"`` action widen, normalize, shape check and load.
    ``(report, action, normalized decomposition, loaded database)``,
    the last two ``None`` unless solved."""
    report, action, structure, td = value_admit(
        structure, signature=signature, width=width, td=td, policy=policy
    )
    if action != "solve":
        return report, action, None, None
    if td.width < width:
        td = value_widen(td, width)
    ntd = value_normalize(td)
    violations = value_shape_violations(ntd)
    if violations:
        raise InvalidDecomposition.from_violations(violations)
    return report, action, ntd, value_load_normalized(structure, ntd)
