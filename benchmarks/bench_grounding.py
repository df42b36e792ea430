"""Section 6, optimization (2): lazy grounding vs full materialization.

"A further improvement is achieved by the natural idea of generating
only those ground instances of rules which actually produce new facts."
We materialize the *complete* ground 3-Colorability program -- every
(R, G, B) partition of every bag, reachable or not -- solve it with
LTUR, and compare against the lazy semi-naive evaluation of the same
succinct program, which "turns out that the vast majority of possible
instantiations is never computed".

Run:  pytest benchmarks/bench_grounding.py --benchmark-only
"""

import random
from itertools import product

import pytest

from repro.datalog import StreamingHorn
from repro.problems import ThreeColoringDatalog, random_partial_ktree
from repro.problems.three_coloring import (
    _has_internal_edge,
    prepare_decomposition,
)
from repro.treewidth.nice import NiceNodeKind

SIZES = [15, 30, 60]


def _all_states(bag):
    """Every (R, G, B) partition of the bag -- the full monadic atom
    space at one node, before any reachability pruning."""
    items = sorted(bag, key=repr)
    for assignment in product(range(3), repeat=len(items)):
        parts = [set(), set(), set()]
        for v, color in zip(items, assignment):
            parts[color].add(v)
        yield tuple(frozenset(p) for p in parts)


def materialize_ground_program(graph, nice):
    """All ground instances of the Figure 5 rules, Theorem 4.4 style,
    as ``(head, body)`` pairs of propositional atoms."""
    rules: list[tuple[tuple, tuple]] = []
    near = graph.neighbor_map()
    tree = nice.tree
    for node in tree.postorder():
        kind = nice.node_kind(node)
        bag = nice.bag(node)
        if kind is NiceNodeKind.LEAF:
            for state in _all_states(bag):
                if any(_has_internal_edge(near, part) for part in state):
                    continue
                rules.append((("solve", node, state), ()))
        elif kind is NiceNodeKind.INTRODUCTION:
            (child,) = tree.children(node)
            v = nice.introduced_element(node)
            for state in _all_states(nice.bag(child)):
                for i in range(3):
                    grown = tuple(
                        part | {v} if j == i else part
                        for j, part in enumerate(state)
                    )
                    if _has_internal_edge(near, grown[i]):
                        continue
                    rules.append(
                        (("solve", node, grown), (("solve", child, state),))
                    )
        elif kind is NiceNodeKind.REMOVAL:
            (child,) = tree.children(node)
            v = nice.removed_element(node)
            for state in _all_states(nice.bag(child)):
                shrunk = tuple(part - {v} for part in state)
                rules.append(
                    (("solve", node, shrunk), (("solve", child, state),))
                )
        elif kind is NiceNodeKind.COPY:
            (child,) = tree.children(node)
            for state in _all_states(bag):
                rules.append(
                    (("solve", node, state), (("solve", child, state),))
                )
        else:  # branch
            c1, c2 = tree.children(node)
            for state in _all_states(bag):
                rules.append(
                    (
                        ("solve", node, state),
                        (("solve", c1, state), ("solve", c2, state)),
                    )
                )
    root = tree.root
    for state in _all_states(nice.bag(root)):
        rules.append((("success",), (("solve", root, state),)))
    return rules


def materialized_decide(graph, td):
    nice = prepare_decomposition(graph, td)
    rules = materialize_ground_program(graph, nice)
    # intern the atoms to dense ids, then run LTUR over the whole list
    ids: dict = {}
    intern = lambda a: ids.setdefault(a, len(ids))  # noqa: E731
    ltur = StreamingHorn()
    for head, body in rules:
        ltur.add_rule(intern(head), tuple(map(intern, body)))
    return ltur.is_derived(intern(("success",))), len(rules)


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(4242)
    return {n: random_partial_ktree(rng, n, 2, 0.6) for n in SIZES}


@pytest.mark.parametrize("n", SIZES, ids=lambda n: f"n{n}")
def test_full_materialization(benchmark, instances, n):
    graph, td = instances[n]
    colorable, rule_count = benchmark.pedantic(
        materialized_decide, args=(graph, td), rounds=3, iterations=1
    )
    benchmark.extra_info["ground_rules"] = rule_count


@pytest.mark.parametrize("n", SIZES, ids=lambda n: f"n{n}")
def test_lazy_semi_naive(benchmark, instances, n):
    graph, td = instances[n]
    solver = ThreeColoringDatalog()
    run = benchmark.pedantic(
        solver.run, args=(graph, td), rounds=3, iterations=1
    )
    benchmark.extra_info["solve_facts"] = run.solve_fact_count


def test_lazy_touches_fewer_instances(benchmark, instances):
    """The point of optimization (2): reachable facts << full atom space."""
    graph, td = instances[SIZES[-1]]
    nice = prepare_decomposition(graph, td)
    full = sum(3 ** len(nice.bag(n)) for n in nice.tree.nodes())
    run = ThreeColoringDatalog().run(graph, td)
    benchmark.extra_info["full_atom_space"] = full
    benchmark.extra_info["reachable_facts"] = run.solve_fact_count
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert run.solve_fact_count < full
