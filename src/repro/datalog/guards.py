"""The quasi-guarded fragment (Definition 4.3).

A variable ``y`` is *functionally dependent* on an atom ``B`` in a rule
``r`` if in every ground instantiation of ``r`` the value of ``y`` is
uniquely determined by the value of ``B``.  A program is *quasi-guarded*
if every rule has an extensional atom ``B`` such that every variable of
the rule occurs in ``B`` or is functionally dependent on it.

The functional dependence we can witness statically comes from declared
key constraints on the extensional predicates of ``A_td``:

* ``bag(v, x0, ..., xw)`` -- the bag is a function of the node:
  position 0 determines all others;
* ``child1(v1, v)`` / ``child2(v2, v)`` -- a node has at most one first
  and one second child, and at most one parent, so each argument
  determines the other.

Those are exactly the dependencies the proof of Theorem 4.5 appeals to
("the remaining variables v1 and v2 in this rule are functionally
dependent on v via the atoms child1(v1, v) and child2(v2, v)").

The same dependencies plan the grounding: :func:`key_cost_model` turns
them into the static cost model the Theorem 4.4 grounder orders rule
bodies with, so a key probe (fanout at most one) is preferred over a
probe that leaves a determinant free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .ast import Atom, Constant, Literal, Program, Rule, Variable


@dataclass(frozen=True)
class KeyDependency:
    """Positions ``determinants`` functionally determine ``dependents``
    within a single atom of ``predicate``."""

    predicate: str
    determinants: tuple[int, ...]
    dependents: tuple[int, ...]


def td_key_dependencies(bag_arity: int) -> tuple[KeyDependency, ...]:
    """The key constraints of the tau_td encoding (either bag form)."""
    return (
        KeyDependency("bag", (0,), tuple(range(1, bag_arity))),
        KeyDependency("child1", (0,), (1,)),
        KeyDependency("child1", (1,), (0,)),
        KeyDependency("child2", (0,), (1,)),
        KeyDependency("child2", (1,), (0,)),
    )


#: the ``A_td`` relations by increasing size: one root, then at most one
#: leaf, second-child and first-child fact per node, and one bag per node
_TD_SIZE_ORDER = ("root", "leaf", "child2", "child1", "bag")


class CostModel:
    """Static selectivity estimates: relation sizes plus the fanout of
    every access pattern a key covers.

    ``estimate(predicate, arity, bound_positions)`` returns the
    expected number of rows a probe of ``predicate`` with those bound
    positions produces, or ``None`` when the model knows nothing about
    ``predicate`` (the planner then keeps the textual tie-break):

    1. the recorded fanout of a key-covered access pattern;
    2. otherwise ``size ** (1 - bound/arity)`` -- the classic
       attribute-independence estimate from the relation size.
    """

    __slots__ = ("sizes", "fanouts")

    def __init__(
        self,
        sizes: Mapping[str, int],
        fanouts: Mapping[tuple[str, tuple[int, ...]], float],
    ) -> None:
        self.sizes = dict(sizes)
        self.fanouts = dict(fanouts)

    def estimate(
        self, predicate: str, arity: int, bound_positions: Iterable[int]
    ) -> float | None:
        positions = tuple(sorted(bound_positions))
        fan = self.fanouts.get((predicate, positions))
        if fan is not None:
            return fan
        size = self.sizes.get(predicate)
        if size is None:
            return None
        if not positions:
            return float(size)
        if arity <= 0 or len(positions) >= arity:
            return 1.0
        return float(size) ** (1.0 - len(positions) / arity)


def key_cost_model(
    dependencies: Iterable[KeyDependency],
) -> CostModel | None:
    """The static cost model of the ``A_td`` shape, or ``None`` for no
    dependencies (plans then keep the textual tie-break).

    It is fixed before any solve and records two facts:

    * a probe whose bound positions cover a key determinant has fanout
      at most one -- below one, in the size order below, so ties
      between key probes go to the smaller relation;
    * ``root <= leaf <= child2 <= child1 <= bag`` in size (powers of
      two, so a probe of ``bag`` by its contents alone, with the node
      free, estimates above one row).

    The grounder then probes ``child1``/``child2`` by key before
    ``bag`` and scans ``leaf`` and ``root`` before ``bag``: the fixed
    join orders of the linear-time bound, chosen from the ``A_td``
    shape alone.
    """
    dependencies = tuple(dependencies)
    if not dependencies:
        return None
    sizes = {
        predicate: 1 << rank for rank, predicate in enumerate(_TD_SIZE_ORDER)
    }
    scale = 1 << len(_TD_SIZE_ORDER)  # above every size: fanouts < 1
    fanouts: dict[tuple[str, tuple[int, ...]], float] = {}
    for dep in dependencies:
        arity = max(dep.determinants + dep.dependents) + 1
        rest = [p for p in range(arity) if p not in dep.determinants]
        fan = sizes.get(dep.predicate, scale) / scale
        for n in range(len(rest) + 1):
            for more in combinations(rest, n):
                key = tuple(sorted(dep.determinants + more))
                fanouts[(dep.predicate, key)] = fan
    return CostModel(sizes, fanouts)


def _dependency_closure(
    start: set[Variable],
    rule: Rule,
    dependencies: Mapping[str, list[KeyDependency]],
) -> set[Variable]:
    known = set(start)
    changed = True
    while changed:
        changed = False
        for literal in rule.body:
            if not literal.positive:
                continue
            atom = literal.atom
            for dep in dependencies.get(atom.predicate, ()):
                if max(dep.determinants + dep.dependents, default=-1) >= atom.arity:
                    continue
                det_terms = [atom.args[i] for i in dep.determinants]
                if all(
                    isinstance(t, Constant) or t in known for t in det_terms
                ):
                    for i in dep.dependents:
                        term = atom.args[i]
                        if isinstance(term, Variable) and term not in known:
                            known.add(term)
                            changed = True
    return known


def find_quasi_guard(
    rule: Rule,
    extensional: frozenset[str],
    dependencies: Iterable[KeyDependency] = (),
) -> Atom | None:
    """An extensional body atom covering all rule variables, or None."""
    by_predicate: dict[str, list[KeyDependency]] = {}
    for dep in dependencies:
        by_predicate.setdefault(dep.predicate, []).append(dep)
    all_vars = rule.variables()
    for literal in rule.body:
        if not literal.positive:
            continue
        atom = literal.atom
        if atom.predicate not in extensional:
            continue
        reachable = _dependency_closure(
            set(atom.variables()), rule, by_predicate
        )
        if all_vars <= reachable:
            return atom
    return None


def is_quasi_guarded(
    program: Program, dependencies: Iterable[KeyDependency] = ()
) -> bool:
    """Does every rule have a quasi-guard (Definition 4.3)?

    Rules without variables (ground rules) are trivially quasi-guarded.
    """
    extensional = program.extensional_predicates()
    deps = tuple(dependencies)
    for rule in program.rules:
        if not rule.variables():
            continue
        if find_quasi_guard(rule, extensional, deps) is None:
            return False
    return True


def quasi_guard_report(
    program: Program, dependencies: Iterable[KeyDependency] = ()
) -> dict[str, list[Rule]]:
    """Rules partitioned into guarded / unguarded, for diagnostics."""
    extensional = program.extensional_predicates()
    deps = tuple(dependencies)
    report: dict[str, list[Rule]] = {"guarded": [], "unguarded": []}
    for rule in program.rules:
        if not rule.variables() or find_quasi_guard(rule, extensional, deps):
            report["guarded"].append(rule)
        else:
            report["unguarded"].append(rule)
    return report
