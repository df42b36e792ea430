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
from .profile import CostModel, PlanProfile


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


def key_cost_model(
    dependencies: Iterable[KeyDependency],
) -> CostModel | None:
    """The static cost model of the ``A_td`` shape, or ``None`` for no
    dependencies (plans then keep the textual tie-break).

    It is a :class:`~repro.datalog.profile.CostModel` over a profile
    known before any solve, recording two facts:

    * a probe whose bound positions cover a key determinant has fanout
      at most one -- below one, in the size order below, so ties
      between key probes go to the smaller relation;
    * ``root <= leaf <= child2 <= child1 <= bag`` in size (powers of
      two, so a probe of ``bag`` by its contents alone, with the node
      free, estimates above one row).

    This is what a recorded profile of compiled solves learns at run
    time (``child1``/``child2`` key probes before ``bag``, ``leaf`` and
    ``root`` before the ``bag`` scan), without the profiling solves.
    """
    dependencies = tuple(dependencies)
    if not dependencies:
        return None
    profile = PlanProfile()
    for rank, predicate in enumerate(_TD_SIZE_ORDER):
        profile.record_size(predicate, 1 << rank)
    scale = 1 << len(_TD_SIZE_ORDER)  # above every size: fanouts < 1
    for dep in dependencies:
        arity = max(dep.determinants + dep.dependents) + 1
        rest = [p for p in range(arity) if p not in dep.determinants]
        matches = profile.size(dep.predicate) or scale
        for n in range(len(rest) + 1):
            for more in combinations(rest, n):
                key = tuple(sorted(dep.determinants + more))
                profile.record_probe(dep.predicate, key, scale, matches)
    return CostModel(profile)


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
