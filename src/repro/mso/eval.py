"""Naive MSO model checking.

Direct implementation of the semantics: set quantifiers range over all
``2^|dom|`` subsets, so the runtime is exponential in the domain size.
This is intentional and load-bearing for the reproduction:

* it is the *reference semantics* every other component (the Section 5
  programs, the Theorem 4.5 compiler) is validated against on small
  instances, and
* under a step budget it stands in for MONA in the Table 1 experiment
  -- an MSO-evaluation route without linear data complexity that blows
  up after the first few instance sizes exactly like the paper's MONA
  column.  MONA is an external C tool; a budgeted evaluator with the
  same non-linear data complexity keeps the comparison's shape inside
  the package (**Substitutions** in ``src/repro/core/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Iterator, Mapping

from ..structures.structure import Element, Structure
from .syntax import (
    And,
    Const,
    Eq,
    ExistsInd,
    ExistsSet,
    ForallInd,
    ForallSet,
    Formula,
    Iff,
    Implies,
    In,
    IndividualTerm,
    Not,
    Or,
    RelAtom,
)


class BudgetExceeded(RuntimeError):
    """The step budget ran out -- the MONA stand-in's "out of memory"."""


@dataclass
class Budget:
    """A step counter; each subformula visit costs one step."""

    limit: int | None = None
    steps: int = 0

    def tick(self) -> None:
        self.steps += 1
        if self.limit is not None and self.steps > self.limit:
            raise BudgetExceeded(f"exceeded {self.limit} evaluation steps")


def _subsets(domain: list[Element]) -> Iterator[frozenset[Element]]:
    for r in range(len(domain) + 1):
        for combo in combinations(domain, r):
            yield frozenset(combo)


def _resolve(
    term: IndividualTerm, assignment: Mapping[str, Element]
) -> Element:
    if isinstance(term, Const):
        return term.value
    try:
        return assignment[term]
    except KeyError:
        raise ValueError(f"unbound individual variable {term!r}") from None


def evaluate(
    structure: Structure,
    formula: Formula,
    individual: Mapping[str, Element] | None = None,
    sets: Mapping[str, frozenset[Element]] | None = None,
    budget: Budget | None = None,
) -> bool:
    """Does ``(A, assignment) |= formula`` hold?

    ``individual`` binds free individual variables to domain elements,
    ``sets`` binds free set variables to sets of domain elements.
    Raises :class:`BudgetExceeded` when the optional budget runs out.
    """
    individual = dict(individual or {})
    sets = dict(sets or {})
    domain = sorted(structure.domain, key=repr)
    budget = budget or Budget()

    def rec(
        f: Formula,
        ind: dict[str, Element],
        so: dict[str, frozenset[Element]],
    ) -> bool:
        budget.tick()
        if isinstance(f, RelAtom):
            args = tuple(_resolve(t, ind) for t in f.args)
            return structure.holds(f.predicate, *args)
        if isinstance(f, Eq):
            return _resolve(f.left, ind) == _resolve(f.right, ind)
        if isinstance(f, In):
            try:
                chosen = so[f.set_var]
            except KeyError:
                raise ValueError(f"unbound set variable {f.set_var!r}") from None
            return _resolve(f.term, ind) in chosen
        if isinstance(f, Not):
            return not rec(f.body, ind, so)
        if isinstance(f, And):
            return rec(f.left, ind, so) and rec(f.right, ind, so)
        if isinstance(f, Or):
            return rec(f.left, ind, so) or rec(f.right, ind, so)
        if isinstance(f, Implies):
            return (not rec(f.left, ind, so)) or rec(f.right, ind, so)
        if isinstance(f, Iff):
            return rec(f.left, ind, so) == rec(f.right, ind, so)
        if isinstance(f, ExistsInd):
            return any(
                rec(f.body, {**ind, f.var: c}, so) for c in domain
            )
        if isinstance(f, ForallInd):
            return all(
                rec(f.body, {**ind, f.var: c}, so) for c in domain
            )
        if isinstance(f, ExistsSet):
            return any(
                rec(f.body, ind, {**so, f.var: subset})
                for subset in _subsets(domain)
            )
        if isinstance(f, ForallSet):
            return all(
                rec(f.body, ind, {**so, f.var: subset})
                for subset in _subsets(domain)
            )
        raise TypeError(f"unknown formula node {type(f).__name__}")

    return rec(formula, individual, sets)


def query(
    structure: Structure,
    formula: Formula,
    free_var: str,
    budget: Budget | None = None,
) -> frozenset[Element]:
    """All elements ``a`` with ``(A, a) |= formula(x)`` -- a unary query."""
    hits = set()
    for a in sorted(structure.domain, key=repr):
        if evaluate(structure, formula, {free_var: a}, budget=budget):
            hits.add(a)
    return frozenset(hits)
