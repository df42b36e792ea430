"""The MSO-to-FTA construction (the paper's baseline approach).

States are MSO k-types of root-pointed decomposition-shaped structures
-- the same type space as the Θ↑ table of Theorem 4.5 -- and the
transition function is the Lemma 3.5 type algebra, keyed by the labels
of :mod:`repro.fta.tree_encoding`.  Running the automaton over the
encoded decomposition tree decides the sentence.

This is the approach whose practical failure motivates the paper ("even
relatively simple MSO formulae may lead to a 'state explosion' of the
FTA", Section 1).  The explosion lives in the *construction*: the state
space and the label alphabet are exponential in the signature size and
the treewidth, and each quantifier alternation of a complementation-
based pipeline squares it.  ``benchmarks/bench_state_explosion.py``
measures that explosion on the Theorem 4.5 compiler, which shares this
type space; it does not run this module.  The budgeted construction
below fails fast -- our analogue of MONA's out-of-memory -- when the
budget is exceeded (``tests/fta/test_mso_to_fta.py`` pins that).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.mso_to_datalog import _atom_patterns, _facts_over
from ..mso.eval import evaluate
from ..mso.syntax import Formula
from ..mso.types import MSOType, mso_type
from ..structures.signature import Signature
from ..structures.structure import Element, Fact, Structure
from .automaton import LabeledTree, TreeAutomaton
from .tree_encoding import Pattern


class FTAConstructionBudgetExceeded(RuntimeError):
    """The automaton outgrew the configured budget (MONA analogue)."""


@dataclass(frozen=True)
class _Witness:
    structure: Structure
    bag: tuple[Element, ...]


class TypeAutomatonBuilder:
    """Build the deterministic type automaton for a sentence."""

    def __init__(
        self,
        formula: Formula,
        signature: Signature,
        width: int,
        quantifier_depth: int | None = None,
        max_states: int = 5000,
        max_witness_size: int = 16,
        structure_filter=None,
    ):
        self.formula = formula
        self.signature = signature
        self.width = width
        self.structure_filter = structure_filter
        self.k = (
            quantifier_depth
            if quantifier_depth is not None
            else formula.quantifier_depth()
        )
        self.max_states = max_states
        self.max_witness_size = max_witness_size
        self.patterns = _atom_patterns(signature, width + 1)
        self._fresh = itertools.count(width + 1)
        self._witness: dict[MSOType, _Witness] = {}
        self._transitions: dict[tuple, set[MSOType]] = {}

    # -- helpers ----------------------------------------------------------

    def _type_of(self, structure: Structure, bag: tuple) -> MSOType:
        if len(structure.domain) > self.max_witness_size:
            raise FTAConstructionBudgetExceeded(
                f"witness grew to {len(structure.domain)} elements"
            )
        return mso_type(structure, bag, self.k)

    def _register(self, structure: Structure, bag: tuple) -> tuple[MSOType, bool]:
        t = self._type_of(structure, bag)
        if t in self._witness:
            return t, False
        if len(self._witness) >= self.max_states:
            raise FTAConstructionBudgetExceeded(
                f"more than {self.max_states} automaton states"
            )
        self._witness[t] = _Witness(structure, bag)
        return t, True

    def _add_transition(self, key: tuple, target: MSOType) -> None:
        self._transitions.setdefault(key, set()).add(target)

    def _fresh_element(self, avoid: Structure) -> int:
        fresh = next(self._fresh)
        while fresh in avoid.domain:
            fresh = next(self._fresh)
        return fresh

    # -- construction -------------------------------------------------------

    def _all_patterns(self):
        from .._util import powerset

        return [frozenset(subset) for subset in powerset(self.patterns)]

    def build(self) -> TreeAutomaton:
        pending: list[MSOType] = []
        bag = tuple(range(self.width + 1))
        for pattern in self._all_patterns():
            facts = [
                Fact(name, tuple(bag[i] for i in indices))
                for name, indices in pattern
            ]
            structure = Structure(self.signature, bag).with_facts(facts)
            if self.structure_filter and not self.structure_filter(structure):
                continue
            t, new = self._register(structure, bag)
            self._add_transition((("leaf", frozenset(pattern)),), t)
            if new:
                pending.append(t)

        processed: list[MSOType] = []
        perms = list(itertools.permutations(range(self.width + 1)))
        all_patterns = self._all_patterns()
        while pending:
            current = pending.pop(0)
            processed.append(current)
            witness = self._witness[current]

            # permutation transitions
            for pi in perms:
                new_bag = tuple(witness.bag[pi[i]] for i in range(self.width + 1))
                t, new = self._register(witness.structure, new_bag)
                self._add_transition((("perm", pi), current), t)
                if new:
                    pending.append(t)

            # element-replacement transitions, keyed by the parent pattern
            fresh = self._fresh_element(witness.structure)
            new_bag = (fresh,) + witness.bag[1:]
            grown = witness.structure.with_elements([fresh])
            old_pattern = _facts_over(
                witness.structure, witness.bag, self.patterns
            )
            retained = frozenset(
                (name, indices)
                for name, indices in old_pattern
                if 0 not in indices
            )
            with_zero = [p for p in self.patterns if 0 in p[1]]
            from .._util import powerset

            for chosen in powerset(with_zero):
                pattern = retained | frozenset(chosen)
                facts = [
                    Fact(name, tuple(new_bag[i] for i in indices))
                    for name, indices in chosen
                ]
                structure = grown.with_facts(facts)
                if self.structure_filter and not self.structure_filter(structure):
                    continue
                t, new = self._register(structure, new_bag)
                self._add_transition((("repl", pattern), current), t)
                if new:
                    pending.append(t)

            # branch transitions with every processed state (both orders)
            for other in list(processed):
                for left, right in ((current, other), (other, current)):
                    glued = self._glue(left, right)
                    if glued is None:
                        continue
                    t, new = self._register(glued, self._witness[left].bag)
                    self._add_transition((("branch",), left, right), t)
                    if new:
                        pending.append(t)
                    if left is right:
                        break

        accepting = {
            t
            for t, witness in self._witness.items()
            if evaluate(witness.structure, self.formula)
        }
        return TreeAutomaton(
            states=self._witness.keys(),
            accepting=accepting,
            transitions={k: frozenset(v) for k, v in self._transitions.items()},
        )

    def _glue(self, left: MSOType, right: MSOType) -> Structure | None:
        lw, rw = self._witness[left], self._witness[right]
        mapping: dict = dict(zip(rw.bag, lw.bag))
        for element in sorted(rw.structure.domain, key=repr):
            if element not in mapping:
                mapping[element] = self._fresh_element(lw.structure)
        renamed = rw.structure.renamed(mapping)
        left_edb = _facts_over(lw.structure, lw.bag, self.patterns)
        right_edb = _facts_over(renamed, lw.bag, self.patterns)
        if left_edb != right_edb:
            return None
        return lw.structure.disjoint_union(renamed)


def build_type_automaton(
    formula: Formula,
    signature: Signature,
    width: int,
    quantifier_depth: int | None = None,
    max_states: int = 5000,
    max_witness_size: int = 16,
    structure_filter=None,
) -> TreeAutomaton:
    """The deterministic type automaton deciding ``formula`` on encoded
    width-``width`` decomposition trees."""
    return TypeAutomatonBuilder(
        formula,
        signature,
        width,
        quantifier_depth=quantifier_depth,
        max_states=max_states,
        max_witness_size=max_witness_size,
        structure_filter=structure_filter,
    ).build()
