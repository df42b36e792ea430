"""Bottom-up finite tree automata over labeled binary trees.

The classic MSO-on-trees toolchain (Thatcher-Wright [29], Doner [6])
that Courcelle-style algorithms traditionally compile into, and whose
"state explosion" (Sections 1 and 6, citing [15, 26]) motivated the
paper's datalog alternative.  We implement the machinery honestly --
nondeterministic bottom-up automata, the subset (determinization)
construction, product automata, emptiness -- so that the explosion can
be exercised rather than asserted (the budgeted construction in
:mod:`repro.fta.mso_to_fta`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Hashable, Iterable, Iterator, Mapping

State = Hashable
Label = Hashable


@dataclass(frozen=True)
class LabeledTree:
    """An ordered tree with at most binary branching and node labels."""

    label: Label
    children: tuple["LabeledTree", ...] = ()

    def __post_init__(self) -> None:
        if len(self.children) > 2:
            raise ValueError("labeled trees are at most binary")

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def labels(self) -> Iterator[Label]:
        yield self.label
        for child in self.children:
            yield from child.labels()


class TreeAutomaton:
    """A (possibly nondeterministic) bottom-up finite tree automaton.

    Transitions map ``(label, child_states)`` -- with 0, 1 or 2 child
    states -- to a set of successor states.  A run assigns states
    bottom-up; the tree is accepted iff some run reaches an accepting
    state at the root.
    """

    def __init__(
        self,
        states: Iterable[State],
        accepting: Iterable[State],
        transitions: Mapping[tuple, Iterable[State]],
    ):
        self.states = frozenset(states)
        self.accepting = frozenset(accepting)
        self.transitions: dict[tuple, frozenset[State]] = {
            key: frozenset(targets) for key, targets in transitions.items()
        }
        unknown = self.accepting - self.states
        if unknown:
            raise ValueError(f"accepting states not declared: {unknown}")
        for key, targets in self.transitions.items():
            if not targets <= self.states:
                raise ValueError(f"transition {key} targets unknown states")

    def state_count(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return sum(len(t) for t in self.transitions.values())

    # ------------------------------------------------------------------

    def run_states(self, tree: LabeledTree) -> frozenset[State]:
        """All states reachable at the root of ``tree``."""
        child_state_sets = [self.run_states(c) for c in tree.children]
        if not child_state_sets:
            return self.transitions.get((tree.label,), frozenset())
        reachable: set[State] = set()
        for combo in product(*child_state_sets):
            reachable |= self.transitions.get(
                (tree.label, *combo), frozenset()
            )
        return frozenset(reachable)

    def accepts(self, tree: LabeledTree) -> bool:
        return bool(self.run_states(tree) & self.accepting)

    # ------------------------------------------------------------------

    def determinize(self) -> "TreeAutomaton":
        """Subset construction; worst case 2^|Q| states.

        This is the step where the MSO-to-FTA route explodes -- each
        quantifier alternation of the source formula costs one
        determinization (complementation needs a deterministic
        automaton), squaring the exponent every time.
        """
        labels = {key[0] for key in self.transitions}
        # group transitions by (label, arity) for successor computation
        by_shape: dict[tuple[Label, int], list[tuple]] = {}
        for key in self.transitions:
            by_shape.setdefault((key[0], len(key) - 1), []).append(key)

        initial: dict[Label, frozenset[State]] = {}
        for label in labels:
            initial[label] = self.transitions.get((label,), frozenset())

        subset_states: set[frozenset[State]] = set(initial.values())
        transitions: dict[tuple, frozenset] = {
            (label,): frozenset([subset]) for label, subset in initial.items()
        }
        worklist = list(subset_states)
        while worklist:
            current = worklist.pop()
            # unary successors
            for (label, arity), keys in by_shape.items():
                if arity == 1:
                    successor: set[State] = set()
                    for key in keys:
                        if key[1] in current:
                            successor |= self.transitions[key]
                    target = frozenset(successor)
                    transitions[(label, current)] = frozenset([target])
                    if target not in subset_states:
                        subset_states.add(target)
                        worklist.append(target)
                elif arity == 2:
                    for other in list(subset_states):
                        for left, right in ((current, other), (other, current)):
                            successor = set()
                            for key in keys:
                                if key[1] in left and key[2] in right:
                                    successor |= self.transitions[key]
                            target = frozenset(successor)
                            transitions[(label, left, right)] = frozenset([target])
                            if target not in subset_states:
                                subset_states.add(target)
                                worklist.append(target)
        accepting = frozenset(
            subset for subset in subset_states if subset & self.accepting
        )
        return TreeAutomaton(subset_states, accepting, transitions)

    def reachable_states(self, trees: Iterable[LabeledTree]) -> frozenset[State]:
        out: set[State] = set()
        for tree in trees:
            out |= self.run_states(tree)
        return frozenset(out)

    def __repr__(self) -> str:
        return (
            f"TreeAutomaton(states={len(self.states)}, "
            f"transitions={self.transition_count()}, "
            f"accepting={len(self.accepting)})"
        )
