"""PRIMALITY in a subschema: keys drawn from a restricted attribute set.

The conclusion of the paper: "the relevance problem [of propositional
abduction] is basically the same as the problem of deciding primality in
a subschema R' ⊆ R.  Extending our prime() program (and, in particular,
the solve()-predicate) from Section 5 so as to test primality in a
subschema is rather straightforward."  This module is that extension.

Problem: given (R, F), an *allowed* set R' ⊆ R and a target attribute
``a``, is there a minimal X ⊆ R' with X+ = R and a ∈ X?

Characterization (mirroring Example 2.6): such an X exists iff there is
a set S ⊆ R' \\ {a} with S+ not a superkey and (S ∪ {a})+ = R --
equivalently a *closed* Y with a ∉ Y, Y ∪ {a} a superkey, and Y
generated by Y ∩ (R' \\ {a}).

The dynamic program extends Figure 6's state with a second derivation
order: besides the Co-order deriving R \\ Y from Y ∪ {a}, the non-seed
part of Y (the attributes of Y outside R' \\ {a}) must itself be derived
from the seeds, tracked by ``(Yo, DY, FYC)`` exactly like
``(Co, ΔC, FC)``.  With R' = R the seeds absorb everything, Yo stays
empty and the program collapses to Figure 6 -- a property the tests
exploit.

:class:`SubschemaPrimalityAlgebra` overrides the transitions of
Figure 6's :class:`~repro.problems.primality.PrimalityAlgebra` (same
names and arguments, the branch join key and the acceptance test
included) on the extended state, so :func:`is_prime_in_subschema` runs
on the same bottom-up walk as :func:`~repro.problems.primality.
primality_direct`.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator

from ..structures.schema import Attribute, RelationalSchema
from ..treewidth.decomposition import TreeDecomposition
from .._util import powerset
from .primality import (
    PrimalityAlgebra,
    _solve_states,
    prepare_decision_decomposition,
)

#: state: (Y, FY, Co, DC, FC, Yo, DY, FYC)
SubState = tuple


class SubschemaPrimalityAlgebra(PrimalityAlgebra):
    """Figure 6's transition algebra plus the Y-derivation layer."""

    def __init__(
        self,
        schema: RelationalSchema,
        allowed: Iterable[Attribute],
        target: Attribute,
    ):
        super().__init__(schema)
        self.allowed = frozenset(allowed)
        self.target = target
        unknown = self.allowed - set(schema.attributes)
        if unknown:
            raise ValueError(f"allowed set has unknown attributes {unknown}")
        if target not in schema.attributes:
            raise ValueError(f"unknown target attribute {target!r}")
        #: free generators: allowed attributes other than the target
        self.seeds = self.allowed - {target}

    # -- Y-derivation helpers ------------------------------------------

    def needs_derivation(self, attribute: Attribute) -> bool:
        """Y-members outside the seed set must be derived."""
        return attribute not in self.seeds

    def y_consistent(self, fyc: Iterable, y: frozenset, yo: tuple) -> bool:
        """FDs used for the Y-derivation: rhs in Yo; every left-hand
        attribute visible in the bag must lie in Y, and those needing
        derivation must come earlier in the Yo-order."""
        position = {b: i for i, b in enumerate(yo)}
        for f in fyc:
            r = self.rhs[f]
            if r not in position:
                return False
            for b in self.lhs[f]:
                if b in position and position[b] >= position[r]:
                    return False
        return True

    def y_lhs_blocked(self, fyc: Iterable, attribute: Attribute) -> bool:
        """Would placing ``attribute`` outside Y contradict some FD
        already committed to the Y-derivation?"""
        return any(attribute in self.lhs[f] for f in fyc)

    # -- node transitions ------------------------------------------------

    def leaf_states(
        self, at: frozenset, fds: frozenset
    ) -> Iterator[SubState]:
        attrs = sorted(at, key=repr)
        for y_tuple in powerset(attrs):
            y = frozenset(y_tuple)
            if self.target in y:
                continue  # a ∉ Y, globally
            co_set = [b for b in attrs if b not in y]
            fy = self.outside(y, at, fds)
            deriv = sorted(b for b in y if self.needs_derivation(b))
            for yo in permutations(deriv):
                for fyc_tuple in powerset(sorted(fds, key=repr)):
                    fyc = frozenset(fyc_tuple)
                    if not self.y_consistent(fyc, y, yo):
                        continue
                    if any(
                        b in co_set
                        for f in fyc
                        for b in self.lhs[f]
                        if b in at
                    ):
                        continue  # lhs of a Y-derivation FD left Y
                    dy = self.rhs_set(fyc)
                    if not dy <= frozenset(yo):
                        continue
                    for co in permutations(co_set):
                        for fc_tuple in powerset(sorted(fds - fyc, key=repr)):
                            fc = frozenset(fc_tuple)
                            if not self.consistent(fc, co):
                                continue
                            dc = self.rhs_set(fc)
                            yield (y, fy, co, dc, fc, yo, dy, fyc)

    def attr_intro(
        self, state: SubState, b: Attribute, new_at: frozenset, fds: frozenset
    ) -> Iterator[SubState]:
        y, fy, co, dc, fc, yo, dy, fyc = state
        # b joins Y (forbidden for the target)
        if b != self.target:
            if not self.needs_derivation(b):
                yield (y | {b}, fy, co, dc, fc, yo, dy, fyc)
            else:
                for i in range(len(yo) + 1):
                    yo2 = yo[:i] + (b,) + yo[i:]
                    if self.y_consistent(fyc, y | {b}, yo2):
                        yield (y | {b}, fy, co, dc, fc, yo2, dy, fyc)
        # b joins Co
        if not self.y_lhs_blocked(fyc, b):
            for i in range(len(co) + 1):
                co2 = co[:i] + (b,) + co[i:]
                if not self.consistent(fc, co2):
                    continue
                fy2 = fy | self.outside(y, new_at, fds)
                yield (y, fy2, co2, dc, fc, yo, dy, fyc)

    def attr_removal(
        self, state: SubState, b: Attribute
    ) -> Iterator[SubState]:
        y, fy, co, dc, fc, yo, dy, fyc = state
        if b in y:
            if b in yo:
                if b not in dy:
                    return  # derivation of a non-seed Y member unverified
                yo2 = tuple(x for x in yo if x != b)
                yield (y - {b}, fy, co, dc, fc, yo2, dy - {b}, fyc)
            else:
                yield (y - {b}, fy, co, dc, fc, yo, dy, fyc)
        elif b in dc:
            co2 = tuple(x for x in co if x != b)
            yield (y, fy, co2, dc - {b}, fc, yo, dy, fyc)

    def fd_intro(
        self, state: SubState, f: str, at: frozenset
    ) -> Iterator[SubState]:
        y, fy, co, dc, fc, yo, dy, fyc = state
        b = self.rhs[f]
        lhs_in_bag = self.lhs[f] & at
        lhs_in_co = lhs_in_bag - y
        if b in y:
            # may serve the Y-derivation of a non-seed member
            yield (y, fy, co, dc, fc, yo, dy, fyc)
            if (
                b in yo
                and b not in dy
                and not lhs_in_co
                and self.y_consistent(fyc | {f}, y, yo)
            ):
                yield (y, fy, co, dc, fc, yo, dy | {b}, fyc | {f})
            return
        excused = self.outside(y, at, [f])
        if b not in dc and self.consistent([f], co):
            yield (y, fy | excused, co, dc | {b}, fc | {f}, yo, dy, fyc)
        yield (y, fy | excused, co, dc, fc, yo, dy, fyc)

    def fd_removal(self, state: SubState, f: str) -> Iterator[SubState]:
        y, fy, co, dc, fc, yo, dy, fyc = state
        b = self.rhs[f]
        if b in y:
            if f in fyc:
                yield (y, fy, co, dc, fc, yo, dy, fyc - {f})
            else:
                yield (y, fy, co, dc, fc, yo, dy, fyc)
            return
        if f not in fy:
            return
        fy2 = fy - {f}
        if f in fc:
            yield (y, fy2, co, dc, fc - {f}, yo, dy, fyc)
        else:
            yield (y, fy2, co, dc, fc, yo, dy, fyc)

    def branch_combine(
        self, s1: SubState, s2: SubState
    ) -> Iterator[SubState]:
        y1, fy1, co1, dc1, fc1, yo1, dy1, fyc1 = s1
        y2, fy2, co2, dc2, fc2, yo2, dy2, fyc2 = s2
        if (y1, co1, fc1, yo1, fyc1) != (y2, co2, fc2, yo2, fyc2):
            return
        if not self.unique(dc1, dc2, fc1):
            return
        if not self.unique(dy1, dy2, fyc1):
            return
        yield (y1, fy1 | fy2, co1, dc1 | dc2, fc1, yo1, dy1 | dy2, fyc1)

    def branch_key(self, state: SubState) -> tuple:
        y, fy, co, dc, fc, yo, dy, fyc = state
        return (y, co, fc, yo, fyc)

    def accept(
        self,
        state: SubState,
        attribute: Attribute,
        at: frozenset,
        fds: frozenset,
    ) -> bool:
        """Figure 6's acceptance, and every non-seed member of Y
        derived."""
        return super().accept(state[:5], attribute, at, fds) and (
            frozenset(state[5]) == state[6]
        )


def is_prime_in_subschema(
    schema: RelationalSchema,
    attribute: Attribute,
    allowed: Iterable[Attribute],
    td: TreeDecomposition | None = None,
) -> bool:
    """Is ``attribute`` in some minimal X ⊆ allowed with X+ = R?

    The bounded-treewidth dynamic program described in the module
    docstring; with ``allowed = R`` this is exactly Figure 6.
    """
    allowed = frozenset(allowed)
    algebra = SubschemaPrimalityAlgebra(schema, allowed, attribute)
    if attribute not in allowed:
        return False
    nice = prepare_decision_decomposition(schema, attribute, td)
    states = _solve_states(algebra, nice)
    root = nice.tree.root
    at, fds = algebra.split(nice.bag(root))
    return any(
        algebra.accept(state, attribute, at, fds) for state in states[root]
    )


def is_prime_in_subschema_bruteforce(
    schema: RelationalSchema,
    attribute: Attribute,
    allowed: Iterable[Attribute],
) -> bool:
    """Ground truth: ∃ S ⊆ allowed \\ {a} with S not a superkey and
    S ∪ {a} a superkey."""
    allowed = frozenset(allowed)
    if attribute not in allowed:
        return False
    rest = sorted(allowed - {attribute})
    for subset in powerset(rest):
        s = frozenset(subset)
        if not schema.is_superkey(s) and schema.is_superkey(s | {attribute}):
            return True
    return False
