"""k-round MSO Ehrenfeucht-Fraïssé games (Section 2.3).

The spoiler picks a point or a set in either structure; the duplicator
answers in the other; after k rounds the duplicator wins iff the chosen
points define a partial isomorphism between the structures extended by
the chosen sets.  ``(A, ā) ≡ᴹˢᴼ_k (B, b̄)`` iff the duplicator has a
winning strategy -- the characterization the proofs of Lemmas 3.5-3.7
are built on.

The recursive minimax below is doubly exponential and exists to
cross-check the canonical-type computation of :mod:`repro.mso.types`
on tiny structures (a genuinely independent implementation of the same
equivalence); it is a test oracle, so it lives beside the tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from repro.structures.structure import Element, Structure


def _subsets(domain: list[Element]) -> Iterator[frozenset[Element]]:
    for r in range(len(domain) + 1):
        for combo in combinations(domain, r):
            yield frozenset(combo)


def is_partial_isomorphism(
    a: Structure,
    a_points: tuple[Element, ...],
    a_sets: tuple[frozenset[Element], ...],
    b: Structure,
    b_points: tuple[Element, ...],
    b_sets: tuple[frozenset[Element], ...],
) -> bool:
    """Does ``a_points[i] -> b_points[i]`` preserve everything atomic?

    Checks well-definedness/injectivity, all relations of the shared
    signature over the chosen points (in both directions), and
    membership in the chosen sets.
    """
    if a.signature != b.signature:
        return False
    if len(a_points) != len(b_points) or len(a_sets) != len(b_sets):
        return False
    n = len(a_points)
    for i in range(n):
        for j in range(n):
            if (a_points[i] == a_points[j]) != (b_points[i] == b_points[j]):
                return False
    for name in a.signature:
        arity = a.signature.arity(name)
        for indices in _index_tuples(n, arity):
            lhs = a.holds(name, *(a_points[i] for i in indices))
            rhs = b.holds(name, *(b_points[i] for i in indices))
            if lhs != rhs:
                return False
    for i in range(n):
        for j in range(len(a_sets)):
            if (a_points[i] in a_sets[j]) != (b_points[i] in b_sets[j]):
                return False
    return True


def _index_tuples(n: int, arity: int) -> Iterator[tuple[int, ...]]:
    if arity == 0:
        yield ()
        return
    from itertools import product

    yield from product(range(n), repeat=arity)


def duplicator_wins(
    a: Structure,
    a_points: tuple[Element, ...],
    b: Structure,
    b_points: tuple[Element, ...],
    k: int,
    a_sets: tuple[frozenset[Element], ...] = (),
    b_sets: tuple[frozenset[Element], ...] = (),
) -> bool:
    """Does the duplicator win the k-round MSO game on (A, ā) vs (B, b̄)?

    Exhaustive minimax over all spoiler moves; only use on structures
    with a handful of elements.
    """
    if k == 0:
        return is_partial_isomorphism(
            a, a_points, a_sets, b, b_points, b_sets
        )

    a_domain = sorted(a.domain, key=repr)
    b_domain = sorted(b.domain, key=repr)

    # spoiler point move in A: duplicator needs a reply in B
    for c in a_domain:
        if not any(
            duplicator_wins(
                a, a_points + (c,), b, b_points + (d,), k - 1, a_sets, b_sets
            )
            for d in b_domain
        ):
            return False
    # spoiler point move in B
    for d in b_domain:
        if not any(
            duplicator_wins(
                a, a_points + (c,), b, b_points + (d,), k - 1, a_sets, b_sets
            )
            for c in a_domain
        ):
            return False
    # spoiler set move in A
    for p in _subsets(a_domain):
        if not any(
            duplicator_wins(
                a, a_points, b, b_points, k - 1, a_sets + (p,), b_sets + (q,)
            )
            for q in _subsets(b_domain)
        ):
            return False
    # spoiler set move in B
    for q in _subsets(b_domain):
        if not any(
            duplicator_wins(
                a, a_points, b, b_points, k - 1, a_sets + (p,), b_sets + (q,)
            )
            for p in _subsets(a_domain)
        ):
            return False
    return True
