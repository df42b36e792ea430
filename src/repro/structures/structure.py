"""Finite relational structures (tau-structures).

A finite structure ``A`` over a signature ``tau`` has a finite domain and
one relation per predicate symbol (Section 2.2).  In the datalog context
it is convenient to view the relations as a set of ground atoms -- the
extensional database E(A) -- and that view is what :meth:`Structure.facts`
provides.

Structures are immutable; all "mutators" return new structures.  Domain
elements may be arbitrary hashable Python values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import permutations
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from .signature import Signature

Element = Hashable


def structure_fingerprint(structure) -> str:
    """A stable hex fingerprint of a structure's content.

    Hashes the signature, domain, and fact set -- two structurally
    equal structures fingerprint alike, so a quarantined poison input
    is recognized however it is resubmitted.  Arbitrary (non-Structure)
    objects degrade to a type + ``repr`` hash rather than failing: the
    fingerprint is diagnostic metadata and must never be the thing
    that throws."""
    hasher = hashlib.sha256()
    try:
        hasher.update(str(structure.signature).encode())
        for element in sorted(structure.domain, key=repr):
            hasher.update(repr(element).encode())
        for fact in structure.facts():
            hasher.update(repr(fact).encode())
    except Exception:
        hasher = hashlib.sha256()
        hasher.update(type(structure).__name__.encode())
        try:
            hasher.update(repr(structure)[:4096].encode())
        except Exception:  # pragma: no cover - repr() itself raised
            pass
    return hasher.hexdigest()[:16]


@dataclass(frozen=True, order=True)
class Fact:
    """A ground atom ``R(a1, ..., an)`` of the extensional database."""

    predicate: str
    args: tuple[Element, ...]

    def __str__(self) -> str:
        inner = ", ".join(map(str, self.args))
        return f"{self.predicate}({inner})"


class Structure:
    """An immutable finite tau-structure.

    Parameters
    ----------
    signature:
        The signature ``tau``.
    domain:
        The (finite) universe.  May include elements that occur in no
        relation ("isolated" elements).
    relations:
        Mapping from predicate name to an iterable of argument tuples.
        Every predicate of the signature is allowed to be absent (it is
        then empty); unknown predicates and arity mismatches raise.
    """

    __slots__ = ("signature", "_domain", "_relations")

    def __init__(
        self,
        signature: Signature,
        domain: Iterable[Element],
        relations: Mapping[str, Iterable[tuple[Element, ...]]] | None = None,
    ):
        dom = frozenset(domain)
        rels: dict[str, frozenset[tuple[Element, ...]]] = {
            name: frozenset() for name in signature
        }
        for name, tuples in (relations or {}).items():
            if name not in signature:
                raise ValueError(f"unknown predicate {name!r}")
            arity = signature.arity(name)
            normalized = set()
            for tup in tuples:
                tup = tuple(tup)
                if len(tup) != arity:
                    raise ValueError(
                        f"{name} expects arity {arity}, got {tup!r}"
                    )
                for element in tup:
                    if element not in dom:
                        raise ValueError(
                            f"element {element!r} of {name}{tup!r} is not "
                            "in the domain"
                        )
                normalized.add(tup)
            rels[name] = frozenset(normalized)
        self.signature = signature
        self._domain = dom
        self._relations = rels

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def domain(self) -> frozenset[Element]:
        return self._domain

    def relation(self, name: str) -> frozenset[tuple[Element, ...]]:
        """The interpretation of predicate ``name``."""
        return self._relations[name]

    def holds(self, name: str, *args: Element) -> bool:
        """Does ``name(args)`` hold in this structure?"""
        return tuple(args) in self._relations[name]

    def facts(self) -> Iterator[Fact]:
        """All ground atoms of the extensional database E(A), sorted."""
        for name in self.signature:
            for tup in sorted(self._relations[name], key=repr):
                yield Fact(name, tup)

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def size(self) -> int:
        """|A| = |dom(A)| plus the total size of all relations.

        This is the size measure used in the linear-time bounds of
        Theorem 4.4 and Corollary 4.6.
        """
        cells = sum(
            len(rel) * self.signature.arity(name)
            for name, rel in self._relations.items()
        )
        return len(self._domain) + cells

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def induced(self, elements: Iterable[Element]) -> "Structure":
        """The substructure induced by ``elements`` (Definition 3.2).

        Keeps exactly the tuples all of whose entries lie in
        ``elements``.
        """
        keep = frozenset(elements)
        extra = keep - self._domain
        if extra:
            raise ValueError(f"elements {extra!r} are not in the domain")
        relations = {
            name: {tup for tup in rel if all(x in keep for x in tup)}
            for name, rel in self._relations.items()
        }
        return Structure(self.signature, keep, relations)

    def with_facts(self, facts: Iterable[Fact]) -> "Structure":
        """A copy with extra ground atoms added (domain must cover them)."""
        relations = {name: set(rel) for name, rel in self._relations.items()}
        for fact in facts:
            relations.setdefault(fact.predicate, set()).add(fact.args)
        return Structure(self.signature, self._domain, relations)

    def with_elements(self, elements: Iterable[Element]) -> "Structure":
        """A copy with extra (isolated) domain elements."""
        return Structure(
            self.signature, self._domain | frozenset(elements), self._relations
        )

    def renamed(self, mapping: Mapping[Element, Element]) -> "Structure":
        """Apply an injective renaming to the domain.

        Elements absent from ``mapping`` are kept as-is.  The result must
        again have pairwise-distinct elements.
        """
        def rho(x: Element) -> Element:
            return mapping.get(x, x)

        new_domain = [rho(x) for x in self._domain]
        if len(set(new_domain)) != len(self._domain):
            raise ValueError("renaming is not injective on the domain")
        relations = {
            name: {tuple(rho(x) for x in tup) for tup in rel}
            for name, rel in self._relations.items()
        }
        return Structure(self.signature, new_domain, relations)

    def disjoint_union(self, other: "Structure") -> "Structure":
        """Union of two structures over the same signature.

        Despite the name this is the plain union of domains and
        relations; callers who need *disjointness* (e.g. the branch-node
        step of Theorem 4.5) rename first and may share exactly the
        distinguished elements.
        """
        if self.signature != other.signature:
            raise ValueError("signatures differ")
        relations = {
            name: self._relations[name] | other._relations[name]
            for name in self.signature
        }
        return Structure(
            self.signature, self._domain | other._domain, relations
        )

    # ------------------------------------------------------------------
    # Graphs derived from a structure
    # ------------------------------------------------------------------

    def gaifman_edges(self) -> set[tuple[Element, Element]]:
        """Edges of the Gaifman (primal) graph.

        Two distinct elements are adjacent iff they occur together in
        some tuple of some relation.  A tree decomposition of a structure
        is exactly a tree decomposition of its Gaifman graph, which is
        how arbitrary structures are decomposed in this package.

        Each edge is oriented so that ``repr((a, b)) <= repr((b, a))``.
        Both reprs are ``"(" + X + ")"`` with ``X`` of equal length, so
        the test compares ``"ra, rb"`` with ``"rb, ra"`` over reprs
        computed once per element.
        """
        edges: set[tuple[Element, Element]] = set()
        text: dict[Element, str] = {}
        for rel in self._relations.values():
            for tup in rel:
                distinct = set(tup)
                for a in distinct:
                    ra = text.get(a)
                    if ra is None:
                        ra = text[a] = repr(a)
                    for b in distinct:
                        if a != b:
                            rb = text.get(b)
                            if rb is None:
                                rb = text[b] = repr(b)
                            if f"{ra}, {rb}" <= f"{rb}, {ra}":
                                edges.add((a, b))
        return edges

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self.signature == other.signature
            and self._domain == other._domain
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.signature,
                self._domain,
                tuple(sorted(self._relations.items(), key=lambda kv: kv[0])),
            )
        )

    def __repr__(self) -> str:
        return (
            f"Structure(|dom|={len(self._domain)}, "
            f"facts={self.fact_count()})"
        )

    def is_isomorphic_to(
        self, other: "Structure", fixed: Mapping[Element, Element] | None = None
    ) -> bool:
        """Brute-force isomorphism test for *small* structures.

        ``fixed`` optionally pins a partial mapping (used for pointed
        structures).  Exponential; intended for tests and for the tiny
        witness structures of the Theorem 4.5 construction.
        """
        if self.signature != other.signature:
            return False
        if len(self._domain) != len(other._domain):
            return False
        if any(
            len(self._relations[n]) != len(other._relations[n])
            for n in self.signature
        ):
            return False
        fixed = dict(fixed or {})
        if len(set(fixed.values())) != len(fixed):
            return False
        free_src = sorted(self._domain - fixed.keys(), key=repr)
        free_dst = set(other._domain) - set(fixed.values())
        if len(free_src) != len(free_dst):
            return False
        for image in permutations(sorted(free_dst, key=repr)):
            mapping = dict(fixed)
            mapping.update(zip(free_src, image))
            if self._respects(other, mapping):
                return True
        return not free_src and self._respects(other, fixed)

    def _respects(
        self, other: "Structure", mapping: Mapping[Element, Element]
    ) -> bool:
        for name, rel in self._relations.items():
            mapped = {tuple(mapping[x] for x in tup) for tup in rel}
            if mapped != other._relations[name]:
                return False
        return True


@dataclass(frozen=True)
class PointedStructure:
    """A structure with distinguished elements ``(A, a0, ..., aw)``.

    Distinguished elements interpret the free variables of MSO formulae
    (Section 2.2/2.3).  They must belong to the domain but need not be
    pairwise distinct in general; the tree-decomposition bags of
    Definition 2.3 are additionally pairwise distinct.
    """

    structure: Structure
    points: tuple[Element, ...]

    def __post_init__(self) -> None:
        missing = [p for p in self.points if p not in self.structure.domain]
        if missing:
            raise ValueError(f"distinguished elements {missing!r} not in domain")

    def is_isomorphic_to(self, other: "PointedStructure") -> bool:
        if len(self.points) != len(other.points):
            return False
        pairing: dict[Any, Any] = {}
        for a, b in zip(self.points, other.points):
            if pairing.setdefault(a, b) != b:
                return False
        return self.structure.is_isomorphic_to(other.structure, fixed=pairing)
