"""Rank-k MSO types (Section 2.3, Section 3).

The equivalence ``(A, ā) ≡ᴹˢᴼ_k (B, b̄)`` -- agreement on all MSO
formulae of quantifier depth at most k -- has finitely many classes
("k-types") for every k.  We compute a *canonical representative* of the
type in the Hintikka style:

    tp_0(A, ā, P̄)  =  the atomic type: equalities among ā, relation
                      facts over ā, memberships ā_i ∈ P_j;
    tp_k(A, ā, P̄)  =  ( tp_0,
                        { tp_{k-1}(A, ā·c, P̄)  :  c ∈ dom(A) },
                        { tp_{k-1}(A, ā, P̄·Q)  :  Q ⊆ dom(A) } ).

Two structures are k-equivalent iff their canonical types are equal --
the standard back-and-forth argument, which an Ehrenfeucht-Fraïssé
game implementation in the test suite (``tests/mso/games.py``)
cross-checks.
Computing tp_k costs O((|dom| + 2^|dom|)^k); it is used on the small
witness structures of the Theorem 4.5 construction, whose exponential
nature the paper states explicitly.

Three representation decisions keep the constant factors tolerable for
the compiler (:mod:`repro.core.mso_to_datalog`), which types the same
witness structures over and over:

* quantified sets are enumerated as *bitmasks* over the structure's
  interned domain order (element -> dense index), not as
  ``frozenset`` powersets -- a subset is one int, candidate
  enumeration is integer counting / submask iteration, and membership
  is a shift-and-mask;
* the memo is *structure-scoped* (:class:`TypeContext`), not
  per-call: one context per structure is threaded through all type
  computations against it (the compiler types one witness under all
  ``(w+1)!`` bag permutations, and every point-extension subproblem
  is shared between them).  ``mso_type`` without an explicit context
  still builds a fresh one per call, preserving the old API;
* inside a context, rank-0 (atomic) types are *packed bit vectors*
  over a tag layout determined only by (signature, #points, #sets) --
  so atomic types of different structures over the same signature
  stay comparable -- and the layout is *prefix-stable* in the number
  of points: the tags of ``(pts, c)`` are the tags of ``pts`` plus
  one trailing block for the new point, so the point-move loop (the
  compiler's inner loop: one block per domain element) extends a
  precomputed prefix instead of recomputing n+1 points.  Set
  extension is just as local: block j of ``(pts, P̄·Q)`` is block j
  of ``(pts, P̄)`` plus one trailing in-tag bit ``[p_j ∈ Q]``, so a
  set move re-packs the parent's blocks with that bit inserted.  No
  rank-0 type below the top of a recursion is evaluated from scratch.

The public :func:`atomic_type` keeps the readable frozenset-of-tags
form; the packed form is the internal currency of :class:`TypeContext`
and of every canonical type it returns.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter

from ..structures.structure import Element, Structure

MSOType = tuple  # canonical, hashable, comparable with ==


def atomic_type(
    structure: Structure,
    points: tuple[Element, ...],
    sets: tuple[frozenset[Element], ...] = (),
) -> frozenset:
    """The rank-0 type: everything atomic about the distinguished data.

    Entries are tags:
      ("eq", i, j)          -- points[i] == points[j]
      ("rel", R, (i, ...))  -- R(points[i], ...) holds
      ("in", i, j)          -- points[i] ∈ sets[j]
    """
    tags: set = set()
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if points[i] == points[j]:
                tags.add(("eq", i, j))
    for name in structure.signature:
        arity = structure.signature.arity(name)
        for indices in product(range(n), repeat=arity):
            args = tuple(points[i] for i in indices)
            if structure.holds(name, *args):
                tags.add(("rel", name, indices))
    for i in range(n):
        for j, chosen in enumerate(sets):
            if points[i] in chosen:
                tags.add(("in", i, j))
    return frozenset(tags)


@lru_cache(maxsize=None)
def _rel_tags(arities: tuple[int, ...], j: int) -> tuple:
    """The relation tags of point index ``j``'s block, in layout order:
    ``(relation position, getter)`` pairs, one per index tuple whose
    highest point index is ``j`` (nullary relations ride in block 0
    with getter ``None``).  A getter maps a point tuple to the
    relation's argument -- a tuple, or the bare element for unary
    relations (see :class:`TypeContext`'s projected unary relations).
    Depends only on the signature's arities, so it is shared by every
    context (the key space -- signatures times small point indices --
    keeps the cache small)."""
    tags = []
    for position, arity in enumerate(arities):
        if arity == 0:
            if j == 0:
                tags.append((position, None))
            continue
        for indices in product(range(j + 1), repeat=arity):
            if max(indices) == j:
                tags.append((position, itemgetter(*indices)))
    return tuple(tags)


@lru_cache(maxsize=None)
def _layout(arities: tuple[int, ...], n: int, nmasks: int) -> tuple:
    """The packed rank-0 layout of ``n`` points and ``nmasks`` sets:
    ``(shifts, moves)``.

    ``shifts[j]`` is the offset of block ``j`` (block ``j`` is ``j``
    eq-tags, the relation tags of :func:`_rel_tags` and ``nmasks``
    in-tags wide), for ``j`` in ``0..n`` -- ``shifts[n]`` is where a
    point extension's block goes.  ``moves[j]`` re-packs block ``j``
    for one more set: ``(shift, width mask, new shift, new in-bit)``
    -- the block moves to ``shifts[j] + j`` (every earlier block grew
    by one bit) and gains the new set's in-tag as its top bit.
    """
    shifts = [0]
    moves = []
    for j in range(n + 1):
        width = j + len(_rel_tags(arities, j)) + nmasks
        if j < n:
            moved = shifts[j] + j
            moves.append(
                (shifts[j], (1 << width) - 1, moved, 1 << (moved + width))
            )
        shifts.append(shifts[j] + width)
    return tuple(shifts), tuple(moves)


def _with_set(
    spread: int, in_bits: tuple[tuple[int, int], ...], q: int
) -> int:
    """The packed rank-0 type of one set extension by mask ``q``, from
    the ``(spread, in_bits)`` pair of :meth:`TypeContext._set_extension`."""
    for pbit, bits in in_bits:
        if q & pbit:
            spread |= bits
    return spread


class TypeContext:
    """A shared, structure-scoped memo for rank-k type computation.

    One context serves every ``(points, sets, depth)`` query against
    its structure: the Hintikka recursion's subproblems are memoized
    across top-level calls, so re-typing the same witness under a
    different bag (the compiler's permutation step) or a different
    depth reuses all shared point-extension work.

    Every rank-0 type below the top is *derived* from its parent's
    packed bits, never re-evaluated: a point extension appends one
    block (:meth:`_block_bits`), a set extension re-packs the parent's
    blocks with one in-tag bit each (:meth:`_set_extension`).  On the
    width-2 ``has_neighbor`` compile (``grid_graph_filter``) this
    replaced 100,719 full ``_atomic`` evaluations by one per top-level
    query: typing 2.25 s -> 0.50 s, ``build_table`` 3.42 s -> 1.39 s
    and solver construction 3.94 s -> 1.95 s (medians of three runs on
    a 2-core Xeon), with every type and the emitted program unchanged.

    Threading one context per (structure, k) through the compiler
    instead of a per-call memo is worth ~1.3x on the width-1
    ``has_neighbor`` compile, where every stored witness is re-typed
    under all ``(w+1)!`` bag orders; at width 2 glued structures are
    typed transiently exactly once and dominate, so each context is
    kept cheap to build: tag getters and layouts are shared per
    signature (:func:`_rel_tags`, :func:`_layout`).
    """

    __slots__ = (
        "structure",
        "domain",
        "_index",
        "_full_mask",
        "_arities",
        "_rels",
        "_cache",
        "_blocks",
    )

    def __init__(self, structure: Structure):
        domain = sorted(structure.domain, key=repr)
        signature = structure.signature
        self._setup(
            structure,
            domain,
            {element: i for i, element in enumerate(domain)},
            signature,
            tuple(structure.relation(name) for name in signature),
        )

    @classmethod
    def of_ids(cls, signature, n: int, relations: tuple) -> "TypeContext":
        """A context for the structure over ``0..n-1`` whose relations,
        in signature order, are the tuple sets ``relations`` -- no
        :class:`Structure` is built, and ``structure`` is ``None``.

        The canonical type does not depend on the domain's index
        order (point and set successors are sets, and a set's mask
        only names its members), so an element is its own index here
        and every type equals the one of the :class:`Structure` with
        the same content."""
        context = cls.__new__(cls)
        ids = range(n)
        context._setup(None, ids, ids, signature, relations)
        return context

    def _setup(self, structure, domain, index, signature, relations) -> None:
        self.structure = structure
        self.domain = domain
        #: element -> bit position (a dict, or ``range(n)`` over ids)
        self._index = index
        self._full_mask = (1 << len(domain)) - 1
        self._arities = tuple(signature.arity(name) for name in signature)
        # relation data in signature order, matched to the getters of
        # _rel_tags: unary relations projected to their elements
        self._rels = tuple(
            frozenset(t[0] for t in rel) if arity == 1 else rel
            for rel, arity in zip(relations, self._arities)
        )
        self._cache: dict = {}
        #: point index j -> tag block for point j (see _block)
        self._blocks: dict[int, tuple] = {}

    def mask_of(self, elements) -> int:
        """The bitmask of a set of domain elements."""
        index = self._index
        mask = 0
        for element in elements:
            mask |= 1 << index[element]
        return mask

    def _block(self, j: int) -> tuple:
        """The tag block of point index ``j``: every atomic tag whose
        highest point index is ``j``, in a fixed order determined only
        by (signature, j, #sets) -- ``j`` eq-tags, the relation tags of
        :func:`_rel_tags`, then one in-tag per set.

        The full rank-0 layout for ``n`` points is the concatenation of
        blocks ``0..n-1``, so the layout for ``n`` points is a *prefix*
        of the layout for ``n+1`` -- extending a point tuple appends
        exactly one block.  Compiled against this structure as
        ``(j, constant bits, tests, first in-bit)``, the same for any
        number of sets (the in-tags come last): nullary facts are
        constant bits, a relation that is empty here contributes no
        test (its tag is never set), every other tag is a
        ``(bit, getter, relation)`` test.
        """
        found = self._blocks.get(j)
        if found is None:
            rels = self._rels
            constant = 0
            tests = []
            bit = 1 << j  # after the j eq-tags
            for position, getter in _rel_tags(self._arities, j):
                rel = rels[position]
                if getter is None:
                    if rel:  # the nullary fact holds
                        constant |= bit
                elif rel:
                    tests.append((bit, getter, rel))
                bit <<= 1
            found = (j, constant, tuple(tests), bit)
            self._blocks[j] = found
        return found

    def _block_bits(
        self, pts: tuple[Element, ...], block: tuple, masks: tuple[int, ...]
    ) -> int:
        """Evaluate one point's tag block against concrete points."""
        j, bits, tests, in_bit = block
        pj = pts[j]
        for i in range(j):  # ("eq", i, j) tags
            if pts[i] == pj:
                bits |= 1 << i
        for bit, getter, rel in tests:  # ("rel", name, indices) tags
            if getter(pts) in rel:
                bits |= bit
        if masks:  # ("in", j, m) tags
            pbit = 1 << self._index[pj]
            for mask in masks:
                if mask & pbit:
                    bits |= in_bit
                in_bit <<= 1
        return bits

    def _atomic(
        self, pts: tuple[Element, ...], masks: tuple[int, ...]
    ) -> int:
        """The packed rank-0 type: block bits of every point, packed
        low-to-high in point order (the layout of :meth:`_block`)."""
        shifts = _layout(self._arities, len(pts), len(masks))[0]
        block, block_bits = self._block, self._block_bits
        bits = 0
        for j in range(len(pts)):
            bits |= block_bits(pts, block(j), masks) << shifts[j]
        return bits

    def _set_extension(
        self, pts: tuple[Element, ...], nmasks: int, base: int
    ) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Derive the rank-0 types of ``(pts, masks + (q,))`` from
        ``base``, the packed type of ``(pts, masks)``: ``(spread,
        in_bits)``.

        The type for ``q`` is ``spread`` (the parent's blocks re-packed
        for one more set) OR-ed with ``bits`` for every ``(pbit, bits)``
        in ``in_bits`` with ``q & pbit`` (:func:`_with_set`) -- one
        pair per distinct point element, ``bits`` the new in-tag of
        every point index holding it.
        """
        index = self._index
        spread = 0
        in_bits: dict[int, int] = {}
        moves = _layout(self._arities, len(pts), nmasks)[1]
        for p, (shift, width_mask, new_shift, in_bit) in zip(pts, moves):
            spread |= ((base >> shift) & width_mask) << new_shift
            pbit = 1 << index[p]
            in_bits[pbit] = in_bits.get(pbit, 0) | in_bit
        return spread, tuple(in_bits.items())

    def type_of(
        self,
        points: tuple[Element, ...],
        depth: int,
        sets: tuple[frozenset[Element], ...] = (),
    ) -> MSOType:
        """The canonical rank-``depth`` type of ``(A, points)``."""
        masks = tuple(self.mask_of(s) for s in sets)
        pts = tuple(points)
        found = self._cache.get((pts, masks, depth))
        if found is not None:
            return found
        return self._rec(pts, masks, depth, self._atomic(pts, masks))

    def _rec(
        self,
        pts: tuple[Element, ...],
        masks: tuple[int, ...],
        depth: int,
        base: int,
    ) -> MSOType:
        """The rank-``depth`` type of ``(pts, masks)``, whose packed
        rank-0 type ``base`` the caller derived."""
        key = (pts, masks, depth)
        cache = self._cache
        found = cache.get(key)
        if found is not None:
            return found
        if depth == 0:
            cache[key] = result = ("t0", base)
            return result
        n = len(pts)
        nmasks = len(masks)
        block = self._block(n)
        shift = _layout(self._arities, n, nmasks)[0][n]
        block_bits = self._block_bits
        point_bits = [
            base | (block_bits(pts + (c,), block, masks) << shift)
            for c in self.domain
        ]
        spread, in_bits = self._set_extension(pts, nmasks, base)
        if depth == 1:
            point_successors = frozenset(("t0", b) for b in point_bits)
            # A set chosen in the last round is only ever inspected
            # through the memberships of the current points, so Q and
            # Q ∩ points yield the same rank-0 type: it suffices to
            # range over subsets of the distinct points.
            set_bits = [spread]
            for _pbit, bits in in_bits:
                set_bits += [b | bits for b in set_bits]
            set_successors = frozenset(("t0", b) for b in set_bits)
        else:
            rec = self._rec
            point_successors = frozenset(
                rec(pts + (c,), masks, depth - 1, b)
                for c, b in zip(self.domain, point_bits)
            )
            set_successors = frozenset(
                rec(
                    pts, masks + (q,), depth - 1, _with_set(spread, in_bits, q)
                )
                for q in range(self._full_mask + 1)
            )
        cache[key] = result = ("t", base, point_successors, set_successors)
        return result


def mso_type(
    structure: Structure,
    points: tuple[Element, ...],
    k: int,
    sets: tuple[frozenset[Element], ...] = (),
    context: TypeContext | None = None,
) -> MSOType:
    """The canonical rank-k type of ``(A, points)`` (extended by sets).

    ``context`` -- a :class:`TypeContext` for ``structure`` -- shares
    the memo across calls; omitted, a fresh context is built per call
    (the original behaviour).
    """
    if context is None:
        context = TypeContext(structure)
    elif context.structure is not structure:
        raise ValueError("context was built for a different structure")
    return context.type_of(tuple(points), k, tuple(sets))


def equivalent(
    a: Structure,
    a_points: tuple[Element, ...],
    b: Structure,
    b_points: tuple[Element, ...],
    k: int,
) -> bool:
    """``(A, ā) ≡ᴹˢᴼ_k (B, b̄)`` via canonical types.

    Well-defined across structures because the canonical type mentions
    only positions, never raw domain elements.
    """
    if a.signature != b.signature:
        return False
    if len(a_points) != len(b_points):
        return False
    return mso_type(a, a_points, k) == mso_type(b, b_points, k)
