"""Dense interning of domain elements and big-int bitset helpers.

Section 6 of the paper argues that the practical viability of the
monadic-datalog route depends on the constant factors of the
interpreter.  The set-at-a-time engine (:mod:`repro.datalog.setengine`)
gets its constant factors from one representation decision made here:
every constant of the extensional database is *interned* into a dense
integer id when the database is loaded, so

* facts become tuples of small ints (cheap to hash, cheap to compare),
* unary relations -- and monadic datalog's IDB predicates are all
  unary -- become Python big-int *bitsets*, where union, intersection,
  difference and membership run word-parallel in C.

The interner is bidirectional (id -> value is a list lookup) and
grows on demand: built-in predicates may create values that never
occurred in the input structure (e.g. the fixed-size sets of the
Section 5 programs), and those are interned on first sight.

A set of interned values can also be interned *as a bitset*
(:meth:`Interner.intern_set`): bit ``i`` stands for the value with id
``i``.  Such a set still has one ordinary id, and :meth:`Interner.value_of`
still returns the frozenset of its members, so decoding never sees the
difference; what the bitset adds is :meth:`Interner.set_bits`, which
lets the id-level built-in kernels run ``⊎`` and ``partition`` as
integer operations (:class:`repro.datalog.builtins.BuiltinCall`).  A set
is a bitset because it was interned as one, never because of its shape.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from ..structures.structure import Fact

__all__ = [
    "Interner",
    "LazyTailInterner",
    "InternPool",
    "bitset_of",
    "iter_bits",
    "popcount",
]


class Interner:
    """A bidirectional value <-> dense-int-id mapping.

    Ids are handed out consecutively from 0, so a fresh structure's
    domain occupies the low bits of every bitset built against it.
    """

    __slots__ = ("_ids", "_values", "_identity", "_set_ids", "_set_bits")

    def __init__(self, values: Iterable[Hashable] = ()):
        self._ids: dict[Hashable, int] = {}
        self._values: list[Hashable] = []
        #: True while every allocated id decodes to itself (the dense
        #: non-negative-int-domain case); lets decoding skip the id ->
        #: value translation entirely.
        self._identity = True
        #: bitset -> id and id -> bitset of the sets interned as bitsets
        self._set_ids: dict[int, int] = {}
        self._set_bits: dict[int, int] = {}
        for value in values:
            self.intern(value)

    @classmethod
    def identity(cls, width: int) -> "Interner":
        """An interner pre-seeded with ``0..width-1`` mapping to
        themselves.  Loading a database whose constants are already
        dense non-negative ints through this makes interning -- and
        decoding -- the identity, so fact tuples are reused as-is."""
        interner = cls()
        interner._values = list(range(width))
        interner._ids = {i: i for i in range(width)}
        return interner

    @classmethod
    def of_distinct(cls, values: list) -> "Interner":
        """An interner giving ``values[i]`` the id ``i``, built in one
        C-speed pass; ``values`` must be pairwise distinct (raises
        :class:`ValueError` otherwise) and is adopted, not copied."""
        interner = cls()
        interner._ids = dict(zip(values, range(len(values))))
        if len(interner._ids) != len(values):
            raise ValueError("interned values must be pairwise distinct")
        interner._values = values
        interner._identity = all(
            type(v) is int and v == i for i, v in enumerate(values)
        )
        return interner

    @property
    def is_identity(self) -> bool:
        """True iff ``value_of(i)`` is the ``int`` ``i`` for every
        allocated id (a ``bool`` never counts, though ``True == 1``)."""
        return self._identity

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._ids

    def intern(self, value: Hashable) -> int:
        """The id of ``value``, allocating a fresh dense id if new."""
        ids = self._ids
        found = ids.get(value)
        if found is not None:
            return found
        fresh = len(self._values)
        ids[value] = fresh
        self._values.append(value)
        # compare types too: ``True == 1``, but decoding id 1 as itself
        # would turn a stored ``True`` into ``1``
        if self._identity and (type(value) is not int or value != fresh):
            self._identity = False
        return fresh

    def intern_set(self, bits: int) -> int:
        """The id of the set whose members are the values with the ids
        set in ``bits``, allocating one if new.

        The set's value is the frozenset of those members, built once,
        when the bitset is first seen; a set equal to a value interned
        before (a frozenset domain element, say) keeps that value's id.
        From then on :meth:`set_bits` maps the id back to ``bits``."""
        found = self._set_ids.get(bits)
        if found is not None:
            return found
        return self._intern_new_set(bits)

    def _intern_new_set(self, bits: int) -> int:
        """:meth:`intern_set` for a bitset not seen before."""
        values = self._values
        members = []
        rest = bits
        while rest:
            top = rest.bit_length() - 1
            members.append(values[top])
            rest ^= 1 << top
        ident = self.intern(frozenset(members))
        self._set_ids[bits] = ident
        self._set_bits[ident] = bits
        return ident

    def set_bits(self, ident: int) -> int | None:
        """The bitset of an id that :meth:`intern_set` handed out, or
        ``None`` for any other id, whatever its value."""
        return self._set_bits.get(ident)

    def id_of(self, value: Hashable) -> int | None:
        """The id of ``value``, or ``None`` if it was never interned."""
        return self._ids.get(value)

    def value_of(self, ident: int) -> Hashable:
        """Invert :meth:`intern`; raises :class:`IndexError` for ids
        that were never allocated."""
        return self._values[ident]

    def values(self) -> Iterator[Hashable]:
        """All interned values in id order."""
        return iter(self._values)


#: the value of an id whose value is not built yet
_UNBUILT = object()


class LazyTailInterner(Interner):
    """An interner over adopted ``values`` (ids ``0 .. n - 1``, with
    their ``index``) followed by one id per item of ``tail``, whose
    value ``make(item)`` is built only when a caller first needs the
    tail: reads an id of it, or interns or looks up an instance of
    ``make``.  ``make`` is a class whose instances equal only each
    other (:class:`~repro.treewidth.encode.TDNode`), so any other value
    is looked up among the built values alone, and a new one gets the
    next id after the tail's without building it.  Reading an element
    costs what it costs in a plain :class:`Interner`, and a solve that
    decodes only elements never builds the tail.

    A set of adopted values interned as a bitset (:meth:`intern_set`)
    gets its frozenset value lazily too: on first read, or when an
    equal frozenset is interned or looked up, which finds it by its
    bitset.  That needs every frozenset value to be a bitset set, so
    once a frozenset is interned as a plain value, or if one is among
    ``values``, sets are built when interned, as in an
    :class:`Interner`.  ``values`` and ``index`` are not mutated."""

    __slots__ = ("_start", "_tail", "_make", "_own_ids", "_eager_sets")

    def __init__(self, values: list, index: dict, tail, make: type):
        super().__init__()
        tail = list(tail)
        self._start = len(values)
        self._values = values + [_UNBUILT] * len(tail)
        self._ids = index
        self._own_ids = False
        self._identity = False
        #: the tail's items, None once their values are built
        self._tail: list | None = tail
        self._make = make
        #: None until a set is first interned
        self._eager_sets: bool | None = None

    def _own(self) -> dict:
        """The id map, copied from the adopted index before its first
        change."""
        if not self._own_ids:
            self._ids = dict(self._ids)
            self._own_ids = True
        return self._ids

    def _build_tail(self) -> None:
        tail = self._tail
        if tail is None:
            return
        self._tail = None
        start, end = self._start, self._start + len(tail)
        made = list(map(self._make, tail))
        self._values[start:end] = made
        self._own().update(zip(made, range(start, end)))

    def _build(self, ident: int) -> Hashable:
        """The value of an unbuilt id: the tail's, or a bitset set's."""
        tail = self._tail
        if tail is not None and ident < self._start + len(tail):
            self._build_tail()
            return self._values[ident]
        values = self._values
        bits = self._set_bits[ident]
        value = values[ident] = frozenset(map(values.__getitem__, iter_bits(bits)))
        self._own()[value] = ident
        return value

    def _find_set(self, value: frozenset) -> int | None:
        """The id of the unbuilt bitset set equal to ``value``, its
        value built, or None."""
        bits = 0
        get, start = self._ids.get, self._start
        for member in value:
            i = get(member)
            if i is None or i >= start:
                return None
            bits |= 1 << i
        found = self._set_ids.get(bits)
        if found is not None:
            self._build(found)
        return found

    def __contains__(self, value: Hashable) -> bool:
        return self.id_of(value) is not None

    def intern(self, value: Hashable) -> int:
        found = self._ids.get(value)
        if found is None:
            found = self.id_of(value)
            if found is None:
                if isinstance(value, frozenset):
                    self._eager_sets = True
                found = self._own()[value] = len(self._values)
                self._values.append(value)
        return found

    def _intern_new_set(self, bits: int) -> int:
        if self._eager_sets is None:
            self._eager_sets = any(
                isinstance(v, frozenset) for v in self._values[: self._start]
            )
        if self._eager_sets or bits >> self._start:
            self._build_tail()  # a member may be a tail id
            return super()._intern_new_set(bits)
        ident = len(self._values)
        self._values.append(_UNBUILT)
        self._set_ids[bits] = ident
        self._set_bits[ident] = bits
        return ident

    def id_of(self, value: Hashable) -> int | None:
        found = self._ids.get(value)
        if found is None:
            if value.__class__ is self._make:
                self._build_tail()
                found = self._ids.get(value)
            elif self._set_ids and isinstance(value, frozenset):
                found = self._find_set(value)
        return found

    def value_of(self, ident: int) -> Hashable:
        value = self._values[ident]
        if value is _UNBUILT:
            return self._build(ident)
        return value

    def values(self) -> Iterator[Hashable]:
        self._build_tail()
        values = self._values
        for ident in [i for i, v in enumerate(values) if v is _UNBUILT]:
            self._build(ident)
        return iter(values)


class InternPool:
    """One solve's shared interning context: values *and* ground atoms.

    The Theorem 4.4 pipeline moves whole ground atoms across a module
    boundary (guard instantiation emits them, unit resolution consumes
    them).  The complexity argument of the paper assumes constant-time
    atom identity, so the pool couples the domain-value
    :class:`Interner` with a second dense-id layer for ground atoms:
    ``(predicate, interned-arg-id tuple)`` pairs become consecutive
    atom ids.  Grounding, Horn solving, and result decoding all share
    one pool per solve, so a fact is interned exactly once and the
    grounding -> horn boundary is pure integers -- no raw-value tuples,
    no re-hashing of structured atoms per propagation step.

    Decoding is lazy and allocation-free: :meth:`atom_of` is a list
    lookup, :meth:`decode_atom` translates arg ids back through the
    shared interner only when a caller actually asks for the value-level
    :class:`~repro.structures.structure.Fact`.
    """

    __slots__ = ("interner", "_atom_ids", "_atoms")

    def __init__(self, interner: Interner | None = None):
        self.interner = interner if interner is not None else Interner()
        self._atom_ids: dict[tuple[str, tuple[int, ...]], int] = {}
        self._atoms: list[tuple[str, tuple[int, ...]]] = []

    def __len__(self) -> int:
        """Number of distinct ground atoms interned so far."""
        return len(self._atoms)

    def atom_id(self, predicate: str, args: tuple[int, ...]) -> int:
        """The dense id of ``predicate(args)``; ``args`` are interned
        value ids.  Allocates a fresh id on first sight."""
        key = (predicate, args)
        ids = self._atom_ids
        found = ids.get(key)
        if found is None:
            found = len(self._atoms)
            ids[key] = found
            self._atoms.append(key)
        return found

    def lookup_atom(self, predicate: str, args: tuple[int, ...]) -> int | None:
        """Like :meth:`atom_id` but never allocates: ``None`` for atoms
        that were never interned (membership tests on the decoded
        side must not grow the pool)."""
        return self._atom_ids.get((predicate, args))

    def atom_of(self, atom_id: int) -> tuple[str, tuple[int, ...]]:
        """Invert :meth:`atom_id` (still in interned-id space)."""
        return self._atoms[atom_id]

    def decode_atom(self, atom_id: int) -> Fact:
        """The value-level fact for an atom id (lazy decode boundary)."""
        predicate, args = self._atoms[atom_id]
        if self.interner.is_identity:
            return Fact(predicate, args)
        value_of = self.interner.value_of
        return Fact(predicate, tuple(value_of(i) for i in args))

    def unary_arg_ids(self, predicate: str, flags) -> list[int]:
        """The argument ids ``x`` with ``predicate(x)`` flagged true.

        ``flags`` is a 0/1 array indexed by atom id (the Horn model
        shape); the scan stays entirely in id space, so callers decode
        only the answers they asked for.  Raises :class:`ValueError`
        if a flagged fact of ``predicate`` is not unary -- silently
        truncating it would mask a compiler or program bug.
        """
        out: list[int] = []
        for atom_id, (pred, args) in enumerate(self._atoms):
            if pred != predicate or not flags[atom_id]:
                continue
            if len(args) != 1:
                raise ValueError(
                    f"unary_arg_ids({predicate!r}): fact "
                    f"{self.decode_atom(atom_id)} has arity "
                    f"{len(args)}, not 1"
                )
            out.append(args[0])
        return out


# ----------------------------------------------------------------------
# Bitset helpers.  A "bitset" is a plain Python int: bit i set <=> the
# element with interned id i is in the set.  Union/intersection/
# difference are |, &, & ~ on ints -- word-parallel, no Python loop.
# ----------------------------------------------------------------------


def bitset_of(ids: Iterable[int]) -> int:
    """The bitset containing exactly ``ids``."""
    bits = 0
    for i in ids:
        bits |= 1 << i
    return bits


def iter_bits(bits: int) -> Iterator[int]:
    """The set bit positions of ``bits``, ascending.

    Uses the lowest-set-bit trick, so the cost is proportional to the
    number of *set* bits, not the width of the word.
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def popcount(bits: int) -> int:
    """|S| for a bitset."""
    return bits.bit_count()
