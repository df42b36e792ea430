"""Built-in predicates with binding-pattern-aware evaluation.

Section 1 lists "the possibility to define new built-in predicates if
they admit an efficient implementation by the interpreter" among
datalog's advantages, and Section 5 leans on it: the programs of
Figures 5 and 6 manipulate fixed-size sets with ``⊎``, ``∪``, ``∩``,
``⊆``, ``∈`` and ordered sets.  Those operators are implemented here.

A built-in receives a tuple of argument *slots*; bound slots carry the
concrete value, unbound slots carry :data:`UNBOUND`.  It yields one
tuple of concrete values per solution.  ``can_evaluate`` advertises the
binding patterns a built-in supports, which the rule planner uses to
order body literals; ``is_functional`` marks the patterns that admit at
most one solution, which the delta-first planner runs early.

``Builtin.evaluate`` is the reference semantics (the tuple engine runs
it per binding).  The set engine and the grounder run built-ins through
one kernel instead: ``Builtin.compile`` checks a binding mask once and
returns a solver with bound-argument fast paths, and
:class:`BuiltinCall` runs it over a columnar batch of interned ids,
memoized per evaluation.

At the value level sets are frozensets and ordered sets (``Co`` in
Figure 6) are tuples.  All of these are "fixed-size" in the paper's
sense -- their cardinality is bounded by the bag size ``w + 1`` --
which is what makes the succinct programs equivalent to monadic ones
(Theorem 5.1/5.3).  A load may intern sets as bitsets over element ids
instead (:meth:`~repro.datalog.interning.Interner.intern_set`, as
Figure 5's load does); they still decode to the same frozensets.  For
the binding masks Figure 5 runs, ``add`` and ``partition3`` have
id-level kernels (``Builtin.id_kernel``) that solve such sets with
integer operations and never decode them; any argument that is not a
bitset set takes the value path.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator

from .._util import interleavings, powerset
from .interning import Interner


class _Unbound:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUND"


UNBOUND = _Unbound()

Slots = tuple  # values or UNBOUND


def _mask(slots: Slots) -> tuple[bool, ...]:
    return tuple(s is not UNBOUND for s in slots)


def _covers(mask: tuple[bool, ...], patterns) -> bool:
    # a pattern with fewer bound slots than the mask is still fine
    return any(
        all(b or not need for b, need in zip(mask, pattern))
        for pattern in patterns
    )


Solver = Callable[[Slots], "list[tuple] | tuple[tuple, ...]"]
#: an id-level solver: the bound ids of a row (in position order) and
#: the interner give the output-id tuples (at the unbound positions) of
#: every solution, or ``None`` when an argument is not a bitset set
IdKernel = Callable[[tuple, Interner], "tuple[tuple[int, ...], ...] | None"]


class Builtin:
    """Base class: subclasses implement ``solutions`` for the patterns
    they declare in ``patterns`` (a set of bound-masks, or ``None`` for
    "all arguments must be bound").

    **Purity contract.**  A built-in is a pure function of its bound
    arguments: equal bound values always give the same solutions, and
    a call has no side effects.  Engines rely on it -- the set engine
    and the grounder memoize solutions for one evaluation, keyed by the
    interned ids of the bound arguments (:class:`BuiltinCall`).
    """

    name: str
    arity: int
    #: supported binding masks; True = bound.  ``None`` means fully bound only.
    patterns: frozenset[tuple[bool, ...]] | None = None
    #: binding masks with at most one solution (fully bound is always one)
    functional: frozenset[tuple[bool, ...]] = frozenset()

    def can_evaluate(self, mask: tuple[bool, ...]) -> bool:
        if all(mask):
            return True
        if self.patterns is None:
            return False
        return _covers(mask, self.patterns)

    def is_functional(self, mask: tuple[bool, ...]) -> bool:
        """Whether ``mask`` leaves at most one solution per call."""
        return all(mask) or _covers(mask, self.functional)

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        raise NotImplementedError

    def compile(self, mask: tuple[bool, ...]) -> Solver:
        """The solver for one binding mask, checked once, here.

        The returned function takes a slots tuple with exactly the
        bound positions of ``mask`` filled and returns the list of
        solutions :meth:`evaluate` yields, in the same order.  An
        unsupported mask raises :class:`ValueError` now instead of on
        every call."""
        mask = tuple(bool(b) for b in mask)
        if len(mask) != self.arity:
            raise ValueError(
                f"{self.name}/{self.arity} compiled with {len(mask)} slots"
            )
        if not self.can_evaluate(mask):
            raise ValueError(
                f"built-in {self.name} cannot run with binding {mask}"
            )
        fast = self._fast_path(mask)
        if fast is not None:
            return fast
        bound = tuple(i for i, b in enumerate(mask) if b)
        solutions = self.solutions

        def solve(slots: Slots) -> list[tuple]:
            # the consistency filter compares the bound positions only
            return [
                solution
                for solution in solutions(slots)
                if all(solution[i] == slots[i] for i in bound)
            ]

        return solve

    def _fast_path(self, mask: tuple[bool, ...]) -> Solver | None:
        """A specialised solver for ``mask``, or None for the generic
        enumerate-and-filter one.  It must return what :meth:`evaluate`
        yields."""
        return None

    def id_kernel(self, mask: tuple[bool, ...]) -> IdKernel | None:
        """An id-level solver for ``mask`` over bitset sets
        (:meth:`~repro.datalog.interning.Interner.set_bits`), or None
        if the built-in has none for it.  Decoded, its solutions are
        those :meth:`evaluate` yields; it returns ``None`` for a row
        it cannot solve in ids, which then takes the value path."""
        return None

    def evaluate(self, slots: Slots) -> Iterator[tuple]:
        """The reference semantics: enumerate, then keep the solutions
        that agree with every bound slot."""
        if len(slots) != self.arity:
            raise ValueError(
                f"{self.name}/{self.arity} called with {len(slots)} slots"
            )
        if not self.can_evaluate(_mask(slots)):
            raise ValueError(
                f"built-in {self.name} cannot run with binding {_mask(slots)}"
            )
        for solution in self.solutions(slots):
            if all(
                s is UNBOUND or s == v for s, v in zip(slots, solution)
            ):
                yield solution


class _CheckBuiltin(Builtin):
    """A fully-bound test: ``predicate(args)`` holds or not."""

    def __init__(self, name: str, arity: int, test: Callable[..., bool]):
        self.name = name
        self.arity = arity
        self._test = test

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        if self._test(*slots):
            yield tuple(slots)

    def _fast_path(self, mask: tuple[bool, ...]) -> Solver:
        test = self._test
        return lambda slots: [slots] if test(*slots) else []


class _FunctionBuiltin(Builtin):
    """Last argument computed from the others; also usable as a check."""

    def __init__(self, name: str, arity: int, fn: Callable[..., Hashable]):
        self.name = name
        self.arity = arity
        self._fn = fn
        self.patterns = self.functional = frozenset(
            {tuple([True] * (arity - 1) + [False])}
        )

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        inputs = slots[:-1]
        if any(s is UNBOUND for s in inputs):
            raise ValueError(f"{self.name}: inputs must be bound")
        yield tuple(inputs) + (self._fn(*inputs),)

    def _fast_path(self, mask: tuple[bool, ...]) -> Solver | None:
        if mask[-1]:
            return None
        fn = self._fn
        return lambda slots: [slots[:-1] + (fn(*slots[:-1]),)]


class AddElement(Builtin):
    """``add(S, V, T)``: ``T = S ⊎ {V}`` (V not already in S).

    Patterns: (S, V bound -> T), (T bound -> enumerate S, V),
    (T, V bound -> S), (T, S bound -> V); all but the second are
    functional and run in O(|T|) with no enumeration.
    """

    name = "add"
    arity = 3
    patterns = frozenset(
        {
            (True, True, False),
            (False, False, True),
        }
    )
    functional = frozenset(
        {(True, True, False), (True, False, True), (False, True, True)}
    )

    def _fast_path(self, mask: tuple[bool, ...]) -> Solver | None:
        if mask == (True, True, False):

            def grow(slots: Slots) -> list[tuple]:
                s, v, _ = slots
                return [] if v in s else [(s, v, frozenset(s) | {v})]

            return grow
        if mask == (True, False, True):

            def difference(slots: Slots) -> list[tuple]:
                s, _, t = slots
                if type(s) is not frozenset or type(t) is not frozenset:
                    return list(self.evaluate(slots))
                if len(t) != len(s) + 1 or not s < t:
                    return []
                (v,) = t - s
                return [(s, v, t)]

            return difference
        if mask == (False, True, True):

            def remove(slots: Slots) -> list[tuple]:
                _, v, t = slots
                if type(t) is not frozenset:
                    return list(self.evaluate(slots))
                return [(t - {v}, v, t)] if v in t else []

            return remove
        return None

    def id_kernel(self, mask: tuple[bool, ...]) -> IdKernel | None:
        if mask == (True, True, False):

            def grow(key: tuple, interner: Interner) -> tuple | None:
                s, v = key
                bits = interner.set_bits(s)
                if bits is None:
                    return None
                bit = 1 << v
                if bits & bit:
                    return ()
                return ((interner.intern_set(bits | bit),),)

            return grow
        if mask == (True, False, True):

            def difference(key: tuple, interner: Interner) -> tuple | None:
                s, t = key
                s_bits, t_bits = interner.set_bits(s), interner.set_bits(t)
                if s_bits is None or t_bits is None:
                    return None
                new = t_bits & ~s_bits
                if s_bits & ~t_bits or not new or new & (new - 1):
                    return ()
                return ((new.bit_length() - 1,),)

            return difference
        if mask == (False, True, True):

            def remove(key: tuple, interner: Interner) -> tuple | None:
                v, t = key
                bits = interner.set_bits(t)
                if bits is None:
                    return None
                bit = 1 << v
                if not bits & bit:
                    return ()
                return ((interner.intern_set(bits ^ bit),),)

            return remove
        return None

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        s, v, t = slots
        if s is not UNBOUND and v is not UNBOUND:
            if v in s:
                return
            yield (s, v, frozenset(s) | {v})
            return
        if t is UNBOUND:
            raise ValueError("add/3 needs either (S,V) or T bound")
        for v_out in sorted(t, key=repr):
            yield (frozenset(t) - {v_out}, v_out, frozenset(t))


class Subset(Builtin):
    """``subset(S, T)``: S ⊆ T.  With S unbound, enumerates subsets of T."""

    name = "subset"
    arity = 2
    patterns = frozenset({(False, True)})

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        s, t = slots
        if s is not UNBOUND:
            if frozenset(s) <= frozenset(t):
                yield (s, t)
            return
        for sub in powerset(sorted(t, key=repr)):
            yield (frozenset(sub), t)


class PartitionTwo(Builtin):
    """``partition2(X, Y, Z)``: Y ⊎ Z = X (Y ∩ Z = ∅; Y ∪ Z = X).

    With only X bound, enumerates all 2-partitions.
    """

    name = "partition2"
    arity = 3
    patterns = frozenset(
        {(True, False, False), (True, True, False), (True, False, True)}
    )
    functional = frozenset({(True, True, False), (True, False, True)})

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        x, y, z = slots
        x = frozenset(x)
        if y is not UNBOUND:
            y = frozenset(y)
            if y <= x:
                yield (x, y, x - y)
            return
        if z is not UNBOUND:
            z = frozenset(z)
            if z <= x:
                yield (x, x - z, z)
            return
        for sub in powerset(sorted(x, key=repr)):
            y_out = frozenset(sub)
            yield (x, y_out, x - y_out)


class PartitionThree(Builtin):
    """``partition3(X, R, G, B)``: R, G, B partition X.

    The ``partition`` helper of the 3-Colorability program (Figure 5).
    With X and at least two parts bound the call is a check (the third
    part is X minus the other two), not an enumeration of 3^|X|
    assignments.
    """

    name = "partition3"
    arity = 4
    patterns = frozenset({(True, False, False, False)})
    functional = frozenset(
        {
            (True, True, True, False),
            (True, True, False, True),
            (True, False, True, True),
        }
    )

    def _fast_path(self, mask: tuple[bool, ...]) -> Solver | None:
        if not self.is_functional(mask):
            return None
        parts = tuple(i for i in (1, 2, 3) if mask[i])
        missing = next((i for i in (1, 2, 3) if not mask[i]), None)
        sets = (0, *parts)

        def check(slots: Slots) -> list[tuple]:
            for i in sets:
                if type(slots[i]) is not frozenset:
                    return list(self.evaluate(slots))
            x = slots[0]
            seen: frozenset = frozenset()
            for i in parts:
                part = slots[i]
                if part & seen or not part <= x:
                    return []
                seen |= part
            if missing is None:
                return [slots] if seen == x else []
            solution = list(slots)
            solution[missing] = x - seen
            return [tuple(solution)]

        return check

    def id_kernel(self, mask: tuple[bool, ...]) -> IdKernel | None:
        if mask != (True, True, True, False):
            return None

        def split(key: tuple, interner: Interner) -> tuple | None:
            x, r, g = map(interner.set_bits, key)
            if x is None or r is None or g is None:
                return None
            taken = r | g
            if r & g or taken & ~x:
                return ()
            return ((interner.intern_set(x & ~taken),),)

        return split

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        x = frozenset(slots[0])
        items = sorted(x, key=repr)
        def assignments(i: int, parts: tuple[frozenset, frozenset, frozenset]):
            if i == len(items):
                yield parts
                return
            for j in range(3):
                updated = tuple(
                    p | {items[i]} if k == j else p for k, p in enumerate(parts)
                )
                yield from assignments(i + 1, updated)

        empty = (frozenset(), frozenset(), frozenset())
        for r, g, b in assignments(0, empty):
            yield (x, r, g, b)


class OrderedInsert(Builtin):
    """``oinsert(C, V, C2)``: ordered set C2 arises by inserting V into C.

    Figure 6 writes ``Co ⊎ {b}`` for ordered sets: "b is arbitrarily
    inserted into Co, leaving the order of the remaining elements
    unchanged".  With (C, V) bound this *enumerates* the insertion
    positions; with C2 bound it recovers (C, V) by deleting each element.
    """

    name = "oinsert"
    arity = 3
    patterns = frozenset({(True, True, False), (False, False, True)})

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        c, v, c2 = slots
        if c is not UNBOUND and v is not UNBOUND:
            if v in c:
                return
            for inserted in interleavings(c, v):
                yield (c, v, inserted)
            return
        if c2 is UNBOUND:
            raise ValueError("oinsert/3 needs (C,V) or C2 bound")
        for i, v_out in enumerate(c2):
            yield (c2[:i] + c2[i + 1 :], v_out, c2)


class OrderedSubsets(Builtin):
    """``osubsets(X, C)``: C is an ordered arrangement of a subset of X.

    Enumerates every (subset, order) pair -- the leaf-rule "guess" of the
    ordered set Co in Figure 6.
    """

    name = "osubsets"
    arity = 2
    patterns = frozenset({(True, False)})

    def solutions(self, slots: Slots) -> Iterator[tuple]:
        from itertools import permutations

        x, c = slots
        if c is not UNBOUND:
            if len(set(c)) == len(c) and set(c) <= set(x):
                yield (x, c)
            return
        for sub in powerset(sorted(frozenset(x), key=repr)):
            for arrangement in permutations(sub):
                yield (x, arrangement)


class BuiltinCall:
    """One built-in body literal, compiled for its binding pattern: the
    kernel the set engine and the grounder share.

    The literal's positions are classified once -- ``consts`` as
    ``(pos, raw value)``, ``bound`` and ``free`` as ``(pos, variable)``,
    ``dups`` as ``(pos, first pos)`` for a repeated free variable -- and
    the mask they spell is checked once, by :meth:`Builtin.compile`.

    Rows arrive as interned ids.  A row's bound ids form its memo key.
    On a miss the built-in's id kernel for the mask, if it has one,
    solves the row in ids; otherwise, or if an argument is not a bitset
    set, the ids are decoded, the compiled solver runs and the outputs
    at the unbound positions are interned.  ``memo`` is one dict
    per evaluation, shared by every call of the same built-in and mask:
    the purity contract of :class:`Builtin` makes the key sound, and an
    id stands for one value because the interner belongs to the
    database being evaluated.
    """

    __slots__ = (
        "_arity", "_solve", "_kernel", "_key", "_inputs", "_outs", "_picks",
        "_same",
    )

    def __init__(self, builtin: Builtin, consts, bound, free, dups):
        self._arity = builtin.arity
        mask = [False] * builtin.arity
        for pos, _ in (*consts, *bound):
            mask[pos] = True
        mask = tuple(mask)
        self._solve = builtin.compile(mask)
        self._kernel = builtin.id_kernel(mask)
        self._key = (builtin, mask)
        #: the key sources in position order: (pos, is_variable, value)
        self._inputs = tuple(
            sorted(
                [(pos, False, value) for pos, value in consts]
                + [(pos, True, var) for pos, var in bound],
                key=lambda item: item[0],
            )
        )
        self._outs = tuple(i for i, b in enumerate(mask) if not b)
        slot = {pos: k for k, pos in enumerate(self._outs)}
        #: (variable, index into a memoized output tuple)
        self._picks = tuple((var, slot[pos]) for pos, var in free)
        self._same = tuple((slot[pos], slot[first]) for pos, first in dups)

    def _table(self, memo: dict) -> dict:
        table = memo.get(self._key)
        if table is None:
            table = memo[self._key] = {}
        return table

    def _keys(self, columns, length: int, intern):
        sources = [
            columns[value] if is_var else repeat(intern(value), length)
            for _, is_var, value in self._inputs
        ]
        return zip(*sources) if sources else repeat((), length)

    def _miss(self, key: tuple, interner) -> tuple[tuple[int, ...], ...]:
        if self._kernel is not None:
            found = self._kernel(key, interner)
            if found is not None:
                return found
        slots = [UNBOUND] * self._arity
        for (pos, _, _), value in zip(self._inputs, map(interner.value_of, key)):
            slots[pos] = value
        intern = interner.intern
        outs = self._outs
        return tuple(
            [
                tuple(map(intern, map(solution.__getitem__, outs)))
                for solution in self._solve(tuple(slots))
            ]
        )

    def _lookup(self, columns, length: int, interner, memo: dict) -> list:
        """Per row, the memoized solutions: a tuple of output-id tuples
        (one per solution).  Only the keys missing from the memo run
        the solver."""
        table = self._table(memo)
        keys = list(self._keys(columns, length, interner.intern))
        for key in set(keys).difference(table):
            table[key] = self._miss(key, interner)
        return list(map(table.__getitem__, keys))

    def join(self, columns: dict, length: int, live, interner, memo: dict):
        """Extend a columnar batch (variable -> id list) by the call's
        solutions; returns ``(columns, length)``.  Input columns outside
        ``live`` are dropped (``None`` keeps them all); the others are
        gathered by :func:`gather_columns`, so the input lists are
        never mutated."""
        found = self._lookup(columns, length, interner, memo)
        same = self._same
        if same:
            found = [
                [out for out in outs if all(out[i] == out[j] for i, j in same)]
                for outs in found
            ]
        hits = list(chain.from_iterable(found))
        out_columns = gather_columns(
            columns, live, list(map(len, found)), len(hits)
        )
        for var, k in self._picks:
            if live is None or var in live:
                out_columns[var] = list(map(itemgetter(k), hits))
        return out_columns, len(hits)

    def holds(
        self, columns: dict, length: int, interner, memo: dict
    ) -> list[bool]:
        """Per row, whether the fully bound call has a solution (the
        negated-built-in test)."""
        return list(map(bool, self._lookup(columns, length, interner, memo)))


def gather_columns(columns: dict, live, counts: list[int], total: int) -> dict:
    """The carried columns of a step in which input row ``r`` yields
    ``counts[r]`` output rows, ``total`` in all; columns outside
    ``live`` are dropped (``None`` keeps them all).

    Every column is built at C speed, by the cheapest of three shapes:
    when each row yields exactly one row the input lists are passed
    through as they are; when each yields at most one they are
    compressed; otherwise they are gathered by the repeated row
    indices.  No input list is ever mutated: a passed-through list is
    shared with the input batch, which may feed several prefix groups.
    The returned dict is new, so the caller may add its own columns."""
    carried = [
        (v, col) for v, col in columns.items() if live is None or v in live
    ]
    n = len(counts)
    if total == n and 0 not in counts:
        return dict(carried)
    if not carried:
        return {}
    if not total:
        return {v: [] for v, _ in carried}
    if max(counts) == 1:
        return {v: list(compress(col, counts)) for v, col in carried}
    rows = list(chain.from_iterable(map(repeat, range(n), counts)))
    return {v: list(map(col.__getitem__, rows)) for v, col in carried}


def make_check(name: str, arity: int, test: Callable[..., bool]) -> Builtin:
    """A fully-bound boolean test built-in."""
    return _CheckBuiltin(name, arity, test)


def make_function(name: str, arity: int, fn: Callable[..., Hashable]) -> Builtin:
    """A built-in computing its last argument from the others."""
    return _FunctionBuiltin(name, arity, fn)


class BuiltinRegistry:
    """Name -> Builtin lookup handed to the evaluator."""

    def __init__(self, builtins: Iterable[Builtin] = ()):
        self._by_name: dict[str, Builtin] = {}
        for builtin in builtins:
            self.register(builtin)

    def register(self, builtin: Builtin) -> None:
        if builtin.name in self._by_name:
            raise ValueError(f"built-in {builtin.name} already registered")
        self._by_name[builtin.name] = builtin

    def get(self, name: str) -> Builtin:
        return self._by_name[name]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def names(self) -> frozenset[str]:
        return frozenset(self._by_name)


def standard_registry() -> BuiltinRegistry:
    """The stock of built-ins shared by the Section 5 programs."""
    registry = BuiltinRegistry(
        [
            AddElement(),
            Subset(),
            PartitionTwo(),
            PartitionThree(),
            OrderedInsert(),
            OrderedSubsets(),
            make_check("eq", 2, lambda a, b: a == b),
            make_check("neq", 2, lambda a, b: a != b),
            make_check("lt", 2, lambda a, b: a < b),
            make_check("le", 2, lambda a, b: a <= b),
            make_check("member", 2, lambda v, s: v in s),
            make_check("not_member", 2, lambda v, s: v not in s),
            make_check("subseteq", 2, lambda s, t: frozenset(s) <= frozenset(t)),
            make_check("disjoint", 2, lambda s, t: not (frozenset(s) & frozenset(t))),
            make_check("empty", 1, lambda s: not s),
            make_function("union", 3, lambda a, b: frozenset(a) | frozenset(b)),
            make_function("intersection", 3, lambda a, b: frozenset(a) & frozenset(b)),
            make_function("setminus", 3, lambda a, b: frozenset(a) - frozenset(b)),
            make_function("oset_to_set", 2, lambda c: frozenset(c)),
        ]
    )
    return registry
