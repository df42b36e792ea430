"""The built-in kernel: ``Builtin.compile`` and :class:`BuiltinCall`.

``Builtin.evaluate`` is the reference semantics.  For every built-in of
the standard registry and every binding mask it accepts, the compiled
solver must return exactly the solutions ``evaluate`` yields, in the
same order; the id-level kernel must return the same solutions after
decoding, memoized or not, on frozenset values and on sets interned as
bitsets alike.  Unsupported masks raise when the step is compiled.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import UNBOUND, Interner, atom, pos, rule, standard_registry, var
from repro.datalog.builtins import BuiltinCall
from repro.datalog.interning import bitset_of
from repro.datalog.evaluate import PlanStep, compile_plan

REGISTRY = standard_registry()
NAMES = sorted(REGISTRY.names())

ints = st.integers(min_value=0, max_value=3)
sets = st.frozensets(ints, max_size=4)
osets = st.lists(ints, max_size=3, unique=True).map(tuple)
values = st.one_of(ints, sets, osets)


def accepted_masks(builtin):
    return [
        mask
        for mask in product((False, True), repeat=builtin.arity)
        if builtin.can_evaluate(mask)
    ]


def outcome(run):
    """The solutions as a list, or the exception type raised."""
    try:
        return list(run())
    except Exception as error:  # noqa: BLE001 - compared by type
        return type(error)


def slots_for(mask, drawn):
    return tuple(v if b else UNBOUND for b, v in zip(mask, drawn))


class TestCompiledMatchesEvaluate:
    @settings(max_examples=300)
    @given(name=st.sampled_from(NAMES), data=st.data())
    def test_every_builtin_and_mask(self, name, data):
        builtin = REGISTRY.get(name)
        mask = data.draw(st.sampled_from(accepted_masks(builtin)), label="mask")
        drawn = data.draw(
            st.tuples(*[values] * builtin.arity), label="arguments"
        )
        slots = slots_for(mask, drawn)
        solve = builtin.compile(mask)
        assert outcome(lambda: solve(slots)) == outcome(
            lambda: builtin.evaluate(slots)
        )

    @settings(max_examples=200)
    @given(
        t=sets,
        cut=st.frozensets(ints, max_size=3),
        extra=st.frozensets(st.integers(4, 6), max_size=1),
    )
    def test_add_with_s_and_t_bound(self, t, cut, extra):
        # S = T - cut + extra spans S ⊂ T with |T - S| = 1, |T - S| ≠ 1
        # and S ⊄ T
        builtin = REGISTRY.get("add")
        s = (t - cut) | extra
        slots = (s, UNBOUND, t)
        got = builtin.compile((True, False, True))(slots)
        assert got == list(builtin.evaluate(slots))
        assert len(got) == (1 if s < t and len(t - s) == 1 else 0)

    @settings(max_examples=200)
    @given(
        x=sets,
        parts=st.tuples(sets, sets, sets),
        mask=st.sampled_from(
            [m for m in product((False, True), repeat=3) if sum(m) >= 2]
        ),
    )
    def test_partition3_with_parts_bound(self, x, parts, mask):
        builtin = REGISTRY.get("partition3")
        full = (True,) + mask
        slots = slots_for(full, (x,) + parts)
        got = builtin.compile(full)(slots)
        assert got == list(builtin.evaluate(slots))
        assert builtin.is_functional(full) and len(got) <= 1

    @pytest.mark.parametrize(
        "s, t",
        [
            (frozenset({1}), frozenset({2, 3})),  # S ⊄ T
            (frozenset({1}), frozenset({1, 2, 3})),  # |T - S| = 2
            (frozenset({1, 2}), frozenset({1, 2})),  # |T - S| = 0
            (frozenset({1}), frozenset({1, 2})),  # the one solution
        ],
    )
    def test_add_cases(self, s, t):
        builtin = REGISTRY.get("add")
        slots = (s, UNBOUND, t)
        assert builtin.compile((True, False, True))(slots) == list(
            builtin.evaluate(slots)
        )

    @pytest.mark.parametrize(
        "parts",
        [
            (frozenset({1}), frozenset({1, 2}), frozenset()),  # overlap
            (frozenset({1}), frozenset({2}), frozenset()),  # not covering
            (frozenset({1}), frozenset({2}), frozenset({3, 4})),  # outside X
            (frozenset({1}), frozenset({2}), frozenset({3})),  # a partition
        ],
    )
    def test_partition3_cases(self, parts):
        builtin = REGISTRY.get("partition3")
        x = frozenset({1, 2, 3})
        for mask in ((True,) * 4, (True, True, False, True)):
            slots = slots_for(mask, (x,) + parts)
            assert builtin.compile(mask)(slots) == list(
                builtin.evaluate(slots)
            )

    @settings(max_examples=200)
    @given(name=st.sampled_from(NAMES), data=st.data())
    def test_functional_masks_have_at_most_one_solution(self, name, data):
        builtin = REGISTRY.get(name)
        masks = [m for m in accepted_masks(builtin) if builtin.is_functional(m)]
        if not masks:
            return
        mask = data.draw(st.sampled_from(masks), label="mask")
        drawn = data.draw(st.tuples(*[values] * builtin.arity))
        got = outcome(lambda: builtin.compile(mask)(slots_for(mask, drawn)))
        assert not isinstance(got, list) or len(got) <= 1


class TestBuiltinCall:
    """The id-level kernel over a columnar batch."""

    @settings(max_examples=150)
    @given(name=st.sampled_from(NAMES), data=st.data())
    def test_join_decodes_to_evaluate(self, name, data):
        builtin = REGISTRY.get(name)
        mask = data.draw(st.sampled_from(accepted_masks(builtin)), label="mask")
        rows = data.draw(
            st.lists(st.tuples(*[values] * builtin.arity), max_size=4),
            label="rows",
        )
        variables = [var(f"A{i}") for i in range(builtin.arity)]
        bound = [(i, variables[i]) for i in range(builtin.arity) if mask[i]]
        free = [(i, variables[i]) for i in range(builtin.arity) if not mask[i]]
        interner = Interner()
        columns = {
            v: [interner.intern(row[i]) for row in rows] for i, v in bound
        }
        try:
            want = [
                (r, solution)
                for r, row in enumerate(rows)
                for solution in builtin.evaluate(slots_for(mask, row))
            ]
        except Exception:  # noqa: BLE001 - ill-typed rows are not the point
            return
        call = BuiltinCall(builtin, (), bound, free, ())
        memo: dict = {}
        for _ in range(2):  # the second pass is served from the memo
            out, count = call.join(columns, len(rows), None, interner, memo)
            assert count == len(want)
            for k, (r, solution) in enumerate(want):
                for i, v in bound:
                    assert out[v][k] == columns[v][r]
                for i, v in free:
                    assert interner.value_of(out[v][k]) == solution[i]
        assert sum(len(table) for table in memo.values()) == len(
            {tuple(columns[v][r] for _, v in bound) for r in range(len(rows))}
        )

    def test_constants_and_repeated_variables(self):
        # partition2(X, Y, Y): the repeated free variable must agree,
        # which only the empty split of the empty set does
        builtin = REGISTRY.get("partition2")
        interner = Interner()
        y = var("Y")
        for x, want in ((frozenset({1}), []), (frozenset(), [frozenset()])):
            call = BuiltinCall(builtin, [(0, x)], [], [(1, y)], [(2, 1)])
            out, count = call.join({}, 1, None, interner, {})
            assert count == len(want)
            assert [interner.value_of(i) for i in out[y]] == want
        # union(A, B, C) with C projected away keeps only live columns
        union = REGISTRY.get("union")
        a, b, c = var("A"), var("B"), var("C")
        columns = {
            a: [interner.intern(frozenset({1}))],
            b: [interner.intern(frozenset({2}))],
        }
        call = BuiltinCall(union, [], [(0, a), (1, b)], [(2, c)], [])
        out, count = call.join(columns, 1, frozenset({c}), interner, {})
        assert count == 1 and set(out) == {c}
        assert interner.value_of(out[c][0]) == frozenset({1, 2})

    def test_holds(self):
        member = REGISTRY.get("member")
        interner = Interner()
        v, s = var("V"), var("S")
        columns = {
            v: [interner.intern(1), interner.intern(2)],
            s: [interner.intern(frozenset({1}))] * 2,
        }
        call = BuiltinCall(member, [], [(0, v), (1, s)], [], [])
        assert call.holds(columns, 2, interner, {}) == [True, False]


#: elements of awkward types: a set is a bitset because it was interned
#: as one, never because of its shape, and ``frozenset()`` is both an
#: element and the empty set
ELEMENTS = (0, -1, "a", (), (0,), frozenset())
#: the built-ins and masks with id kernels, and which positions hold sets
KERNELS = [
    ("add", (True, True, False), (0, 2)),
    ("add", (True, False, True), (0, 2)),
    ("add", (False, True, True), (0, 2)),
    ("partition3", (True, True, True, False), (0, 1, 2, 3)),
]

subsets = st.frozensets(st.sampled_from(ELEMENTS), max_size=4)
at_most_one = st.frozensets(st.sampled_from(ELEMENTS), max_size=1)


@st.composite
def kernel_rows(draw, arity, set_positions):
    """A row of values plus, per set position, whether that set is
    interned as a bitset; the sets are drawn around one base set so
    that members, subsets and single-element differences are common."""
    base = sorted(draw(subsets), key=repr)
    row, as_bits = [], []
    for i in range(arity):
        if i in set_positions:
            kept = draw(st.sets(st.sampled_from(base))) if base else set()
            row.append(frozenset(kept) | draw(at_most_one))
            as_bits.append(draw(st.sampled_from((True, True, True, False))))
        else:
            row.append(draw(st.sampled_from(ELEMENTS)))
            as_bits.append(False)
    return tuple(row), tuple(as_bits)


def intern_row(interner, row, as_bits):
    """The row's ids, each set in ``as_bits`` interned as a bitset."""
    return tuple(
        interner.intern_set(bitset_of(map(interner.intern, value)))
        if bits
        else interner.intern(value)
        for value, bits in zip(row, as_bits)
    )


class TestIdKernels:
    """``add`` and ``partition3`` solve bitset sets in ids; decoded,
    their solutions are ``Builtin.evaluate``'s."""

    def test_only_figure5_masks_have_kernels(self):
        with_kernel = {
            (name, mask)
            for name in NAMES
            for mask in accepted_masks(REGISTRY.get(name))
            if REGISTRY.get(name).id_kernel(mask) is not None
        }
        assert with_kernel == {(name, mask) for name, mask, _ in KERNELS}

    @settings(max_examples=300)
    @given(kernel=st.sampled_from(KERNELS), data=st.data())
    def test_join_decodes_to_evaluate(self, kernel, data):
        name, mask, set_positions = kernel
        builtin = REGISTRY.get(name)
        rows = data.draw(
            st.lists(kernel_rows(builtin.arity, set_positions), max_size=5),
            label="rows",
        )
        interner = Interner(ELEMENTS)
        ids = [intern_row(interner, row, as_bits) for row, as_bits in rows]
        variables = [var(f"A{i}") for i in range(builtin.arity)]
        bound = [(i, variables[i]) for i in range(builtin.arity) if mask[i]]
        free = [(i, variables[i]) for i in range(builtin.arity) if not mask[i]]
        columns = {v: [row[i] for row in ids] for i, v in bound}
        want = [
            (r, solution)
            for r, (row, _) in enumerate(rows)
            for solution in builtin.evaluate(slots_for(mask, row))
        ]
        call = BuiltinCall(builtin, (), bound, free, ())
        memo: dict = {}
        for _ in range(2):  # the second pass is served from the memo
            out, count = call.join(columns, len(rows), None, interner, memo)
            assert count == len(want)
            for k, (r, solution) in enumerate(want):
                for i, v in bound:
                    assert out[v][k] == columns[v][r]
                for i, v in free:
                    assert interner.value_of(out[v][k]) == solution[i]
        # every row whose bound sets are all bitsets is solved in ids
        solve = builtin.id_kernel(mask)
        for row in ids:
            key = tuple(row[i] for i, _ in bound)
            in_ids = all(
                interner.set_bits(row[i]) is not None
                for i, _ in bound
                if i in set_positions
            )
            assert (solve(key, interner) is not None) == in_ids

    @pytest.mark.parametrize(
        "name, mask, row",
        [
            # V ∈ S: no T
            ("add", (True, True, False), (frozenset({0, "a"}), 0, None)),
            ("add", (True, True, False), (frozenset(), frozenset(), None)),
            # S ⊄ T, |T - S| = 2, |T - S| = 0, the one solution
            ("add", (True, False, True),
             (frozenset({-1}), None, frozenset({0}))),
            ("add", (True, False, True),
             (frozenset(), None, frozenset({0, ()}))),
            ("add", (True, False, True),
             (frozenset({0}), None, frozenset({0}))),
            ("add", (True, False, True),
             (frozenset({0}), None, frozenset({0, ()}))),
            # V ∉ T, V ∈ T
            ("add", (False, True, True), (None, "a", frozenset({0}))),
            ("add", (False, True, True), (None, (), frozenset({(), (0,)}))),
            # R, G overlap; R ∪ G ⊄ X; empty sets; a partition
            ("partition3", (True, True, True, False),
             (frozenset({0, -1}), frozenset({0}), frozenset({0}), None)),
            ("partition3", (True, True, True, False),
             (frozenset({0}), frozenset({0}), frozenset({"a"}), None)),
            ("partition3", (True, True, True, False),
             (frozenset(), frozenset(), frozenset(), None)),
            ("partition3", (True, True, True, False),
             (frozenset({0, (), "a"}), frozenset({()}), frozenset(), None)),
        ],
    )
    def test_cases(self, name, mask, row):
        builtin = REGISTRY.get(name)
        interner = Interner(ELEMENTS)
        (set_positions,) = [p for n, m, p in KERNELS if (n, m) == (name, mask)]
        bound = [i for i in range(len(row)) if mask[i]]
        ids = intern_row(
            interner,
            [row[i] for i in bound],
            [i in set_positions for i in bound],
        )
        key = tuple(ids)
        found = builtin.id_kernel(mask)(key, interner)
        outs = [i for i, b in enumerate(mask) if not b]
        want = [
            tuple(solution[i] for i in outs)
            for solution in builtin.evaluate(slots_for(mask, row))
        ]
        assert [tuple(map(interner.value_of, ids)) for ids in found] == want

    @pytest.mark.parametrize("name, mask, set_positions", KERNELS)
    def test_a_frozenset_argument_takes_the_value_path(
        self, name, mask, set_positions
    ):
        """A row mixing bitset and plain frozenset sets falls back to
        the value path and still decodes to ``evaluate``."""
        builtin = REGISTRY.get(name)
        interner = Interner(ELEMENTS)
        row = {
            "add": (frozenset({0}), "a", frozenset({0, "a"})),
            "partition3": (
                frozenset({0, "a", ()}), frozenset({0}), frozenset({"a"}),
                frozenset({()}),
            ),
        }[name]
        plain = [i for i in set_positions if mask[i]][-1]
        as_bits = [i in set_positions and i != plain for i in range(len(row))]
        ids = intern_row(interner, row, as_bits)
        assert interner.set_bits(ids[plain]) is None
        bound = [(i, var(f"A{i}")) for i in range(len(row)) if mask[i]]
        free = [(i, var(f"A{i}")) for i in range(len(row)) if not mask[i]]
        key = tuple(ids[i] for i, _ in bound)
        assert builtin.id_kernel(mask)(key, interner) is None
        call = BuiltinCall(builtin, (), bound, free, ())
        columns = {v: [ids[i]] for i, v in bound}
        out, count = call.join(columns, 1, None, interner, {})
        want = list(builtin.evaluate(slots_for(mask, row)))
        assert count == len(want) == 1
        for i, v in free:
            assert interner.value_of(out[v][0]) == want[0][i]


class TestUnsupportedMask:
    def test_compile_raises(self):
        with pytest.raises(ValueError, match="cannot run"):
            REGISTRY.get("add").compile((True, False, False))
        with pytest.raises(ValueError, match="cannot run"):
            REGISTRY.get("member").compile((True, False))
        with pytest.raises(ValueError):
            REGISTRY.get("add").compile((True, True))

    def test_step_compilation_raises(self):
        # a hand-made plan running add(S, V, T) with only S bound: the
        # mask is rejected when the plan is compiled, before any row
        S, V, T = var("S"), var("V"), var("T")
        r = rule(atom("q", T), pos("p", S), pos("add", S, V, T))
        plan = (
            PlanStep(r.body[0], 0, "relation"),
            PlanStep(r.body[1], 1, "builtin"),
        )
        with pytest.raises(ValueError, match="cannot run"):
            compile_plan(r, plan, REGISTRY, frozenset({"q"}))
