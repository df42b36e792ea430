"""Tests for the linear-time propositional Horn solver (LTUR)."""

from hypothesis import given, strategies as st

from repro.datalog import (
    Atom,
    Database,
    Literal,
    Program,
    Rule,
    StreamingHorn,
    solve,
)


def least_model(rules):
    """The least model of ``(head, body)`` rules over hashable atoms:
    the atoms interned to dense ids, the whole list fed to the online
    LTUR."""
    ids: dict = {}

    def intern(atom):
        return ids.setdefault(atom, len(ids))

    sink = StreamingHorn()
    for head, body in rules:
        sink.add_rule(intern(head), tuple(map(intern, body)))
    return {atom for atom, ident in ids.items() if sink.is_derived(ident)}


class TestLeastModel:
    def test_facts_only(self):
        assert least_model([("a", ()), ("b", ())]) == {"a", "b"}

    def test_chain(self):
        rules = [("a", ())] + [
            (chr(ord("a") + i + 1), (chr(ord("a") + i),)) for i in range(5)
        ]
        assert least_model(rules) == set("abcdef")

    def test_conjunction_waits_for_all(self):
        rules = [("c", ("a", "b")), ("a", ())]
        assert least_model(rules) == {"a"}
        rules.append(("b", ()))
        assert least_model(rules) == {"a", "b", "c"}

    def test_cycle_not_self_supporting(self):
        assert least_model([("a", ("b",)), ("b", ("a",))]) == set()

    def test_duplicate_body_atoms(self):
        rules = [("b", ("a", "a")), ("a", ())]
        assert least_model(rules) == {"a", "b"}

    def test_empty(self):
        assert least_model([]) == set()

    def test_entails(self):
        sink = StreamingHorn()
        sink.add_rule(0)
        sink.add_rule(1, (0,))
        assert sink.is_derived(1)
        assert not sink.is_derived(2)


def naive_least_model(rules):
    derived = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in derived and all(b in derived for b in body):
                derived.add(head)
                changed = True
    return derived


@given(
    st.lists(
        st.tuples(
            st.integers(0, 8),
            st.lists(st.integers(0, 8), max_size=3).map(tuple),
        ),
        max_size=25,
    )
)
def test_ltur_equals_naive_fixpoint(rules):
    assert least_model(rules) == naive_least_model(rules)


def semi_naive_flags(rules, atom_count):
    """The least model of id rules by the semi-naive set engine, as a
    0/1 array: atom i is the nullary predicate ``a<i>``, and every rule
    body also holds the extensional fact ``base`` so facts are rules."""
    base = Literal(Atom("base", ()))
    program = Program(
        [
            Rule(
                Atom(f"a{head}", ()),
                (base, *(Literal(Atom(f"a{b}", ())) for b in body)),
            )
            for head, body in rules
        ]
    )
    db = Database()
    db.add("base", ())
    model = solve(program, db, backend="semi-naive")
    return bytes(
        1 if model.relation(f"a{i}") else 0 for i in range(atom_count)
    )


_ID_RULES = st.lists(
    st.tuples(
        st.integers(0, 8),
        st.lists(st.integers(0, 8), max_size=3).map(tuple),
    ),
    max_size=25,
)


class TestStreamingHorn:
    """The online LTUR: one rule at a time, same least model."""

    @given(rules=_ID_RULES)
    def test_streaming_matches_batch(self, rules):
        """The online LTUR and the semi-naive engine run on the whole
        rule list agree."""
        sink = StreamingHorn()
        for head, body in rules:
            sink.add_rule(head, body)
        assert bytes(sink.flags(9)) == semi_naive_flags(rules, 9)

    @given(rules=_ID_RULES)
    def test_order_of_arrival_is_irrelevant(self, rules):
        forward = StreamingHorn()
        for head, body in rules:
            forward.add_rule(head, body)
        backward = StreamingHorn()
        for head, body in reversed(rules):
            backward.add_rule(head, body)
        assert bytes(forward.flags(9)) == bytes(backward.flags(9))

    def test_satisfied_rules_are_never_stored(self):
        sink = StreamingHorn()
        sink.add_rule(0)  # fact
        sink.add_rule(1, (0,))  # body already satisfied: fires, not stored
        assert sink.is_derived(1)
        assert sink.live_rules == 0
        assert sink.peak_live_rules == 0

    def test_rules_with_derived_heads_are_dropped(self):
        sink = StreamingHorn()
        sink.add_rule(0)
        sink.add_rule(0, (7,))  # head already derived: dropped outright
        assert sink.rules_dropped == 1
        assert sink.live_rules == 0
        assert not sink.is_derived(7)

    def test_parked_rules_evicted_when_head_derives_elsewhere(self):
        sink = StreamingHorn()
        sink.add_rule(5, (9,))  # parks waiting on 9
        assert sink.live_rules == 1
        sink.add_rule(5, ())  # 5 derives through another rule
        # the parked rule can no longer contribute: evicted
        assert sink.live_rules == 0
        assert sink.rules_dropped == 1
        sink.add_rule(9)  # its body atom deriving later changes nothing
        assert sink.live_rules == 0
        assert sink.is_derived(5) and sink.is_derived(9)

    def test_waiting_frontier_peaks_and_drains(self):
        # a chain fed top-down: every rule waits until the final fact
        # arrives, then the whole frontier fires at once
        sink = StreamingHorn()
        n = 6
        for i in range(n):
            sink.add_rule(i, (i + 1,))
        assert sink.live_rules == n
        assert sink.peak_live_rules == n
        sink.add_rule(n)  # the fact at the bottom
        assert sink.live_rules == 0
        assert sink.peak_live_rules == n
        assert all(sink.is_derived(i) for i in range(n + 1))

    def test_take_fresh_yields_each_derivation_once(self):
        sink = StreamingHorn()
        sink.add_rule(2, (0, 1))
        sink.add_rule(0)
        assert sink.take_fresh() == [0]
        assert sink.take_fresh() == []
        sink.add_rule(1)
        fresh = sink.take_fresh()
        assert set(fresh) == {1, 2}
        assert sink.take_fresh() == []
        assert sink.derived_count == 3

    def test_duplicate_body_atoms_count_once(self):
        sink = StreamingHorn()
        sink.add_rule(1, (0, 0))
        sink.add_rule(0)
        assert sink.is_derived(1)

    def test_cycle_is_not_self_supporting(self):
        sink = StreamingHorn()
        sink.add_rule(0, (1,))
        sink.add_rule(1, (0,))
        assert not sink.is_derived(0)
        assert not sink.is_derived(1)

    def test_flags_pads_and_truncates(self):
        sink = StreamingHorn()
        sink.add_rule(2)
        assert bytes(sink.flags(1)) == bytes([0])
        assert bytes(sink.flags(5)) == bytes([0, 0, 1, 0, 0])
