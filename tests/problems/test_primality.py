"""Cross-validation of the PRIMALITY algorithms (Sections 5.2, 5.3)."""

import random

import pytest
from hypothesis import given, settings

from repro.problems import (
    PrimalityAlgebra,
    PrimalityDatalog,
    encode_for_primality,
    enumeration_program,
    prepare_decision_decomposition,
    prepare_enumeration_decomposition,
    primality_direct,
    primality_program,
    prime_attributes_datalog,
    prime_attributes_direct,
    prime_attributes_rerooting,
    random_schema,
)
from repro.datalog import SetDatabase
from repro.structures import RelationalSchema, running_example

from ..conftest import small_schemas


class TestRunningExample:
    """Example 2.1 / 2.6: primes are a, b, c, d."""

    def test_decision_direct(self):
        s = running_example()
        for a in "abcd":
            assert primality_direct(s, a)
        for a in "eg":
            assert not primality_direct(s, a)

    def test_enumeration_direct(self):
        assert prime_attributes_direct(running_example()) == frozenset("abcd")

    def test_rerooting_baseline(self):
        assert prime_attributes_rerooting(running_example()) == frozenset("abcd")

    def test_decision_datalog(self):
        s = running_example()
        solver = PrimalityDatalog(s)
        assert solver.decide("a")
        assert not solver.decide("e")

    def test_enumeration_datalog(self):
        assert prime_attributes_datalog(running_example()) == frozenset("abcd")

    def test_unknown_attribute_raises(self):
        with pytest.raises(ValueError):
            primality_direct(running_example(), "zz")


class TestEdgeCaseSchemas:
    def test_no_fds_everything_prime(self):
        s = RelationalSchema.parse("R = abc;")
        assert prime_attributes_direct(s) == frozenset("abc")

    def test_single_attribute(self):
        s = RelationalSchema.parse("R = a;")
        assert prime_attributes_direct(s) == frozenset("a")

    def test_cyclic_fds(self):
        s = RelationalSchema.parse("R = ab; a -> b, b -> a")
        assert prime_attributes_direct(s) == frozenset("ab")
        assert primality_direct(s, "a") and primality_direct(s, "b")

    def test_chain(self):
        s = RelationalSchema.parse("R = abcd; a -> b, b -> c, c -> d")
        assert prime_attributes_direct(s) == frozenset("a")

    def test_everything_determined_by_pair(self):
        s = RelationalSchema.parse("R = abc; ab -> c, c -> a, c -> b")
        want = s.prime_attributes_bruteforce()
        assert prime_attributes_direct(s) == want


class TestAgainstBruteforce:
    @given(small_schemas(max_attrs=6, max_fds=5))
    @settings(max_examples=30, deadline=None)
    def test_enumeration_direct(self, schema):
        assert prime_attributes_direct(schema) == (
            schema.prime_attributes_bruteforce()
        )

    @given(small_schemas(max_attrs=5, max_fds=4))
    @settings(max_examples=15, deadline=None)
    def test_decision_direct(self, schema):
        want = schema.prime_attributes_bruteforce()
        got = {a for a in schema.attributes if primality_direct(schema, a)}
        assert got == set(want)

    @given(small_schemas(max_attrs=4, max_fds=3))
    @settings(max_examples=8, deadline=None)
    def test_datalog_agrees(self, schema):
        want = schema.prime_attributes_bruteforce()
        assert prime_attributes_datalog(schema) == want

    @given(small_schemas(max_attrs=4, max_fds=3))
    @settings(max_examples=8, deadline=None)
    def test_decision_datalog_agrees(self, schema):
        solver = PrimalityDatalog(schema)
        got = {a for a in schema.attributes if solver.decide(a)}
        assert got == set(schema.prime_attributes_bruteforce())

    @given(small_schemas(max_attrs=5, max_fds=4))
    @settings(max_examples=8, deadline=None)
    def test_rerooting_agrees(self, schema):
        assert prime_attributes_rerooting(schema) == (
            schema.prime_attributes_bruteforce()
        )


class TestAlgebra:
    """Unit tests for the Property B helper predicates."""

    def test_outside(self):
        s = running_example()
        algebra = PrimalityAlgebra(s)
        # f1: ab -> c.  With Y = {a}, At = {a, b, c}: b witnesses lhs ⊄ Y.
        assert algebra.outside(
            frozenset("a"), frozenset("abc"), ["f1"]
        ) == frozenset({"f1"})
        # rhs in Y: no threat recorded
        assert algebra.outside(
            frozenset("c"), frozenset("abc"), ["f1"]
        ) == frozenset()
        # lhs fully inside Y: cannot be excused
        assert algebra.outside(
            frozenset("ab"), frozenset("abc"), ["f1"]
        ) == frozenset()

    def test_consistent_requires_rhs_in_co(self):
        algebra = PrimalityAlgebra(running_example())
        assert not algebra.consistent(["f1"], ("a", "b"))  # c missing
        assert algebra.consistent(["f1"], ("a", "b", "c"))

    def test_consistent_ordering(self):
        algebra = PrimalityAlgebra(running_example())
        # f2: c -> b -- requires c before b in the derivation order
        assert algebra.consistent(["f2"], ("c", "b"))
        assert not algebra.consistent(["f2"], ("b", "c"))

    def test_unique(self):
        algebra = PrimalityAlgebra(running_example())
        assert algebra.unique(frozenset("c"), frozenset("c"), ["f1"])
        assert not algebra.unique(frozenset("c"), frozenset("c"), [])
        assert algebra.unique(frozenset("b"), frozenset("c"), [])

    def test_rhs_set_and_outside_all(self):
        algebra = PrimalityAlgebra(running_example())
        assert algebra.rhs_set(["f1", "f2"]) == frozenset("cb")
        assert algebra.outside_all(frozenset("c"), ["f1", "f2"]) == frozenset(
            {"f2"}
        )

    def test_leaf_states_satisfy_property_b(self):
        algebra = PrimalityAlgebra(running_example())
        at, fds = frozenset("abc"), frozenset({"f1"})
        states = list(algebra.leaf_states(at, fds))
        assert states
        for y, fy, co, dc, fc in states:
            assert y | frozenset(co) == at and not (y & frozenset(co))
            assert fy == algebra.outside(y, at, fds)
            assert dc == algebra.rhs_set(fc)
            assert algebra.consistent(fc, co)


class TestDecompositionPreparation:
    def test_rhs_invariant_enforced(self):
        s = running_example()
        nice = prepare_decision_decomposition(s, "a")
        fd_names = {f.name for f in s.fds}
        for node in nice.tree.nodes():
            bag = nice.bag(node)
            for e in bag:
                if e in fd_names:
                    assert s.fd(e).rhs in bag

    def test_decision_root_contains_attribute(self):
        s = running_example()
        for a in s.attributes:
            nice = prepare_decision_decomposition(s, a)
            assert a in nice.bag(nice.tree.root)

    def test_enumeration_leaves_cover_attributes(self):
        s = running_example()
        nice = prepare_enumeration_decomposition(s)
        leaf_elements = set()
        for node in nice.tree.nodes():
            if nice.tree.is_leaf(node):
                leaf_elements |= nice.bag(node)
        assert set(s.attributes) <= leaf_elements

    def test_enumeration_root_is_not_branch(self):
        s = running_example()
        nice = prepare_enumeration_decomposition(s)
        assert len(nice.tree.children(nice.tree.root)) < 2


class TestPrograms:
    def test_figure6_rule_count(self):
        """Figure 6: 1 leaf + 2 attr-intro + 3 fd-intro + 2 attr-removal
        + 3 fd-removal + 1 branch (+1 copy) + 1 success."""
        program = primality_program("a")
        assert len(program.rules) == 14

    def test_enumeration_program_has_prime_rule(self):
        program = enumeration_program()
        assert "prime" in program.intensional_predicates()
        assert "solvedown" in program.intensional_predicates()
        assert "solve" in program.intensional_predicates()

    def test_encoding_splits_bags(self):
        s = running_example()
        nice = prepare_decision_decomposition(s, "a")
        encoded = encode_for_primality(s, nice)
        fd_names = {f.name for f in s.fds}
        for node, at, fd in encoded.relation("bag"):
            assert not (at & fd_names)
            assert fd <= fd_names


class TestIdSpaceEvaluation:
    """Both programs run on the set engine over the id-space load and
    decode only what they answer with."""

    @pytest.mark.parametrize("seed", range(3))
    def test_enumeration_on_random_schemas(self, seed):
        schema = random_schema(random.Random(seed), 8, 6)
        assert prime_attributes_datalog(schema) == prime_attributes_direct(
            schema
        )

    def test_decision_never_decodes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the decision decoded a relation")

        monkeypatch.setattr(SetDatabase, "decode", refuse)
        monkeypatch.setattr(SetDatabase, "decode_relation", refuse)
        schema = running_example()
        solver = PrimalityDatalog(schema)
        got = {a for a in schema.attributes if solver.decide(a)}
        assert got == set(prime_attributes_direct(schema))
