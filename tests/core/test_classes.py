"""The class predicates of the Theorem 4.5 compiler (``core/classes.py``).

The compiler checks a glue or replacement candidate on per-witness bag
summaries instead of the built structure.  These tests hold each delta
check to the whole-structure check on the candidate it stands for, on
every candidate of the width-1 and width-2 ``has_neighbor`` compiles
under both shipped classes; hold the lambda route (which builds each
candidate) to the same program; and hold the int-relation typing to
the :class:`Structure` route.
"""

import functools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MSOToDatalogCompiler,
    grid_graph_filter,
    undirected_graph_filter,
)
from repro.core.classes import (
    CallableClass,
    ClassPredicate,
    all_structures,
    as_class_predicate,
)
from repro.core.typealg import ids_structure
from repro.datalog import program_fingerprint
from repro.mso import formulas
from repro.mso.types import TypeContext
from repro.structures import GRAPH_SIGNATURE, Structure

_FILTERS = {
    "undirected": undirected_graph_filter,
    "grid": grid_graph_filter,
}


@functools.lru_cache(maxsize=None)
def _fixpoint(width: int, name: str) -> MSOToDatalogCompiler:
    """A ``has_neighbor`` compiler whose type fixpoint has run."""
    compiler = MSOToDatalogCompiler(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width,
        free_var="x",
        structure_filter=_FILTERS[name],
    )
    compiler.build_table()
    return compiler


def _same_edb_pairs(compiler):
    """Every unordered pair of entries with the same bag EDB (an entry
    with itself included): the compiler's glue candidates."""
    buckets: dict = {}
    for entry in compiler._table:
        buckets.setdefault(entry.edb, []).append(entry)
    for bucket in buckets.values():
        for i, a in enumerate(bucket):
            for b in bucket[: i + 1]:
                yield a, b


_COMPILES = [(1, "undirected"), (1, "grid"), (2, "undirected"), (2, "grid")]


@pytest.mark.parametrize("width, name", _COMPILES)
class TestDeltaChecksAreExact:
    def test_stored_witnesses_are_in_the_class(self, width, name):
        """The precondition of every delta check."""
        compiler = _fixpoint(width, name)
        predicate = compiler.structure_filter
        assert all(predicate(entry.structure) for entry in compiler._table)

    def test_glue_verdict_equals_the_whole_structure_check(self, width, name):
        compiler = _fixpoint(width, name)
        predicate = compiler.structure_filter
        signature = compiler.signature
        verdicts = {True: 0, False: 0}
        for a, b in _same_edb_pairs(compiler):
            glued = ids_structure(signature, *a.glued(b))
            want = predicate(glued)
            assert predicate.glue_ok(a, b) is want, (a.type_id, b.type_id)
            assert predicate.glue_ok(b, a) is want, (b.type_id, a.type_id)
            verdicts[want] += 1
        assert verdicts[True] == len(compiler._glue_map)
        if name == "undirected":  # a same-EDB glue is always in it
            assert verdicts[False] == 0
        elif width == 2:  # 9,929 of 16,080 width-2 grid glues fail
            assert verdicts[False] > verdicts[True]

    def test_replacement_verdict_equals_the_whole_structure_check(
        self, width, name
    ):
        compiler = _fixpoint(width, name)
        predicate = compiler.structure_filter
        signature = compiler.signature
        verdicts = {True: 0, False: 0}
        for entry in compiler._table:
            for chosen in compiler._chosen_list:
                grown = ids_structure(signature, *entry.replaced(chosen))
                want = predicate(grown)
                got = predicate.chosen_ok(chosen) and predicate.replace_ok(
                    entry, chosen
                )
                assert got is want, (entry.type_id, sorted(chosen))
                verdicts[want] += 1
        assert verdicts[True] == len(compiler._repl)
        assert verdicts[False] > 0


def _compile(structure_filter):
    return MSOToDatalogCompiler(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        2,
        free_var="x",
        structure_filter=structure_filter,
    ).compile()


def test_a_wrapped_callable_compiles_the_same_program():
    """A lambda runs the adapter's delta checks (build the candidate,
    call the lambda): same program, same counts as the named class."""
    named = _compile(grid_graph_filter)
    wrapped = _compile(lambda structure: grid_graph_filter(structure))
    assert program_fingerprint(wrapped.program) == program_fingerprint(
        named.program
    )
    assert wrapped.stats == named.stats


@pytest.mark.parametrize("name", sorted(_FILTERS))
def test_int_relation_typing_equals_the_structure_route(name):
    """Every glued candidate of the width-1 compile, typed from its
    int relations and from the built structure."""
    compiler = _fixpoint(1, name)
    signature, k = compiler.signature, compiler.k
    bag = compiler._canon_bag
    checked = 0
    for a, b in _same_edb_pairs(compiler):
        n, relations = a.glued(b)
        by_ids = TypeContext.of_ids(signature, n, relations).type_of(bag, k)
        structure = ids_structure(signature, n, relations)
        assert by_ids == TypeContext(structure).type_of(bag, k)
        checked += 1
    assert checked >= len(compiler._glue_map) > 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_relation_typing_ignores_the_domain_order(data):
    """Past ten elements ``repr`` order is not numeric order, so the
    :class:`Structure` route indexes the domain differently; the type
    is the same."""
    n = data.draw(st.integers(min_value=9, max_value=13))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    edges = frozenset(
        data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    )
    bag = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    )
    structure = Structure(GRAPH_SIGNATURE, range(n), {"e": edges})
    by_ids = TypeContext.of_ids(GRAPH_SIGNATURE, n, (edges,)).type_of(bag, 1)
    assert by_ids == TypeContext(structure).type_of(bag, 1)


class TestPredicates:
    @pytest.mark.parametrize("predicate", sorted(_FILTERS.values(), key=repr))
    def test_named_predicates_pickle_as_themselves(self, predicate):
        assert pickle.loads(pickle.dumps(predicate)) is predicate

    def test_names(self):
        assert grid_graph_filter.__name__ == "grid_graph_filter"
        assert undirected_graph_filter.__name__ == "undirected_graph_filter"

    def test_as_class_predicate(self):
        assert as_class_predicate(None) is all_structures
        assert as_class_predicate(grid_graph_filter) is grid_graph_filter
        wrapped = as_class_predicate(len)
        assert isinstance(wrapped, CallableClass)
        assert wrapped.__name__ == "len"
        assert pickle.loads(pickle.dumps(wrapped)).check is len

    def test_the_base_class_is_every_structure(self):
        loop = Structure(GRAPH_SIGNATURE, range(1), {"e": {(0, 0)}})
        assert isinstance(all_structures, ClassPredicate)
        assert all_structures(loop)
        assert not undirected_graph_filter(loop)
