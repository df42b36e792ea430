"""The compiler's program-shrinking step (ROADMAP D), ``fold=``, and
the SCC helper of :func:`repro.datalog.evaluate.refine_strata`.

The property tests here are the soundness half of folding:
:func:`repro.core.typealg.fold_partition` claims merged classes are
observationally equivalent on realized entries and that folding only
ever merges (never splits) the input partition.  The emitted programs
of both settings are pinned by fingerprint.

The compiled-program end (folded == unfolded == unminimized answers on
ladder and random structures) lives in the no-silent-skip conformance
suite, ``test_conformance.py::TestCompiledWidth2Conformance``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MSOToDatalogCompiler,
    grid_graph_filter,
    undirected_graph_filter,
)
from repro.core.typealg import fold_partition
from repro.datalog import program_fingerprint
from repro.datalog.evaluate import strongly_connected_components
from repro.mso import formulas
from repro.structures import GRAPH_SIGNATURE

from ..conftest import graph_query_compile

#: (query, width, fold) -> (program fingerprint, rules after folding,
#: classes folded); ``fold=False`` is the unfolded ablation
PINNED_PROGRAMS = {
    ("has_neighbor", 1, True): (
        "6a3775219def5492265eb8fee55b01172d7a15ee1fdf91009bdd4af2c004256f",
        111,
        0,
    ),
    ("has_neighbor", 1, False): (
        "6a3775219def5492265eb8fee55b01172d7a15ee1fdf91009bdd4af2c004256f",
        111,
        0,
    ),
    ("has_neighbor", 2, True): (
        "9f489441eb00ae4118c1dd9c46ed7ed944af9513babda5b713f0f2e34fb95ce4",
        735,
        191,
    ),
    ("has_neighbor", 2, False): (
        "1b5e56150b529f118233a8b6a53031592048c9595196c832c27774cacc48a661",
        21413,
        0,
    ),
    ("isolated", 1, True): (
        "5581c79247153c2bc9df53f4f9d56970e36a055c41f7cc1ed942c2f79a50c1db",
        93,
        0,
    ),
    ("isolated", 1, False): (
        "5581c79247153c2bc9df53f4f9d56970e36a055c41f7cc1ed942c2f79a50c1db",
        93,
        0,
    ),
    ("isolated", 2, True): (
        "98a42a456ea57c18c2496112ee8851601c5b32ce78ec87acf63fba87e87d74a2",
        600,
        191,
    ),
    ("isolated", 2, False): (
        "0b04a6b87cb389fb4c0bfc04d669ea8de39b4bed0fb8c7abd5fd41721db67838",
        12722,
        0,
    ),
}


class TestFoldSwitch:
    @pytest.mark.parametrize(
        "key",
        sorted(PINNED_PROGRAMS),
        ids=lambda k: f"{k[0]}-w{k[1]}-{'fold' if k[2] else 'unfolded'}",
    )
    def test_programs_are_pinned(self, key):
        """The default compile and the ``fold=False`` ablation emit
        these programs, rule for rule and in order, with these counts
        (width 1 over undirected graphs, width 2 over the grid class;
        at width 1 folding merges nothing)."""
        name, width, fold = key
        if fold:
            compiled = graph_query_compile(name, width)[0].compiled
        else:
            compiled = MSOToDatalogCompiler(
                getattr(formulas, name)("x"),
                GRAPH_SIGNATURE,
                width,
                free_var="x",
                structure_filter=(
                    grid_graph_filter if width == 2 else undirected_graph_filter
                ),
                fold=False,
            ).compile()
        stats = compiled.stats
        assert (
            program_fingerprint(compiled.program),
            stats.rules_after_passes,
            stats.classes_folded,
        ) == PINNED_PROGRAMS[key]
        if not fold:
            assert stats.rules_after_passes == stats.rules


class TestStronglyConnectedComponents:
    def test_chain_is_singletons_in_dependency_order(self):
        edges = {"a": ["b"], "b": ["c"], "c": []}
        comps = strongly_connected_components(
            sorted(edges), lambda n: edges[n]
        )
        assert comps == [("c",), ("b",), ("a",)]

    def test_cycle_is_one_component(self):
        edges = {"a": ["b"], "b": ["a"], "c": ["a"]}
        comps = strongly_connected_components(
            sorted(edges), lambda n: edges[n]
        )
        assert set(comps) == {("c",)} | {
            c for c in comps if set(c) == {"a", "b"}
        }
        # dependencies first: the cycle precedes its consumer
        assert comps.index(("c",)) == 1


class TestFoldPartition:
    def test_undefined_entries_do_not_separate(self):
        # classes 0 and 1 agree where both are defined; 1's map entry
        # is missing (⊥) -- they must merge
        fold = fold_partition(
            3,
            observations=[None, None, "acc"],
            maps=({0: 2, 1: 2},),
        )
        assert fold[0] == fold[1]
        assert fold[2] != fold[0]

    def test_defined_disagreement_separates(self):
        # 2 maps into the observably-marked class, 0 and 1 do not
        fold = fold_partition(
            4,
            observations=[None, None, None, "t"],
            maps=({0: 1, 1: 1, 2: 3},),
        )
        assert fold[0] == fold[1]
        assert fold[2] != fold[0]
        assert fold[3] != fold[0]

    def test_observations_always_separate(self):
        fold = fold_partition(2, observations=["yes", "no"])
        assert fold[0] != fold[1]

    def test_pair_map_wildcards_merge(self):
        # glue(0, 2) = 0 and glue(1, 2) undefined: 0 and 1 merge, and
        # the merged group's single defined outcome stands in for both
        fold = fold_partition(
            3,
            observations=[None, None, "root"],
            pair_maps=({(0, 2): 0},),
        )
        assert fold[0] == fold[1]

    def test_pair_map_disagreement_separates(self):
        # 0 and 1 both glue with 2 but land in observably different
        # classes (2 carries a distinct observation), so they split
        fold = fold_partition(
            4,
            observations=[None, None, "mark", None],
            pair_maps=({(0, 3): 2, (1, 3): 3},),
        )
        assert fold[0] != fold[1]

    def test_fold_only_merges(self):
        observations = [None, "a", None, "a", None]
        maps = ({0: 1, 2: 3, 4: 1},)
        fold = fold_partition(5, observations, maps=maps)
        assert len(set(fold)) <= 5
        # and it is idempotent: folding the folded groups changes nothing
        regrouped = [fold[i] for i in range(5)]
        assert max(regrouped) + 1 == len(set(regrouped))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_merged_classes_agree_on_defined_entries(self, data):
        """The defining invariant on random instances: two classes the
        fold merges never disagree on a defined unary-map entry or an
        observation -- ⊥ is the *only* thing being forgiven."""
        n = data.draw(st.integers(min_value=1, max_value=6))
        observations = [
            data.draw(st.sampled_from([None, "a", "b"])) for _ in range(n)
        ]
        maps = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            m = {}
            for i in range(n):
                if data.draw(st.booleans()):
                    m[i] = data.draw(st.integers(min_value=0, max_value=n - 1))
            maps.append(m)
        fold = fold_partition(n, observations, maps=tuple(maps))
        for i in range(n):
            for j in range(i + 1, n):
                if fold[i] != fold[j]:
                    continue
                assert observations[i] == observations[j] or None in (
                    observations[i],
                    observations[j],
                )
                for m in maps:
                    if i in m and j in m:
                        assert fold[m[i]] == fold[m[j]]
