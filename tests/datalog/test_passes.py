"""The program-shrinking pass (ROADMAP D) and its helpers.

The property tests here are the soundness half of the fold pass:
:func:`repro.core.typealg.fold_partition` claims merged classes are
observationally equivalent on realized entries and that folding only
ever merges (never splits) the input partition.

The compiled-program end (folded == pass-free == unminimized answers on
ladder and random structures) lives in the no-silent-skip conformance
suite, ``test_conformance.py::TestCompiledWidth2Conformance``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.typealg import fold_partition
from repro.datalog.passes import (
    DEFAULT_PASSES,
    KNOWN_PASSES,
    normalize_passes,
    strongly_connected_components,
)


class TestNormalizePasses:
    def test_none_is_the_production_default(self):
        assert normalize_passes(None) == DEFAULT_PASSES

    def test_order_and_duplicates_are_canonicalized(self):
        assert KNOWN_PASSES == ("fold",)
        assert normalize_passes(("fold", "fold")) == KNOWN_PASSES

    def test_empty_is_the_ablation(self):
        assert normalize_passes(()) == ()

    def test_unknown_pass_raises(self):
        with pytest.raises(ValueError, match="unknown passes"):
            normalize_passes(("fold", "typo"))
        # the boundedness-based unfold pass is gone: it never fired on
        # a compiled program
        with pytest.raises(ValueError, match="unknown passes"):
            normalize_passes(("unfold",))


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
