"""End-to-end tests for the Theorem 4.5 compiler.

The construction is exponential in the quantifier depth and the width
(the paper says so explicitly), so the tests stay at k = 1 over
undirected graphs and k <= 2 over a tiny unary signature -- enough to
exercise every part of the construction: base cases, permutation /
element-replacement / branch transitions, Θ↓, element selection, and
the decision-variant simplification.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ANSWER_PREDICATE,
    CompilerLimitError,
    MSOToDatalogCompiler,
    grid_graph_filter,
    undirected_graph_filter,
)
from repro.core import mso_to_datalog
from repro.datalog import is_quasi_guarded, program_fingerprint
from repro.datalog.ast import Atom, Literal, Program, Rule, Variable, neg, pos
from repro.mso import ExistsInd, Not, RelAtom, And, evaluate, formulas, query
from repro.structures import GRAPH_SIGNATURE, Graph, Signature, Structure, graph_to_structure

from ..conftest import small_trees

PSIG = Signature.of(p=1)


@pytest.fixture(scope="module")
def neighbor_query():
    return MSOToDatalogCompiler(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    ).compile()


class TestCompiledProgramShape:
    def test_is_monadic(self, neighbor_query):
        assert neighbor_query.program.is_monadic()

    def test_is_quasi_guarded(self, neighbor_query):
        """Theorem 4.5 promises the quasi-guarded fragment."""
        assert is_quasi_guarded(
            neighbor_query.program, neighbor_query.dependencies()
        )

    def test_type_tables_populated(self, neighbor_query):
        assert neighbor_query.up_type_count > 0
        assert neighbor_query.down_type_count > 0

    def test_metadata(self, neighbor_query):
        assert neighbor_query.width == 1
        assert neighbor_query.quantifier_depth == 1
        assert not neighbor_query.is_sentence

    def test_program_fingerprint_is_pinned(self, neighbor_query):
        """Any change to the emitted rules or their order shows here
        (the width-2 grid program is pinned in the conformance suite)."""
        assert program_fingerprint(neighbor_query.program) == (
            "6a3775219def5492265eb8fee55b01172d7a15ee1fdf91009bdd4af2c004256f"
        )


_NQ_CACHE: list = []


def _cached_neighbor_query():
    if not _NQ_CACHE:
        _NQ_CACHE.append(
            MSOToDatalogCompiler(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
            ).compile()
        )
    return _NQ_CACHE[0]


class TestUnaryQueryCorrectness:
    @given(small_trees(max_vertices=7))
    @settings(max_examples=15, deadline=None)
    def test_has_neighbor_on_random_trees(self, g):
        nq = _cached_neighbor_query()
        structure = graph_to_structure(g)
        want = query(structure, formulas.has_neighbor("x"), "x")
        from repro.core import ANSWER_PREDICATE, QuasiGuardedEvaluator
        from repro.treewidth import (
            decompose_structure,
            encode_normalized,
            normalize,
            widen,
        )

        if len(structure.domain) < 2:
            return
        td = decompose_structure(structure)
        if td.width < 1:
            td = widen(td, 1)
        encoded = encode_normalized(structure, normalize(td))
        evaluator = QuasiGuardedEvaluator(nq.program, dependencies=nq.dependencies())
        got = evaluator.evaluate(encoded).unary_answers(ANSWER_PREDICATE)
        assert got == want


class TestSentenceVariant:
    def test_decision_simplification_over_unary_signature(self):
        """∃x (p(x) ∧ ∃y ¬p(y)) -- depth 2, tiny signature."""
        sentence = ExistsInd(
            "x", And(RelAtom("p", ("x",)), ExistsInd("y", Not(RelAtom("p", ("y",)))))
        )
        compiled = MSOToDatalogCompiler(sentence, PSIG, 1).compile()
        assert compiled.is_sentence
        assert compiled.down_type_count == 0  # Θ↓ skipped for sentences
        assert any(r.head.predicate == "phi" for r in compiled.program.rules)

    def test_sentence_correctness(self):
        import random

        from repro.core import ANSWER_PREDICATE, QuasiGuardedEvaluator
        from repro.treewidth import (
            decompose_structure,
            encode_normalized,
            normalize,
            widen,
        )

        sentence = ExistsInd(
            "x", And(RelAtom("p", ("x",)), ExistsInd("y", Not(RelAtom("p", ("y",)))))
        )
        compiled = MSOToDatalogCompiler(sentence, PSIG, 1).compile()
        evaluator = QuasiGuardedEvaluator(
            compiled.program, dependencies=compiled.dependencies()
        )
        rng = random.Random(11)
        for _ in range(6):
            n = rng.randint(2, 6)
            dom = list(range(n))
            pset = {(x,) for x in dom if rng.random() < 0.5}
            structure = Structure(PSIG, dom, {"p": pset})
            want = evaluate(structure, sentence)
            td = decompose_structure(structure)
            if td.width < 1:
                td = widen(td, 1)
            encoded = encode_normalized(structure, normalize(td))
            assert evaluator.evaluate(encoded).holds(ANSWER_PREDICATE) == want


class TestLimits:
    def test_max_types_raises(self):
        with pytest.raises(CompilerLimitError):
            MSOToDatalogCompiler(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                max_types=3,
                structure_filter=undirected_graph_filter,
            ).compile()

    def test_width_zero_rejected(self):
        with pytest.raises(ValueError):
            MSOToDatalogCompiler(
                formulas.has_neighbor("x"), GRAPH_SIGNATURE, 0, free_var="x"
            ).compile()

    def test_unfiltered_graph_compilation_exceeds_small_budget(self):
        """Without the class filter the type space explodes -- the very
        state explosion the paper describes (Sections 1, 6)."""
        with pytest.raises(CompilerLimitError):
            MSOToDatalogCompiler(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                max_types=200,
            ).compile()


def _quadratic_grid_filter(structure):
    """The pairwise-edge-scan formulation of ``grid_graph_filter``,
    kept as the oracle for the linear rewrite."""
    edges = structure.relation("e")
    degree = {}
    for u, v in edges:
        if u == v or (v, u) not in edges:
            return False
        count = degree.get(u, 0) + 1
        if count > 3:
            return False
        degree[u] = count
    for u, v in edges:
        for x, y in edges:
            if x == v and y != u and (y, u) in edges:
                return False  # triangle u-v-y
    return True


@st.composite
def _edge_structures(draw, max_vertices: int = 7):
    """Arbitrary {e}-structures biased toward the grid class boundary:
    symmetric closure, loops and dense neighbourhoods all occur."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n)))
    if draw(st.booleans()):
        edges |= {(v, u) for u, v in edges}
    if draw(st.booleans()):
        edges = {(u, v) for u, v in edges if u != v}
    return Structure(GRAPH_SIGNATURE, range(n), {"e": edges})


class TestGridGraphFilter:
    @settings(max_examples=300)
    @given(structure=_edge_structures())
    def test_matches_the_pairwise_oracle(self, structure):
        assert grid_graph_filter(structure) == _quadratic_grid_filter(
            structure
        )

    @pytest.mark.parametrize(
        "graph, member",
        [
            (Graph.grid(2, 6), True),  # the ladder family itself
            (Graph.cycle(4), True),
            (Graph.cycle(3), False),  # triangle
            (Graph(range(5), [(0, i) for i in range(1, 5)]), False),  # degree 4
        ],
    )
    def test_named_boundary_cases(self, graph, member):
        structure = graph_to_structure(graph)
        assert grid_graph_filter(structure) is member
        assert _quadratic_grid_filter(structure) is member

    def test_loops_and_asymmetric_edges_are_rejected(self):
        loop = Structure(GRAPH_SIGNATURE, range(2), {"e": {(0, 0)}})
        one_way = Structure(GRAPH_SIGNATURE, range(2), {"e": {(0, 1)}})
        assert not grid_graph_filter(loop)
        assert not grid_graph_filter(one_way)


def _rule_set_emit(compiler, cls, accept):
    """The rule-level emission that key-level deduplication replaced:
    every candidate is built as a full ``Rule`` and deduplicated by a
    rule set -- kept as the oracle for the key-level ``_emit``."""
    rules = []
    rule_set = set()

    def add(rule):
        if rule not in rule_set:
            rule_set.add(rule)
            rules.append(rule)

    def edb_literals(present):
        return [
            Literal(
                Atom(name, tuple(bag_vars[i] for i in indices)),
                (name, indices) in present,
            )
            for name, indices in compiler.patterns
        ]

    unary = compiler.free_var is not None
    entry_of = compiler._table.entry_of
    bag_vars = compiler._bag_vars
    v, vc = Variable("V"), Variable("Vc")
    v1, v2 = Variable("V1"), Variable("V2")
    up = [f"up{c}" for c in cls]
    down = [f"down{c}" for c in cls]

    for i in compiler._base_ids:
        edb = edb_literals(entry_of(i).edb)
        add(
            Rule(
                Atom(up[i], (v,)),
                (pos("bag", v, *bag_vars), pos("leaf", v), *edb),
            )
        )
        if unary:
            add(
                Rule(
                    Atom(down[i], (v,)),
                    (pos("bag", v, *bag_vars), pos("root", v), *edb),
                )
            )
    identity = tuple(range(compiler.width + 1))
    for (i, perm), j in compiler._perm.items():
        if perm == identity:
            continue  # a normalized decomposition has no identity node
        permuted = tuple(bag_vars[perm[p]] for p in range(compiler.width + 1))
        add(
            Rule(
                Atom(up[j], (v,)),
                (
                    pos("bag", v, *permuted),
                    pos("child1", vc, v),
                    pos(up[i], vc),
                    pos("bag", vc, *bag_vars),
                ),
            )
        )
        if unary:
            add(
                Rule(
                    Atom(down[j], (v,)),
                    (
                        pos("bag", v, *permuted),
                        pos("child1", v, vc),
                        pos(down[i], vc),
                        pos("bag", vc, *bag_vars),
                    ),
                )
            )
    neighbour_bag = (Variable("Xold0"),) + bag_vars[1:]
    for (i, _chosen), j in compiler._repl.items():
        edb = edb_literals(entry_of(j).edb)
        add(
            Rule(
                Atom(up[j], (v,)),
                (
                    pos("bag", v, *bag_vars),
                    pos("child1", vc, v),
                    pos(up[i], vc),
                    pos("bag", vc, *neighbour_bag),
                    neg("bag", vc, *bag_vars),
                    *edb,
                ),
            )
        )
        if unary:
            add(
                Rule(
                    Atom(down[j], (v,)),
                    (
                        pos("bag", v, *bag_vars),
                        pos("child1", v, vc),
                        pos(down[i], vc),
                        pos("bag", vc, *neighbour_bag),
                        neg("bag", vc, *bag_vars),
                        *edb,
                    ),
                )
            )
    for (i, j), g in compiler._glue_map.items():
        for a, b in ((i, j),) if i == j else ((i, j), (j, i)):
            add(
                Rule(
                    Atom(up[g], (v,)),
                    (
                        pos("bag", v, *bag_vars),
                        pos("child1", v1, v),
                        pos(up[a], v1),
                        pos("child2", v2, v),
                        pos(up[b], v2),
                        pos("bag", v1, *bag_vars),
                        pos("bag", v2, *bag_vars),
                    ),
                )
            )
            if unary:
                for new_leaf, sibling in ((v1, v2), (v2, v1)):
                    add(
                        Rule(
                            Atom(down[g], (new_leaf,)),
                            (
                                pos("bag", new_leaf, *bag_vars),
                                pos("child1", v1, v),
                                pos("child2", v2, v),
                                pos(down[a], v),
                                pos(up[b], sibling),
                                pos("bag", v, *bag_vars),
                                pos("bag", sibling, *bag_vars),
                            ),
                        )
                    )
    if unary:
        for (i, j), answers in compiler._sel.items():
            for u_id, d_id in ((i, j),) if i == j else ((i, j), (j, i)):
                for position in answers:
                    add(
                        Rule(
                            Atom(ANSWER_PREDICATE, (bag_vars[position],)),
                            (
                                pos(up[u_id], v),
                                pos(down[d_id], v),
                                pos("bag", v, *bag_vars),
                            ),
                        )
                    )
    else:
        for i, accepted in accept.items():
            if accepted:
                add(
                    Rule(
                        Atom(ANSWER_PREDICATE, ()),
                        (pos("root", v), pos(up[i], v)),
                    )
                )
    return Program(rules)


_D1 = ExistsInd("x", RelAtom("p", ("x",)))
_D2 = ExistsInd(
    "x", And(RelAtom("p", ("x",)), ExistsInd("y", Not(RelAtom("p", ("y",)))))
)

#: the width-1-or-sentence compiles of ``bench_state_explosion.py``:
#: (formula, signature, width, free variable, structure filter)
_EMISSION_COMPILES = {
    "p-sentence-w1-k1": (_D1, PSIG, 1, None, None),
    "p-sentence-w2-k1": (_D1, PSIG, 2, None, None),
    "p-sentence-w1-k2": (_D2, PSIG, 1, None, None),
    "graph-neighbor-w1-undirected": (
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        1,
        "x",
        undirected_graph_filter,
    ),
    "graph-neighbor-w1-grid": (
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        1,
        "x",
        grid_graph_filter,
    ),
}

_EMISSION_SETTINGS = {
    "default": {},
    "no-passes": {"fold": False},
    "unminimized": {"minimize": False},
}


class TestKeyLevelEmission:
    @pytest.mark.parametrize("setting", sorted(_EMISSION_SETTINGS))
    @pytest.mark.parametrize("name", sorted(_EMISSION_COMPILES))
    def test_matches_the_rule_set_oracle(self, name, setting):
        formula, signature, width, free_var, structure_filter = (
            _EMISSION_COMPILES[name]
        )
        compiler = MSOToDatalogCompiler(
            formula,
            signature,
            width,
            free_var=free_var,
            structure_filter=structure_filter,
            **_EMISSION_SETTINGS[setting],
        )
        compiled = compiler.compile()
        # the emission inputs, re-derived the way ``compile`` derives them
        accept = {}
        if free_var is None:
            accept = {
                entry.type_id: bool(evaluate(entry.structure, formula))
                for entry in compiler._table
            }
        if compiler.minimize:
            cls = compiler._minimize_classes(accept)
        else:
            cls = list(range(len(compiler._table)))
        assign = cls
        if compiler.fold:
            assign = compiler._fold_classes(cls, accept)

        oracle = _rule_set_emit(compiler, assign, accept)
        assert compiler._emit(assign, accept).rules == oracle.rules
        assert compiled.program.rules == oracle.rules
        pre_fold = _rule_set_emit(compiler, cls, accept)
        assert compiled.stats.rules == len(pre_fold)

    @pytest.mark.parametrize(
        "name", ["p-sentence-w1-k1", "graph-neighbor-w1-undirected"]
    )
    def test_builds_only_the_emitted_rules(self, name, monkeypatch):
        """No candidate is built twice and no pre-fold program is
        materialized: ``p-sentence-w1-k1`` folds classes (its pre-fold
        rule count differs from the program's), the neighbour query
        replays each class's rules from several type ids."""
        built = []
        real_rule = mso_to_datalog.Rule

        def counting_rule(*args, **kwargs):
            built.append(None)
            return real_rule(*args, **kwargs)

        monkeypatch.setattr(mso_to_datalog, "Rule", counting_rule)
        formula, signature, width, free_var, structure_filter = (
            _EMISSION_COMPILES[name]
        )
        compiled = MSOToDatalogCompiler(
            formula,
            signature,
            width,
            free_var=free_var,
            structure_filter=structure_filter,
        ).compile()
        assert len(built) == len(compiled.program)
