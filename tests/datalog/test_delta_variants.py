"""Delta-first rule variants of the semi-naive engines.

Each rule of a recursive stratum has one variant per recursive body
atom that starts at that atom (``plan_delta_rule``).  The variants must
derive exactly the round-0 plans' least model on every engine, order
the extensional key probes before intensional ones, and make Figure 5
pay per delta fact: ``bindings_explored`` roughly doubles when the
graph doubles.  The set engine fires them through their prefix trie
(``group_delta_variants``): steps equal up to variable renaming run
once per round.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom,
    Constant,
    Database,
    EvaluationStats,
    Literal,
    Program,
    Rule,
    Variable,
    parse_program,
    prepare_program,
    solve,
    standard_registry,
)
from repro.datalog import evaluate as evaluate_module
from repro.datalog.builtins import Builtin
from repro.problems import random_partial_ktree
from repro.problems.generators import random_schema
from repro.problems.primality import (
    encode_for_primality,
    prepare_decision_decomposition,
    primality_program,
    primality_registry,
)
from repro.problems.three_coloring import (
    encode_for_three_coloring,
    prepare_decomposition,
    three_coloring_program,
)

from ..conftest import (
    DATALOG_DOMAIN,
    IDB_ARITIES,
    datalog_databases,
    datalog_programs,
)

ENGINES = ("naive", "semi-naive", "semi-naive-tuple")


def _idb_relations(db, program):
    return {
        p: db.relation(p) for p in sorted(program.intensional_predicates())
    }


def _assert_engines_agree(program, edb, registry=None, query=None):
    """Every full-fixpoint engine derives the same intensional
    relations; magic derives the same answers for ``query`` (every
    intensional predicate when None)."""
    models = [
        _idb_relations(
            solve(program, edb, backend=b, registry=registry), program
        )
        for b in ENGINES
    ]
    assert models[0] == models[1] == models[2]
    for predicate in [query] if query else sorted(models[0]):
        magic = solve(
            program, edb, backend="magic", query=predicate, registry=registry
        )
        assert magic.relation(predicate) == models[0][predicate]
    return models[0]


def _figure5_instance(seed, n):
    graph, _ = random_partial_ktree(
        random.Random(f"delta-variants:{seed}"), n, 3, edge_probability=0.2
    )
    return encode_for_three_coloring(graph, prepare_decomposition(graph))


def _plan_predicates(plan):
    return [step.literal.atom.predicate for step in plan]


class TestFigure5Plans:
    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare_program(three_coloring_program())

    def test_round_zero_plans_unchanged(self, prepared):
        # partition3 runs once X, R and G are bound (B is then a
        # function of them), so the last allowed is a bound check
        assert _plan_predicates(prepared.plans[0]) == [
            "leaf", "bag", "allowed", "allowed", "partition3", "allowed"
        ]

    def _variants(self, prepared, rule_index):
        for stratum_plan in prepared.stratum_plans:
            if rule_index in stratum_plan.rule_indices:
                at = stratum_plan.rule_indices.index(rule_index)
                return stratum_plan.variants[at]
        raise AssertionError(rule_index)

    def test_introduction_variant_is_delta_first(self, prepared):
        (variant,) = self._variants(prepared, 1)
        assert variant.body_index == 4
        assert _plan_predicates(variant.plan) == [
            "solve", "child1", "bag", "bag", "add", "add", "allowed"
        ]
        kinds = [step.kind for step in variant.plan]
        assert kinds[-1] == "relation"  # allowed(S, R2): a semi-join
        # add(X, V, XV) runs with X and XV bound: the O(1) fast path
        add_step = variant.steps[4]
        assert [p for p, _ in add_step.bound] == [0, 2]

    def test_branch_variants_probe_extensional_keys_first(self, prepared):
        variants = self._variants(prepared, 7)
        assert [v.body_index for v in variants] == [5, 6]
        for variant, key in zip(variants, ("child1", "child2")):
            order = _plan_predicates(variant.plan)
            assert order[:2] == ["solve", key]
            # the sibling's solve atom comes last, as a semi-join
            assert order[-1] == "solve"
            assert not variant.steps[-1].free

    def test_nonrecursive_strata_have_no_variants(self, prepared):
        success = [
            sp
            for sp in prepared.stratum_plans
            if prepared.program.rules[sp.rule_indices[0]].head.predicate
            == "success"
        ]
        assert success and not success[0].recursive

    def test_solves_reuse_the_compiled_steps(self, prepared, monkeypatch):
        edb = _figure5_instance(0, 12)
        want = solve(prepared.program, edb).relation("solve")

        def refuse(*args, **kwargs):
            raise AssertionError("a solve recompiled a prepared step")

        monkeypatch.setattr(evaluate_module, "compile_plan", refuse)
        monkeypatch.setattr(Builtin, "compile", refuse)
        assert solve(prepared.program, edb).relation("solve") == want


def _walk(groups, depth=0):
    """Every node of a prefix trie with the prefix length at its end,
    depth first."""
    for group in groups:
        end = depth + len(group.steps)
        yield group, end
        yield from _walk(group.children, end)


def _figure5_stratum():
    prepared = prepare_program(three_coloring_program())
    (stratum,) = [sp for sp in prepared.stratum_plans if sp.recursive]
    return stratum


class TestFigure5PrefixGroups:
    """Which delta variants share which prefix: variants are named
    ``(rule index, delta body index)``; rules 1-3 introduce a vertex,
    4-6 remove one, 7 is the branch rule, 8 the copy rule."""

    INTRO = {(1, 4), (2, 4), (3, 4)}
    FORGET = {(4, 4), (5, 4), (6, 4)}
    BRANCH = {(7, 5), (7, 6)}
    COPY = {(8, 2)}

    @pytest.fixture(scope="class")
    def table(self):
        return {
            frozenset(group.members): end
            for group, end in _walk(_figure5_stratum().groups)
        }

    def test_shared_prefix_lengths(self, table):
        everyone = self.INTRO | self.FORGET | self.BRANCH | self.COPY
        assert table == {
            # Δsolve(S1, R, G, B): every variant's delta scan
            frozenset(everyone): 1,
            # child1(S1, S): all but the branch rule's second variant
            frozenset(everyone - {(7, 6)}): 2,
            # bag(S, _): introduction, removal and the first branch
            frozenset(self.INTRO | self.FORGET | {(7, 5)}): 3,
            # bag(S1, _) with a fresh variable: introduction and removal
            frozenset(self.INTRO | self.FORGET): 4,
            # add(X, V, XV) vs add(XV', V, X'): one 5-step prefix each
            frozenset(self.INTRO): 5,
            frozenset(self.FORGET): 5,
            # the tails
            **{frozenset({v}): 7 for v in self.INTRO},
            **{frozenset({v}): 6 for v in self.FORGET},
            frozenset({(7, 5)}): 7,
            frozenset({(7, 6)}): 7,
            frozenset(self.COPY): 3,
        }

    def test_every_variant_ends_once(self):
        ends = [
            rule
            for group, _ in _walk(_figure5_stratum().groups)
            for rule, _ in group.heads
        ]
        assert sorted(ends) == [1, 2, 3, 4, 5, 6, 7, 7, 8]

    def test_shared_steps_keep_every_members_columns(self):
        stratum = _figure5_stratum()
        variants = {
            (rule, v.body_index): v
            for rule, vs in zip(stratum.rule_indices, stratum.variants)
            for v in vs
        }

        def check(groups, depth):
            for group in groups:
                for offset, step in enumerate(group.steps):
                    for member in group.members:
                        own = variants[member].steps[depth + offset]
                        assert own.live <= step.live
                        assert (own.bound, own.free) == (step.bound, step.free)
                check(group.children, depth + len(group.steps))

        check(stratum.groups, 0)

    def test_bindings_drop_against_per_rule_variants(self):
        """One seeded n = 256 instance: firing each variant on its own
        (the per-rule delta rounds before prefix sharing) explored
        156,926 bindings; sharing must keep at most 65% of that."""
        stats = EvaluationStats()
        db = solve(
            three_coloring_program(),
            _figure5_instance("count", 256),
            query="success",
            stats=stats,
        )
        per_rule_bindings = 156_926
        assert stats.bindings_explored <= 0.65 * per_rule_bindings
        # sharing changes what is explored, not what is derived
        assert (stats.rule_firings, stats.facts_derived) == (4632, 4056)
        assert not db.contains("success", ())


class TestEngineAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_figure5(self, seed):
        program = three_coloring_program()
        model = _assert_engines_agree(
            program, _figure5_instance(seed, 10), query="success"
        )
        assert model["solve"]

    @pytest.mark.parametrize("seed", range(3))
    def test_figure6(self, seed):
        rng = random.Random(f"delta-variants:fig6:{seed}")
        schema = random_schema(rng, 4, 3)  # attributes a, b, c, d
        nice = prepare_decision_decomposition(schema, "a")
        model = _assert_engines_agree(
            primality_program("a"),
            encode_for_primality(schema, nice),
            registry=primality_registry(schema),
            query="success",
        )
        assert model["solve"]

    def test_bindings_grow_linearly_on_figure5(self):
        program = three_coloring_program()
        counts = {}
        for n in (128, 256, 512):
            stats = EvaluationStats()
            solve(
                program,
                _figure5_instance("count", n),
                query="success",
                stats=stats,
            )
            counts[n] = stats.bindings_explored
        # the round-0 plans read 4.48x and 3.67x here
        assert counts[256] <= 2.3 * counts[128]
        assert counts[512] <= 2.3 * counts[256]


@st.composite
def shuffled_programs(draw):
    """Random programs with every rule body permuted, so recursive
    atoms sit anywhere in the body, plus an optional ``neq`` built-in
    over variables the positive atoms bind."""
    program = draw(datalog_programs())
    rules = []
    for rule in program.rules:
        body = list(draw(st.permutations(rule.body)))
        bound = sorted(
            {
                a
                for lit in body
                if lit.positive
                for a in lit.atom.args
                if isinstance(a, Variable)
            },
            key=lambda v: v.name,
        )
        if bound and draw(st.booleans()):
            pair = (draw(st.sampled_from(bound)), draw(st.sampled_from(bound)))
            body.insert(
                draw(st.integers(0, len(body))),
                Literal(Atom("neq", pair), positive=draw(st.booleans())),
            )
        rules.append(Rule(rule.head, tuple(body)))
    return Program(rules, builtin_names=("neq",))


def _recursive_not_first(program):
    prepared = prepare_program(program, standard_registry())
    return any(
        variant.body_index > 0
        for stratum_plan in prepared.stratum_plans
        for variants in stratum_plan.variants
        for variant in variants
    )


class TestRandomPrograms:
    @settings(max_examples=150)
    @given(program=shuffled_programs(), db=datalog_databases(max_facts=16))
    def test_engines_agree(self, program, db):
        _assert_engines_agree(program, db)

    def test_strategy_reaches_late_recursive_atoms(self):
        @settings(max_examples=60, database=None)
        @given(program=shuffled_programs())
        def probe(program):
            hits.append(_recursive_not_first(program))

        hits: list[bool] = []
        probe()
        assert any(hits)


_RENAMED = {
    Variable("X"): Variable("U"),
    Variable("Y"): Variable("W"),
    Variable("Z"): Variable("X"),
}


def _rename(atom, shift=0):
    """``atom`` with its variables renamed apart and its constants
    shifted by ``shift`` within the shared domain."""
    return Atom(
        atom.predicate,
        tuple(
            _RENAMED[a]
            if isinstance(a, Variable)
            else Constant((a.value + shift) % len(DATALOG_DOMAIN))
            for a in atom.args
        ),
    )


@st.composite
def prefix_families(draw):
    """Random programs in which some rules come with copies renamed
    apart (``X, Y, Z -> U, W, X``) that differ only in their head, in
    one extra body literal at the end, or in their body constants, so
    that their delta variants share prefixes up to renaming."""
    base = draw(datalog_programs(max_rules=4))
    rules = []
    for rule in base.rules:
        rules.append(rule)
        for _ in range(draw(st.integers(0, 2))):
            variation = draw(st.sampled_from(("head", "literal", "constants")))
            shift = draw(st.integers(0, 1)) if variation == "constants" else 0
            body = [
                Literal(_rename(lit.atom, shift), lit.positive)
                for lit in rule.body
            ]
            bound = sorted(
                {
                    a
                    for lit in body
                    if lit.positive
                    for a in lit.atom.args
                    if isinstance(a, Variable)
                },
                key=lambda v: v.name,
            )
            head = _rename(rule.head)
            if variation == "head":
                predicate = draw(st.sampled_from(sorted(IDB_ARITIES)))
                head = Atom(
                    predicate,
                    tuple(
                        draw(st.sampled_from(bound))
                        for _ in range(IDB_ARITIES[predicate])
                    ),
                )
            elif variation == "literal" and bound:
                pair = tuple(draw(st.sampled_from(bound)) for _ in range(2))
                value = Constant(draw(st.sampled_from(DATALOG_DOMAIN)))
                extra = draw(
                    st.sampled_from(
                        [
                            Atom("neq", pair),
                            Atom("edge", pair),
                            Atom("edge", (pair[0], value)),
                            Atom("color", pair[:1]),
                        ]
                    )
                )
                body.append(Literal(extra, positive=draw(st.booleans())))
            rules.append(Rule(head, tuple(body)))
    return Program(rules, builtin_names=("neq",))


def _shares_a_join(program):
    """Whether two delta variants share more than their delta scan."""
    prepared = prepare_program(program, standard_registry())
    return any(
        len(group.members) > 1 and end > 1
        for stratum_plan in prepared.stratum_plans
        for group, end in _walk(stratum_plan.groups)
    )


class TestPrefixFamilies:
    @settings(max_examples=150)
    @given(program=prefix_families(), db=datalog_databases(max_facts=16))
    def test_engines_agree(self, program, db):
        _assert_engines_agree(program, db)

    def test_a_constant_splits_the_prefix(self):
        """Two rules equal up to one constant share the two steps
        before it and keep their own semi-joins."""
        program = parse_program(
            """
            q(X) :- color(X).
            q(Y) :- q(X), edge(X, Y), edge(Y, 1).
            q(Y) :- q(X), edge(X, Y), edge(Y, 2).
            """
        )
        (stratum,) = prepare_program(program).stratum_plans
        table = {
            frozenset(group.members): end
            for group, end in _walk(stratum.groups)
        }
        assert table == {
            frozenset({(1, 0), (2, 0)}): 2,
            frozenset({(1, 0)}): 3,
            frozenset({(2, 0)}): 3,
        }
        db = Database()
        db.add("color", (0,))
        for edge in ((0, 1), (0, 2), (1, 1), (2, 2)):
            db.add("edge", edge)
        model = _assert_engines_agree(program, db)
        assert model["q"] == {(0,), (1,), (2,)}

    def test_strategy_shares_prefixes(self):
        @settings(max_examples=60, database=None)
        @given(program=prefix_families())
        def probe(program):
            hits.append(_shares_a_join(program))

        hits: list[bool] = []
        probe()
        assert sum(hits) >= 5
