"""Regression tests for the guard-first join ordering in grounding.

The Theorem 4.4 bound is O(|P| * |A|) *time*, not just O(|P| * |A|)
ground rules: if the extensional join ever matches a relation atom with
no bound argument mid-plan, the grounding degenerates into a quadratic
full-relation scan.  This bit the down-branch rules of the Theorem 4.5
compiler (``child1(V1, V)`` with neither variable bound); the planner
now always picks the most-bound relation atom next.
"""

from repro.datalog import Database, parse_program
from repro.datalog.grounding import GroundingStats, _plan_extensional
from repro.datalog.builtins import standard_registry

from ..conftest import ground_decoded


def down_branch_style_rule():
    """The problematic shape: the head variable's bag comes first, then
    tree atoms none of whose variables are bound yet."""
    program = parse_program(
        """
        up(V) :- bag(V, X0), leaf(V).
        down(V2) :- bag(V2, X0), child1(V1, V), child2(V2, V),
                    up(V), bag(V, X0), bag(V1, X0).
        """
    )
    return program


class TestPlanOrder:
    def test_most_bound_atom_chosen_next(self):
        program = down_branch_style_rule()
        registry = standard_registry()
        rule = program.rules[1]
        ordered, idb = _plan_extensional(
            rule, program.intensional_predicates(), registry
        )
        predicates = [lit.atom.predicate for lit in ordered]
        # after bag(V2, X0), the planner must pick child2 (V2 bound),
        # never child1 (nothing bound yet)
        assert predicates[0] == "bag"
        assert predicates[1] == "child2"
        assert predicates.index("child2") < predicates.index("child1")

    def test_join_work_stays_linear(self):
        """Ground a chain of n nodes; the binding count must be O(n),
        not O(n^2)."""
        program = down_branch_style_rule()

        def build_db(n):
            db = Database()
            for i in range(n):
                db.add("bag", (f"n{i}", "x"))
            # a binary comb: node i has children 2i+1 (first), 2i+2 (second)
            for i in range(n):
                c1, c2 = 2 * i + 1, 2 * i + 2
                if c1 < n:
                    db.add("child1", (f"n{c1}", f"n{i}"))
                if c2 < n:
                    db.add("child2", (f"n{c2}", f"n{i}"))
            return db

        counts = {}
        for n in (50, 100):
            stats = GroundingStats()
            ground_decoded(program, build_db(n), stats=stats)
            counts[n] = stats.bindings_explored
        # linear: doubling the data roughly doubles the join work (a
        # mis-ordered plan degenerates into an O(n^2) cross product and
        # fails this even though the ground-rule count stays linear)
        assert counts[100] < 2.6 * counts[50]

    def test_ground_rules_correct_on_comb(self):
        program = down_branch_style_rule()
        db = Database()
        for name in ("a", "b", "c"):
            db.add("bag", (name, "x"))
        db.add("child1", ("b", "a"))
        db.add("child2", ("c", "a"))
        rules = ground_decoded(program, db)
        down_rules = [r for r in rules if r.head.predicate == "down"]
        assert len(down_rules) == 1
        (rule,) = down_rules
        assert rule.head.args == ("c",)
        body_preds = {f.predicate for f in rule.body}
        assert body_preds == {"up"}
