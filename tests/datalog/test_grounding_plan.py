"""Regression tests for the guard-first join ordering in grounding.

The Theorem 4.4 bound is O(|P| * |A|) *time*, not just O(|P| * |A|)
ground rules: if the extensional join ever matches a relation atom with
no bound argument mid-plan, the grounding degenerates into a quadratic
full-relation scan.  This bit the down-branch rules of the Theorem 4.5
compiler (``child1(V1, V)`` with neither variable bound); the planner
now always picks the most-bound relation atom next.
"""

from repro.datalog import Database, parse_program, prepare_grounding
from repro.datalog.grounding import GroundingStats

from ..conftest import streamed_ground_rules


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
        prepared = prepare_grounding(down_branch_style_rule())
        plan = prepared.stream_plans[1]
        steps = [prepared.steps[i] for i in plan.step_ids]
        # the driver up(V) binds V: the planner walks the tree by key
        # -- child1 and child2 on V, then bag(V2, X0) on V2 -- and ends
        # on two bound membership tests; no step is an unkeyed scan
        assert [(s.predicate, s.key) for s in steps] == [
            ("child1", (1,)),
            ("child2", (1,)),
            ("bag", (0,)),
            ("bag", (0, 1)),
            ("bag", (0, 1)),
        ]

    def test_join_work_stays_linear(self):
        """Ground a chain of n nodes; the binding count must be O(n),
        not O(n^2)."""
        program = down_branch_style_rule()

        def build_db(n):
            db = Database()
            for i in range(n):
                db.add("bag", (f"n{i}", "x"))
                db.add("leaf", (f"n{i}",))  # every up(V) derives
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
            streamed_ground_rules(program, build_db(n), stats=stats)
            counts[n] = stats.bindings_explored
        assert counts[50] > 0
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
        db.add("leaf", ("a",))  # up(a) derives and drives the down rule
        rules = streamed_ground_rules(program, db)
        assert [r.head.predicate for r in rules] == ["up", "down"]
        up, down = rules
        assert up.head.args == ("a",)
        # the one down instance, emitted once its driver up(a) derived
        assert down.head.args == ("c",) and down.body == ()
