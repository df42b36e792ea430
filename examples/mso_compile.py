"""The Theorem 4.5 compiler in action: MSO query -> monadic datalog.

Compiles the unary query ``has_neighbor(x) = ∃y e(x, y)`` for
undirected graphs of treewidth 1, prints a sample of the generated
quasi-guarded monadic program, runs it on a tree via the Theorem 4.4
pipeline, and points to the state-explosion benchmark for the
MSO-to-FTA comparison.

Run:  python examples/mso_compile.py
"""

from repro.core import (
    ANSWER_PREDICATE,
    CourcelleSolver,
    undirected_graph_filter,
)
from repro.datalog import is_quasi_guarded
from repro.mso import formulas, query
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure


def main() -> None:
    phi = formulas.has_neighbor("x")
    print(f"Query: phi(x) = {phi}   (quantifier depth "
          f"{phi.quantifier_depth()})")
    print("Compiling for undirected graphs of treewidth 1 ...")
    solver = CourcelleSolver(
        phi,
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )
    compiled = solver.compiled
    print(f"  bottom-up types (Θ↑): {compiled.up_type_count}")
    print(f"  top-down types  (Θ↓): {compiled.down_type_count}")
    print(f"  datalog rules:        {len(compiled.program)}")
    print(f"  monadic:              {compiled.program.is_monadic()}")
    print(f"  quasi-guarded:        "
          f"{is_quasi_guarded(compiled.program, compiled.dependencies())}")
    print()

    print("A few generated rules (base case, transition, selection):")
    shown = {"leaf": None, "child1": None, ANSWER_PREDICATE: None}
    for rule in compiled.program.rules:
        if rule.head.predicate == ANSWER_PREDICATE and shown[ANSWER_PREDICATE] is None:
            shown[ANSWER_PREDICATE] = rule
        body_preds = {lit.atom.predicate for lit in rule.body}
        if "leaf" in body_preds and shown["leaf"] is None:
            shown["leaf"] = rule
        if "child1" in body_preds and shown["child1"] is None:
            shown["child1"] = rule
    for rule in shown.values():
        if rule is not None:
            print(f"  {rule}")
    print()

    caterpillar = Graph(range(8))
    for v in range(1, 6):
        caterpillar.add_edge(v - 1, v)
    # two isolated vertices: 6 and 7
    structure = graph_to_structure(caterpillar)
    answers = solver.query(structure)
    print(f"Answers on a path-with-isolated-vertices graph: "
          f"{sorted(answers, key=repr)}")
    print(f"Direct MSO evaluation agrees: "
          f"{answers == query(structure, phi, 'x')}")
    print()

    print("The MSO-to-FTA route the paper argues against would run an")
    print("automaton whose states are these same Θ↑ types, unminimized; on")
    print("unfiltered directed graphs that type space explodes. Run")
    print("benchmarks/bench_state_explosion.py for the numbers.")

if __name__ == "__main__":
    main()
