"""3-Colorability on graph families (Section 5.1), with witnesses.

Checks several graph families with the Figure 5 program (datalog and
direct), extracts an explicit coloring where one exists, and verifies
it.  Also shows the fixed, data-independent program text.

Run:  python examples/three_coloring_maps.py
"""

import random

from repro.problems import (
    ThreeColoringDatalog,
    is_valid_k_coloring,
    random_partial_ktree,
    three_coloring_direct,
    three_coloring_program,
)
from repro.structures import Graph


def show(graph: Graph, name: str, solver: ThreeColoringDatalog) -> None:
    colorable, witness = three_coloring_direct(graph, want_witness=True)
    datalog_says = solver.decide(graph)
    assert datalog_says == colorable, "solver disagreement!"
    line = f"  {name:<24} n={graph.vertex_count():<4} m={graph.edge_count():<4}"
    if colorable:
        assert witness is not None and is_valid_k_coloring(graph, witness, 3)
        sample = ", ".join(
            f"{v}={witness[v]}" for v in sorted(witness, key=repr)[:5]
        )
        print(f"{line} 3-colorable  e.g. {sample}, ...")
    else:
        print(f"{line} NOT 3-colorable")


def main() -> None:
    print("The Figure 5 program (fixed for every input):\n")
    print(three_coloring_program())
    print()

    solver = ThreeColoringDatalog()
    print("Families:")
    show(Graph.cycle(7), "odd cycle C7", solver)
    show(Graph.cycle(8), "even cycle C8", solver)
    show(Graph.complete(3), "triangle K3", solver)
    show(Graph.complete(4), "clique K4", solver)
    show(Graph.grid(4, 5), "grid 4x5", solver)

    wheel = Graph.cycle(5)
    for v in range(5):
        wheel.add_edge("hub", v)
    show(wheel, "odd wheel W5", solver)

    print("\nRandom partial 2-trees (bounded treewidth inputs):")
    rng = random.Random(2007)
    for i in range(4):
        graph, td = random_partial_ktree(rng, 30, 2, edge_probability=0.7)
        colorable, witness = three_coloring_direct(graph, td, want_witness=True)
        status = "3-colorable" if colorable else "NOT 3-colorable"
        print(f"  instance {i}: n=30 width<={td.width}  {status}")
        if witness is not None:
            assert is_valid_k_coloring(graph, witness, 3)


if __name__ == "__main__":
    main()
