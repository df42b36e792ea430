"""Untrusted-input admission: the verify -> rebuild -> degrade ladder.

A solver compiled at width 1 (Theorem 4.5: compile once, solve many)
is handed progressively worse inputs: a clean path with a valid
decomposition, the same path with a corrupted decomposition (alien bag
elements, a broken connectedness run), a clique outside the width
envelope, and a structure whose facts escape its own domain.  Every
solve goes through the admission ladder: ``query`` admits under
``"strict"`` unless the call names another policy.  Under ``"repair"``
and ``"degrade"`` the ladder rebuilds the broken decomposition from the
structure, serves the over-width clique by budgeted direct MSO
evaluation, and rejects only the genuinely unservable input -- with a
machine-readable report at every step.

Run:  python examples/admission.py
"""

from repro.admission import admit
from repro.core import CourcelleSolver, undirected_graph_filter
from repro.errors import AdmissionRejected
from repro.mso import formulas
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure
from repro.treewidth import RootedTree, TreeDecomposition, decompose_structure


def corrupted_copy(td):
    """A broken variant of a valid decomposition: an alien element in
    one bag, a connectedness run severed in the middle.  Built with
    the constructors bypassed -- they would (rightly) refuse."""
    tree = RootedTree.__new__(RootedTree)
    tree.root = td.tree.root
    tree._children = {n: list(c) for n, c in td.tree._children.items()}
    tree._parent = dict(td.tree._parent)
    tree._next_id = td.tree._next_id
    bad = TreeDecomposition.__new__(TreeDecomposition)
    bad.tree = tree
    bad.bags = dict(td.bags)
    nodes = sorted(bad.bags)
    bad.bags[nodes[0]] = bad.bags[nodes[0]] | {999}  # alien element
    middle = nodes[len(nodes) // 2]
    bad.bags[middle] = frozenset(list(bad.bags[middle])[:1])  # sever a run
    return bad


def show(title, report):
    print(f"  {title}")
    print(f"    verdict:    {report.verdict}")
    if report.violations:
        codes = sorted({v.code for v in report.violations})
        print(f"    violations: {', '.join(codes)}")
    if report.repairs:
        print(f"    repairs:    {', '.join(report.repairs)}")
    if report.degrade_reason:
        print(f"    degraded:   {report.degrade_reason}")
    print()


def main() -> None:
    solver = CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )
    print("Compiled has_neighbor(x) at width 1.\n")

    # 1. clean input: the fast path, nothing touched
    path = graph_to_structure(Graph.path(6))
    td = decompose_structure(path)
    answer, report = solver.solve_admitted(path, td, policy="repair")
    show("path-6 with its valid decomposition", report)
    assert answer == frozenset(path.domain)

    # 2. corrupted decomposition: rebuilt, same answer
    answer, report = solver.solve_admitted(
        path, corrupted_copy(td), policy="repair"
    )
    show("path-6 with a corrupted decomposition", report)
    assert answer == frozenset(path.domain)

    # 3. over the width envelope: the strict default refuses it ...
    clique = graph_to_structure(Graph.complete(4))
    try:
        solver.query(clique)
    except AdmissionRejected as exc:
        show("K4 through query() (policy strict, the default)", exc.report)
    # ... and "degrade" serves it by budgeted direct MSO evaluation
    answer, report = solver.solve_admitted(clique, policy="degrade")
    show("K4 (treewidth 3) through the width-1 program", report)
    assert answer == frozenset(clique.domain)

    # 4. unservable: facts escape the declared domain -> typed reject
    from repro.admission import RawStructure

    broken = RawStructure(GRAPH_SIGNATURE, [0, 1], {"e": [(0, 7), (7, 0)]})
    try:
        solver.solve_admitted(broken, policy="degrade")
    except AdmissionRejected as exc:
        show("edge to a vertex outside the domain", exc.report)
        print(f"    raised: {type(exc).__name__} "
              f"(still a ValueError: {isinstance(exc, ValueError)})")

    print("\nEvery input resolved: one served as-is, one rebuilt, one")
    print("refused by the strict default and then degraded, one rejected")
    print("with a full report -- and the same ladder guards every")
    print("SolverService worker (admission= on the service or per")
    print("request, strict otherwise).")


if __name__ == "__main__":
    main()
