"""Property-based corruption suite: take a valid decomposition, mutate
it randomly (drop bag elements, inject aliens, clear bags, rewire tree
edges), and assert the admission layer either rebuilds it to a clean
decomposition or rejects with a report naming a real violation -- and
that answers served through admission always agree with direct MSO
evaluation."""

from hypothesis import given, strategies as st

from repro.admission import admit, redecompose, verify_decomposition
from repro.errors import AdmissionRejected
from repro.mso import formulas, query as mso_query
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure
from repro.structures.graphs import subgraph
from repro.treewidth import RootedTree, TreeDecomposition, decompose_structure

from ..conftest import small_graphs, small_trees

HAS_NEIGHBOR = formulas.has_neighbor("x")


def clone_td(td):
    """A mutable deep copy built with the same constructor-bypassing
    surgery the corpus loader uses -- mutations must not be able to
    trip the constructors' own checks."""
    tree = RootedTree.__new__(RootedTree)
    tree.root = td.tree.root
    tree._children = {n: list(c) for n, c in td.tree._children.items()}
    tree._parent = dict(td.tree._parent)
    tree._next_id = td.tree._next_id
    clone = TreeDecomposition.__new__(TreeDecomposition)
    clone.tree = tree
    clone.bags = dict(td.bags)
    return clone


@st.composite
def mutations(draw, max_mutations: int = 4):
    """A list of (kind, salt) mutation directives, applied in order."""
    kinds = st.sampled_from(
        ["drop-element", "inject-alien", "clear-bag", "rewire-edge"]
    )
    n = draw(st.integers(min_value=1, max_value=max_mutations))
    return [
        (draw(kinds), draw(st.integers(min_value=0, max_value=10**6)))
        for _ in range(n)
    ]


def apply_mutations(td, directives):
    """Deterministically apply each directive; returns the number that
    actually changed something."""
    applied = 0
    for kind, salt in directives:
        nodes = sorted(td.bags)
        if not nodes:
            break
        node = nodes[salt % len(nodes)]
        if kind == "drop-element":
            bag = sorted(td.bags[node], key=repr)
            if not bag:
                continue
            victim = bag[salt % len(bag)]
            td.bags[node] = td.bags[node] - {victim}
            applied += 1
        elif kind == "inject-alien":
            td.bags[node] = td.bags[node] | {9000 + salt % 7}
            applied += 1
        elif kind == "clear-bag":
            if not td.bags[node]:
                continue
            td.bags[node] = frozenset()
            applied += 1
        elif kind == "rewire-edge":
            # re-parent a non-root node onto an arbitrary node --
            # possibly creating a cycle or orphaning a subtree
            non_root = [n for n in nodes if n != td.tree.root]
            if not non_root:
                continue
            child = non_root[salt % len(non_root)]
            target = nodes[(salt // 7) % len(nodes)]
            if target == child:
                continue
            old = td.tree._parent.get(child)
            if old is not None and child in td.tree._children.get(old, ()):
                td.tree._children[old].remove(child)
            td.tree._parent[child] = target
            td.tree._children.setdefault(target, []).append(child)
            applied += 1
    return applied


@given(graph=small_trees(), directives=mutations())
def test_mutated_decompositions_repair_clean_or_reject_with_report(
    graph, directives
):
    structure = graph_to_structure(graph)
    td = decompose_structure(structure)
    mutated = clone_td(td)
    apply_mutations(mutated, directives)
    try:
        result = admit(
            structure,
            signature=GRAPH_SIGNATURE,
            width=1,
            td=mutated,
            policy="repair",
        )
    except AdmissionRejected as exc:
        # a rejection must carry evidence, and that evidence must be
        # real: re-verifying the mutated input reproduces the codes
        assert exc.report.violations
        if exc.report.redecomposed or not any(
            v.code == "width-exceeded" for v in exc.report.violations
        ):
            recheck = {
                v.code
                for v in verify_decomposition(mutated, structure, 1)
            }
            assert {v.code for v in exc.report.violations} & recheck
        return
    assert result.report.verdict in ("admitted", "repaired")
    if result.action == "solve":
        # whatever the ladder hands the solver must satisfy the
        # Section 2.2 axioms and the width envelope, unconditionally
        assert verify_decomposition(result.td, result.structure, 1) == []


@given(graph=small_graphs(), directives=mutations())
def test_admitted_answers_agree_with_direct_evaluation(
    neighbor_solver, graph, directives
):
    """Conformance: for every graph (any treewidth) and any corruption,
    an answer served through the admission pipeline under ``degrade``
    equals ground-truth direct MSO evaluation -- repair and degradation
    may change *how* we solve, never *what* the answer is."""
    structure = graph_to_structure(graph)
    td = decompose_structure(structure)
    mutated = clone_td(td)
    apply_mutations(mutated, directives)
    expected = mso_query(structure, HAS_NEIGHBOR, "x")
    got = neighbor_solver.query(structure, mutated, admission="degrade")
    assert got == expected


@st.composite
def forests(draw, max_vertices: int = 12):
    """Random labelled forests (treewidth <= 1) of at least 2 vertices."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = Graph(range(n))
    for v in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=v - 1))
        if parent >= 0:
            graph.add_edge(v, parent)
    return graph


@st.composite
def deleted_ladders(draw, max_columns: int = 12):
    """Vertex-deleted 2 x N ladders (treewidth <= 2), at least 3 vertices
    kept."""
    ladder = Graph.grid(2, draw(st.integers(min_value=2, max_value=max_columns)))
    vertices = sorted(ladder.vertices)
    keep = draw(
        st.lists(st.sampled_from(vertices), min_size=3, unique=True)
    )
    return subgraph(ladder, sorted(keep))


@given(
    case=st.one_of(
        st.tuples(forests(), st.just(1)),
        st.tuples(deleted_ladders(), st.just(2)),
    ),
    directives=mutations(),
)
def test_rebuild_is_complete_at_the_compiled_widths(case, directives):
    """At widths 1 and 2 the rebuild never loses a request: whatever the
    mutations did to a valid decomposition, ``"repair"`` serves a
    decomposition that verifies clean at the width, and the report
    names the rebuild and nothing else -- no bag is patched."""
    graph, width = case
    structure = graph_to_structure(graph)
    td, _ = redecompose(structure)
    assert verify_decomposition(td, structure, width) == []
    mutated = clone_td(td)
    apply_mutations(mutated, directives)
    defects = verify_decomposition(mutated, structure, width)
    result = admit(
        structure,
        signature=GRAPH_SIGNATURE,
        width=width,
        td=mutated,
        policy="repair",
    )  # never rejected
    assert result.action == "solve"
    assert verify_decomposition(result.td, result.structure, width) == []
    if defects:
        assert result.report.verdict == "repaired"
        assert result.report.redecomposed
        assert result.report.repairs == ("redecomposed:min_degree",)
    else:
        assert result.report.verdict == "admitted"
        assert result.report.repairs == ()
