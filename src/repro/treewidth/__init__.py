"""Treewidth substrate: decompositions, construction, normal forms, encoding."""

from .decomposition import (
    NodeId,
    RootedTree,
    TreeDecomposition,
    refinement_violations,
    validate_refinement,
)
from .exact import is_treewidth_at_most, treewidth_exact
from .heuristics import (
    decompose_graph,
    decompose_structure,
    decomposition_from_order,
    min_degree_order,
    min_fill_order,
)
from .nice import (
    NiceNodeKind,
    NiceTreeDecomposition,
    ensure_elements_in_leaves,
    make_nice,
    reroot_to_contain,
    surround_branches,
)
from .normalize import (
    NormalizedNodeKind,
    NormalizedTreeDecomposition,
    normalize,
    widen,
)
from .encode import (
    TDNode,
    encode_nice,
    encode_normalized,
    load_nice,
    load_nice_ids,
    load_normalized,
)

__all__ = [
    "NiceNodeKind",
    "NiceTreeDecomposition",
    "NodeId",
    "NormalizedNodeKind",
    "NormalizedTreeDecomposition",
    "RootedTree",
    "TDNode",
    "TreeDecomposition",
    "decompose_graph",
    "decompose_structure",
    "decomposition_from_order",
    "encode_nice",
    "encode_normalized",
    "ensure_elements_in_leaves",
    "is_treewidth_at_most",
    "load_nice",
    "load_nice_ids",
    "load_normalized",
    "make_nice",
    "min_degree_order",
    "min_fill_order",
    "normalize",
    "refinement_violations",
    "validate_refinement",
    "widen",
    "reroot_to_contain",
    "surround_branches",
    "treewidth_exact",
]
