"""The post-minimization program-shrinking pass (ROADMAP D).

One optimization runs after the Theorem 4.5 compiler's Myhill-Nerode
minimization, named by the ``passes`` tuple threaded through
:class:`~repro.core.solver.CourcelleSolver`:

* ``"fold"`` -- ⊥-insensitive class folding: merge minimized classes
  whose observable differences are confined to *unrealized* step
  entries (permutations, replacements, or glue pairs the
  ``structure_filter`` rejected).  The partition machinery lives in
  :func:`repro.core.typealg.fold_partition`; the compiler drives it.
  This module only names the pass.

``passes=()`` is the retained ablation the width-2 benchmark gate
compares against.  Evaluation-side shortcuts are not passes: the
SCC-refined strata of :func:`repro.datalog.evaluate.refine_strata`
(built on :func:`strongly_connected_components` here) and the
streamed grounder's deferred sink rules are always on.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

#: every pass the pipeline knows, in application order
KNOWN_PASSES = ("fold",)

#: the production default (``passes=()`` is the retained ablation,
#: like ``minimize=False``)
DEFAULT_PASSES = ("fold",)

__all__ = [
    "DEFAULT_PASSES",
    "KNOWN_PASSES",
    "normalize_passes",
    "strongly_connected_components",
]


def normalize_passes(passes: Sequence[str] | None) -> tuple[str, ...]:
    """Validate and canonicalize a ``passes`` configuration.

    ``None`` means the production default; anything else is kept in
    :data:`KNOWN_PASSES` application order (input order and duplicates
    do not matter).  Raises :class:`ValueError` on unknown names so a
    typo cannot silently disable an optimization.
    """
    if passes is None:
        return DEFAULT_PASSES
    requested = set(passes)
    unknown = requested - set(KNOWN_PASSES)
    if unknown:
        raise ValueError(
            f"unknown passes {sorted(unknown)}; known: {KNOWN_PASSES}"
        )
    return tuple(p for p in KNOWN_PASSES if p in requested)


def strongly_connected_components(
    nodes: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
) -> list[tuple[Hashable, ...]]:
    """Tarjan's algorithm, iteratively (no recursion-depth limit).

    Components come out in *reverse topological* order: every edge of
    the condensation goes from a later component to an earlier one, so
    dependencies precede their dependents in the returned list --
    exactly the evaluation order a stratified fixpoint wants.
    """
    index: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    components: list[tuple[Hashable, ...]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # each frame: (node, iterator over its successors)
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    if index[succ] < lowlink[node]:
                        lowlink[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is node or member == node:
                        break
                components.append(tuple(component))
    return components
