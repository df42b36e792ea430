"""Feedback-directed planning: run profiles, the cost model, and
minimal index selection.

Three pieces, composing into the profile -> replan -> re-index loop
(the Souffle playbook: automatic index selection per VLDB 2018, offline
profile-then-recompile per LOPSTR 2022):

* :class:`PlanProfile` -- observed cardinalities from one or more
  evaluation runs: per-relation sizes, per-access-pattern probe fanout,
  and per-plan-step input/output row counts.
* :class:`CostModel` -- turns a profile into the selectivity estimate
  `plan_rule` / `_order_body` use as a tie-break on equal bound-slot
  scores: exact recorded fanout when the access pattern was observed,
  otherwise a size-based independence estimate, otherwise unknown.
* :func:`min_index_selection` -- the MinIndexSelection pass: the
  search signatures (bound-position sets) of a prepared program's
  probe steps are covered by a minimum number of index structures by
  solving MinChainCover over the subset partial order (Dilworth via
  bipartite maximum matching).  Every chain of nested signatures
  s1 < s2 < ... becomes ONE shared lexicographic index whose column
  order lists s1 first, then s2-s1, ... -- each signature probes the
  index on a key prefix.  Singleton chains keep the plain hash index.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "CostModel",
    "IndexSelection",
    "LexSpec",
    "PlanProfile",
    "min_index_selection",
]


class PlanProfile:
    """Cardinality feedback from evaluation runs.

    ``relation_sizes`` keeps the *maximum* observed size per predicate
    (derived relations only grow during a fixpoint, so max == final).
    ``probe_counts`` maps ``(predicate, sorted bound positions)`` to
    ``[probes, matches]`` so fanout = matches / probes is exact for
    access patterns the profiled run actually executed.  ``step_rows``
    maps ``(rule_index, step_index)`` to ``[rows_in, rows_out]``.
    """

    __slots__ = ("relation_sizes", "probe_counts", "step_rows", "rounds")

    def __init__(self) -> None:
        self.relation_sizes: dict[str, int] = {}
        self.probe_counts: dict[tuple[str, tuple[int, ...]], list[int]] = {}
        self.step_rows: dict[tuple[int, int], list[int]] = {}
        #: max observed semi-naive delta rounds: the scan estimate of a
        #: delta-restricted atom is its size divided by this
        self.rounds: int = 0

    # -- recording -----------------------------------------------------

    def record_size(self, predicate: str, size: int) -> None:
        prior = self.relation_sizes.get(predicate, 0)
        if size > prior:
            self.relation_sizes[predicate] = size

    def record_sizes(self, db) -> None:
        """Record the current size of every relation in ``db`` (a
        `Database` or `SetDatabase` -- anything with ``predicates()``
        and ``relation()``)."""
        for predicate in db.predicates():
            self.record_size(predicate, len(db.relation(predicate)))

    def record_probe(
        self,
        predicate: str,
        positions: tuple[int, ...],
        probes: int,
        matches: int,
    ) -> None:
        if probes <= 0:
            return
        counts = self.probe_counts.get((predicate, positions))
        if counts is None:
            self.probe_counts[(predicate, positions)] = [probes, matches]
        else:
            counts[0] += probes
            counts[1] += matches

    def record_step(
        self, rule_index: int, step_index: int, rows_in: int, rows_out: int
    ) -> None:
        rows = self.step_rows.get((rule_index, step_index))
        if rows is None:
            self.step_rows[(rule_index, step_index)] = [rows_in, rows_out]
        else:
            rows[0] += rows_in
            rows[1] += rows_out

    def record_rounds(self, rounds: int) -> None:
        if rounds > self.rounds:
            self.rounds = rounds

    # -- queries -------------------------------------------------------

    def size(self, predicate: str) -> int | None:
        return self.relation_sizes.get(predicate)

    def fanout(
        self, predicate: str, positions: tuple[int, ...]
    ) -> float | None:
        counts = self.probe_counts.get((predicate, positions))
        if counts is None or counts[0] <= 0:
            return None
        return counts[1] / counts[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanProfile(sizes={len(self.relation_sizes)}, "
            f"probes={len(self.probe_counts)}, "
            f"steps={len(self.step_rows)})"
        )


class CostModel:
    """Selectivity estimates backed by a :class:`PlanProfile`.

    ``estimate(predicate, arity, bound_positions)`` returns the
    expected number of rows a probe of ``predicate`` with the given
    bound positions produces, or ``None`` when the profile has no
    signal for that predicate:

    1. exact observed fanout for that access pattern, if recorded;
    2. otherwise ``size ** (1 - bound/arity)`` -- the classic
       attribute-independence estimate from the recorded size;
    3. otherwise ``None`` (caller falls back to static tie-breaks).

    ``delta=True`` marks an atom the semi-naive rounds delta-restrict:
    its *scan* estimate is the relation size divided by the observed
    round count -- the per-round delta is what a recursive step
    actually reads, and comparing its full final size against a guard
    relation would demote recursive atoms to the back of every plan.
    """

    __slots__ = ("profile",)

    def __init__(self, profile: PlanProfile) -> None:
        self.profile = profile

    def estimate(
        self,
        predicate: str,
        arity: int,
        bound_positions: Iterable[int],
        *,
        delta: bool = False,
    ) -> float | None:
        positions = tuple(sorted(bound_positions))
        fan = self.profile.fanout(predicate, positions)
        if fan is not None:
            return fan
        size = self.profile.size(predicate)
        if size is None:
            return None
        if not positions:
            if delta:
                return max(1.0, size / max(1, self.profile.rounds))
            return float(size)
        if arity <= 0 or len(positions) >= arity:
            return 1.0
        return float(size) ** (1.0 - len(positions) / arity)


class LexSpec:
    """One shared lexicographic index: a full column order plus the
    key-prefix lengths at which the covered signatures probe it."""

    __slots__ = ("predicate", "order", "prefixes")

    def __init__(
        self,
        predicate: str,
        order: tuple[int, ...],
        prefixes: tuple[int, ...],
    ) -> None:
        self.predicate = predicate
        self.order = order
        self.prefixes = prefixes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LexSpec({self.predicate}, order={self.order})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LexSpec)
            and self.predicate == other.predicate
            and self.order == other.order
            and self.prefixes == other.prefixes
        )


class IndexSelection:
    """The result of :func:`min_index_selection`.

    ``probe_spec(predicate, positions)`` resolves a search signature
    (sorted bound positions) to ``(full lex order, prefix length)``
    when a shared lexicographic index covers it, or ``None`` when the
    signature keeps its per-pattern hash index (singleton chains).
    """

    __slots__ = ("lex_specs", "_probes", "_known", "n_signatures", "n_indexes")

    def __init__(
        self,
        lex_specs: tuple[LexSpec, ...],
        probes: dict[tuple[str, tuple[int, ...]], tuple[tuple[int, ...], int]],
        known: frozenset,
        n_signatures: int,
        n_indexes: int,
    ) -> None:
        self.lex_specs = lex_specs
        self._probes = probes
        self._known = known
        self.n_signatures = n_signatures
        self.n_indexes = n_indexes

    def probe_spec(
        self, predicate: str, positions: tuple[int, ...]
    ) -> tuple[tuple[int, ...], int] | None:
        return self._probes.get((predicate, positions))

    def covers(self, predicate: str, positions: tuple[int, ...]) -> bool:
        """Every signature handed to min_index_selection is covered:
        either by a lex prefix or by its own hash index (recorded as a
        singleton chain).  Unknown signatures are NOT covered."""
        return (predicate, positions) in self._known

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexSelection({self.n_signatures} signatures -> "
            f"{self.n_indexes} indexes, {len(self.lex_specs)} lex)"
        )


def _max_matching(n: int, adjacency: list[list[int]]) -> dict[int, int]:
    """Kuhn's augmenting-path maximum bipartite matching.  Left and
    right vertex sets are both the signature list; an edge u -> v means
    signature u is a strict subset of signature v.  Returns
    ``match_to``: right vertex -> matched left vertex."""
    match_to: dict[int, int] = {}

    def try_augment(u: int, visited: set[int]) -> bool:
        for v in adjacency[u]:
            if v in visited:
                continue
            visited.add(v)
            w = match_to.get(v)
            if w is None or try_augment(w, visited):
                match_to[v] = u
                return True
        return False

    for u in range(n):
        try_augment(u, set())
    return match_to


def min_index_selection(
    signatures: Mapping[str, Iterable[tuple[int, ...]]],
) -> IndexSelection:
    """Solve MinIndexSelection over per-predicate search signatures.

    ``signatures`` maps predicate -> iterable of sorted bound-position
    tuples.  Per predicate, the minimum number of indexes covering all
    signatures equals the minimum number of chains covering the subset
    partial order (Mirsky/Dilworth), computed as
    ``n - |maximum matching|`` on the strict-subset DAG.  Chains of
    length >= 2 are realized as one shared lexicographic index
    (:class:`LexSpec`); singletons keep their hash index.
    """
    lex_specs: list[LexSpec] = []
    probes: dict[tuple[str, tuple[int, ...]], tuple[tuple[int, ...], int]] = {}
    known: set[tuple[str, tuple[int, ...]]] = set()
    n_signatures = 0
    n_indexes = 0

    for predicate in sorted(signatures):
        sigs = sorted(
            {tuple(sorted(sig)) for sig in signatures[predicate] if sig},
            key=lambda s: (len(s), s),
        )
        if not sigs:
            continue
        n_signatures += len(sigs)
        for sig in sigs:
            known.add((predicate, sig))
        sets = [frozenset(sig) for sig in sigs]
        n = len(sets)
        adjacency = [
            [v for v in range(n) if u != v and sets[u] < sets[v]]
            for u in range(n)
        ]
        match_to = _max_matching(n, adjacency)
        successor = {u: v for v, u in match_to.items()}
        heads = [u for u in range(n) if u not in match_to]
        n_indexes += len(heads)
        for head in heads:
            chain = [head]
            while chain[-1] in successor:
                chain.append(successor[chain[-1]])
            if len(chain) < 2:
                continue  # singleton: keep the hash index
            order: list[int] = []
            prefixes: list[int] = []
            covered: set[int] = set()
            for u in chain:
                order.extend(sorted(sets[u] - covered))
                covered |= sets[u]
                prefixes.append(len(order))
            spec = LexSpec(predicate, tuple(order), tuple(prefixes))
            lex_specs.append(spec)
            for u in chain:
                sig = sigs[u]
                probes[(predicate, sig)] = (spec.order, len(sig))

    return IndexSelection(
        tuple(lex_specs), probes, frozenset(known), n_signatures, n_indexes
    )
