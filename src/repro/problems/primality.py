"""PRIMALITY over bounded-treewidth schemas (Sections 5.2 and 5.3).

Is attribute ``a`` part of some key of the schema ``(R, F)``?  The
algorithm searches for the Example 2.6 witness: a closed set Y with
``a ∉ Y`` and ``(Y ∪ {a})+ = R``, maintained along the decomposition by
the ``solve(s, Y, FY, Co, ΔC, FC)`` predicate of Figure 6 (Property B):

* ``Y``  -- projection of the closed set onto the bag attributes;
* ``Co`` -- projection of its complement, *ordered* by the derivation
  sequence of R from Y ∪ {a};
* ``FY`` -- bag FDs already excused from threatening Y's closedness;
* ``FC`` -- bag FDs used by the derivation sequence;
* ``ΔC`` -- bag attributes whose derivation has been verified.

Implementations (cross-validated in the test-suite):

* :class:`PrimalityDatalog` / :func:`primality_program` -- Figure 6 as
  an engine-executed datalog program (decision);
* :func:`enumeration_program` -- the Section 5.3 Monadic-Primality
  program with the top-down ``solvedown`` predicate (all primes,
  linear time);
* :func:`primality_direct` / :func:`prime_attributes_direct` -- the
  same dynamic programs hand-coded in Python;
* :func:`prime_attributes_rerooting` -- the quadratic strawman that
  Section 5.3 opens with (one decision run per attribute, re-rooted);
* ground truth: :meth:`RelationalSchema.is_prime_bruteforce`.

Both datalog programs run on the set-at-a-time semi-naive engine over
an input loaded in id space: :func:`load_for_primality` writes ``A_td``
with the split ``bag(s, At, Fd)`` and the ``copynode`` tags straight
into a :class:`~repro.datalog.setengine.SetDatabase`
(:func:`repro.treewidth.encode.load_nice`).  The decision reads the
nullary ``success`` fact in id space; the enumeration decodes only the
``prime`` relation.  :func:`encode_for_primality` is the value-level
form of the same input, the load's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator

from ..datalog.ast import Constant, Program, atom, pos, rule, var
from ..datalog.builtins import (
    Builtin,
    BuiltinRegistry,
    UNBOUND,
    make_check,
    make_function,
    standard_registry,
)
from ..datalog.evaluate import PreparedProgram, prepare_program
from ..datalog.setengine import SetDatabase, SetSemiNaiveEvaluator
from ..structures.schema import Attribute, RelationalSchema
from ..structures.structure import Structure
from ..treewidth.decomposition import TreeDecomposition
from ..treewidth.encode import encode_nice, load_nice
from ..treewidth.heuristics import decompose_structure
from ..treewidth.nice import (
    NiceNodeKind,
    NiceTreeDecomposition,
    ensure_elements_in_leaves,
    make_nice,
    reroot_to_contain,
    surround_branches,
)
from .._util import powerset

#: solve-state: (Y, FY, Co, ΔC, FC) with Co an ordered tuple.
State = tuple[frozenset, frozenset, tuple, frozenset, frozenset]


# ----------------------------------------------------------------------
# Decomposition preparation (Section 5.2 preliminaries)
# ----------------------------------------------------------------------


def _enrich_with_rhs(
    td: TreeDecomposition, schema: RelationalSchema
) -> TreeDecomposition:
    """Add rhs(f) to every bag containing f.

    "We require that, whenever an FD f is contained in a bag, then the
    attribute rhs(f) is as well.  In the worst-case, this may double the
    width."  Connectedness survives: rhs(f)'s subtree is unioned with
    f's subtree, and the two already intersect (they share a bag by the
    coverage of the ``rh`` tuple).
    """
    fd_names = {f.name for f in schema.fds}
    bags = {
        node: bag
        | {schema.fd(e).rhs for e in bag if e in fd_names}
        for node, bag in td.bags.items()
    }
    return TreeDecomposition(td.tree.copy(), bags)


def _schema_sort_keys(schema: RelationalSchema):
    """Interpolation orderings preserving the rhs-in-bag invariant:
    remove FDs before attributes, introduce attributes before FDs."""
    fd_names = {f.name for f in schema.fds}

    def removal_key(element):
        return 0 if element in fd_names else 1

    def introduction_key(element):
        return 0 if element not in fd_names else 1

    return removal_key, introduction_key


def prepare_decision_decomposition(
    schema: RelationalSchema,
    attribute: Attribute,
    td: TreeDecomposition | None = None,
) -> NiceTreeDecomposition:
    """Nice decomposition with ``attribute`` in the root bag."""
    structure = schema.to_structure()
    if td is None:
        td = decompose_structure(structure)
    td = _enrich_with_rhs(td, schema)
    td = reroot_to_contain(td, attribute)
    removal_key, introduction_key = _schema_sort_keys(schema)
    nice = make_nice(td, removal_key, introduction_key)
    nice.validate(structure)
    _check_rhs_invariant(nice, schema)
    return nice


def prepare_enumeration_decomposition(
    schema: RelationalSchema,
    td: TreeDecomposition | None = None,
) -> NiceTreeDecomposition:
    """Nice decomposition for the enumeration problem (Section 5.3):
    every attribute in some leaf bag, branch nodes surrounded by
    equal-bag neighbours, root not a branch node."""
    structure = schema.to_structure()
    if td is None:
        td = decompose_structure(structure)
    td = _enrich_with_rhs(td, schema)
    td = ensure_elements_in_leaves(td, schema.attributes)
    removal_key, introduction_key = _schema_sort_keys(schema)
    nice = surround_branches(make_nice(td, removal_key, introduction_key))
    nice.validate(structure)
    _check_rhs_invariant(nice, schema)
    return nice


def _check_rhs_invariant(
    nice: NiceTreeDecomposition, schema: RelationalSchema
) -> None:
    fd_names = {f.name for f in schema.fds}
    for node in nice.tree.nodes():
        bag = nice.bag(node)
        for element in bag:
            if element in fd_names and schema.fd(element).rhs not in bag:
                raise AssertionError(
                    f"bag of node {node} contains {element} without its "
                    "right-hand side"
                )


def _bag_splitter(schema: RelationalSchema):
    """The ``bag(s, At, Fd)`` payload: a bag's attributes and FDs."""
    fd_names = {f.name for f in schema.fds}

    def payload(bag: frozenset) -> tuple:
        at = frozenset(e for e in bag if e not in fd_names)
        fd = frozenset(e for e in bag if e in fd_names)
        return (at, fd)

    return payload


def encode_for_primality(
    schema: RelationalSchema, nice: NiceTreeDecomposition
) -> Structure:
    """``A_td`` with bags split as ``bag(s, At, Fd)``; the value-level
    oracle of :func:`load_for_primality`."""
    return encode_nice(
        schema.to_structure(), nice, bag_payload=_bag_splitter(schema)
    )


def load_for_primality(
    schema: RelationalSchema, nice: NiceTreeDecomposition
) -> SetDatabase:
    """:func:`encode_for_primality`, loaded straight into ids
    (:func:`~repro.treewidth.encode.load_nice`)."""
    return load_nice(
        schema.to_structure(), nice, bag_payload=_bag_splitter(schema)
    )


# ----------------------------------------------------------------------
# The transition algebra shared by all implementations
# ----------------------------------------------------------------------


class PrimalityAlgebra:
    """The Figure 6 / Property B transitions as plain functions.

    Both the bottom-up ``solve`` pass and the top-down ``solvedown``
    pass (Section 5.3) are built from these: a downward step through an
    introduction node is the removal transition and vice versa.
    """

    def __init__(self, schema: RelationalSchema):
        self.schema = schema
        self.lhs = {f.name: f.lhs for f in schema.fds}
        self.rhs = {f.name: f.rhs for f in schema.fds}

    # -- helper predicates (Section 5.2) --------------------------------

    def outside(self, y: frozenset, at: frozenset, fds: Iterable) -> frozenset:
        """{f in fds : rhs(f) not in Y and lhs(f) ∩ At not subseteq Y}."""
        return frozenset(
            f
            for f in fds
            if self.rhs[f] not in y and (self.lhs[f] & at) - y
        )

    def consistent(self, fc: Iterable, co: tuple) -> bool:
        """FDs in FC only derive greater attributes from smaller ones."""
        position = {b: i for i, b in enumerate(co)}
        for f in fc:
            b = self.rhs[f]
            if b not in position:
                return False
            if any(
                position.get(x, -1) >= position[b]
                for x in self.lhs[f]
                if x in position
            ):
                return False
        return True

    def unique(self, dc1: frozenset, dc2: frozenset, fc: Iterable) -> bool:
        """No attribute derived by two different FDs across a branch."""
        return dc1 & dc2 == frozenset(self.rhs[f] for f in fc)

    def rhs_set(self, fc: Iterable) -> frozenset:
        return frozenset(self.rhs[f] for f in fc)

    def outside_all(self, y: frozenset, fds: Iterable) -> frozenset:
        """{f in fds : rhs(f) not in Y} -- the root/leaf acceptance check."""
        return frozenset(f for f in fds if self.rhs[f] not in y)

    # -- node transitions -------------------------------------------------

    def leaf_states(self, at: frozenset, fds: frozenset) -> Iterator[State]:
        """The leaf-rule guesses: a partition of the bag attributes with
        an ordering on the Co part and a consistent used-FD subset."""
        attrs = sorted(at, key=repr)
        for y_tuple in powerset(attrs):
            y = frozenset(y_tuple)
            co_set = [b for b in attrs if b not in y]
            fy = self.outside(y, at, fds)
            for co in permutations(co_set):
                for fc_tuple in powerset(sorted(fds, key=repr)):
                    fc = frozenset(fc_tuple)
                    if not self.consistent(fc, co):
                        continue
                    dc = self.rhs_set(fc)
                    yield (y, fy, co, dc, fc)

    def attr_intro(
        self, state: State, b: Attribute, new_at: frozenset, fds: frozenset
    ) -> Iterator[State]:
        """Introduce attribute ``b``: it joins Y, or joins Co at any
        position consistent with FC."""
        y, fy, co, dc, fc = state
        yield (y | {b}, fy, co, dc, fc)
        for i in range(len(co) + 1):
            co2 = co[:i] + (b,) + co[i:]
            if not self.consistent(fc, co2):
                continue
            fy2 = fy | self.outside(y, new_at, fds)
            yield (y, fy2, co2, dc, fc)

    def attr_removal(self, state: State, b: Attribute) -> Iterator[State]:
        """Remove attribute ``b``: it leaves Y, or leaves Co provided its
        derivation was verified (b in ΔC)."""
        y, fy, co, dc, fc = state
        if b in y:
            yield (y - {b}, fy, co, dc, fc)
        elif b in dc:
            co2 = tuple(x for x in co if x != b)
            yield (y, fy, co2, dc - {b}, fc)

    def fd_intro(
        self, state: State, f: str, at: frozenset
    ) -> Iterator[State]:
        """Introduce FD ``f`` (rhs(f) is in the bag by the invariant)."""
        y, fy, co, dc, fc = state
        b = self.rhs[f]
        if b in y:
            yield (y, fy, co, dc, fc)
            return
        # rhs(f) in Co: guess whether f is used in the derivation
        excused = self.outside(y, at, [f])
        if b not in dc and self.consistent([f], co):
            yield (y, fy | excused, co, dc | {b}, fc | {f})
        yield (y, fy | excused, co, dc, fc)

    def fd_removal(self, state: State, f: str) -> Iterator[State]:
        """Remove FD ``f``: if rhs(f) escapes Y, f must have been excused
        (f in FY); a used f leaves FC."""
        y, fy, co, dc, fc = state
        b = self.rhs[f]
        if b in y:
            yield (y, fy, co, dc, fc)
            return
        if f not in fy:
            return  # would contradict closedness of Y
        fy2 = fy - {f}
        if f in fc:
            yield (y, fy2, co, dc, fc - {f})
        else:
            yield (y, fy2, co, dc, fc)

    def branch_combine(self, s1: State, s2: State) -> Iterator[State]:
        """Combine equal-bag sibling states (Y, Co, FC must agree;
        FY and ΔC are unioned under the uniqueness proviso)."""
        y1, fy1, co1, dc1, fc1 = s1
        y2, fy2, co2, dc2, fc2 = s2
        if y1 != y2 or co1 != co2 or fc1 != fc2:
            return
        if not self.unique(dc1, dc2, fc1):
            return
        yield (y1, fy1 | fy2, co1, dc1 | dc2, fc1)

    def accept(
        self, state: State, attribute: Attribute, at: frozenset, fds: frozenset
    ) -> bool:
        """The success/prime condition at a node whose scope is all of A:
        a in At, a not in Y, FY = {f : rhs(f) not in Y}, ΔC = Co \\ {a}."""
        y, fy, co, dc, fc = state
        if attribute not in at or attribute in y:
            return False
        if fy != self.outside_all(y, fds):
            return False
        return frozenset(co) - {attribute} == dc


# ----------------------------------------------------------------------
# Direct dynamic programs
# ----------------------------------------------------------------------


def _split_bag(schema: RelationalSchema, bag: frozenset):
    fd_names = {f.name for f in schema.fds}
    at = frozenset(e for e in bag if e not in fd_names)
    fds = frozenset(e for e in bag if e in fd_names)
    return at, fds


def _solve_states(
    schema: RelationalSchema, nice: NiceTreeDecomposition
) -> dict[int, set[State]]:
    """Bottom-up ``solve`` facts per node (Property B)."""
    algebra = PrimalityAlgebra(schema)
    tree = nice.tree
    states: dict[int, set[State]] = {}
    for node in tree.postorder():
        kind = nice.node_kind(node)
        at, fds = _split_bag(schema, nice.bag(node))
        here: set[State] = set()
        if kind is NiceNodeKind.LEAF:
            here.update(algebra.leaf_states(at, fds))
        elif kind is NiceNodeKind.INTRODUCTION:
            (child,) = tree.children(node)
            element = nice.introduced_element(node)
            if element in algebra.rhs:  # an FD
                for state in states[child]:
                    here.update(algebra.fd_intro(state, element, at))
            else:
                for state in states[child]:
                    here.update(algebra.attr_intro(state, element, at, fds))
        elif kind is NiceNodeKind.REMOVAL:
            (child,) = tree.children(node)
            element = nice.removed_element(node)
            if element in algebra.rhs:
                for state in states[child]:
                    here.update(algebra.fd_removal(state, element))
            else:
                for state in states[child]:
                    here.update(algebra.attr_removal(state, element))
        elif kind is NiceNodeKind.COPY:
            (child,) = tree.children(node)
            here.update(states[child])
        else:  # branch
            c1, c2 = tree.children(node)
            by_key: dict[tuple, list[State]] = {}
            for state in states[c1]:
                by_key.setdefault((state[0], state[2], state[4]), []).append(state)
            for s2 in states[c2]:
                for s1 in by_key.get((s2[0], s2[2], s2[4]), ()):
                    here.update(algebra.branch_combine(s1, s2))
        states[node] = here
    return states


def primality_direct(
    schema: RelationalSchema,
    attribute: Attribute,
    td: TreeDecomposition | None = None,
) -> bool:
    """The Figure 6 decision, hand-coded (Theorem 5.3)."""
    if attribute not in schema.attributes:
        raise ValueError(f"unknown attribute {attribute!r}")
    nice = prepare_decision_decomposition(schema, attribute, td)
    algebra = PrimalityAlgebra(schema)
    states = _solve_states(schema, nice)
    root = nice.tree.root
    at, fds = _split_bag(schema, nice.bag(root))
    return any(
        algebra.accept(state, attribute, at, fds) for state in states[root]
    )


def prime_attributes_direct(
    schema: RelationalSchema,
    td: TreeDecomposition | None = None,
) -> frozenset[Attribute]:
    """All prime attributes in one bottom-up + one top-down pass
    (Theorem 5.4, linear time)."""
    nice = prepare_enumeration_decomposition(schema, td)
    algebra = PrimalityAlgebra(schema)
    tree = nice.tree
    solve = _solve_states(schema, nice)

    down: dict[int, set[State]] = {}
    root = tree.root
    at, fds = _split_bag(schema, nice.bag(root))
    down[root] = set(algebra.leaf_states(at, fds))

    for node in tree.preorder():
        kind = nice.node_kind(node)
        children = tree.children(node)
        if not children:
            continue
        if kind is NiceNodeKind.BRANCH:
            c1, c2 = children
            for child, sibling in ((c1, c2), (c2, c1)):
                combined: set[State] = set()
                by_key: dict[tuple, list[State]] = {}
                for state in solve[sibling]:
                    by_key.setdefault(
                        (state[0], state[2], state[4]), []
                    ).append(state)
                for s_down in down[node]:
                    for s_sib in by_key.get((s_down[0], s_down[2], s_down[4]), ()):
                        combined.update(algebra.branch_combine(s_down, s_sib))
                down[child] = combined
            continue
        (child,) = children
        child_at, child_fds = _split_bag(schema, nice.bag(child))
        out: set[State] = set()
        if kind is NiceNodeKind.COPY:
            out = set(down[node])
        elif kind is NiceNodeKind.INTRODUCTION:
            # walking down, the introduced element is removed
            element = nice.introduced_element(node)
            if element in algebra.rhs:
                for state in down[node]:
                    out.update(algebra.fd_removal(state, element))
            else:
                for state in down[node]:
                    out.update(algebra.attr_removal(state, element))
        else:  # REMOVAL: walking down, the removed element is introduced
            element = nice.removed_element(node)
            if element in algebra.rhs:
                for state in down[node]:
                    out.update(algebra.fd_intro(state, element, child_at))
            else:
                for state in down[node]:
                    out.update(
                        algebra.attr_intro(state, element, child_at, child_fds)
                    )
        down[child] = out

    primes: set[Attribute] = set()
    for leaf in tree.leaves():
        at, fds = _split_bag(schema, nice.bag(leaf))
        candidates = at - primes
        if not candidates:
            continue
        for state in down[leaf]:
            for a in sorted(candidates, key=repr):
                if algebra.accept(state, a, at, fds):
                    primes.add(a)
    return frozenset(primes)


def prime_attributes_rerooting(
    schema: RelationalSchema,
    td: TreeDecomposition | None = None,
) -> frozenset[Attribute]:
    """The naive quadratic enumeration Section 5.3 opens with: run the
    decision algorithm once per attribute, re-rooting the decomposition
    each time.  Exists as the baseline of the enumeration benchmark."""
    structure = schema.to_structure()
    if td is None:
        td = decompose_structure(structure)
    return frozenset(
        a for a in schema.attributes if primality_direct(schema, a, td)
    )


# ----------------------------------------------------------------------
# Figure 6 as an executable datalog program
# ----------------------------------------------------------------------


class _SchemaBuiltin(Builtin):
    """A built-in closed over the schema's FD definitions."""

    def __init__(self, name, arity, patterns, solutions_fn):
        self.name = name
        self.arity = arity
        self.patterns = patterns
        self._solutions = solutions_fn

    def solutions(self, slots):
        return self._solutions(slots)


def primality_registry(schema: RelationalSchema) -> BuiltinRegistry:
    """The standard built-ins plus the Figure 6 helper predicates, which
    need access to the FDs ("an efficient implementation by the
    interpreter", Section 1; optimization (4) of Section 6)."""
    algebra = PrimalityAlgebra(schema)
    registry = standard_registry()

    def outside_solutions(slots):
        fy, y, at, fd = slots
        if UNBOUND in (y, at, fd):
            raise ValueError("outside/4 needs Y, At, Fd bound")
        yield (algebra.outside(y, at, fd), y, at, fd)

    registry.register(
        _SchemaBuiltin(
            "outside",
            4,
            frozenset({(False, True, True, True)}),
            outside_solutions,
        )
    )
    registry.register(
        make_check("consistent", 2, algebra.consistent)
    )
    registry.register(
        make_check("unique", 3, algebra.unique)
    )
    registry.register(
        make_function("rhs_set", 2, algebra.rhs_set)
    )
    registry.register(
        make_function("outside_all", 3, algebra.outside_all)
    )
    registry.register(make_function("singleton", 2, lambda f: frozenset([f])))
    registry.register(make_check("member_oset", 2, lambda b, co: b in co))
    registry.register(
        make_check(
            "oset_minus_is",
            3,
            lambda co, a, dc: frozenset(co) - {a} == dc,
        )
    )

    class Orderings(Builtin):
        name = "orderings"
        arity = 2
        patterns = frozenset({(True, False)})

        def solutions(self, slots):
            co_set, co = slots
            if co is not UNBOUND:
                if set(co) == set(co_set) and len(set(co)) == len(co):
                    yield (co_set, co)
                return
            for arrangement in permutations(sorted(co_set, key=repr)):
                yield (co_set, arrangement)

    registry.register(Orderings())
    return registry


def _solve_rules(solve: str = "solve") -> list:
    """The Figure 6 rules with head predicate ``solve`` (bottom-up)."""
    S, S1, S2 = var("S"), var("S1"), var("S2")
    At, AtB, Fd, FdF = var("At"), var("AtB"), var("Fd"), var("FdF")
    B, F, FS = var("B"), var("F"), var("FS")
    Y, YB = var("Y"), var("YB")
    FY, FY1, FY2, FYB = var("FY"), var("FY1"), var("FY2"), var("FYB")
    Co, Co2, CoSet = var("Co"), var("Co2"), var("CoSet")
    DC, DC1, DC2, DCB = var("DC"), var("DC1"), var("DC2"), var("DCB")
    FC, FC1, FC2, FCF = var("FC"), var("FC1"), var("FC2"), var("FCF")

    rules = [
        # leaf node
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("leaf", S),
            pos("bag", S, At, Fd),
            pos("partition2", At, Y, CoSet),
            pos("orderings", CoSet, Co),
            pos("outside", FY, Y, At, Fd),
            pos("subset", FC, Fd),
            pos("consistent", FC, Co),
            pos("rhs_set", FC, DC),
        ),
        # attribute introduction: b joins Y
        rule(
            atom(solve, S, YB, FY, Co, DC, FC),
            pos("bag", S, AtB, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", At, B, AtB),
            pos("att", B),
            pos(solve, S1, Y, FY, Co, DC, FC),
            pos("add", Y, B, YB),
        ),
        # attribute introduction: b joins Co
        rule(
            atom(solve, S, Y, FY, Co2, DC, FC),
            pos("bag", S, AtB, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", At, B, AtB),
            pos("att", B),
            pos(solve, S1, Y, FY1, Co, DC, FC),
            pos("oinsert", Co, B, Co2),
            pos("consistent", FC, Co2),
            pos("outside", FY2, Y, AtB, Fd),
            pos("union", FY1, FY2, FY),
        ),
        # FD introduction: rhs(f) in Y
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("bag", S, At, FdF),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(solve, S1, Y, FY, Co, DC, FC),
            pos("member", B, Y),
        ),
        # FD introduction: rhs(f) in Co, f used for the derivation
        rule(
            atom(solve, S, Y, FY, Co, DCB, FCF),
            pos("bag", S, At, FdF),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(solve, S1, Y, FY1, Co, DC, FC),
            pos("member_oset", B, Co),
            pos("add", DC, B, DCB),
            pos("add", FC, F, FCF),
            pos("singleton", F, FS),
            pos("consistent", FS, Co),
            pos("outside", FY2, Y, At, FS),
            pos("union", FY1, FY2, FY),
        ),
        # FD introduction: rhs(f) in Co, f not used
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("bag", S, At, FdF),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(solve, S1, Y, FY1, Co, DC, FC),
            pos("member_oset", B, Co),
            pos("singleton", F, FS),
            pos("outside", FY2, Y, At, FS),
            pos("union", FY1, FY2, FY),
        ),
        # attribute removal: b was in Y
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, AtB, Fd),
            pos("add", At, B, AtB),
            pos("att", B),
            pos(solve, S1, YB, FY, Co, DC, FC),
            pos("add", Y, B, YB),
        ),
        # attribute removal: b was in Co (its derivation must be verified)
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, AtB, Fd),
            pos("add", At, B, AtB),
            pos("att", B),
            pos(solve, S1, Y, FY, Co2, DCB, FC),
            pos("oinsert", Co, B, Co2),
            pos("add", DC, B, DCB),
        ),
        # FD removal: rhs(f) in Y
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, FdF),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(solve, S1, Y, FY, Co, DC, FC),
            pos("member", B, Y),
        ),
        # FD removal: rhs(f) in Co, f was used
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, FdF),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(solve, S1, Y, FYB, Co, DC, FCF),
            pos("member_oset", B, Co),
            pos("add", FY, F, FYB),
            pos("add", FC, F, FCF),
        ),
        # FD removal: rhs(f) in Co, f not used
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, FdF),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(solve, S1, Y, FYB, Co, DC, FC),
            pos("member_oset", B, Co),
            pos("add", FY, F, FYB),
            pos("not_member", F, FC),
        ),
        # branch node
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("child2", S2, S),
            pos("bag", S1, At, Fd),
            pos("bag", S2, At, Fd),
            pos(solve, S1, Y, FY1, Co, DC1, FC),
            pos(solve, S2, Y, FY2, Co, DC2, FC),
            pos("unique", DC1, DC2, FC),
            pos("union", FY1, FY2, FY),
            pos("union", DC1, DC2, DC),
        ),
        # copy node (Section 5.3 extension; identity transition)
        rule(
            atom(solve, S, Y, FY, Co, DC, FC),
            pos("copynode", S),
            pos("child1", S1, S),
            pos(solve, S1, Y, FY, Co, DC, FC),
        ),
    ]
    return rules


_BUILTIN_NAMES = (
    "add",
    "partition2",
    "orderings",
    "outside",
    "consistent",
    "rhs_set",
    "subset",
    "member",
    "member_oset",
    "not_member",
    "oinsert",
    "union",
    "singleton",
    "unique",
    "outside_all",
    "oset_minus_is",
    "eq",
)


def primality_program(attribute: Attribute) -> Program:
    """The Figure 6 decision program for the fixed attribute ``a``."""
    S = var("S")
    At, Fd = var("At"), var("Fd")
    Y, FY, Co, DC, FC, FYx = (
        var("Y"),
        var("FY"),
        var("Co"),
        var("DC"),
        var("FC"),
        var("FYx"),
    )
    a = Constant(attribute)
    rules = _solve_rules()
    rules.append(
        # result (at the root node)
        rule(
            atom("success"),
            pos("root", S),
            pos("bag", S, At, Fd),
            pos("member", a, At),
            pos("solve", S, Y, FY, Co, DC, FC),
            pos("not_member", a, Y),
            pos("outside_all", Y, Fd, FYx),
            pos("eq", FY, FYx),
            pos("oset_minus_is", Co, a, DC),
        )
    )
    return Program(rules, builtin_names=_BUILTIN_NAMES)


class PrimalityDatalog:
    """Figure 6, executed by the set-at-a-time semi-naive engine.

    Each attribute's program is built and planned once per instance.
    The plans stay per instance because :func:`primality_registry`
    bakes the schema into its built-ins (same names, schema-specific
    semantics).
    """

    def __init__(self, schema: RelationalSchema):
        self.schema = schema
        self.registry = primality_registry(schema)
        self._prepared: dict[Attribute, PreparedProgram] = {}

    def decide(
        self,
        attribute: Attribute,
        td: TreeDecomposition | None = None,
    ) -> bool:
        nice = prepare_decision_decomposition(self.schema, attribute, td)
        prepared = self._prepared.get(attribute)
        if prepared is None:
            prepared = self._prepared[attribute] = prepare_program(
                primality_program(attribute), self.registry
            )
        evaluator = SetSemiNaiveEvaluator.from_prepared(prepared)
        db = evaluator.run(load_for_primality(self.schema, nice))
        return db.contains("success", ())


# ----------------------------------------------------------------------
# Section 5.3: the Monadic-Primality enumeration program
# ----------------------------------------------------------------------


def _solvedown_rules() -> list:
    """Top-down rules for ``solvedown`` (the paper's solve↓).

    The recursion mirrors :func:`_solve_rules` with introduction and
    removal swapped: walking down through an introduction node removes
    the introduced element from the envelope window, and vice versa; at
    a branch node the down-state of one child combines the parent's
    down-state with the sibling's up-state.
    """
    S, S1, S2 = var("S"), var("S1"), var("S2")
    At, AtB, Fd, FdF = var("At"), var("AtB"), var("Fd"), var("FdF")
    B, F, FS = var("B"), var("F"), var("FS")
    Y, YB = var("Y"), var("YB")
    FY, FY1, FY2, FYB = var("FY"), var("FY1"), var("FY2"), var("FYB")
    Co, Co2, CoSet = var("Co"), var("Co2"), var("CoSet")
    DC, DC1, DC2, DCB = var("DC"), var("DC1"), var("DC2"), var("DCB")
    FC, FCF = var("FC"), var("FCF")
    down = "solvedown"

    rules = [
        # base case at the root (the envelope of the root is the root bag)
        rule(
            atom(down, S, Y, FY, Co, DC, FC),
            pos("root", S),
            pos("bag", S, At, Fd),
            pos("partition2", At, Y, CoSet),
            pos("orderings", CoSet, Co),
            pos("outside", FY, Y, At, Fd),
            pos("subset", FC, Fd),
            pos("consistent", FC, Co),
            pos("rhs_set", FC, DC),
        ),
        # downward through an attribute-introduction node: remove b.
        # b leaves Y:
        rule(
            atom(down, S1, Y, FY, Co, DC, FC),
            pos("bag", S, AtB, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", At, B, AtB),
            pos("att", B),
            pos(down, S, YB, FY, Co, DC, FC),
            pos("add", Y, B, YB),
        ),
        # b leaves Co (derivation verified within the envelope):
        rule(
            atom(down, S1, Y, FY, Co, DC, FC),
            pos("bag", S, AtB, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", At, B, AtB),
            pos("att", B),
            pos(down, S, Y, FY, Co2, DCB, FC),
            pos("oinsert", Co, B, Co2),
            pos("add", DC, B, DCB),
        ),
        # downward through an attribute-removal node: introduce b.
        # b joins Y:
        rule(
            atom(down, S1, YB, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, AtB, Fd),
            pos("add", At, B, AtB),
            pos("att", B),
            pos(down, S, Y, FY, Co, DC, FC),
            pos("add", Y, B, YB),
        ),
        # b joins Co:
        rule(
            atom(down, S1, Y, FY, Co2, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, AtB, Fd),
            pos("add", At, B, AtB),
            pos("att", B),
            pos(down, S, Y, FY1, Co, DC, FC),
            pos("oinsert", Co, B, Co2),
            pos("consistent", FC, Co2),
            pos("outside", FY2, Y, AtB, Fd),
            pos("union", FY1, FY2, FY),
        ),
        # downward through an FD-introduction node: remove f.
        # rhs(f) in Y:
        rule(
            atom(down, S1, Y, FY, Co, DC, FC),
            pos("bag", S, At, FdF),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(down, S, Y, FY, Co, DC, FC),
            pos("member", B, Y),
        ),
        # rhs(f) in Co, f was used:
        rule(
            atom(down, S1, Y, FY, Co, DC, FC),
            pos("bag", S, At, FdF),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(down, S, Y, FYB, Co, DC, FCF),
            pos("member_oset", B, Co),
            pos("add", FY, F, FYB),
            pos("add", FC, F, FCF),
        ),
        # rhs(f) in Co, f not used:
        rule(
            atom(down, S1, Y, FY, Co, DC, FC),
            pos("bag", S, At, FdF),
            pos("child1", S1, S),
            pos("bag", S1, At, Fd),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(down, S, Y, FYB, Co, DC, FC),
            pos("member_oset", B, Co),
            pos("add", FY, F, FYB),
            pos("not_member", F, FC),
        ),
        # downward through an FD-removal node: introduce f.
        # rhs(f) in Y:
        rule(
            atom(down, S1, Y, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, FdF),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(down, S, Y, FY, Co, DC, FC),
            pos("member", B, Y),
        ),
        # rhs(f) in Co, f used:
        rule(
            atom(down, S1, Y, FY, Co, DCB, FCF),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, FdF),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(down, S, Y, FY1, Co, DC, FC),
            pos("member_oset", B, Co),
            pos("add", DC, B, DCB),
            pos("add", FC, F, FCF),
            pos("singleton", F, FS),
            pos("consistent", FS, Co),
            pos("outside", FY2, Y, At, FS),
            pos("union", FY1, FY2, FY),
        ),
        # rhs(f) in Co, f not used:
        rule(
            atom(down, S1, Y, FY, Co, DC, FC),
            pos("bag", S, At, Fd),
            pos("child1", S1, S),
            pos("bag", S1, At, FdF),
            pos("add", Fd, F, FdF),
            pos("fd", F),
            pos("rh", B, F),
            pos(down, S, Y, FY1, Co, DC, FC),
            pos("member_oset", B, Co),
            pos("singleton", F, FS),
            pos("outside", FY2, Y, At, FS),
            pos("union", FY1, FY2, FY),
        ),
        # downward through a branch node: combine with the sibling's
        # bottom-up state (both orders).
    ]
    for new_leaf, sibling in ((S1, S2), (S2, S1)):
        rules.append(
            rule(
                atom(down, new_leaf, Y, FY, Co, DC, FC),
                pos("bag", S, At, Fd),
                pos("child1", S1, S),
                pos("child2", S2, S),
                pos("bag", S1, At, Fd),
                pos("bag", S2, At, Fd),
                pos(down, S, Y, FY1, Co, DC1, FC),
                pos("solve", sibling, Y, FY2, Co, DC2, FC),
                pos("unique", DC1, DC2, FC),
                pos("union", FY1, FY2, FY),
                pos("union", DC1, DC2, DC),
            )
        )
    rules.append(
        # copy node: identity
        rule(
            atom(down, S1, Y, FY, Co, DC, FC),
            pos("copynode", S),
            pos("child1", S1, S),
            pos(down, S, Y, FY, Co, DC, FC),
        )
    )
    return rules


def enumeration_program() -> Program:
    """The Monadic-Primality program (Section 5.3): ``solve`` +
    ``solvedown`` + the ``prime`` rule at the leaves."""
    S = var("S")
    At, Fd = var("At"), var("Fd")
    A = var("A")
    Y, FY, Co, DC, FC, FYx = (
        var("Y"),
        var("FY"),
        var("Co"),
        var("DC"),
        var("FC"),
        var("FYx"),
    )
    rules = _solve_rules() + _solvedown_rules()
    rules.append(
        rule(
            atom("prime", A),
            pos("leaf", S),
            pos("bag", S, At, Fd),
            pos("att", A),
            pos("member", A, At),
            pos("solvedown", S, Y, FY, Co, DC, FC),
            pos("not_member", A, Y),
            pos("outside_all", Y, Fd, FYx),
            pos("eq", FY, FYx),
            pos("oset_minus_is", Co, A, DC),
        )
    )
    return Program(rules, builtin_names=_BUILTIN_NAMES)


def prime_attributes_datalog(
    schema: RelationalSchema,
    td: TreeDecomposition | None = None,
) -> frozenset[Attribute]:
    """All prime attributes via the Monadic-Primality datalog program."""
    nice = prepare_enumeration_decomposition(schema, td)
    evaluator = SetSemiNaiveEvaluator(
        enumeration_program(), primality_registry(schema)
    )
    db = evaluator.run(load_for_primality(schema, nice))
    return frozenset(args[0] for args in db.decode_relation("prime"))
