"""Magic-set rewriting (the demand transformation).

Section 6's optimization (2) asks the interpreter to generate "only
those ground instances of rules which actually produce new facts"; the
semi-naive evaluator achieves that *per derivation*, but still
materializes the entire least fixpoint even when only one query atom
matters.  The classic magic-set transformation (Bancilhon-Maier-Sagiv-
Ullman; Beeri-Ramakrishnan) makes evaluation *goal-directed*: the
program is rewritten relative to a query atom so that bottom-up
evaluation of the rewritten program derives only facts relevant to the
query.

The rewriting is the textbook adorned version:

* Each demanded predicate occurrence is *adorned* with a binding
  pattern (``b``/``f`` per argument slot) describing which arguments are
  bound when the occurrence is reached; ``p`` adorned with ``bf``
  becomes the predicate ``p@bf``.
* For every adorned predicate a *magic predicate* ``magic@p@bf`` holds
  the demanded bindings; a rule defining ``p`` becomes a rule for
  ``p@bf`` guarded by ``magic@p@bf``, and each intensional body atom
  spawns a magic rule that passes its demand downward.
* The query seeds the magic predicate of its own adornment with its
  constant arguments.

The sideways-information-passing order is the evaluator's own greedy
join plan (:func:`repro.datalog.evaluate.plan_rule` with the head's
bound variables pre-bound), so demand flows exactly the way the joins
will run.  The rewritten program is executed by the set-at-a-time
engine (:mod:`repro.datalog.setengine`); the magic predicates of a
monadic program are nullary or unary, so the demand sets it introduces
live as interned bitsets there.

Stratified negation is handled conservatively: any predicate occurring
in a negated intensional literal -- together with everything it depends
on -- is marked *total* and kept unrewritten, so its full extent is
available to the negation.  (The compiled programs of Theorem 4.5 only
negate extensional atoms, so they rewrite in full.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Atom, Constant, Literal, Program, Rule, Variable
from .builtins import BuiltinRegistry, standard_registry
from .evaluate import plan_rule

__all__ = [
    "MagicRewrite",
    "MagicStats",
    "adorned_base",
    "adorned_name",
    "demanded_predicates",
    "is_magic_predicate",
    "magic_name",
    "magic_rewrite",
    "normalize_query",
]

MAGIC_MARKER = "magic@"


def adorned_name(predicate: str, adornment: str) -> str:
    return f"{predicate}@{adornment}" if adornment else predicate


def magic_name(predicate: str, adornment: str) -> str:
    return f"{MAGIC_MARKER}{predicate}@{adornment}"


def is_magic_predicate(predicate: str) -> bool:
    return predicate.startswith(MAGIC_MARKER)


def adorned_base(predicate: str) -> str:
    """The original predicate an adorned occurrence stands for:
    ``adorned_base("solve@bf") == "solve"``.  Magic (demand) predicates
    have no base; they return themselves."""
    if is_magic_predicate(predicate):
        return predicate
    return predicate.split("@", 1)[0]


@dataclass
class MagicStats:
    """How much of the program the demand transformation kept."""

    input_rules: int = 0
    output_rules: int = 0
    adorned_predicates: int = 0
    magic_rules: int = 0
    total_predicates: frozenset[str] = frozenset()


@dataclass(frozen=True)
class MagicRewrite:
    """The rewritten program plus the bookkeeping to read answers back."""

    program: Program
    query: Atom  # the normalized original query atom
    adornment: str
    answer_predicate: str  # adorned name holding the query's answers
    stats: MagicStats = field(compare=False, default_factory=MagicStats)


def normalize_query(program: Program, query: "Atom | str") -> Atom:
    """Turn a query spec into an atom: constants bound, variables free.

    A bare predicate name means "all arguments free"; the arity is read
    off the program's rule heads.  The predicate must be intensional
    (defined by some rule head) and an atom must match its arity.
    """
    predicate = query.predicate if isinstance(query, Atom) else query
    head = next(
        (r.head for r in program.rules if r.head.predicate == predicate),
        None,
    )
    if head is None:
        raise ValueError(
            f"query predicate {predicate!r} is not intensional: "
            "not defined by any rule head"
        )
    if not isinstance(query, Atom):
        return Atom(
            query, tuple(Variable(f"_Q{i}") for i in range(head.arity))
        )
    if head.arity != query.arity:
        raise ValueError(
            f"query {query} has arity {query.arity} but "
            f"{query.predicate!r} is defined with arity {head.arity}"
        )
    return query


def _adornment_of(atom: Atom, bound: set[Variable]) -> str:
    return "".join(
        "b" if isinstance(arg, Constant) or arg in bound else "f"
        for arg in atom.args
    )


def _bound_args(atom: Atom, adornment: str) -> tuple:
    return tuple(
        arg for arg, c in zip(atom.args, adornment) if c == "b"
    )


def _total_predicates(program: Program, idb: frozenset[str]) -> frozenset[str]:
    """Predicates that must keep their full extent: anything occurring
    in a negated intensional literal, closed under dependency."""
    depends: dict[str, set[str]] = {p: set() for p in idb}
    seeds: set[str] = set()
    for rule in program.rules:
        for literal in rule.body:
            p = literal.atom.predicate
            if p not in idb:
                continue
            depends[rule.head.predicate].add(p)
            if not literal.positive:
                seeds.add(p)
    closed: set[str] = set()
    stack = list(seeds)
    while stack:
        p = stack.pop()
        if p in closed:
            continue
        closed.add(p)
        stack.extend(depends[p] - closed)
    return frozenset(closed)


def demanded_predicates(
    program: Program,
    query: "Atom | str",
    registry: BuiltinRegistry | None = None,
) -> frozenset[str]:
    """The intensional predicates whose extent the query can observe.

    Runs the adorned demand traversal of :func:`magic_rewrite` and
    reports which *base* predicates it touched (rewritten occurrences
    plus the unrewritten totals cone).  A rule whose head predicate is
    outside this set can never contribute to the query's answers, so
    demand-pruned grounding
    (:func:`repro.datalog.grounding.ground_program_streamed`) skips it
    without instantiating a single guard binding -- magic-style
    relevance applied at grounding time rather than by rewriting the
    program.

    A query predicate that no rule defines demands nothing: the result
    is empty (the query's extent is empty whatever the database says).
    """
    if isinstance(query, str) and not any(
        rule.head.predicate == query for rule in program.rules
    ):
        return frozenset()
    rewrite = magic_rewrite(program, query, registry)
    demanded = {
        adorned_base(rule.head.predicate)
        for rule in rewrite.program.rules
        if not is_magic_predicate(rule.head.predicate)
    }
    return frozenset(demanded)


def magic_rewrite(
    program: Program,
    query: "Atom | str",
    registry: BuiltinRegistry | None = None,
) -> MagicRewrite:
    """Rewrite ``program`` so bottom-up evaluation answers only ``query``.

    The returned program derives, for the query's adornment ``a``, the
    predicate ``<q>@a`` whose facts are exactly the facts of ``<q>``
    relevant to the demanded bindings (a superset of the facts matching
    the query's constants, and a subset of the full extent of ``<q>``).
    """
    registry = registry if registry is not None else standard_registry()
    query_atom = normalize_query(program, query)
    idb = program.intensional_predicates()
    totals = _total_predicates(program, idb)
    rules_for: dict[str, list[Rule]] = {}
    for rule in program.rules:
        rules_for.setdefault(rule.head.predicate, []).append(rule)

    stats = MagicStats(input_rules=len(program.rules))
    query_adornment = _adornment_of(query_atom, set())
    out_rules: list[Rule] = []

    if query_atom.predicate in totals:
        # The query itself sits under negation; demand cannot prune it.
        # Keep the totals cone unrewritten and alias the answers.
        needed_totals = {query_atom.predicate}
    else:
        needed_totals: set[str] = set()
        seen: set[tuple[str, str]] = set()
        queue: list[tuple[str, str]] = [
            (query_atom.predicate, query_adornment)
        ]
        seen.add(queue[0])
        while queue:
            pred, adornment = queue.pop()
            stats.adorned_predicates += 1
            for rule in rules_for.get(pred, ()):
                head = rule.head
                head_bound = {
                    arg
                    for arg, c in zip(head.args, adornment)
                    if c == "b" and isinstance(arg, Variable)
                }
                plan = plan_rule(
                    rule, idb, registry, initial_bound=head_bound
                )
                magic_head = Literal(
                    Atom(
                        magic_name(pred, adornment),
                        _bound_args(head, adornment),
                    )
                )
                bound: set[Variable] = set(head_bound)
                prefix: list[Literal] = [magic_head]
                new_body: list[Literal] = [magic_head]
                for step in plan:
                    literal = step.literal
                    atom = literal.atom
                    demanded = (
                        literal.positive
                        and atom.predicate in idb
                        and atom.predicate not in totals
                    )
                    if demanded:
                        sub_adornment = _adornment_of(atom, bound)
                        out_rules.append(
                            Rule(
                                Atom(
                                    magic_name(
                                        atom.predicate, sub_adornment
                                    ),
                                    _bound_args(atom, sub_adornment),
                                ),
                                tuple(prefix),
                            )
                        )
                        stats.magic_rules += 1
                        key = (atom.predicate, sub_adornment)
                        if key not in seen:
                            seen.add(key)
                            queue.append(key)
                        literal = Literal(
                            Atom(
                                adorned_name(
                                    atom.predicate, sub_adornment
                                ),
                                atom.args,
                            )
                        )
                    elif atom.predicate in totals:
                        needed_totals.add(atom.predicate)
                    new_body.append(literal)
                    prefix.append(literal)
                    if literal.positive:
                        bound.update(literal.atom.variables())
                out_rules.append(
                    Rule(
                        Atom(adorned_name(pred, adornment), head.args),
                        tuple(new_body),
                    )
                )
        # seed the query's own demand with its constant arguments
        out_rules.append(
            Rule(
                Atom(
                    magic_name(query_atom.predicate, query_adornment),
                    _bound_args(query_atom, query_adornment),
                )
            )
        )

    # the totals cone keeps its original rules (closed under dependency)
    included_totals: set[str] = set()
    stack = sorted(needed_totals)
    while stack:
        p = stack.pop()
        if p in included_totals:
            continue
        included_totals.add(p)
        for rule in rules_for.get(p, ()):
            out_rules.append(rule)
            for literal in rule.body:
                dep = literal.atom.predicate
                if dep in idb and dep not in included_totals:
                    stack.append(dep)
    stats.total_predicates = frozenset(included_totals)

    if query_atom.predicate in totals:
        # alias the unrewritten extent under the adorned answer name
        out_rules.append(
            Rule(
                Atom(
                    adorned_name(query_atom.predicate, query_adornment),
                    query_atom.args,
                ),
                (Literal(query_atom),),
            )
        )

    stats.output_rules = len(out_rules)
    return MagicRewrite(
        program=Program(out_rules, builtin_names=program.builtin_names),
        query=query_atom,
        adornment=query_adornment,
        answer_predicate=adorned_name(
            query_atom.predicate, query_adornment
        ),
        stats=stats,
    )
