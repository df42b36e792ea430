"""The generic evaluation engines behind :func:`solve`, and program
fingerprints.

:func:`solve` is the one entry to the generic engines; its ``backend=``
names one of two:

* ``semi-naive`` -- stratified delta-driven fixpoint executed
                    set-at-a-time (:mod:`repro.datalog.setengine`:
                    interned constants, columnar batches,
                    relation-level hash joins, bitset unary relations);
                    the default engine, and the one the Section 5
                    programs run on;
* ``naive``      -- Jacobi-style re-derivation each round, one binding
                    at a time (:func:`naive_least_fixpoint`); the
                    reference the set engine is tested against.

Both run one :class:`PreparedProgram` (stratification and join plans,
the per-program cost that Theorem 4.5 amortizes over "any number of
structures"), which :func:`solve` memoizes per program object, so
repeated solves of one program skip the planning.  Owners of a program
(the Section 5 deciders, :class:`repro.core.CourcelleSolver`) prepare
it once themselves.
"""

from __future__ import annotations

import hashlib
import threading

from .ast import Atom, Program, Variable
from .builtins import BuiltinRegistry
from .evaluate import (
    Database,
    EvaluationStats,
    PreparedProgram,
    naive_least_fixpoint,
    prepare_program,
)
from .setengine import SetDatabase, SetSemiNaiveEvaluator

# ----------------------------------------------------------------------
# Program fingerprints and the plan memo
# ----------------------------------------------------------------------


def _value_key(value) -> str:
    """A canonical, type-discriminating encoding of a constant value.

    ``str()``/``repr()`` alone are ambiguous (``0`` vs ``"0"``) or
    order-unstable (frozensets), which would let distinct programs
    share a fingerprint; this recurses through the container values
    the set-valued programs of Section 5 use.
    """
    if isinstance(value, frozenset):
        return "fs{" + ",".join(sorted(map(_value_key, value))) + "}"
    if isinstance(value, tuple):
        return "t(" + ",".join(map(_value_key, value)) + ")"
    return f"{type(value).__qualname__}:{value!r}"


def _term_key(term) -> str:
    if isinstance(term, Variable):
        return f"v:{term.name}"
    return f"c:{_value_key(term.value)}"


def _atom_key(atom: Atom) -> str:
    return atom.predicate + "(" + ",".join(map(_term_key, atom.args)) + ")"


def program_fingerprint(program: Program) -> str:
    """A stable content hash of a program.

    Two programs with the same rules (in order) and built-in names get
    the same fingerprint regardless of object identity (the service
    keys its program handles by it); constants of different types that
    print alike do not collide.
    """
    digest = hashlib.sha256()
    for rule in program.rules:
        digest.update(_atom_key(rule.head).encode())
        for literal in rule.body:
            digest.update(
                ("+" if literal.positive else "-").encode()
            )
            digest.update(_atom_key(literal.atom).encode())
        digest.update(b"\x00")
    for name in sorted(program.builtin_names):
        digest.update(name.encode())
        digest.update(b"\x01")
    return digest.hexdigest()


#: ``solve()``'s plans, keyed by ``(program, registry)`` *identity*
#: (neither type defines ``__eq__``): holding the key pins both
#: objects, so an id is never reused while its entry lives, and a
#: registry enters by identity because two registries may give one
#: built-in name different semantics (``primality_registry`` bakes its
#: schema in).  ``registry=None`` is a key of its own, shared by every
#: default caller.  Bounded, oldest entry evicted first.
_PREPARED: dict[tuple, PreparedProgram] = {}
_PREPARED_LOCK = threading.Lock()
_PREPARED_MAX = 64


def default_cache() -> dict:
    """The process-wide memo of :func:`solve`'s prepared programs
    (``.clear()`` empties it)."""
    return _PREPARED


def _prepared(
    program: Program, registry: BuiltinRegistry | None
) -> PreparedProgram:
    key = (program, registry)
    prepared = _PREPARED.get(key)
    if prepared is None:
        # planned outside the lock: two cold racers may both plan,
        # and the first insert wins
        prepared = prepare_program(program, registry)
        with _PREPARED_LOCK:
            if key in _PREPARED:
                return _PREPARED[key]
            # evict before inserting, so no reader sees the memo over
            # its bound
            while len(_PREPARED) >= _PREPARED_MAX:
                del _PREPARED[next(iter(_PREPARED))]
            _PREPARED[key] = prepared
    return prepared


# ----------------------------------------------------------------------
# The engines
# ----------------------------------------------------------------------

#: the engine names :func:`solve` accepts
_ENGINES = ("naive", "semi-naive")


def _check_query(program: Program, query: "Atom | str") -> None:
    """``query`` must name an intensional predicate of ``program``, and
    an atom must have that predicate's arity."""
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
    if isinstance(query, Atom) and head.arity != query.arity:
        raise ValueError(
            f"query {query} has arity {query.arity} but "
            f"{query.predicate!r} is defined with arity {head.arity}"
        )


def solve(
    program: Program,
    edb,
    *,
    backend: str = "semi-naive",
    query: "Atom | str | None" = None,
    registry: BuiltinRegistry | None = None,
    stats: EvaluationStats | None = None,
) -> Database:
    """The least fixpoint of ``program`` over ``edb``, computed by the
    engine named ``backend``.

    ``edb`` is a :class:`Database`, a :class:`Structure`, an iterable
    of facts, or a pre-interned :class:`SetDatabase`; ``semi-naive``
    starts from a snapshot of the latter, ``naive`` decodes it once.
    ``query`` (a predicate name or an :class:`Atom`) is checked to name
    an intensional predicate of ``program`` with the right arity; both
    engines compute the full fixpoint either way.
    """
    if backend not in _ENGINES:
        raise ValueError(
            f"unknown evaluation backend {backend!r}; "
            f"available: {', '.join(_ENGINES)}"
        )
    if query is not None:
        _check_query(program, query)
    prepared = _prepared(program, registry)
    if backend == "naive":
        if isinstance(edb, SetDatabase):
            edb = edb.decode()
        return naive_least_fixpoint(
            program, edb, registry, stats=stats, prepared=prepared
        )
    evaluator = SetSemiNaiveEvaluator.from_prepared(prepared)
    if stats is not None:
        evaluator.stats = stats
    return evaluator.run(SetDatabase.from_edb(edb)).decode()
