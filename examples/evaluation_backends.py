"""The generic datalog engines: ``semi-naive`` and its ``naive``
reference.

``repro.datalog.solve(program, edb, backend=...)`` evaluates any
program on the engine it names: ``semi-naive`` (the default, the
set-at-a-time engine the Section 5 programs run on) or ``naive`` (the
tuple-at-a-time reference it is tested against).  This example runs
transitive closure on both, then plans the program once and reuses
that plan across structures, which is exactly how Theorem 4.5
amortizes compilation "over any number of structures".

Run:  python examples/evaluation_backends.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import format_ms, format_table, time_ms
from repro.datalog import (
    Database,
    EvaluationStats,
    SetDatabase,
    SetSemiNaiveEvaluator,
    parse_program,
    prepare_program,
    solve,
)

TC = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    """
)


def chain(n: int) -> Database:
    db = Database()
    for i in range(n - 1):
        db.add("edge", (i, i + 1))
    return db


def main() -> None:
    n = 40  # naive is cubic on this workload; keep the demo snappy
    print(f"Transitive closure of a {n}-node chain:")
    rows = []
    for backend in ("naive", "semi-naive"):
        stats = EvaluationStats()
        derived = solve(TC, chain(n), backend=backend, stats=stats)
        ms = time_ms(lambda: solve(TC, chain(n), backend=backend), repeat=2)
        rows.append(
            [
                backend,
                len(derived.relation("path")),
                stats.rule_firings,
                format_ms(ms),
            ]
        )
    print(format_table(["backend", "path facts", "firings", "ms"], rows))
    print()

    print("One plan across structures:")
    prepared = prepare_program(TC)
    print(f"  planned once in {format_ms(time_ms(lambda: prepare_program(TC)))} ms")
    for size in (50, 100, 150):
        evaluator = SetSemiNaiveEvaluator.from_prepared(prepared)
        answers = evaluator.run(SetDatabase.from_edb(chain(size)))
        print(f"  chain({size:3}): {len(answers.relation('path')):5} path facts")
    print("  (solve() does the same: it plans each program object once)")


if __name__ == "__main__":
    main()
