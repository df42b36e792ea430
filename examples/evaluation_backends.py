"""The generic datalog engines: naive, semi-naive (set-at-a-time and
tuple-at-a-time), and magic sets.

``repro.datalog.solve(program, edb, backend=...)`` evaluates any
program on the engine it names.  This example runs single-source
reachability -- the query-driven workload where the difference is
asymptotic -- on all four, shows the magic-set rewrite itself, and
demonstrates the compiled-program cache amortizing planning across
structures, which is exactly how Theorem 4.5 amortizes compilation
"over any number of structures".

Run:  python examples/evaluation_backends.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import compare_backends, format_ms, format_table
from repro.datalog import (
    Database,
    ProgramCache,
    atom,
    const,
    magic_rewrite,
    parse_program,
    solve,
    var,
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
    query = atom("path", const(0), var("Y"))

    print("The magic-set rewrite of transitive closure w.r.t.", query)
    print("-" * 60)
    print(magic_rewrite(TC, query).program)
    print()

    n = 80  # naive is cubic on this workload; keep the demo snappy
    print(f"Head-to-head on a {n}-node chain, query {query}:")
    rows = [
        [run.backend, run.facts_derived, run.rule_firings, format_ms(run.ms)]
        for run in compare_backends(TC, chain(n), query, repeat=2)
    ]
    print(format_table(["backend", "facts", "firings", "ms"], rows))
    print()

    print("Compiled-program cache across structures:")
    cache = ProgramCache()
    for size in (50, 100, 150):
        answers = solve(
            TC, chain(size), backend="magic", query=query, cache=cache
        )
        reached = len(answers.relation("path"))
        print(
            f"  chain({size:3}): {reached:3} reachable   "
            f"cache hits={cache.stats.hits} misses={cache.stats.misses}"
        )
    print("  (one miss compiles; every further structure reuses the plan)")


if __name__ == "__main__":
    main()
