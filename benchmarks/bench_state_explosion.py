"""Sections 1 and 6: the MSO-to-datalog state explosion, measured.

The generic constructions (the Theorem 4.5 compiler and the FTA type
automaton share the Θ↑ type space) are exponential in the signature,
width and quantifier depth.  This harness measures the compiler's
construction time, type/class/rule counts and witness sizes as each
parameter grows, and
shows the unfiltered graph case blowing through its budget -- the
quantitative version of "even relatively simple MSO formulae may lead
to a state explosion".

``python benchmarks/bench_state_explosion.py [--quick]`` writes the
machine-readable baseline ``BENCH_compiler.json`` to the repo root
(``--out`` overrides) and exits non-zero if a contract regresses:

1. the **width-2 grid-class compile** (``has_neighbor`` over the grid
   class at width 2 -- the ROADMAP (d) envelope gate) succeeds at the
   *default* ``max_witness_size`` without ``CompilerLimitError``;
2. witness reduction keeps every stored witness within the configured
   bound (``max_reduced_witness <= max_witness_size``) on every
   workload -- the minimal-representative closure claim;
3. type minimization never *grows* the predicate count
   (``classes <= types``) and the width-2 grid program stays under
   ``MAX_GRID2_RULES`` rules (the emitted program must remain
   practically evaluable, not just constructible);
3b. the program-shrinking pass only shrinks
   (``rules_after_passes <= rules``, ``classes_folded >= 0``) and the
   width-2 grid program lands under ``MAX_GRID2_RULES_AFTER_PASSES``
   rules after ⊥-insensitive folding (ROADMAP D);
4. the unfiltered graph compile still exhausts a 2000-type budget --
   the paper's state explosion is a property of the construction, not
   a bug to be fixed, and this gate fails if a change accidentally
   "loses" the full type space;
5. the checked-in ``BENCH_compiler.json`` must match the harness's
   schema version and workload/field shape, and every compile must
   keep its checked-in program (``program_sha256``, the
   ``repro.datalog.program_fingerprint`` of the emitted program) and
   every count field; only ``ms`` may move.  Drift fails CI until the
   baseline is regenerated;
6. **work counts**: the width-2 grid-class compile builds at most
   ``MAX_GRID2_STRUCTURES`` ``Structure`` objects and runs the
   whole-structure class check at most ``MAX_GRID2_FILTER_CALLS``
   times (the class is checked on bag summaries for glue and
   replacement candidates, and a candidate is typed from its int
   relations; building and checking each candidate took 32,512 and
   31,168).  Counted on a separate, untimed compile.
"""

import argparse
import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_compiler.json"
SCHEMA_VERSION = "bench-compiler/v4"

#: contract 3: the width-2 grid-class program must stay evaluable
MAX_GRID2_RULES = 60000

#: contract 3b: after the program-shrinking pass (ROADMAP D --
#: ⊥-insensitive folding) the same width-2 grid-class program must
#: land well under the evaluability bound
MAX_GRID2_RULES_AFTER_PASSES = 10000

#: contract 6: work counts of the width-2 grid-class compile
MAX_GRID2_STRUCTURES = 3000
MAX_GRID2_FILTER_CALLS = 2000

#: the per-record fields whose *presence* the drift gate pins; every
#: one but ``ms`` must also keep its checked-in value
RECORD_FIELDS = (
    "signature",
    "width",
    "k",
    "filter",
    "kind",
    "ms",
    "types",
    "classes",
    "rules",
    "classes_folded",
    "rules_after_passes",
    "max_reduced_witness",
    "max_witness_typed",
    "type_computations",
    "glue_pairs",
    "program_sha256",
)

#: the one field the drift gate lets move: wall time
INFORMATIONAL_FIELDS = frozenset({"ms"})


def _sentences():
    from repro.mso import And, ExistsInd, Not, RelAtom

    d1 = ExistsInd("x", RelAtom("p", ("x",)))
    d2 = ExistsInd(
        "x",
        And(RelAtom("p", ("x",)), ExistsInd("y", Not(RelAtom("p", ("y",))))),
    )
    return d1, d2


def compiler_workloads(quick):
    """(name, thunk) pairs; each thunk compiles and returns the
    ``CompiledQuery``.  All run at the *default* witness bound -- the
    envelope is measured, not configured around."""
    from repro.core import (
        MSOToDatalogCompiler,
        grid_graph_filter,
        undirected_graph_filter,
    )
    from repro.mso import formulas
    from repro.structures import GRAPH_SIGNATURE, Signature

    psig = Signature.of(p=1)
    d1, d2 = _sentences()
    neighbor = formulas.has_neighbor("x")
    workloads = [
        (
            "p-sentence-w1-k1",
            dict(signature="{p}", width=1, k=1, filter=None, kind="sentence"),
            lambda: MSOToDatalogCompiler(d1, psig, 1).compile(),
        ),
        (
            "p-sentence-w2-k1",
            dict(signature="{p}", width=2, k=1, filter=None, kind="sentence"),
            lambda: MSOToDatalogCompiler(d1, psig, 2).compile(),
        ),
        (
            "p-sentence-w1-k2",
            dict(signature="{p}", width=1, k=2, filter=None, kind="sentence"),
            lambda: MSOToDatalogCompiler(d2, psig, 1).compile(),
        ),
        (
            "graph-neighbor-w1-undirected",
            dict(
                signature="{e}",
                width=1,
                k=1,
                filter="undirected_graph_filter",
                kind="unary",
            ),
            lambda: MSOToDatalogCompiler(
                neighbor,
                GRAPH_SIGNATURE,
                1,
                free_var="x",
                structure_filter=undirected_graph_filter,
            ).compile(),
        ),
        (
            "graph-neighbor-w1-grid",
            dict(
                signature="{e}",
                width=1,
                k=1,
                filter="grid_graph_filter",
                kind="unary",
            ),
            lambda: MSOToDatalogCompiler(
                neighbor,
                GRAPH_SIGNATURE,
                1,
                free_var="x",
                structure_filter=grid_graph_filter,
            ).compile(),
        ),
        (
            # ROADMAP (d): the width >= 2 envelope, CI-gated.  Interned
            # k-types + minimal witnesses + EDB-bucketed gluing keep
            # the fixpoint finite and fast; minimization keeps the
            # emitted program evaluable.
            "graph-neighbor-w2-grid",
            dict(
                signature="{e}",
                width=2,
                k=1,
                filter="grid_graph_filter",
                kind="unary",
            ),
            lambda: MSOToDatalogCompiler(
                neighbor,
                GRAPH_SIGNATURE,
                2,
                free_var="x",
                structure_filter=grid_graph_filter,
            ).compile(),
        ),
    ]
    return workloads


def run_compiles(quick):
    """Compile every workload; returns (records, failures)."""
    from repro.core import CompilerLimitError
    from repro.core.mso_to_datalog import DEFAULT_MAX_WITNESS_SIZE
    from repro.datalog import program_fingerprint

    records = {}
    failures = []
    for name, meta, thunk in compiler_workloads(quick):
        start = time.perf_counter()
        try:
            compiled = thunk()
        except CompilerLimitError as error:
            failures.append(
                f"{name}: CompilerLimitError at the default witness "
                f"bound -- the practical envelope regressed ({error})"
            )
            continue
        ms = (time.perf_counter() - start) * 1000.0
        stats = compiled.stats
        record = dict(meta)
        record.update(
            ms=round(ms, 1),
            types=stats.up_types,
            classes=stats.up_classes,
            rules=stats.rules,
            classes_folded=stats.classes_folded,
            rules_after_passes=stats.rules_after_passes,
            max_reduced_witness=stats.max_reduced_witness,
            max_witness_typed=stats.max_witness_typed,
            type_computations=stats.type_computations,
            glue_pairs=stats.glue_pairs,
            program_sha256=program_fingerprint(compiled.program),
        )
        records[name] = record
        if stats.max_reduced_witness > DEFAULT_MAX_WITNESS_SIZE:
            failures.append(
                f"{name}: max_reduced_witness {stats.max_reduced_witness} "
                "exceeds the default witness bound -- reduction is not "
                "holding the minimal-representative closure"
            )
        if stats.up_classes > stats.up_types:
            failures.append(
                f"{name}: minimization grew the predicate count "
                f"({stats.up_classes} classes > {stats.up_types} types)"
            )
        if stats.classes_folded < 0:
            failures.append(
                f"{name}: classes_folded {stats.classes_folded} is "
                "negative -- folding must only merge"
            )
        if stats.rules_after_passes > stats.rules:
            failures.append(
                f"{name}: the shrinking pass grew the program "
                f"({stats.rules_after_passes} rules after passes > "
                f"{stats.rules} emitted)"
            )
    grid2 = records.get("graph-neighbor-w2-grid")
    if grid2 is not None and grid2["rules"] > MAX_GRID2_RULES:
        failures.append(
            f"graph-neighbor-w2-grid: {grid2['rules']} rules exceeds "
            f"the {MAX_GRID2_RULES}-rule evaluability bound"
        )
    if (
        grid2 is not None
        and grid2["rules_after_passes"] > MAX_GRID2_RULES_AFTER_PASSES
    ):
        failures.append(
            f"graph-neighbor-w2-grid: {grid2['rules_after_passes']} "
            f"rules after the shrinking pass exceeds the "
            f"{MAX_GRID2_RULES_AFTER_PASSES}-rule bound (ROADMAP D)"
        )
    return records, failures


def run_work_counts():
    """Contract 6: count ``Structure`` constructions and whole-structure
    class checks over one width-2 grid-class compile (untimed)."""
    from repro.core import MSOToDatalogCompiler, grid_graph_filter
    from repro.mso import formulas
    from repro.structures import GRAPH_SIGNATURE, Structure

    counts = {"structures_built": 0, "filter_calls": 0}
    predicate_type = type(grid_graph_filter)
    real_init, real_call = Structure.__init__, predicate_type.__call__

    def counting_init(self, *args, **kwargs):
        counts["structures_built"] += 1
        real_init(self, *args, **kwargs)

    def counting_call(self, structure):
        counts["filter_calls"] += 1
        return real_call(self, structure)

    Structure.__init__ = counting_init
    predicate_type.__call__ = counting_call
    try:
        MSOToDatalogCompiler(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            2,
            free_var="x",
            structure_filter=grid_graph_filter,
        ).compile()
    finally:
        Structure.__init__ = real_init
        predicate_type.__call__ = real_call
    failures = []
    for field, bound in (
        ("structures_built", MAX_GRID2_STRUCTURES),
        ("filter_calls", MAX_GRID2_FILTER_CALLS),
    ):
        if counts[field] > bound:
            failures.append(
                f"graph-neighbor-w2-grid: {field} {counts[field]} exceeds "
                f"the work-count bound {bound}"
            )
    record = dict(
        counts,
        max_structures_built=MAX_GRID2_STRUCTURES,
        max_filter_calls=MAX_GRID2_FILTER_CALLS,
    )
    return {"graph-neighbor-w2-grid": record}, failures


def run_blowup_check():
    """Contract 4: unfiltered graphs must exhaust the type budget."""
    from repro.core import CompilerLimitError, MSOToDatalogCompiler
    from repro.mso import formulas
    from repro.structures import GRAPH_SIGNATURE

    start = time.perf_counter()
    try:
        MSOToDatalogCompiler(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            max_types=2000,
        ).compile()
    except CompilerLimitError:
        ms = (time.perf_counter() - start) * 1000.0
        return {"blown": True, "max_types": 2000, "ms": round(ms, 1)}, []
    return {"blown": False, "max_types": 2000}, [
        "unfiltered graph compile no longer exhausts a 2000-type "
        "budget -- the full type space went missing"
    ]


def check_baseline_drift(previous, payload):
    """Schema/shape comparison against the checked-in baseline (the
    ``BENCH_engine.json`` drift rule, applied to the compiler)."""
    failures = []
    if previous is None:
        return failures  # first run: nothing checked in yet
    if previous.get("schema") != payload["schema"]:
        failures.append(
            f"baseline drift: checked-in schema "
            f"{previous.get('schema')!r} != harness schema "
            f"{payload['schema']!r} -- regenerate BENCH_compiler.json"
        )
        return failures
    old_keys = set(previous.get("compiles", ()))
    new_keys = set(payload.get("compiles", ()))
    if old_keys != new_keys:
        failures.append(
            f"baseline drift: compile workloads changed "
            f"{sorted(old_keys)} -> {sorted(new_keys)} -- regenerate "
            "BENCH_compiler.json"
        )
    for name, record in payload.get("compiles", {}).items():
        old = previous.get("compiles", {}).get(name)
        if old is None:
            continue
        if set(old) != set(record):
            failures.append(
                f"baseline drift: fields of {name} changed "
                f"{sorted(old)} -> {sorted(record)} -- regenerate "
                "BENCH_compiler.json"
            )
            continue
        for field in sorted(set(record) - INFORMATIONAL_FIELDS):
            if old[field] != record[field]:
                failures.append(
                    f"baseline drift: {name} {field} changed "
                    f"{old[field]!r} -> {record[field]!r} -- the compiled "
                    "program or its counts moved; regenerate "
                    "BENCH_compiler.json if that is intended"
                )
    return failures


def format_table(records):
    header = [
        "workload",
        "w",
        "k",
        "types",
        "classes",
        "folded",
        "rules",
        "after passes",
        "max wit",
        "ms",
    ]
    rows = [
        [
            name,
            r["width"],
            r["k"],
            r["types"],
            r["classes"],
            r["classes_folded"],
            r["rules"],
            r["rules_after_passes"],
            r["max_reduced_witness"],
            r["ms"],
        ]
        for name, r in records.items()
    ]
    widths = [
        max(len(str(cell)) for cell in column)
        for column in zip(header, *rows)
    ]
    lines = [
        "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
        for row in [header] + rows
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="accepted for CI symmetry; the workload set is identical "
        "(every compile is already seconds at most)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=BENCH_JSON,
        help=f"where to write the JSON baseline (default {BENCH_JSON})",
    )
    args = parser.parse_args(argv)

    records, failures = run_compiles(args.quick)
    print(format_table(records))
    blowup, blowup_failures = run_blowup_check()
    failures.extend(blowup_failures)
    print(f"\nunfiltered-blowup: {blowup}")
    work, work_failures = run_work_counts()
    failures.extend(work_failures)
    for name, counts in work.items():
        print(
            f"work counts, {name}: {counts['structures_built']} Structures "
            f"built (<= {counts['max_structures_built']}), "
            f"{counts['filter_calls']} whole-structure class checks "
            f"(<= {counts['max_filter_calls']})"
        )

    from repro.core.mso_to_datalog import DEFAULT_MAX_WITNESS_SIZE

    payload = {
        "schema": SCHEMA_VERSION,
        "benchmark": "benchmarks/bench_state_explosion.py",
        "quick": args.quick,
        "default_max_witness_size": DEFAULT_MAX_WITNESS_SIZE,
        "compiles": records,
        "unfiltered_blowup": blowup,
        "work_counts": work,
    }
    previous = None
    if args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
        except json.JSONDecodeError:
            failures.append(f"baseline drift: {args.out} is not valid JSON")
    failures.extend(check_baseline_drift(previous, payload))
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    if failures:
        print("\nCONTRACT VIOLATIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nok: the width-2 grid-class compile clears the default witness "
        "bound; reduced witnesses stay within the bound everywhere; "
        "minimization and the shrinking pass only shrink (grid-2 under "
        f"{MAX_GRID2_RULES_AFTER_PASSES} rules after passes); the "
        "unfiltered type space still explodes; every program and count "
        "matches the checked-in baseline; the width-2 grid compile stays "
        "within its work counts"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
