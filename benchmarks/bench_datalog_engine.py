"""Engine internals: the Theorem 4.4 solve pipeline, streamed vs eager.

Not a paper table, but the substrate claim behind the MD column:
Section 6 stresses that the viability of the monadic-datalog route
hinges on the interpreter's constant factors.  The **solver workloads**
benchmark the Theorem 4.4 pipeline (grounding + linear-time Horn): the
streamed, demand-pruned solve path (``quasi-guarded``: ground rules
instantiated on demand into an online LTUR) against the eager
reference arm (``quasi-guarded-eager``: the materializing
``ground_program_ids`` + ``horn_least_model_ids`` pipeline, run on the
same cached grounding plans):

* ``solve-chain-N`` / ``solve-tree-N`` -- the compiled Theorem 4.5
  ``has_neighbor`` MSO program, evaluated over the ``A_td`` encoding
  of a path graph / random tree (width 1);
* ``solve-grid2x-N`` -- the *width-2* grid family: a 2 x N ladder
  grid solved through the real Theorem 4.5 path (``has_neighbor``
  compiled at width 2 relative to the grid class --
  ``grid_graph_filter``).  Runs the streamed production form (the
  folded program -- ~770 rules since the v8 shrinking pass) against
  the ``passes=()`` ablation (the ~20k-rule program PR 9 served); the
  eager reference grounds the full cross product -- 1.4M ground rules
  at N=40 -- and is benchmarked on the width-1 workloads instead.  Gated
  on exact agreement with *direct
  MSO evaluation* and with the hand-written cover DP over the same
  ``A_td`` encoding, and on the folded program beating the ablation
  by ``GRID2X_PASSES_SPEEDUP`` (each arm best of ``GRID2X_REPEAT``,
  re-timed once before failing) while grounding at most
  1/``GRID2X_GROUND_RULES_SHRINK`` of its rules;
* ``solve-grid-K`` -- a K x K grid is decomposed at its natural width
  (≈ K, far outside the compiler's envelope), and a Figure-style
  quasi-guarded dynamic program over its wide-bag ``A_td`` encoding
  stands in for the compiled MSO solve: same rule shapes
  (bag-guarded leaf/child1/child2 recursion + monadic projections),
  genuinely wide guards.

The generic set engine's speed is gated on the paper's own workload by
``bench_three_coloring.py`` (Figure 5 on partial 3-trees); batch
solving on a ``SolverService`` is benchmarked, and its answers gated
against the serial loop, by ``bench_solver_service.py``.

``python benchmarks/bench_datalog_engine.py [--quick]`` prints the
table (``--quick`` is the CI smoke test), writes the machine-readable
baseline ``BENCH_engine.json`` to the repo root (``--out`` overrides)
and exits non-zero if a contract regresses:

  1. all quasi-guarded arms run on a workload derive identical unary
     answers; the streamed form prunes rules (``rules_pruned > 0``)
     on the chain, tree and grid2x solves, is >= 2x faster than the
     eager reference arm on the tree solve and >= 1.3x on the chain
     solve
     (the Theorem 4.5 programs are minimized since PR 5, so eager's
     dead weight -- and the streamed form's headroom -- shrank); the
     grid2x answers equal direct MSO evaluation and the hand-written
     cover DP on the same encoding, and the folded grid2x solve beats
     the ``passes=()`` ablation by >= ``GRID2X_PASSES_SPEEDUP`` on a
     first timing or on one re-timing, and grounds at most
     1/``GRID2X_GROUND_RULES_SHRINK`` of the ablation's rules (a count,
     so this half of the gate is deterministic);
  2. the checked-in ``BENCH_engine.json`` must match the harness's
     schema version and workload/backend shape (drift fails CI until
     the baseline is regenerated).
"""

import argparse
import json
import random
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import format_ms, format_table, time_ms
from repro.datalog import (
    GroundingStats,
    InternPool,
    SetDatabase,
    ground_program_ids,
    horn_least_model_ids,
    td_key_dependencies,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"


# ----------------------------------------------------------------------
# Solver workloads: the Theorem 4.4 pipeline -- streamed+pruned vs the
# eager reference grounder -- on chain/grid/tree families.
# ----------------------------------------------------------------------

SCHEMA_VERSION = "bench-engine/v12"

#: the gate on the grid2x solve: the folded program must beat the
#: passes=() ablation -- the program PR 9 served -- by this factor
GRID2X_PASSES_SPEEDUP = 3.0
#: ... and ground at most this fraction's inverse of its rules (the
#: recorded solve-grid2x-40 counts are 803 against 2,959)
GRID2X_GROUND_RULES_SHRINK = 3
#: best-of count of each grid2x arm (the speedup gate's timings)
GRID2X_REPEAT = 5

SOLVER_BACKENDS = ["quasi-guarded", "quasi-guarded-eager"]


def eager_reference(prepared, encoded):
    """The ``quasi-guarded-eager`` arm: the materializing reference
    pipeline -- load, ground the full program, batch LTUR -- on the
    streamed solve's cached ``PreparedGrounding``."""
    from repro.core import QuasiGuardedResult

    sdb = SetDatabase.from_edb(encoded)
    pool = InternPool(sdb.interner)
    stats = GroundingStats()
    rules = ground_program_ids(prepared, sdb, pool, stats)
    flags = horn_least_model_ids(rules, len(pool))
    return QuasiGuardedResult(pool, flags, stats.ground_rules, stats)


def graph_grid(k):
    # int-labelled (unlike Graph.grid's (row, col) tuples) so the
    # dense-int identity-interner fast path stays exercised
    from repro.structures import Graph

    g = Graph(range(k * k))
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                g.add_edge(v, v + 1)
            if i + 1 < k:
                g.add_edge(v, v + k)
    return g


def solver_workloads(quick):
    """Workload dicts -- encoding and MSO compilation happen here,
    outside the timed region, so the timings isolate the grounding +
    Horn pipeline the backends differ on.

    Keys: ``name``, ``program``, ``dependencies``, ``encoded`` (the
    ``A_td``), ``answer_predicate``, ``expected`` (answer count),
    ``backends`` (the quasi-guarded arms to run), and optionally
    ``reference`` -- the exact answer set from *direct MSO
    evaluation*, cross-checked against the hand-written cover DP on
    the same encoding for the grid2x workload (the Theorem 4.5
    conformance contract of the width-2 envelope).
    """
    from repro.bench import atd_cover_program
    from repro.core import (
        ANSWER_PREDICATE,
        QuasiGuardedEvaluator,
        compile_unary_query,
        grid_graph_filter,
        undirected_graph_filter,
    )
    from repro.mso import formulas
    from repro.mso import query as mso_query
    from repro.problems import random_tree_graph
    from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure
    from repro.treewidth import (
        decompose_structure,
        encode_normalized,
        normalize,
        widen,
    )

    def encode(graph, min_width=None):
        s = graph_to_structure(graph)
        td = decompose_structure(s)
        if min_width is not None and td.width < min_width:
            td = widen(td, min_width)
        return s, encode_normalized(s, normalize(td)), td.width

    chain_n, tree_n, grid_k, ladder_n = (
        (120, 100, 8, 20) if quick else (400, 300, 12, 40)
    )
    compiled = compile_unary_query(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )
    out = []
    for name, graph, n in (
        (f"solve-chain-{chain_n}", Graph.path(chain_n), chain_n),
        (
            f"solve-tree-{tree_n}",
            random_tree_graph(random.Random(0xC0FFEE), tree_n),
            tree_n,
        ),
    ):
        _, encoded, _ = encode(graph, min_width=1)
        out.append(
            {
                "name": name,
                "program": compiled.program,
                "dependencies": compiled.dependencies(),
                "encoded": encoded,
                "answer_predicate": ANSWER_PREDICATE,
                "expected": n,
                "backends": SOLVER_BACKENDS,
            }
        )

    # the width-2 grid family through the real Theorem 4.5 path
    # (ROADMAP (d)): compile at width 2 relative to the grid class,
    # solve a ladder, and pin the answers to direct MSO evaluation and
    # to the hand-written cover DP over the same A_td encoding
    compiled2 = compile_unary_query(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=2,
        free_var="x",
        structure_filter=grid_graph_filter,
    )
    # the passes=() ablation: the very same query compiled without the
    # program-shrinking pass (ROADMAP D) -- the program PR 9 served.
    # The gate times it on the same encoding; the folded program must
    # beat it by GRID2X_PASSES_SPEEDUP.
    compiled2_ablated = compile_unary_query(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=2,
        free_var="x",
        structure_filter=grid_graph_filter,
        passes=(),
    )
    structure, encoded, width = encode(Graph.grid(2, ladder_n), min_width=2)
    reference = mso_query(structure, formulas.has_neighbor("x"), "x")
    dp = QuasiGuardedEvaluator(
        atd_cover_program(width + 2),
        dependencies=td_key_dependencies(width + 2),
    )
    dp_answers = dp.evaluate(encoded).unary_answers("covered")
    out.append(
        {
            "name": f"solve-grid2x-{ladder_n}",
            "program": compiled2.program,
            "dependencies": compiled2.dependencies(),
            "encoded": encoded,
            "answer_predicate": ANSWER_PREDICATE,
            "expected": 2 * ladder_n,
            # streamed only: the eager reference grounds the full
            # program x structure cross product (1.4M ground rules at
            # N=40) -- demand pruning is precisely what makes the
            # width-2 compiled program practical
            "backends": ["quasi-guarded"],
            "reference": reference,
            "dp_answers": dp_answers,
            "ablation_program": compiled2_ablated.program,
            "ablation_dependencies": compiled2_ablated.dependencies(),
        }
    )

    _, encoded, width = encode(graph_grid(grid_k))
    out.append(
        {
            "name": f"solve-grid-{grid_k}",
            "program": atd_cover_program(width + 2),
            "dependencies": td_key_dependencies(width + 2),
            "encoded": encoded,
            "answer_predicate": "covered",
            "expected": grid_k * grid_k,
            "backends": SOLVER_BACKENDS,
        }
    )
    return out


def run_solver_comparison(quick, repeat=3):
    """The Theorem 4.4 pipeline: streamed vs the eager reference.

    Returns (table rows, per-workload results dict, contract
    violations).  Contracts: identical unary answers across all arms;
    the streamed form prunes rules and beats the eager reference on
    the chain and tree solves (see :func:`check_solver_contracts`).
    """
    from repro.core import QuasiGuardedEvaluator

    rows = []
    results = {}
    failures = []
    for workload in solver_workloads(quick):
        name = workload["name"]
        encoded = workload["encoded"]
        answer_pred = workload["answer_predicate"]
        streamed = QuasiGuardedEvaluator(
            workload["program"],
            dependencies=workload["dependencies"],
            demand=answer_pred,
        )
        arms = {"quasi-guarded": lambda: streamed.evaluate(encoded)}
        if "quasi-guarded-eager" in workload["backends"]:
            arms["quasi-guarded-eager"] = lambda: eager_reference(
                streamed._prepared, encoded
            )
        if "ablation_program" in workload:
            # the passes=() arm: same query, unshrunk program
            ablated = QuasiGuardedEvaluator(
                workload["ablation_program"],
                dependencies=workload["ablation_dependencies"],
                demand=answer_pred,
            )
            arms["quasi-guarded-nopasses"] = lambda: ablated.evaluate(
                encoded
            )
        answers = {}
        runs = {}
        # the grid2x arms carry a timed gate: more repeats there
        arm_repeat = GRID2X_REPEAT if "ablation_program" in workload else repeat
        for arm, run in arms.items():
            warm = run()  # warm-up / cache fill
            answers[arm] = warm.unary_answers(answer_pred)
            ms = time_ms(
                lambda: run().unary_answers(answer_pred), repeat=arm_repeat
            )
            runs[arm] = {
                "ms": round(ms, 3),
                "ground_rules": warm.ground_rules,
                "answers": len(answers[arm]),
            }
            if arm != "quasi-guarded-eager":
                runs[arm]["rules_pruned"] = warm.stats.rules_pruned
                runs[arm]["peak_live_rules"] = warm.stats.peak_live_rules
        if _below_passes_speedup(runs):
            # host noise reads as a regression once; a real one persists
            print(f"{name}: below the passes=() speedup; re-timing once")
            retimed = {
                arm: time_ms(
                    lambda run=arms[arm]: run().unary_answers(answer_pred),
                    repeat=arm_repeat,
                )
                for arm in ("quasi-guarded", "quasi-guarded-nopasses")
            }
            if not _below_passes_speedup(
                {arm: {"ms": ms} for arm, ms in retimed.items()}
            ):
                for arm, ms in retimed.items():
                    runs[arm]["ms"] = round(ms, 3)
        results[name] = runs
        streamed_run = runs["quasi-guarded"]
        for backend in runs:
            run = runs[backend]
            speedup = (
                run["ms"] / streamed_run["ms"]
                if streamed_run["ms"]
                else float("inf")
            )
            rows.append(
                [
                    name,
                    backend,
                    run["answers"],
                    run["ground_rules"],
                    run.get("rules_pruned", "-"),
                    format_ms(run["ms"]),
                    f"{speedup:.1f}x",
                ]
            )
        reference = answers["quasi-guarded"]
        for backend in runs:
            if answers[backend] != reference:
                failures.append(
                    f"{name}: {backend} disagrees with the streamed "
                    f"pipeline ({len(answers[backend])} vs "
                    f"{len(reference)} answers)"
                )
        if len(reference) != workload["expected"]:
            failures.append(
                f"{name}: expected {workload['expected']} answers, got "
                f"{len(reference)}"
            )
        # conformance pins (the grid2x workload): the compiled width-2
        # program must agree exactly with direct MSO evaluation and
        # with the hand-written cover DP over the same encoding
        if "reference" in workload and reference != workload["reference"]:
            failures.append(
                f"{name}: compiled answers disagree with direct MSO "
                f"evaluation ({len(reference)} vs "
                f"{len(workload['reference'])} answers)"
            )
        if (
            "dp_answers" in workload
            and reference != workload["dp_answers"]
        ):
            failures.append(
                f"{name}: compiled answers disagree with the "
                f"hand-written cover DP ({len(reference)} vs "
                f"{len(workload['dp_answers'])} answers)"
            )
        failures.extend(check_solver_contracts(name, runs))
    return rows, results, failures


def _below_passes_speedup(runs):
    """Whether a grid2x workload's folded solve misses the
    ``GRID2X_PASSES_SPEEDUP`` over the ``passes=()`` ablation."""
    nopasses = runs.get("quasi-guarded-nopasses")
    return nopasses is not None and (
        runs["quasi-guarded"]["ms"] * GRID2X_PASSES_SPEEDUP > nopasses["ms"]
    )


def check_solver_contracts(name, runs):
    """The perf contracts of one solver workload; separated out so the
    test-suite can exercise the gate logic on synthetic timings.

    The ``quasi-guarded-eager`` arm is the eager reference grounder,
    not a solve route; it stays as the yardstick for demand pruning.
    The streamed form must dominate on the compiled-MSO chain/tree
    solves, where most of the eager ground program is dead weight.
    Since the Theorem 4.5 compiler minimizes its type table (PR 5) the
    compiled programs -- and eager's dead weight -- are much smaller,
    so the chain gate is 1.3x where it used to be 2x (the tree solve
    still clears 2x).  The grid cover DP is fully live: the eager
    reference has nothing extra to ground there (the recorded full run
    has streamed at 15.1 vs 19.7 ms on ``solve-grid-12``), and it
    carries no speed gate.  The grid2x
    workload (width-2 Theorem 4.5 path) runs the streamed form only;
    its gates are pruning engagement, and the speedup and the
    ground-rule shrink over the ``passes=()`` ablation -- the answer
    conformance pins and the one re-timing live in
    ``run_solver_comparison``.
    """
    failures = []
    streamed = runs["quasi-guarded"]
    eager = runs.get("quasi-guarded-eager")
    chain_or_tree = name.startswith(("solve-chain-", "solve-tree-"))
    if chain_or_tree:
        required = 2.0 if name.startswith("solve-tree-") else 1.3
        if streamed["ms"] * required > eager["ms"]:
            failures.append(
                f"{name}: streamed {streamed['ms']:.1f}ms vs eager "
                f"{eager['ms']:.1f}ms -- less than the required "
                f"{required:g}x speedup"
            )
    if (
        chain_or_tree or name.startswith("solve-grid2x-")
    ) and streamed.get("rules_pruned", 0) <= 0:
        failures.append(
            f"{name}: streamed grounding pruned no rules -- demand "
            "pruning is not engaging"
        )
    nopasses = runs.get("quasi-guarded-nopasses")
    if _below_passes_speedup(runs):
        failures.append(
            f"{name}: folded program {streamed['ms']:.1f}ms vs "
            f"passes=() ablation {nopasses['ms']:.1f}ms -- less than "
            f"the required {GRID2X_PASSES_SPEEDUP:g}x speedup from "
            "the program-shrinking pass"
        )
    if nopasses is not None and (
        streamed["ground_rules"] * GRID2X_GROUND_RULES_SHRINK
        > nopasses["ground_rules"]
    ):
        failures.append(
            f"{name}: folded program grounds {streamed['ground_rules']} "
            f"rules vs {nopasses['ground_rules']} for the passes=() "
            f"ablation -- not the required "
            f"{GRID2X_GROUND_RULES_SHRINK}x fewer"
        )
    return failures


# ----------------------------------------------------------------------
# Baseline drift: the checked-in JSON must match the harness
# ----------------------------------------------------------------------


def check_baseline_drift(previous, payload):
    """Compare the checked-in baseline against a fresh payload.

    Timings are expected to move; the *shape* is not: a schema-version
    bump or a workload/backend set change without a regenerated
    ``BENCH_engine.json`` fails CI here rather than silently
    gatekeeping against a stale baseline.
    """
    failures = []
    if previous is None:
        return failures  # first run: nothing checked in yet
    if previous.get("schema") != payload["schema"]:
        failures.append(
            f"baseline drift: checked-in schema "
            f"{previous.get('schema')!r} != harness schema "
            f"{payload['schema']!r} -- regenerate BENCH_engine.json"
        )
        return failures  # shape comparisons are meaningless across schemas
    if previous.get("quick") == payload["quick"]:
        old_keys = set(previous.get("solver_workloads", ()))
        new_keys = set(payload.get("solver_workloads", ()))
        if old_keys != new_keys:
            failures.append(
                f"baseline drift: solver_workloads changed "
                f"{sorted(old_keys)} -> {sorted(new_keys)} -- "
                "regenerate BENCH_engine.json"
            )
    for name, backends in payload.get("solver_workloads", {}).items():
        old = previous.get("solver_workloads", {}).get(name)
        if old is not None and set(old) != set(backends):
            failures.append(
                f"baseline drift: solver backends for {name} changed "
                f"{sorted(old)} -> {sorted(backends)} -- regenerate "
                "BENCH_engine.json"
            )
    return failures


def build_payload(
    solver_results,
    quick,
    service_throughput=None,
    service_resilience=None,
    admission=None,
):
    """The machine-readable perf trajectory consumed by later PRs.

    ``solver_speedups`` records the eager-reference-vs-streamed ratio;
    the service sections -- ``service_throughput`` (v4),
    ``service_resilience`` (v5, the fault-injection goodput record)
    and ``admission`` (v7, the untrusted-input answers + containment
    record) -- are *owned* by ``bench_solver_service.py``; this
    harness carries the checked-in records through unchanged so the
    benchmarks can regenerate the baseline in either order."""
    payload = {
        "schema": SCHEMA_VERSION,
        "benchmark": "benchmarks/bench_datalog_engine.py",
        "quick": quick,
        "solver_program": (
            "Theorem 4.5 has_neighbor, minimized + folded "
            "(chain/tree at width 1; grid2x ladder at width 2 via "
            "grid_graph_filter, streamed folded program vs passes=() "
            "ablation, conformance-pinned to direct MSO + cover DP); "
            "A_td cover DP at natural width (grid)"
        ),
        "solver_workloads": solver_results,
        "solver_speedups": {
            name: round(
                backends["quasi-guarded-eager"]["ms"]
                / backends["quasi-guarded"]["ms"],
                2,
            )
            for name, backends in solver_results.items()
            if backends.get("quasi-guarded", {}).get("ms")
            and "quasi-guarded-eager" in backends
        },
    }
    if service_throughput is not None:
        payload["service_throughput"] = service_throughput
    if service_resilience is not None:
        payload["service_resilience"] = service_resilience
    if admission is not None:
        payload["admission"] = admission
    return payload


def write_baseline(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes and fewer repeats (the CI smoke test)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=BENCH_JSON,
        help=f"where to write the JSON baseline (default {BENCH_JSON})",
    )
    args = parser.parse_args(argv)
    repeat = 2 if args.quick else 3

    print(
        "solver workloads (Theorem 4.4 pipeline: "
        "streamed+pruned vs eager reference)"
    )
    solver_rows, solver_results, failures = run_solver_comparison(
        args.quick, repeat=repeat
    )
    print(
        format_table(
            [
                "workload",
                "backend",
                "answers",
                "ground rules",
                "pruned",
                "ms",
                "vs streamed",
            ],
            solver_rows,
        )
    )
    previous = None
    if args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
        except json.JSONDecodeError:
            failures.append(f"baseline drift: {args.out} is not valid JSON")
    payload = build_payload(
        solver_results,
        args.quick,
        service_throughput=(
            previous.get("service_throughput")
            if previous is not None
            else None
        ),
        service_resilience=(
            previous.get("service_resilience")
            if previous is not None
            else None
        ),
        admission=(
            previous.get("admission") if previous is not None else None
        ),
    )
    failures.extend(check_baseline_drift(previous, payload))
    out = write_baseline(args.out, payload)
    print(f"\nwrote {out}")
    if failures:
        print("\nCONTRACT VIOLATIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nok: the streamed "
        "quasi-guarded pipeline matches the eager reference's answers, "
        "prunes rules, and beats it >= 2x on the tree solve and "
        ">= 1.3x on the chain solve; the width-2 grid2x solve matches "
        "direct MSO evaluation and the hand-written cover DP, beats "
        "the passes=() ablation and grounds under a third of its rules; "
        "the baseline schema matches the harness"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
