"""Engine internals: the Theorem 4.4 solve pipeline on compiled programs.

Not a paper table, but the substrate claim behind the MD column:
Section 6 stresses that the viability of the monadic-datalog route
hinges on the interpreter's constant factors.  The **solver workloads**
time the Theorem 4.4 pipeline (grounding + linear-time Horn): the
streamed, demand-pruned solve path (``quasi-guarded``: ground rules
instantiated on demand into an online LTUR), with every workload's
answers checked against the independent semi-naive set engine
(``repro.datalog.solve(program, encoded, backend="semi-naive")``, run
outside the timed region):

* ``solve-chain-N`` / ``solve-tree-N`` -- the compiled Theorem 4.5
  ``has_neighbor`` MSO program, evaluated over the ``A_td`` encoding
  of a path graph / random tree (width 1);
* ``solve-grid2x-N`` -- the *width-2* grid family: a 2 x N ladder
  grid solved through the real Theorem 4.5 path (``has_neighbor``
  compiled at width 2 relative to the grid class --
  ``grid_graph_filter``).  Runs the streamed production form (the
  folded program -- ~770 rules since the v8 shrinking pass) against
  the ``passes=()`` ablation (the ~20k-rule program PR 9 served).
  Gated on exact agreement with *direct MSO evaluation* and with the
  hand-written cover DP over the same ``A_td`` encoding, and on the
  folded program beating the ablation by ``GRID2X_PASSES_SPEEDUP``
  (each arm best of ``GRID2X_REPEAT``, re-timed once before failing)
  while grounding at most 1/``GRID2X_GROUND_RULES_SHRINK`` of its
  rules;
* ``solve-grid-K`` -- a K x K grid is decomposed at its natural width
  (≈ K, far outside the compiler's envelope), and a Figure-style
  quasi-guarded dynamic program over its wide-bag ``A_td`` encoding
  stands in for the compiled MSO solve: same rule shapes
  (bag-guarded leaf/child1/child2 recursion + monadic projections),
  genuinely wide guards.

The **eval exponent** is the scaling gate of the same layer: the
log-log slope of ``QuasiGuardedEvaluator.evaluate`` plus
``unary_answers`` on a fresh ``load_normalized`` database (the load
untimed; best of ``EVAL_REPEAT``, garbage collector off) against the
domain size, on width-1 random forests and width-2 full ladders with
2N vertices, N in ``EVAL_COLUMNS``.

The generic set engine's speed is gated on the paper's own workload by
``bench_three_coloring.py`` (Figure 5 on partial 3-trees); batch
solving on a ``SolverService`` is benchmarked, and its answers gated
against the serial loop, by ``bench_solver_service.py``.

``python benchmarks/bench_datalog_engine.py [--quick]`` prints the
tables (``--quick`` is the CI smoke test), writes the machine-readable
baseline ``BENCH_engine.json`` to the repo root (``--out`` overrides)
and exits non-zero if a contract regresses:

  1. every arm's answers on a workload equal the semi-naive engine's;
     the streamed form prunes rules (``rules_pruned > 0``) on the
     chain, tree and grid2x solves; the grid2x answers equal direct
     MSO evaluation and the hand-written cover DP on the same
     encoding, and the folded grid2x solve beats the ``passes=()``
     ablation by >= ``GRID2X_PASSES_SPEEDUP`` on a first timing or on
     one re-timing, and grounds at most 1/``GRID2X_GROUND_RULES_SHRINK``
     of the ablation's rules (a count, so this half of the gate is
     deterministic);
  2. the eval exponent is at most ``EVAL_MAX_SLOPE`` on forests and on
     ladders, on a first timing or on one re-timing, with every
     answer equal to the non-isolated vertices;
  3. the checked-in ``BENCH_engine.json`` must match the harness's
     schema version and workload/backend shape (drift fails CI until
     the baseline is regenerated).
"""

import argparse
import functools
import gc
import json
import random
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import best_ms, format_ms, format_table, log_log_slope
from repro.datalog import solve, td_key_dependencies

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"


# ----------------------------------------------------------------------
# Solver workloads: the Theorem 4.4 pipeline on chain/grid/tree
# families, answers pinned to the semi-naive set engine.
# ----------------------------------------------------------------------

SCHEMA_VERSION = "bench-engine/v13"

#: the gate on the grid2x solve: the folded program must beat the
#: passes=() ablation -- the program PR 9 served -- by this factor
GRID2X_PASSES_SPEEDUP = 3.0
#: ... and ground at most this fraction's inverse of its rules
GRID2X_GROUND_RULES_SHRINK = 3
#: best-of count of each grid2x arm (the speedup gate's timings)
GRID2X_REPEAT = 5

#: the eval-exponent gate: N of the 2N-vertex forests and 2 x N ladders
EVAL_COLUMNS = (64, 128, 256, 512)
#: ... the largest tolerated log-log slope of the eval layer
EVAL_MAX_SLOPE = 1.15
#: ... timed runs per input; the best one counts
EVAL_REPEAT = 9


@functools.lru_cache(maxsize=None)
def compiled_has_neighbor(width, passes=None):
    """``has_neighbor`` compiled once per (width, passes): width 1 over
    undirected graphs, width 2 over the grid class."""
    from repro.core import (
        compile_unary_query,
        grid_graph_filter,
        undirected_graph_filter,
    )
    from repro.mso import formulas
    from repro.structures import GRAPH_SIGNATURE

    return compile_unary_query(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=width,
        free_var="x",
        structure_filter=(
            grid_graph_filter if width == 2 else undirected_graph_filter
        ),
        passes=passes,
    )


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
    Horn pipeline.

    Keys: ``name``, ``program``, ``dependencies``, ``encoded`` (the
    ``A_td``), ``answer_predicate``, ``expected`` (answer count), and
    for the grid2x workload ``reference`` -- the exact answer set from
    *direct MSO evaluation* -- ``dp_answers`` (the hand-written cover
    DP on the same encoding) and the ``passes=()`` ablation's program
    (the Theorem 4.5 conformance contract of the width-2 envelope).
    """
    from repro.bench import atd_cover_program
    from repro.core import ANSWER_PREDICATE, QuasiGuardedEvaluator
    from repro.mso import formulas
    from repro.mso import query as mso_query
    from repro.problems import random_tree_graph
    from repro.structures import Graph, graph_to_structure
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
    compiled = compiled_has_neighbor(1)
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
            }
        )

    # the width-2 grid family through the real Theorem 4.5 path
    # (ROADMAP (d)): compile at width 2 relative to the grid class,
    # solve a ladder, and pin the answers to direct MSO evaluation and
    # to the hand-written cover DP over the same A_td encoding
    compiled2 = compiled_has_neighbor(2)
    # the passes=() ablation: the very same query compiled without the
    # program-shrinking pass (ROADMAP D) -- the program PR 9 served.
    # The gate times it on the same encoding; the folded program must
    # beat it by GRID2X_PASSES_SPEEDUP.
    compiled2_ablated = compiled_has_neighbor(2, passes=())
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
        }
    )
    return out


def semi_naive_answers(program, encoded, predicate):
    """The unary answers of ``predicate`` by the semi-naive set
    engine: the independent oracle every workload is checked against."""
    derived = solve(program, encoded, backend="semi-naive")
    return frozenset(args[0] for args in derived.relation(predicate))


def run_solver_comparison(quick, repeat=3):
    """Time the streamed Theorem 4.4 pipeline on every workload.

    Returns (table rows, per-workload results dict, contract
    violations).  Contracts: every arm's answers equal the semi-naive
    engine's; the streamed form prunes rules and the grid2x gates hold
    (see :func:`check_solver_contracts`).
    """
    from repro.core import QuasiGuardedEvaluator

    rows = []
    results = {}
    failures = []
    for workload in solver_workloads(quick):
        name = workload["name"]
        encoded = workload["encoded"]
        answer_pred = workload["answer_predicate"]
        oracle = semi_naive_answers(workload["program"], encoded, answer_pred)
        streamed = QuasiGuardedEvaluator(
            workload["program"],
            dependencies=workload["dependencies"],
            demand=answer_pred,
        )
        arms = {"quasi-guarded": lambda: streamed.evaluate(encoded)}
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
            ms = best_ms(lambda: run().unary_answers(answer_pred), arm_repeat)
            runs[arm] = {
                "ms": round(ms, 3),
                "ground_rules": warm.ground_rules,
                "answers": len(answers[arm]),
                "rules_pruned": warm.stats.rules_pruned,
                "peak_live_rules": warm.stats.peak_live_rules,
            }
        if _below_passes_speedup(runs):
            # host noise reads as a regression once; a real one persists
            print(f"{name}: below the passes=() speedup; re-timing once")
            retimed = {
                arm: best_ms(
                    lambda run=arms[arm]: run().unary_answers(answer_pred),
                    arm_repeat,
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
        for backend, run in runs.items():
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
                    run["rules_pruned"],
                    format_ms(run["ms"]),
                    f"{speedup:.1f}x",
                ]
            )
        for backend, got in answers.items():
            if got != oracle:
                failures.append(
                    f"{name}: {backend} disagrees with the semi-naive "
                    f"engine ({len(got)} vs {len(oracle)} answers)"
                )
        if len(oracle) != workload["expected"]:
            failures.append(
                f"{name}: expected {workload['expected']} answers, got "
                f"{len(oracle)}"
            )
        # conformance pins (the grid2x workload): the compiled width-2
        # program must agree exactly with direct MSO evaluation and
        # with the hand-written cover DP over the same encoding
        reference = answers["quasi-guarded"]
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

    The compiled-MSO chain, tree and grid2x solves must prune rules
    (demand pruning engaged).  The grid cover DP is fully live and
    carries no gate here.  The grid2x workload (width-2 Theorem 4.5
    path) must also beat the ``passes=()`` ablation by
    ``GRID2X_PASSES_SPEEDUP`` and ground at most
    1/``GRID2X_GROUND_RULES_SHRINK`` of its rules -- the answer
    conformance pins and the one re-timing live in
    ``run_solver_comparison``.
    """
    failures = []
    streamed = runs["quasi-guarded"]
    if name.startswith(
        ("solve-chain-", "solve-tree-", "solve-grid2x-")
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
# The eval exponent: how the streamed eval layer scales with |A|
# ----------------------------------------------------------------------


def random_forest(rng, n, tree_size=16):
    """A random forest on ``0..n-1``: consecutive blocks of
    ``tree_size`` vertices, each a random recursive tree (every vertex
    joins a random earlier one of its block).  Equal-sized trees keep
    the work per vertex level across sizes, so the fitted slope reads
    the pipeline, not the draw."""
    from repro.structures import Graph

    graph = Graph(range(n))
    for v in range(n):
        offset = v % tree_size
        if offset:
            graph.add_edge(v, v - offset + rng.randrange(offset))
    return graph


def eval_inputs(family):
    """The gate's ``(N, graph)`` inputs: 2N-vertex random forests
    (``forest-w1``) or 2 x N ladders (``ladder-w2``)."""
    from repro.structures import Graph

    if family == "forest-w1":
        return [
            (n, random_forest(random.Random(f"eval-forest:{n}"), 2 * n))
            for n in EVAL_COLUMNS
        ]
    return [(n, Graph.grid(2, n)) for n in EVAL_COLUMNS]


def eval_ms(evaluator, load):
    """Best-of-``EVAL_REPEAT`` ms of ``evaluator.evaluate`` plus
    ``unary_answers`` on a fresh ``load()`` each run (the load
    untimed), garbage collector off; and the answers."""
    from repro.core import ANSWER_PREDICATE

    best = float("inf")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(EVAL_REPEAT):
            db = load()
            start = time.perf_counter()
            answers = evaluator.evaluate(db).unary_answers(ANSWER_PREDICATE)
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best * 1e3, answers


def measure_eval(family, width):
    """Time the eval layer on every input of ``family`` and fit the
    slope against the domain size.  Returns the record: ``columns``,
    ``domain``, ``ms``, ``slope``, and ``answers_ok`` -- whether every
    answer set was the non-isolated vertices."""
    from repro.core import ANSWER_PREDICATE, QuasiGuardedEvaluator
    from repro.structures import graph_to_structure
    from repro.treewidth import (
        decompose_structure,
        load_normalized,
        normalize,
        widen,
    )

    compiled = compiled_has_neighbor(width)
    evaluator = QuasiGuardedEvaluator(
        compiled.program,
        dependencies=compiled.dependencies(),
        demand=ANSWER_PREDICATE,
    )
    record = {"columns": [], "domain": [], "ms": [], "answers_ok": True}
    for n, graph in eval_inputs(family):
        structure = graph_to_structure(graph)
        td = decompose_structure(structure)
        ntd = normalize(widen(td, width) if td.width < width else td)
        ms, answers = eval_ms(
            evaluator, lambda: load_normalized(structure, ntd)
        )
        want = frozenset(v for v in graph.vertices if graph.neighbors(v))
        record["answers_ok"] &= answers == want
        record["columns"].append(n)
        record["domain"].append(len(structure.domain))
        record["ms"].append(round(ms, 3))
        print(
            f"{family} N={n:<4} |A|={len(structure.domain):<5} "
            f"{ms:8.2f} ms"
        )
    record["slope"] = round(log_log_slope(record["domain"], record["ms"]), 3)
    print(f"{family}: eval exponent {record['slope']} (gate <= {EVAL_MAX_SLOPE})")
    return record


def eval_exponent_gate(family, measure):
    """The gate on one family: ``measure()`` times it once and returns
    a record with its ``slope``; a slope above ``EVAL_MAX_SLOPE`` is
    re-timed once and the better record kept.  Returns the record and
    the failures."""
    record = measure()
    if record["slope"] > EVAL_MAX_SLOPE:
        # host noise reads as a regression once; a real one persists
        print(f"{family}: eval exponent above the gate; re-timing once")
        again = measure()
        if again["slope"] < record["slope"]:
            record = again
    if record["slope"] > EVAL_MAX_SLOPE:
        return record, [
            f"{family}: eval exponent {record['slope']:.3f} > "
            f"{EVAL_MAX_SLOPE}"
        ]
    return record, []


def run_eval_exponent():
    """The eval-exponent gate on both families: (records, failures)."""
    records, failures = {}, []
    for family, width in (("forest-w1", 1), ("ladder-w2", 2)):
        record, failed = eval_exponent_gate(
            family, lambda: measure_eval(family, width)
        )
        if not record["answers_ok"]:
            failed.append(
                f"{family}: answers differ from the non-isolated vertices"
            )
        records[family] = record
        failures += failed
    return records, failures


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
    eval_exponent,
    quick,
    service_throughput=None,
    service_resilience=None,
    admission=None,
):
    """The machine-readable perf trajectory consumed by later PRs.

    ``eval_exponent`` holds the eval layer's timings and fitted slope
    per family; the service sections -- ``service_throughput`` (v4),
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
        "eval_exponent": eval_exponent,
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
        "solver workloads (Theorem 4.4 pipeline, streamed+pruned; "
        "answers checked against the semi-naive engine)"
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
    print(
        "\neval exponent (evaluate + unary_answers on a fresh "
        "load_normalized database, load untimed)"
    )
    eval_exponent, eval_failures = run_eval_exponent()
    failures += eval_failures
    previous = None
    if args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
        except json.JSONDecodeError:
            failures.append(f"baseline drift: {args.out} is not valid JSON")
    payload = build_payload(
        solver_results,
        eval_exponent,
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
        "\nok: the streamed quasi-guarded pipeline matches the "
        "semi-naive engine's answers and prunes rules; the width-2 "
        "grid2x solve matches direct MSO evaluation and the "
        "hand-written cover DP, beats the passes=() ablation and "
        "grounds under a third of its rules; the eval exponent is at "
        f"most {EVAL_MAX_SLOPE} on forests and ladders; the baseline "
        "schema matches the harness"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
