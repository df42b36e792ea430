"""Throughput harness for the persistent solver service.

Theorem 4.5's amortization claim is only a production story if the
serving layer can turn "compile once, solve many" into solves/sec.
This benchmark drives :class:`repro.service.SolverService` with the
mixed traffic shape the paper's workloads suggest (and the
Frochaux-Schweikardt unranked-tree workloads in PAPERS.md motivate):

* ``chain``  -- path graphs through the width-1 compiled
  ``has_neighbor`` program;
* ``tree``   -- random trees through the same width-1 program (chains
  and trees share one compiled program, so their requests coalesce
  into shared shards);
* ``ladder`` -- 2 x N ladder grids through the *width-2* Theorem 4.5
  program compiled against the grid class (``grid_graph_filter``) --
  the expensive compile that the service amortizes: it happens once
  here, never on the request path.

Measured, and recorded as ``service_throughput`` in
``BENCH_engine.json`` (schema ``bench-engine/v10``):

1. **serial**: the in-process loop over the whole traffic (the
   baseline the service must beat);
2. **service**: the same traffic submitted request-by-request to a
   warm ``SolverService`` at N workers -- wall-clock, solves/sec, and
   per-request latency percentiles (p50/p95, measured from submit to
   future resolution via done-callbacks);
3. **warm vs cold**: ``CourcelleSolver.solve_many`` through the
   caller-held service handle vs ``solve_many(workers=N)``, which
   starts a transient ``SolverService`` per call -- re-pickling the
   solver and cold-starting its workers (recorded as ``cold_pool_ms``).

Contracts (CI-gated):

* the service's answers are identical to the serial loop's, in input
  order -- always;
* with >= 4 effective cores and >= 4 workers, service throughput must
  be >= 3x the serial loop (on smaller machines the speedup is
  recorded but not gated: a pool cannot beat the loop on one core);
* latency percentiles are sane (p50 > 0, p95 >= p50);
* the checked-in ``BENCH_engine.json`` must already be on the
  harness's schema version (run ``bench_datalog_engine.py`` first).

Run ``python benchmarks/bench_solver_service.py [--quick]``; ``--quick``
is the CI smoke test.

``--faults`` switches the harness to the **resilience** mode (the v5
tentpole): the same width-1 traffic is run once clean and once with
``crash@worker.solve+1`` injected (every worker's second solve kills
it), and the ``service_resilience`` section records goodput under
failure (clean vs faulty wall-clock), recovery latency percentiles
(from ``ServiceStats.recovery_ms``), and the crash-recovery scheduler
counters.  CI-gated contracts: the answers under injected crashes are
identical to the serial in-process loop (the 1-vs-N identity gate,
now under fire), no request fails, the fault plan demonstrably fired
(>= 1 worker restart), and the recovery percentiles are sane.

``--admission`` switches to the **untrusted-input** mode (the v7
tentpole): clean width-1 traffic is solved by the legacy trusting path
and again with ``admission="repair"`` active (best of 3 each), and the
checked-in malformed corpus (``tests/data/malformed``) is replayed
through a ``SolverService(admission="degrade")``.  The ``admission``
section records the clean-traffic overhead ratio and the containment
counters.  CI-gated contracts: admission-on answers are identical to
the legacy path and cost at most 1.05x on clean traffic; every corpus
request resolves (answer or typed ``AdmissionRejected``) with exactly
the verdicts the cases declare; and zero workers die doing it.
"""

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

#: must match bench_datalog_engine.SCHEMA_VERSION -- both harnesses
#: write sections of the same baseline file
ENGINE_SCHEMA = "bench-engine/v10"

#: the acceptance gate: at >= GATE_WORKERS workers on >= GATE_WORKERS
#: cores, the service must clear GATE_SPEEDUP x the serial loop
GATE_WORKERS = 4
GATE_SPEEDUP = 3.0

#: the fault recipe of the resilience mode: every worker's second
#: solve crashes it (``+1``: the respawned replacement's first solve
#: passes, so the pool always makes progress and the batch converges
#: within the retry cap)
RESILIENCE_FAULTS = "crash@worker.solve+1"
RESILIENCE_RETRIES = 8

#: the admission mode's clean-traffic overhead gate: admission-on
#: solves may cost at most 5% over the legacy trusting path (best of
#: ADMISSION_REPEATS runs each, so scheduler noise cannot fail CI)
ADMISSION_OVERHEAD_LIMIT = 1.05
ADMISSION_REPEATS = 3

#: the malformed-input corpus the containment half replays
CORPUS_DIR = REPO_ROOT / "tests" / "data" / "malformed"


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------


def build_solvers():
    """(width-1 chain/tree solver, width-2 ladder solver) -- compiled
    once, outside every timed region."""
    from repro.core import (
        CourcelleSolver,
        grid_graph_filter,
        undirected_graph_filter,
    )
    from repro.mso import formulas
    from repro.structures import GRAPH_SIGNATURE

    width1 = CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )
    ladder = CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=2,
        free_var="x",
        structure_filter=grid_graph_filter,
    )
    return width1, ladder


def build_traffic(quick, seed=0xFEED, cpus=None):
    """The mixed request stream: a list of (class, solver_index,
    structure), interleaved round-robin so per-program coalescing is
    actually exercised (solver_index 0 = width-1, 1 = ladder).

    ``cpus`` (the effective core count) caps the default volume on
    low-core machines: below ``GATE_WORKERS`` cores the throughput gate
    is skipped anyway, so the run only records trend data -- half the
    requests measure the same thing in half the wall-clock."""
    from repro.problems import random_tree_graph
    from repro.structures import Graph, graph_to_structure

    if quick:
        chain_n, tree_n, ladder_n = 120, 100, 6
        chains, trees, ladders = 12, 12, 3
    else:
        chain_n, tree_n, ladder_n = 200, 150, 10
        chains, trees, ladders = 24, 24, 6
    capped = cpus is not None and cpus < GATE_WORKERS
    if capped:
        chains = max(4, chains // 2)
        trees = max(4, trees // 2)
        ladders = max(2, ladders // 2)
    rng = random.Random(seed)
    classes = {
        "chain": [
            (0, graph_to_structure(Graph.path(chain_n)))
            for _ in range(chains)
        ],
        "tree": [
            (0, graph_to_structure(random_tree_graph(rng, tree_n)))
            for _ in range(trees)
        ],
        "ladder": [
            (1, graph_to_structure(Graph.grid(2, ladder_n)))
            for _ in range(ladders)
        ],
    }
    # round-robin interleave: chain, tree, ladder, chain, tree, ...
    queues = {name: list(items) for name, items in classes.items()}
    traffic = []
    while any(queues.values()):
        for name in ("chain", "tree", "ladder"):
            if queues[name]:
                idx, structure = queues[name].pop(0)
                traffic.append((name, idx, structure))
    shape = {
        "chain": {"count": chains, "n": chain_n},
        "tree": {"count": trees, "n": tree_n},
        "ladder": {"count": ladders, "n": ladder_n},
        "capped_for_low_cores": capped,
    }
    return traffic, shape


def percentile(values, q):
    """The q-quantile (0..1) of values by linear interpolation."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        max(0, min(98, round(q * 100) - 1))
    ]


# ----------------------------------------------------------------------
# The measured runs
# ----------------------------------------------------------------------


def run_serial(solvers, traffic):
    """The in-process baseline: one loop, no pool, no service."""
    t0 = time.perf_counter()
    results = [solvers[idx].query(structure) for _, idx, structure in traffic]
    return (time.perf_counter() - t0) * 1000.0, results


def run_service(solvers, traffic, workers, max_shard):
    """The same traffic through a warm SolverService.

    The service is started and the programs warmed (every worker has
    solved each program once) *before* the timed region: steady-state
    throughput is the claim, and worker fork + the one-time program
    load are the cold cost the service exists to amortize.  Returns
    (ms, results, per-request latency ms list, stats, warm_vs_cold).
    """
    from repro.service import SolverService

    with SolverService(workers=workers, max_shard=max_shard) as service:
        handles = [service.register(solver) for solver in solvers]
        # warm-up: one full round of every (worker x program) pair --
        # send `workers` copies of a tiny structure per program
        warm = []
        for name, idx, structure in traffic:
            if len(warm) < workers * len(handles):
                warm.extend(
                    handles[idx].submit(structure) for _ in range(workers)
                )
        for future in warm:
            future.result(timeout=300)

        latencies = []
        t0 = time.perf_counter()
        futures = []
        for _name, idx, structure in traffic:
            submitted = time.perf_counter()
            future = handles[idx].submit(structure)
            future.add_done_callback(
                lambda _f, t=submitted: latencies.append(
                    (time.perf_counter() - t) * 1000.0
                )
            )
            futures.append(future)
        results = [future.result(timeout=600) for future in futures]
        service_ms = (time.perf_counter() - t0) * 1000.0

        # warm-vs-cold: the same batch through the caller-held service
        # handle vs solve_many(workers=N), whose transient service
        # re-pickles the solver and cold-starts its workers
        batch = [s for _n, idx, s in traffic if idx == 0]
        t0 = time.perf_counter()
        warm_results = solvers[0].solve_many(batch, service=service)
        warm_ms = (time.perf_counter() - t0) * 1000.0
        stats = service.stats
    t0 = time.perf_counter()
    cold_results = solvers[0].solve_many(batch, workers=workers)
    cold_ms = (time.perf_counter() - t0) * 1000.0
    if warm_results != cold_results:
        raise AssertionError(
            "service-routed solve_many disagrees with the transient service"
        )
    warm_vs_cold = {
        "batch_size": len(batch),
        "warm_service_ms": round(warm_ms, 3),
        "cold_pool_ms": round(cold_ms, 3),
        "cold_over_warm": round(cold_ms / warm_ms, 2) if warm_ms else None,
    }
    return service_ms, results, latencies, stats, warm_vs_cold


# ----------------------------------------------------------------------
# Contracts
# ----------------------------------------------------------------------


def check_service_contracts(record):
    """The CI gate over a ``service_throughput`` record; pure, so the
    test suite exercises it on synthetic records.

    Identity is gated unconditionally.  The throughput gate --
    ``GATE_SPEEDUP``x over the serial loop -- applies when the record
    was taken at >= GATE_WORKERS workers on >= GATE_WORKERS effective
    cores (``gate.applied``); on smaller machines the speedup is
    recorded for trend-tracking but a pool cannot beat a serial loop
    without cores to run on.
    """
    failures = []
    if not record.get("identical"):
        failures.append(
            "service answers differ from the serial in-process loop"
        )
    latency = record.get("latency_ms", {})
    p50, p95 = latency.get("p50", 0), latency.get("p95", 0)
    if not p50 > 0:
        failures.append("latency p50 must be positive")
    elif p95 < p50:
        failures.append(f"latency p95 ({p95}) below p50 ({p50})")
    gate = record.get("gate", {})
    if gate.get("applied"):
        required = gate.get("required_speedup", GATE_SPEEDUP)
        speedup = record.get("speedup", 0)
        if speedup < required:
            failures.append(
                f"service throughput {speedup}x the serial loop at "
                f"{record.get('workers')} workers -- below the required "
                f"{required}x"
            )
    return failures


def effective_cpus():
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Resilience mode (--faults): goodput under injected worker crashes
# ----------------------------------------------------------------------


def build_width1_solver():
    """Just the width-1 program: the resilience mode skips the
    expensive width-2 ladder compile it does not use."""
    from repro.core import CourcelleSolver, undirected_graph_filter
    from repro.mso import formulas
    from repro.structures import GRAPH_SIGNATURE

    return CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )


def build_resilience_traffic(quick, seed=0xFA17):
    """Width-1 chain/tree structures for the clean-vs-faulty runs."""
    from repro.problems import random_tree_graph
    from repro.structures import Graph, graph_to_structure

    rng = random.Random(seed)
    if quick:
        chain_sizes, trees, tree_n = (40, 60, 80, 50, 70, 90), 4, 40
    else:
        chain_sizes, trees, tree_n = (
            (60, 90, 120, 80, 100, 140, 70, 110),
            8,
            60,
        )
    structures = [graph_to_structure(Graph.path(n)) for n in chain_sizes]
    structures += [
        graph_to_structure(random_tree_graph(rng, tree_n))
        for _ in range(trees)
    ]
    return structures


def run_resilience(solver, structures, workers, faults):
    """One pass of the traffic through a service; ``faults=None`` is
    the clean control run.  Both runs start cold (fresh pool, first
    program load inside the timed region) so clean-vs-faulty measures
    the same pipeline with and without crashes.  Returns
    (ms, results, stats)."""
    from repro.service import SolverService

    with SolverService(
        workers=workers,
        max_shard=4,
        faults=faults,
        max_retries=RESILIENCE_RETRIES,
        retry_backoff=0.01,
    ) as service:
        handle = service.register(solver)
        t0 = time.perf_counter()
        results = handle.solve_many(structures, timeout=600)
        ms = (time.perf_counter() - t0) * 1000.0
        stats = service.stats
    return ms, results, stats


def build_resilience_record(quick, workers):
    solver = build_width1_solver()
    structures = build_resilience_traffic(quick)
    t0 = time.perf_counter()
    serial_results = [solver.query(s) for s in structures]
    serial_ms = (time.perf_counter() - t0) * 1000.0
    clean_ms, clean_results, _clean_stats = run_resilience(
        solver, structures, workers, None
    )
    faulty_ms, faulty_results, stats = run_resilience(
        solver, structures, workers, RESILIENCE_FAULTS
    )
    recovery = sorted(stats.recovery_ms)
    n = len(structures)
    return {
        "schema_note": "service_resilience section of " + ENGINE_SCHEMA,
        "quick": quick,
        "workers": workers,
        "cpu_count": effective_cpus(),
        "requests": n,
        "fault_plan": RESILIENCE_FAULTS,
        "max_retries": RESILIENCE_RETRIES,
        "serial_ms": round(serial_ms, 3),
        "clean_ms": round(clean_ms, 3),
        "faulty_ms": round(faulty_ms, 3),
        "goodput": {
            "clean_solves_per_sec": round(n / (clean_ms / 1000.0), 2),
            "faulty_solves_per_sec": round(n / (faulty_ms / 1000.0), 2),
            "degradation": (
                round(faulty_ms / clean_ms, 2) if clean_ms else None
            ),
        },
        "recovery_ms": {
            "count": len(recovery),
            "p50": round(percentile(recovery, 0.50), 3),
            "p95": round(percentile(recovery, 0.95), 3),
        },
        "scheduler": {
            "worker_restarts": stats.worker_restarts,
            "shards_resubmitted": stats.shards_resubmitted,
            "retries": stats.retries,
            "completed": stats.completed,
            "failed": stats.failed,
            "poisoned": stats.poisoned,
        },
        "identical": faulty_results == serial_results
        and clean_results == serial_results,
    }


def check_resilience_contracts(record):
    """The CI gate over a ``service_resilience`` record; pure, so the
    test suite exercises it on synthetic records.

    All four contracts are unconditional: identity under fire (answers
    with crashes injected match the serial loop), zero failed or
    poisoned requests (the retry cap absorbs every injected crash),
    proof the plan fired (>= 1 worker restart and >= 1 recovered
    shard), and sane recovery percentiles.
    """
    failures = []
    if not record.get("identical"):
        failures.append(
            "answers under injected crashes differ from the serial loop"
        )
    scheduler = record.get("scheduler", {})
    if scheduler.get("failed", 1) or scheduler.get("poisoned", 1):
        failures.append(
            f"requests lost under injected crashes: "
            f"failed={scheduler.get('failed')} "
            f"poisoned={scheduler.get('poisoned')}"
        )
    if not scheduler.get("worker_restarts"):
        failures.append(
            "no worker restarts recorded -- the fault plan never fired"
        )
    recovery = record.get("recovery_ms", {})
    if not recovery.get("count"):
        failures.append("no recovered shards recorded recovery latency")
    elif not recovery.get("p50", 0) > 0:
        failures.append("recovery latency p50 must be positive")
    elif recovery.get("p95", 0) < recovery.get("p50", 0):
        failures.append(
            f"recovery p95 ({recovery.get('p95')}) below "
            f"p50 ({recovery.get('p50')})"
        )
    return failures


# ----------------------------------------------------------------------
# Admission mode (--admission): clean-traffic overhead + containment
# ----------------------------------------------------------------------


def build_admission_record(quick, workers):
    """The ``admission`` section (v7): two halves.

    **Overhead** -- the same clean width-1 traffic solved by the legacy
    trusting path and again with ``admission="repair"`` active, best of
    ``ADMISSION_REPEATS`` runs each.  Clean inputs take the
    verification fast path, so the ratio is the price every trusting
    caller pays for the ladder's existence; CI gates it at
    ``ADMISSION_OVERHEAD_LIMIT``.

    **Containment** -- the checked-in malformed corpus
    (``tests/data/malformed``) replayed through a live
    ``SolverService(admission="degrade")``: every request must resolve
    (an answer or a typed ``AdmissionRejected``), no worker may die.
    """
    from repro.admission import load_corpus
    from repro.errors import AdmissionRejected

    solver = build_width1_solver()
    structures = build_resilience_traffic(quick)

    legacy_runs, admitted_runs = [], []
    legacy_results = admitted_results = None
    for _ in range(ADMISSION_REPEATS):
        t0 = time.perf_counter()
        legacy_results = [solver.query(s) for s in structures]
        legacy_runs.append((time.perf_counter() - t0) * 1000.0)
        t0 = time.perf_counter()
        admitted_results = [
            solver.query(s, admission="repair") for s in structures
        ]
        admitted_runs.append((time.perf_counter() - t0) * 1000.0)
    legacy_ms, admitted_ms = min(legacy_runs), min(admitted_runs)

    cases = load_corpus(CORPUS_DIR)
    from repro.service import SolverService

    resolved = rejected = 0
    verdict_expectations_met = True
    with SolverService(workers=workers, admission="degrade") as service:
        handle = service.register(solver)
        futures = [
            handle.submit(case["structure"], td=case["td"])
            for case in cases
        ]
        for case, future in zip(cases, futures):
            try:
                future.result(timeout=300)
                resolved += 1
                if case["expect"] == "rejected":
                    verdict_expectations_met = False
            except AdmissionRejected:
                resolved += 1
                rejected += 1
                if case["expect"] != "rejected":
                    verdict_expectations_met = False
        stats = service.stats
    return {
        "schema_note": "admission section of " + ENGINE_SCHEMA,
        "quick": quick,
        "workers": workers,
        "cpu_count": effective_cpus(),
        "overhead": {
            "requests": len(structures),
            "repeats": ADMISSION_REPEATS,
            "legacy_ms": round(legacy_ms, 3),
            "admission_ms": round(admitted_ms, 3),
            "ratio": round(admitted_ms / legacy_ms, 4) if legacy_ms else None,
            "limit": ADMISSION_OVERHEAD_LIMIT,
            "identical": admitted_results == legacy_results,
        },
        "containment": {
            "corpus": str(CORPUS_DIR.relative_to(REPO_ROOT)),
            "requests": len(cases),
            "resolved": resolved,
            "rejected": rejected,
            "expected_rejected": sum(
                1 for c in cases if c["expect"] == "rejected"
            ),
            "verdicts_as_declared": verdict_expectations_met,
            "worker_restarts": stats.worker_restarts,
            "stats": {
                "admitted": stats.admitted,
                "repaired": stats.repaired,
                "degraded": stats.degraded,
                "admission_rejected": stats.admission_rejected,
            },
        },
    }


def check_admission_contracts(record):
    """The CI gate over an ``admission`` record; pure, so the test
    suite exercises it on synthetic records.

    Three unconditional contracts: admission-on answers are identical
    to the legacy path on clean traffic and cost at most the gated
    overhead ratio; every malformed-corpus request resolved (to an
    answer or a typed rejection) with exactly the declared verdicts;
    and zero workers died doing it.
    """
    failures = []
    overhead = record.get("overhead", {})
    if not overhead.get("identical"):
        failures.append(
            "admission-on answers differ from the legacy path on "
            "clean traffic"
        )
    ratio = overhead.get("ratio")
    limit = overhead.get("limit", ADMISSION_OVERHEAD_LIMIT)
    if ratio is None or ratio > limit:
        failures.append(
            f"clean-traffic admission overhead {ratio}x exceeds the "
            f"{limit}x gate"
        )
    containment = record.get("containment", {})
    if containment.get("resolved") != containment.get("requests"):
        failures.append(
            f"hung/abandoned corpus requests: "
            f"{containment.get('resolved')} of "
            f"{containment.get('requests')} resolved"
        )
    if containment.get("rejected") != containment.get("expected_rejected"):
        failures.append(
            f"corpus rejections {containment.get('rejected')} != "
            f"expected {containment.get('expected_rejected')}"
        )
    if not containment.get("verdicts_as_declared"):
        failures.append(
            "corpus verdicts diverged from the cases' declared "
            "expectations"
        )
    if containment.get("worker_restarts", 1):
        failures.append(
            f"{containment.get('worker_restarts')} worker restarts -- "
            "malformed input must never kill a worker"
        )
    return failures


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def gate_skipped_reason(cpus, workers):
    """Why the throughput gate is skipped, or ``None`` when it applies
    -- recorded explicitly so a baseline from a small machine says so
    instead of looking like a silently-waived contract."""
    reasons = []
    if cpus < GATE_WORKERS:
        reasons.append(f"{cpus} effective cores < {GATE_WORKERS}")
    if workers < GATE_WORKERS:
        reasons.append(f"{workers} workers < {GATE_WORKERS}")
    if not reasons:
        return None
    return (
        "; ".join(reasons)
        + f" -- the {GATE_SPEEDUP}x gate needs >= {GATE_WORKERS} of each"
    )


def build_record(quick, workers, max_shard):
    cpus = effective_cpus()
    solvers = build_solvers()
    traffic, shape = build_traffic(quick, cpus=cpus)
    serial_ms, serial_results = run_serial(solvers, traffic)
    service_ms, service_results, latencies, stats, warm_vs_cold = (
        run_service(solvers, traffic, workers, max_shard)
    )
    identical = service_results == serial_results
    n = len(traffic)
    speedup = serial_ms / service_ms if service_ms else float("inf")
    skipped_reason = gate_skipped_reason(cpus, workers)
    record = {
        "schema_note": "service_throughput section of " + ENGINE_SCHEMA,
        "quick": quick,
        "workers": workers,
        "max_shard": max_shard,
        "cpu_count": cpus,
        "traffic": shape,
        "requests": n,
        "serial_ms": round(serial_ms, 3),
        "serial_solves_per_sec": round(n / (serial_ms / 1000.0), 2),
        "service_ms": round(service_ms, 3),
        "service_solves_per_sec": round(n / (service_ms / 1000.0), 2),
        "speedup": round(speedup, 2),
        "latency_ms": {
            "p50": round(percentile(sorted(latencies), 0.50), 3),
            "p95": round(percentile(sorted(latencies), 0.95), 3),
        },
        "identical": identical,
        "warm_vs_cold": warm_vs_cold,
        "scheduler": {
            "shards_dispatched": stats.shards_dispatched,
            "peak_queue_depth": stats.peak_queue_depth,
            "worker_restarts": stats.worker_restarts,
        },
        "gate": {
            "applied": skipped_reason is None,
            "required_speedup": GATE_SPEEDUP,
            "skipped_reason": skipped_reason,
        },
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller traffic (the CI smoke test)",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help=(
            "resilience mode: run the traffic clean and with "
            f"{RESILIENCE_FAULTS!r} injected, record service_resilience"
        ),
    )
    parser.add_argument(
        "--admission",
        action="store_true",
        help=(
            "admission mode: gate clean-traffic overhead at "
            f"{ADMISSION_OVERHEAD_LIMIT}x and replay the malformed "
            "corpus through a degrade-policy service, record admission"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=GATE_WORKERS,
        help=f"service worker count (default {GATE_WORKERS})",
    )
    parser.add_argument(
        "--max-shard",
        type=int,
        default=8,
        help="scheduler shard-size cap (default 8)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=BENCH_JSON,
        help=f"the baseline to update (default {BENCH_JSON})",
    )
    args = parser.parse_args(argv)

    failures = []
    baseline = None
    if args.out.exists():
        try:
            baseline = json.loads(args.out.read_text())
        except json.JSONDecodeError:
            failures.append(f"{args.out} is not valid JSON")
    if baseline is None:
        failures.append(
            f"{args.out} missing -- run bench_datalog_engine.py first "
            "(this harness only owns the service_throughput section)"
        )
    elif baseline.get("schema") != ENGINE_SCHEMA:
        failures.append(
            f"baseline drift: {args.out} is on schema "
            f"{baseline.get('schema')!r}, this harness writes "
            f"{ENGINE_SCHEMA!r} -- regenerate with "
            "bench_datalog_engine.py first"
        )
    if failures:
        for failure in failures:
            print(f"  - {failure}")
        return 1

    if args.admission:
        record = build_admission_record(args.quick, args.workers)
        failures = check_admission_contracts(record)
        overhead = record["overhead"]
        containment = record["containment"]
        print("solver service admission (untrusted-input ladder)")
        print(
            f"  overhead:      legacy {overhead['legacy_ms']:.0f} ms vs "
            f"admission {overhead['admission_ms']:.0f} ms over "
            f"{overhead['requests']} clean solves "
            f"({overhead['ratio']}x, gate {overhead['limit']}x)"
        )
        print(
            f"  containment:   {containment['resolved']}/"
            f"{containment['requests']} corpus requests resolved, "
            f"{containment['rejected']} rejected "
            f"(expected {containment['expected_rejected']}), "
            f"{containment['worker_restarts']} worker restarts"
        )
        print(
            f"  verdicts:      {containment['stats']['admitted']} admitted, "
            f"{containment['stats']['repaired']} repaired, "
            f"{containment['stats']['degraded']} degraded, "
            f"{containment['stats']['admission_rejected']} rejected"
        )
        baseline["admission"] = record
        args.out.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nupdated {args.out} (admission)")
        if failures:
            print("\nCONTRACT VIOLATIONS:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            "\nok: clean-traffic overhead within the gate; the whole "
            "malformed corpus resolved with the declared verdicts and "
            "zero worker deaths"
        )
        return 0

    if args.faults:
        record = build_resilience_record(args.quick, args.workers)
        failures = check_resilience_contracts(record)
        goodput = record["goodput"]
        recovery = record["recovery_ms"]
        scheduler = record["scheduler"]
        print("solver service resilience (injected worker crashes)")
        print(
            f"  requests:      {record['requests']} width-1 chain/tree, "
            f"{record['workers']} workers, faults {record['fault_plan']!r}"
        )
        print(
            f"  clean:         {record['clean_ms']:.0f} ms "
            f"({goodput['clean_solves_per_sec']} solves/s)"
        )
        print(
            f"  under faults:  {record['faulty_ms']:.0f} ms "
            f"({goodput['faulty_solves_per_sec']} solves/s, "
            f"{goodput['degradation']}x slower)"
        )
        print(
            f"  recovery:      {recovery['count']} shards, "
            f"p50 {recovery['p50']:.0f} ms, p95 {recovery['p95']:.0f} ms"
        )
        print(
            f"  scheduler:     {scheduler['worker_restarts']} restarts, "
            f"{scheduler['shards_resubmitted']} shards resubmitted, "
            f"{scheduler['retries']} retries, "
            f"{scheduler['failed']} failed, "
            f"{scheduler['poisoned']} poisoned"
        )
        baseline["service_resilience"] = record
        args.out.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nupdated {args.out} (service_resilience)")
        if failures:
            print("\nCONTRACT VIOLATIONS:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            "\nok: answers identical to the serial loop under injected "
            "crashes; nothing failed or poisoned; recovery latency sane"
        )
        return 0

    record = build_record(args.quick, args.workers, args.max_shard)
    failures = check_service_contracts(record)

    print("solver service throughput (mixed chain/tree/ladder traffic)")
    print(f"  requests:      {record['requests']} {record['traffic']}")
    print(
        f"  serial loop:   {record['serial_ms']:.0f} ms "
        f"({record['serial_solves_per_sec']} solves/s)"
    )
    print(
        f"  service x{record['workers']}:    {record['service_ms']:.0f} ms "
        f"({record['service_solves_per_sec']} solves/s, "
        f"{record['speedup']}x)"
    )
    print(
        f"  latency:       p50 {record['latency_ms']['p50']:.0f} ms, "
        f"p95 {record['latency_ms']['p95']:.0f} ms"
    )
    print(
        f"  warm vs cold:  service {record['warm_vs_cold']['warm_service_ms']:.0f} ms "
        f"vs transient service {record['warm_vs_cold']['cold_pool_ms']:.0f} ms "
        f"({record['warm_vs_cold']['cold_over_warm']}x colder)"
    )
    gate = record["gate"]
    print(
        "  gate:          "
        + (
            f"applied (cpus={record['cpu_count']}, "
            f"workers={record['workers']})"
            if gate["applied"]
            else f"recorded only -- {gate['skipped_reason']}"
        )
    )

    baseline["service_throughput"] = record
    args.out.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nupdated {args.out} (service_throughput)")
    if failures:
        print("\nCONTRACT VIOLATIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nok: service answers identical to the serial loop; latency "
        "percentiles sane; throughput gate "
        + (
            "cleared"
            if record["gate"]["applied"]
            else "recorded (machine below the gate's core count)"
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
