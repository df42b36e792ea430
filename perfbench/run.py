"""End-to-end solve benchmark for the Courcelle-style solve path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/``.  One invocation runs one workload in its own process:

* it sets the workload up at least ``SETUP_REPEATS`` times and for at
  least ``SETUP_SECONDS`` (solver construction, service start and
  ``register``, one warm-up request) and reports the median as
  ``setup_s``;
* it then generates the seeded inputs and their reference answers,
  outside every timed region;
* ``--trace 0`` sends requests in a closed loop through the public call
  for ``--seconds`` and reports the end-to-end metrics;
* ``--trace 1`` calls each request untraced, then replays it stage by
  stage with one span per layer call, checks that both answers agree,
  reports the per-layer metrics and writes the spans to
  ``perfbench/traces/``.  Count metrics come from the first
  ``COUNT_REQUESTS`` requests, and a second process with the same seed
  and ``PYTHONHASHSEED`` must reproduce them.

End-to-end times are scaled to a reference host speed: shared machines
drift by a factor of two and more within minutes, so each request (and
set-up, every 0.1 s) is paired with a timed fixed task, :func:`probe`,
and divided by the local slowdown it shows.

Every answer is checked against the workload's reference.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
``correct`` is true.  Metric names, units and directions are those
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

#: set-ups per run: at least this many...
SETUP_REPEATS = 3
#: ...and more until they have taken this long, so that a cheap
#: set-up's median rests on many samples
SETUP_SECONDS = 2.0
#: probes taken before and after each set-up
SETUP_PROBES = 15
#: median ``probe()`` time on the reference machine; every end-to-end
#: time is scaled by (this / the probe times measured around it), so
#: host-speed drift between runs cancels
PROBE_REFERENCE_S = 0.6e-3
#: requests every traced run replays; count metrics are taken over them
COUNT_REQUESTS = 20
#: the counts that two runs with one seed must reproduce exactly
DETERMINISTIC_COUNTS = (
    "treewidth.width",
    "treewidth.nodes",
    "core.ground_rules",
    "core.rules_pruned",
    "core.peak_live_rules",
    "core.prune_ratio",
    "core.classes",
    "core.rules",
    "problems.allowed_facts",
    "datalog.facts_derived",
    "datalog.rule_firings",
    "datalog.bindings_explored",
    "datalog.facts_per_firing",
    "admission.admitted",
    "admission.repaired",
    "admission.degraded",
    "admission.rejected",
)


@dataclass
class Outcome:
    """One request of the closed loop."""

    request: object
    latency_s: float
    #: the host-speed probe taken just before the request was sent
    probe_s: float = 0.0
    submit_s: float | None = None
    answer: object = None
    error: str | None = None


@dataclass
class Row:
    """One request of the traced run."""

    request: object
    untraced_ms: float
    staged_ms: float = 0.0
    covered_ms: float = 0.0
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: service latency of the same request (service-untrusted only)
    latency_ms: float | None = None
    error: str | None = None


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q, width=0.1) -> float:
    """Kernel estimate of the ``q``-quantile: the mean of the values
    ranked within ``width / 2`` of ``q``, steadier from run to run than
    any single order statistic."""
    xs = sorted(values)
    n = len(xs)
    lo = min(n - 1, max(0, int((q - width / 2) * n)))
    hi = max(lo + 1, min(n, int((q + width / 2) * n) + 1))
    return statistics.fmean(xs[lo:hi])


def loglog_slope(sizes, times, bins=8) -> float:
    """Slope of log time against log size, fitted through the medians
    of equal-count size bins so that no single slow request tilts it
    (0 when there are too few sizes to fit)."""
    pairs = sorted((s, t) for s, t in zip(sizes, times) if t > 0)
    bins = min(bins, len(pairs) // 3)
    xs, ys = [], []
    for b in range(bins):
        chunk = pairs[b * len(pairs) // bins : (b + 1) * len(pairs) // bins]
        xs.append(math.log(statistics.median(s for s, _ in chunk)))
        ys.append(math.log(statistics.median(t for _, t in chunk)))
    if len(set(xs)) < 2:
        return 0.0
    return statistics.linear_regression(xs, ys).slope


def probe() -> float:
    """CPU seconds of this thread for a fixed pure-Python task (set,
    dict and tuple work, like the solve path's): a sample of the host's
    current speed that time spent waiting for the GIL does not inflate."""
    start = time.thread_time()
    for _ in range(4):
        adj: dict[int, set] = {}
        for i in range(400):
            adj.setdefault(i % 53, set()).add((i * 31) % 97)
        total = 0
        for k in sorted(adj):
            total += len(frozenset(adj[k]) | {k, k + 1})
            total += sum(1 for x in adj[k] if (x, k) > (k, x))
    return time.thread_time() - start


def slowdowns(probes, window=2) -> list[float]:
    """Per-sample host slowdown against the reference machine: the
    median probe time of each sample's neighbourhood over
    ``PROBE_REFERENCE_S``."""
    return [
        statistics.median(probes[max(0, i - window) : i + window + 1])
        / PROBE_REFERENCE_S
        for i in range(len(probes))
    ]


class ProbeSampler:
    """Takes a :func:`probe` every ``interval`` seconds on a background
    thread while a long call runs.  The probe measures its own thread's
    CPU time, so waiting for the GIL held by the call does not count."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append(probe())

    def __enter__(self) -> "ProbeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ----------------------------------------------------------------------
# set-up and the closed loop
# ----------------------------------------------------------------------


def warm_setup(workload, warm) -> tuple[float, float]:
    """Set up from a cold program cache and answer the warm-up request;
    ``(seconds, host slowdown around them)``."""
    from repro.datalog import default_cache

    default_cache().clear()
    probes = [probe() for _ in range(SETUP_PROBES)]
    with ProbeSampler() as sampler:
        start = time.perf_counter()
        workload.setup()
        answer = workload.call(warm)
        elapsed = time.perf_counter() - start
    probes += sampler.samples + [probe() for _ in range(SETUP_PROBES)]
    if answer != warm.expected:
        raise RuntimeError(f"{workload.name}: warm-up answer differs from reference")
    return elapsed, statistics.median(probes) / PROBE_REFERENCE_S


def closed_loop(workload, requests, seconds) -> list[Outcome]:
    """One client that sends its next request once the previous one is
    answered, until ``seconds`` have passed."""
    outcomes: list[Outcome] = []
    submit = getattr(workload, "submit", None)
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at:
        request = requests[len(outcomes) % len(requests)]
        outcome = Outcome(request, 0.0, probe_s=probe())
        sent = time.perf_counter()
        try:
            if submit is None:
                outcome.answer = workload.call(request)
            else:
                future = submit(request)
                outcome.submit_s = time.perf_counter() - sent
                outcome.answer = future.result(timeout=workload.timeout)
        except Exception as exc:  # a failed request is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.latency_s = time.perf_counter() - sent
        outcomes.append(outcome)
    return outcomes


# ----------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def run_untraced(workload, seed, seconds):
    warm = workload.warmup()
    setups = []
    try:
        while len(setups) < SETUP_REPEATS or sum(s for s, _ in setups) < SETUP_SECONDS:
            if setups:
                workload.teardown()
            setups.append(warm_setup(workload, warm))
        # generated after set-up, so that service workers forked there
        # do not inherit the inputs
        requests = workload.generate(seed)
        workload.check_reference(requests)
        outcomes = closed_loop(workload, requests, seconds)
        errors = workload.check_served([warm] + [o.request for o in outcomes])
    finally:
        workload.teardown()
    failed = sum(1 for o in outcomes if o.error or o.answer != o.request.expected)
    slow = slowdowns([o.probe_s for o in outcomes])
    latencies = [o.latency_s * 1000.0 / f for o, f in zip(outcomes, slow)]
    sizes = [o.request.size for o in outcomes]
    metrics = {
        "setup_s": statistics.median(s / f for s, f in setups),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        # per second of request time: the probes between requests
        # are not the system's time
        "elements_per_s": sum(sizes) * 1000.0 / sum(latencies),
        "success_rate": 1.0 - failed / len(outcomes),
        "peak_rss_mb": peak_rss_mb(hasattr(workload, "service")),
    }
    served = [o.request for o in outcomes]
    info = {
        "params": workload.params(),
        "requests": len(outcomes),
        "distinct_inputs": len({r.index for r in served}),
        "size_min": min(sizes),
        "size_max": max(sizes),
        "mix": workload.mix(served),
        "redrawn_inputs": workload.redrawn,
        "setup_raw_s": [s for s, _ in setups],
        "latency_raw_p50_ms": p50([o.latency_s * 1000.0 for o in outcomes]),
        "host_slowdown": p50(slow),
        "errors": errors + [o.error for o in outcomes if o.error][:5],
    }
    return len(outcomes), failed + len(errors), metrics, info


# ----------------------------------------------------------------------
# the traced run: per-layer metrics
# ----------------------------------------------------------------------


def replay_row(workload, request, tracer, ordinal, untraced_first) -> Row:
    """Call one request untraced and replay it traced, in the given
    order (alternated so neither side always runs on warm caches)."""
    in_process = getattr(workload, "call_in_process", None)
    row = Row(request, 0.0)

    def untraced():
        start = time.perf_counter()
        if in_process is None:
            answer, verdict = workload.call(request), None
        else:
            answer, verdict = in_process(request)
        row.untraced_ms = (time.perf_counter() - start) * 1000.0
        return answer, verdict

    def traced():
        with tracer.request(ordinal):
            answer, counts = workload.replay(request, tracer)
        row.staged_ms, row.covered_ms, row.layers = tracer.breakdown(ordinal)
        row.counts = counts
        return answer

    try:
        if untraced_first:
            (plain, verdict), staged = untraced(), traced()
        else:
            staged, (plain, verdict) = traced(), untraced()
    except Exception as exc:  # a failed request is counted, not fatal
        row.error = f"{type(exc).__name__}: {exc}"
        return row
    if staged != plain:
        row.error = "staged answer differs from the untraced answer"
    elif plain != request.expected:
        row.error = "answer differs from the reference"
    elif verdict is not None and (
        verdict != workload.expected_verdict(request)
        or row.counts.get("admission.verdict") != verdict
    ):
        row.error = f"verdict {verdict} for a {request.plan} input"
    return row


def traced_rows(workload, requests, seconds, tracer, served=None) -> list[Row]:
    """Replay requests in order for ``seconds``, and at least the first
    ``COUNT_REQUESTS``.  ``served`` carries service outcomes to pair
    with their replays."""
    rows = []
    stop_at = time.perf_counter() + seconds
    ordinal = 0
    while ordinal < COUNT_REQUESTS or time.perf_counter() < stop_at:
        if served is not None and ordinal >= max(len(served), COUNT_REQUESTS):
            break
        request = requests[ordinal % len(requests)]
        row = replay_row(workload, request, tracer, ordinal, ordinal % 2 == 0)
        if served is not None and ordinal < len(served):
            outcome = served[ordinal]
            row.latency_ms = outcome.latency_s * 1000.0
            if row.error is None and (outcome.error or outcome.answer != request.expected):
                row.error = outcome.error or "service answer differs from the reference"
        rows.append(row)
        ordinal += 1
    return rows


def count_metrics(rows, compiled) -> dict:
    """Count metrics over the first ``COUNT_REQUESTS`` requests;
    ``compiled`` holds the compiler's counts."""
    prefix = rows[:COUNT_REQUESTS]

    def median_of(name):
        values = [r.counts[name] for r in prefix if name in r.counts]
        return statistics.median_low(values) if values else 0

    def total(name):
        return sum(r.counts.get(name, 0) for r in prefix)

    pruned, ground = total("core.rules_pruned"), total("core.ground_rules")
    facts, firings = total("datalog.facts_derived"), total("datalog.rule_firings")
    verdicts = [r.counts.get("admission.verdict") for r in prefix]
    counts = {
        name: median_of(name)
        for name in (
            "treewidth.width",
            "treewidth.nodes",
            "core.ground_rules",
            "core.rules_pruned",
            "core.peak_live_rules",
            "problems.allowed_facts",
            "datalog.facts_derived",
            "datalog.rule_firings",
            "datalog.bindings_explored",
        )
    }
    counts.update(
        {
            "core.prune_ratio": pruned / (pruned + ground) if pruned + ground else 0.0,
            "datalog.facts_per_firing": facts / firings if firings else 0.0,
            "core.classes": 0,
            "core.rules": 0,
            **compiled,
            **{
                f"admission.{v}": verdicts.count(v)
                for v in ("admitted", "repaired", "degraded", "rejected")
            },
        }
    )
    return counts


def layer_metrics(rows) -> dict:
    def p50_of(layer):
        return p50([r.layers[layer] for r in rows if layer in r.layers])

    def exponent_of(layer):
        timed = [r for r in rows if layer in r.layers]
        return loglog_slope(
            [r.request.size for r in timed], [r.layers[layer] for r in timed]
        )

    evaluate_ms = sum(r.layers.get("core.evaluate", 0.0) for r in rows)
    ground = sum(r.counts.get("core.ground_rules", 0) for r in rows)
    overheads = [r.latency_ms - r.staged_ms for r in rows if r.latency_ms is not None]
    metrics = {
        f"{layer}_ms": p50_of(layer)
        for layer in (
            "treewidth.decompose",
            "treewidth.widen",
            "treewidth.normalize",
            "treewidth.validate",
            "treewidth.encode",
            "datalog.load",
            "core.evaluate",
            "core.decode",
            "problems.nice",
            "problems.encode",
            "datalog.solve",
            "admission.admit",
        )
    }
    metrics["mso.degrade_ms"] = p50_of("mso.degrade")
    metrics.update(
        {
            "treewidth.decompose_exponent": exponent_of("treewidth.decompose"),
            "treewidth.validate_exponent": exponent_of("treewidth.validate"),
            "core.evaluate_exponent": exponent_of("core.evaluate"),
            "core.us_per_ground_rule": evaluate_ms * 1000.0 / ground if ground else 0.0,
            "service.overhead_ms": p50(overheads),
            "trace.coverage": sum(r.covered_ms for r in rows) / sum(r.staged_ms for r in rows),
            "trace.overhead": sum(r.staged_ms for r in rows) / sum(r.untraced_ms for r in rows),
        }
    )
    return metrics


def run_counts_only(workload, seed) -> dict:
    """The count metrics alone: what a second process must reproduce."""
    from spans import Tracer

    try:
        warm_setup(workload, workload.warmup())
        requests = workload.generate(seed, COUNT_REQUESTS)
        tracer = Tracer()
        rows = [
            replay_row(workload, request, tracer, i, i % 2 == 0)
            for i, request in enumerate(requests)
        ]
        compiled = workload.compile_counts()
    finally:
        workload.teardown()
    counts = count_metrics(rows, compiled)
    return {name: counts[name] for name in DETERMINISTIC_COUNTS}


def recount_in_child(workload, seed) -> dict:
    """Run :func:`run_counts_only` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload.name,
         "--seed", str(seed), "--counts-only"],
        capture_output=True,
        text=True,
        timeout=170,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_traced(workload, seed, seconds):
    from spans import Tracer

    tracer = Tracer()
    service = {}
    try:
        warm_setup(workload, workload.warmup())
        # half the untraced run's inputs: each request runs twice here
        requests = workload.generate(seed, max(COUNT_REQUESTS, workload.inputs // 2))
        workload.check_reference(requests)
        served = None
        if hasattr(workload, "service"):
            served = closed_loop(workload, requests, seconds / 2)
            stats = workload.service.stats
            service = {
                "service.submit_ms": p50(
                    [o.submit_s * 1000.0 for o in served if o.submit_s is not None]
                ),
                "service.requests_per_shard": stats.completed / stats.shards_dispatched,
                "service.peak_queue_depth": stats.peak_queue_depth,
                "service.worker_restarts": stats.worker_restarts,
                "service.failed": stats.failed,
            }
            seconds /= 2
        rows = traced_rows(workload, requests, seconds, tracer, served)
        compiled = workload.compile_counts()
    finally:
        workload.teardown()
    metrics = {
        "core.compile_s": getattr(workload, "compile_s", 0.0),
        "service.submit_ms": 0.0,
        "service.requests_per_shard": 0.0,
        "service.peak_queue_depth": 0,
        "service.worker_restarts": 0,
        "service.failed": 0,
        **layer_metrics(rows),
        **count_metrics(rows, compiled),
        **service,
    }
    # the untraced calls' latencies against |A|: the service's as its
    # client saw them, the in-process calls' otherwise
    if served:
        timed = [(o.request.size, o.latency_s) for o in served]
    else:
        timed = [(r.request.size, r.untraced_ms) for r in rows]
    metrics["size_exponent"] = loglog_slope(*zip(*timed))
    problems = []
    again = recount_in_child(workload, seed)
    mine = {name: metrics[name] for name in DETERMINISTIC_COUNTS}
    if again != mine:
        problems.append(
            "count metrics differ between two runs with one seed: "
            + ", ".join(
                f"{k} {mine[k]} vs {again.get(k)}"
                for k in mine
                if mine[k] != again.get(k)
            )
        )
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_file)
    info = {
        "requests": len(rows),
        "spans": str(trace_file.relative_to(ROOT)),
        "errors": problems
        + [f"request {r.request.index}: {r.error}" for r in rows if r.error][:5],
    }
    return len(rows), sum(1 for r in rows if r.error), len(problems), metrics, info


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if (args.trace or args.counts_only) and os.environ.get("PYTHONHASHSEED") != "0":
        # counts must be reproducible: pin string hashing, then start over
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.counts_only:
        print(json.dumps(run_counts_only(workload, args.seed)))
        return 0

    if args.trace:
        attempted, failed, check_errors, values, info = run_traced(
            workload, args.seed, args.seconds
        )
    else:
        attempted, failed, values, info = run_untraced(
            workload, args.seed, args.seconds
        )
        check_errors = 0
    metrics = {}
    for spec in declared_metrics(bool(args.trace)):
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:32} {value:>14.6g} {spec['unit']}")
    print(f"workload {workload.name}: {json.dumps(info, sort_keys=True)}")
    correct = failed == 0 and check_errors == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
