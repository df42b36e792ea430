"""Section 5.1: 3-Colorability scales linearly for fixed treewidth.

Theorem 5.1 promises O(f(w) * |(V, E)|).  We grow random partial
2-trees and benchmark both the direct DP and the datalog-interpreted
Figure 5 program; doubling n should roughly double the time.

Run:  pytest benchmarks/bench_three_coloring.py --benchmark-only

``python benchmarks/bench_three_coloring.py --quick`` is the standalone
scaling gate for the datalog route: it runs Figure 5 through
``ThreeColoringDatalog.decide`` (decompose, nice form, the id-space
load, and the semi-naive set engine) on seeded random partial 3-trees
with n = 32 ... 512 vertices, ``GRAPHS`` graphs per size.  Each graph
counts with its best of ``REPEATS`` runs (garbage collector off), each
size with the median over its graphs.  It exits 1 if any answer differs
from ``three_coloring_direct``, if on the first graph of any size the
whole ``solve`` relation of ``ThreeColoringDatalog.run`` (bitset sets,
decoded) differs from that of the value-level route (``solve`` on
``encode_for_three_coloring``, frozensets throughout), if the log-log
slope of time against
n is above ``MAX_SLOPE``, or if Figure 5's time divided by that of
``three_coloring_direct`` (the hand-written DP of the same
recurrences, timed the same way) is above ``MAX_RATIO`` at any size
n >= ``RATIO_FROM``; a gate fails only if it fails on a first timing
and on one re-timing.  It also prints where Figure 5's time goes at
each size -- decompose, nice form + checks, the ``A_td`` load, the
fixpoint -- each phase the median over the graphs of its best of
``REPEATS``; that split is not gated.  It prints only; no baseline
file is written.
"""

import argparse
import gc
import math
import random
import statistics
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.bench import best_ms, log_log_slope
from repro.datalog.backends import solve
from repro.datalog.setengine import SetSemiNaiveEvaluator
from repro.problems import ThreeColoringDatalog, random_partial_ktree
from repro.problems.three_coloring import (
    encode_for_three_coloring,
    load_for_three_coloring,
    prepare_decomposition,
    three_coloring_direct,
)
from repro.treewidth import decomposition_from_order, min_fill_order

SIZES = [20, 40, 80, 160]


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(12345)
    return {n: random_partial_ktree(rng, n, 2, edge_probability=0.6) for n in SIZES}


@pytest.mark.parametrize("n", SIZES, ids=lambda n: f"n{n}")
def test_direct_dp_scaling(benchmark, instances, n):
    graph, td = instances[n]
    colorable, _ = benchmark(three_coloring_direct, graph, td)
    benchmark.extra_info["vertices"] = n
    benchmark.extra_info["colorable"] = colorable


@pytest.mark.parametrize("n", SIZES[:3], ids=lambda n: f"n{n}")
def test_datalog_scaling(benchmark, instances, n):
    graph, td = instances[n]
    solver = ThreeColoringDatalog()
    benchmark.pedantic(
        solver.decide, args=(graph, td), rounds=3, iterations=1
    )


def test_linearity_of_direct_dp(benchmark, instances):
    """A single benchmark wrapping the whole sweep so that the fitted
    slope lands in the report's extra_info."""
    from repro.bench import fit_linear, time_ms

    times = {
        n: time_ms(
            lambda n=n: three_coloring_direct(*instances[n]), repeat=3
        )
        for n in SIZES
    }
    fit = fit_linear(list(times), list(times.values()))
    benchmark.extra_info["r_squared"] = round(fit.r_squared, 3)
    benchmark.extra_info["ms_per_vertex"] = round(fit.slope, 4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert fit.is_convincingly_linear or fit.r_squared > 0.8


# ----------------------------------------------------------------------
# --quick: the standalone Figure 5 scaling gate
# ----------------------------------------------------------------------

#: --quick: vertex counts of the partial 3-trees timed
QUICK_SIZES = (32, 64, 128, 256, 512)
#: --quick: seeded graphs per size; the median of their times counts
GRAPHS = 3
#: --quick: timed runs per graph; the best one counts
REPEATS = 2
#: --quick: the largest tolerated log-log slope of time against n
MAX_SLOPE = 1.15
#: --quick: the largest tolerated Figure 5 / direct-DP time ratio ...
MAX_RATIO = 2.5
#: --quick: ... at the sizes from this one up (the small sizes are
#: dominated by per-call fixed costs)
RATIO_FROM = 128
#: --quick: the partial k-tree family
K = 3
EDGE_PROBABILITY = 0.2


def quick_graphs():
    """The seeded partial 3-trees, keyed by vertex count."""
    return {
        n: [
            random_partial_ktree(
                random.Random(f"bench-three-coloring:{n}:{i}"),
                n,
                K,
                edge_probability=EDGE_PROBABILITY,
            )[0]
            for i in range(GRAPHS)
        ]
        for n in QUICK_SIZES
    }


def datalog_timings(solver, graphs) -> tuple[float, float]:
    """Time ``decide`` and ``three_coloring_direct`` on every graph and
    print their ratio per size; returns the fitted slope of ``decide``
    and its largest ratio at the sizes from ``RATIO_FROM`` up."""
    sizes, times, ratios = [], [], []
    for n, family in graphs.items():
        ms = statistics.median(
            best_ms(lambda g=g: solver.decide(g), REPEATS) for g in family
        )
        direct = statistics.median(
            best_ms(lambda g=g: three_coloring_direct(g), REPEATS)
            for g in family
        )
        sizes.append(n)
        times.append(ms)
        if n >= RATIO_FROM:
            ratios.append(ms / direct)
        print(
            f"n={n:<4} {ms:9.1f} ms (median of {len(family)} graphs); "
            f"direct DP {direct:7.1f} ms, Figure 5 / direct {ms / direct:5.2f}"
        )
    slope = log_log_slope(sizes, times)
    ratio = max(ratios)
    print(
        f"log-log slope {slope:.3f} (gate <= {MAX_SLOPE}); Figure 5 / "
        f"direct {ratio:.2f} at n >= {RATIO_FROM} (gate <= {MAX_RATIO})"
    )
    return slope, ratio


#: --quick: the phases of ``ThreeColoringDatalog.decide``, in order
PHASES = ("decompose", "nice + checks", "load", "fixpoint")


def phase_ms(evaluator, graph) -> dict[str, float]:
    """Best-of-``REPEATS`` ms of each phase of ``decide(graph)``,
    garbage collector off."""
    best = dict.fromkeys(PHASES, math.inf)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            marks = [time.perf_counter()]
            td = decomposition_from_order(graph, min_fill_order(graph))
            marks.append(time.perf_counter())
            nice = prepare_decomposition(graph, td)
            marks.append(time.perf_counter())
            db = load_for_three_coloring(graph, nice)
            marks.append(time.perf_counter())
            evaluator.run(db)
            marks.append(time.perf_counter())
            for phase, start, end in zip(PHASES, marks, marks[1:]):
                best[phase] = min(best[phase], end - start)
    finally:
        if enabled:
            gc.enable()
    return {phase: ms * 1e3 for phase, ms in best.items()}


def phase_split(solver, graphs) -> None:
    """Print Figure 5's per-phase time at each size."""
    evaluator = SetSemiNaiveEvaluator.from_prepared(solver.prepared)
    for n, family in graphs.items():
        runs = [phase_ms(evaluator, g) for g in family]
        split = ", ".join(
            f"{phase} {statistics.median(r[phase] for r in runs):.1f}"
            for phase in PHASES
        )
        print(f"n={n:<4} phases (ms): {split}")


def fixpoint_mismatches(solver, graphs) -> list[str]:
    """On the first graph of each size, whether ``run``'s decoded
    ``solve`` relation equals the value-level route's."""
    failures = []
    for n, family in graphs.items():
        graph = family[0]
        nice = prepare_decomposition(graph)
        want = solve(solver.program, encode_for_three_coloring(graph, nice))
        got = solver.run(graph).database
        if got.relation("solve") != want.relation("solve"):
            failures.append(
                f"n={n} graph 0: the solve relation differs from the "
                "value-level route's"
            )
    return failures


def quick() -> int:
    failures = []
    solver = ThreeColoringDatalog()
    graphs = quick_graphs()
    for n, family in graphs.items():
        for i, graph in enumerate(family):
            want, _ = three_coloring_direct(graph)
            if solver.decide(graph) != want:
                failures.append(
                    f"n={n} graph {i}: the datalog answer differs from "
                    "three_coloring_direct"
                )
    failures += fixpoint_mismatches(solver, graphs)
    slope, ratio = datalog_timings(solver, graphs)
    if slope > MAX_SLOPE or ratio > MAX_RATIO:
        # host noise reads as a regression once; a real one persists
        print("above a gate; re-timing once")
        again = datalog_timings(solver, graphs)
        slope, ratio = min(slope, again[0]), min(ratio, again[1])
    phase_split(solver, graphs)
    if slope > MAX_SLOPE:
        failures.append(f"Figure 5 slope {slope:.3f} > {MAX_SLOPE}")
    if ratio > MAX_RATIO:
        failures.append(
            f"Figure 5 / direct {ratio:.2f} > {MAX_RATIO} at n >= {RATIO_FROM}"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the Figure 5 answer, fixpoint, scaling and ratio gates",
    )
    if not parser.parse_args(argv).quick:
        parser.error(
            "the full bench runs under pytest: "
            "pytest benchmarks/bench_three_coloring.py --benchmark-only"
        )
    return quick()


if __name__ == "__main__":
    raise SystemExit(main())
