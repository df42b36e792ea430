"""Substrate: decomposition construction cost and quality.

The paper assumes Bodlaender's linear-time algorithm [3]; we substitute
greedy elimination heuristics, as recorded under **Substitutions** in
``src/repro/core/README.md``: admission rebuilds every decomposition
of the compiled solve with min-degree, and the Section 5 front end
decomposes with min-fill.  This bench tracks their cost on growing
partial 2-trees, the width quality against the exact DP on small
instances, and the exponential growth of the exact algorithm.

Run:  pytest benchmarks/bench_treewidth.py --benchmark-only

``python benchmarks/bench_treewidth.py --quick`` is the standalone
scaling gate: it times admission's rebuild
(:func:`repro.admission.redecompose`, min-degree plus its check
against the structure) plus one validation of the normalized
decomposition (the checked work of a td-less solve) on full 2 x N
ladders, N = 64 ... 512, fits the log-log slope against the domain
size (best of ``REPEATS`` runs per ladder, garbage collector off), and
exits 1 if the slope is above ``MAX_SLOPE`` on a first measurement and
on one re-timing.  It also exits 1 if the rebuild is wider than 2 on
the partial-2-tree family or on seeded 2 x N ladders with ~10% of
their vertices deleted, or misses the exact treewidth on the small
family (min-degree is exact at treewidth <= 2), or if the min-fill
width of the Section 5 front end got worse on the partial-2-tree
families below (wider than the family's treewidth bound, or a gap to
the exact treewidth above ``MAX_EXACT_GAP``).

The same run gates the ``A_td`` load: on full 2 x N ladders, N = 64 ...
256, decomposed by the rebuild, ``load_normalized`` (the solve path's
one-pass interned load) must
be at least ``MIN_LOAD_SPEEDUP`` times faster than its value-level
oracle, ``encode_normalized`` followed by ``SetDatabase.from_edb``
(best of ``REPEATS`` each, a ladder below the gate re-timed once), and
both must decode to the same EDB.  It prints only; no baseline file is
written.
"""

import argparse
import gc
import math
import random
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.admission import redecompose
from repro.bench import best_ms, log_log_slope
from repro.datalog import SetDatabase
from repro.problems import random_partial_ktree
from repro.structures import Graph, graph_to_structure
from repro.structures.graphs import subgraph
from repro.treewidth import (
    decompose_graph,
    decomposition_from_order,
    encode_normalized,
    load_normalized,
    make_nice,
    min_degree_order,
    min_fill_order,
    normalize,
    treewidth_exact,
    widen,
)

SIZES = [25, 50, 100, 200]


#: --quick: ladder columns N of the full 2 x N ladders timed
LADDER_COLUMNS = (64, 128, 256, 512)
#: --quick: the largest tolerated log-log slope of the checked front end
MAX_SLOPE = 1.15
#: --quick: timed runs per ladder; the best one counts
REPEATS = 9
#: --quick: the largest tolerated min-fill gap to the exact treewidth
#: on the small family (every member is exact today)
MAX_EXACT_GAP = 0
#: --quick: vertex-deleted ladders of the rebuild's width gate
DELETED_LADDERS = 100
#: --quick: ladder columns N of the A_td load gate
LOAD_COLUMNS = (64, 128, 256)
#: --quick: the smallest tolerated speedup of ``load_normalized`` over
#: ``encode_normalized`` + ``SetDatabase.from_edb``
MIN_LOAD_SPEEDUP = 3.0


def partial_2_trees():
    """The growing partial-2-tree family, keyed by vertex count."""
    rng = random.Random(31415)
    return {n: random_partial_ktree(rng, n, 2, 0.6)[0] for n in SIZES}


def small_partial_2_trees():
    """Ten 9-vertex partial 2-trees, small enough for the exact DP."""
    rng = random.Random(999)
    return [random_partial_ktree(rng, 9, 2, 0.7)[0] for _ in range(10)]


def deleted_ladders(seed=7, count=DELETED_LADDERS, deleted=0.10):
    """Seeded 2 x N ladders, N in [32, 128], each vertex deleted with
    probability ``deleted``."""
    rng = random.Random(seed)
    for _ in range(count):
        ladder = Graph.grid(2, rng.randint(32, 128))
        keep = [v for v in sorted(ladder.vertices) if rng.random() >= deleted]
        yield subgraph(ladder, keep)


def rebuild_width(graph) -> int:
    """Width of admission's rebuild of ``graph``."""
    td, _ = redecompose(graph_to_structure(graph))
    return td.width


@pytest.fixture(scope="module")
def graphs():
    return partial_2_trees()


@pytest.mark.parametrize(
    "order", [min_fill_order, min_degree_order], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("n", SIZES, ids=lambda n: f"n{n}")
def test_heuristic_cost(benchmark, graphs, order, n):
    td = benchmark(lambda g: decomposition_from_order(g, order(g)), graphs[n])
    benchmark.extra_info["width"] = td.width


@pytest.mark.parametrize("n", [25, 50], ids=lambda n: f"n{n}")
def test_normalization_cost(benchmark, graphs, n):
    td = decompose_graph(graphs[n])
    ntd = benchmark(normalize, td)
    benchmark.extra_info["nodes"] = ntd.node_count()


@pytest.mark.parametrize("n", [25, 50], ids=lambda n: f"n{n}")
def test_nice_form_cost(benchmark, graphs, n):
    td = decompose_graph(graphs[n])
    nice = benchmark(make_nice, td)
    benchmark.extra_info["nodes"] = nice.node_count()


@pytest.mark.parametrize("n", [8, 11, 14], ids=lambda n: f"n{n}")
def test_exact_dp_growth(benchmark, n):
    rng = random.Random(n)
    graph, _ = random_partial_ktree(rng, n, 2, 0.7)
    width = benchmark.pedantic(
        treewidth_exact, args=(graph,), rounds=2, iterations=1
    )
    benchmark.extra_info["width"] = width


def test_heuristic_quality_vs_exact(benchmark):
    """min-fill matches the exact width on most small partial 2-trees."""
    gaps = [
        decompose_graph(graph).width - treewidth_exact(graph)
        for graph in small_partial_2_trees()
    ]
    benchmark.extra_info["max_gap"] = max(gaps)
    benchmark.extra_info["mean_gap"] = sum(gaps) / len(gaps)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert max(gaps) <= 1


# ----------------------------------------------------------------------
# --quick: the standalone scaling and quality gate
# ----------------------------------------------------------------------


def checked_front_end_ms(structure, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` ms of admission's rebuild plus one
    validation of the normalized decomposition against the structure
    (the normalization itself is untimed), with the garbage collector
    off while timing so a collection does not land on one size only."""
    best = math.inf
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            td, _ = redecompose(structure)
            elapsed = time.perf_counter() - start
            ntd = normalize(widen(td, 2) if td.width < 2 else td)
            start = time.perf_counter()
            ntd.validate(structure)
            elapsed += time.perf_counter() - start
            best = min(best, elapsed)
    finally:
        if enabled:
            gc.enable()
    return best * 1e3


def front_end_slope() -> float:
    """Time the checked front end on every ladder and fit the slope."""
    sizes, times = [], []
    for columns in LADDER_COLUMNS:
        structure = graph_to_structure(Graph.grid(2, columns))
        ms = checked_front_end_ms(structure)
        sizes.append(len(structure.domain))
        times.append(ms)
        print(f"ladder 2x{columns:<4} |A|={sizes[-1]:<5} {ms:8.2f} ms")
    slope = log_log_slope(sizes, times)
    print(f"log-log slope {slope:.3f} (gate <= {MAX_SLOPE})")
    return slope


def decoded(db):
    """A loaded database as value-level relations."""
    return {p: db.decode_relation(p) for p in db.predicates()}


def load_gate() -> list[str]:
    """Time both ``A_td`` loads on every ladder; the failures."""
    failures = []
    for columns in LOAD_COLUMNS:
        structure = graph_to_structure(Graph.grid(2, columns))
        ntd = normalize(redecompose(structure)[0])

        def oracle():
            return SetDatabase.from_edb(encode_normalized(structure, ntd))

        if decoded(load_normalized(structure, ntd)) != decoded(oracle()):
            failures.append(f"ladder 2x{columns}: the loaded EDBs differ")
            continue

        def timed():
            fast = best_ms(lambda: load_normalized(structure, ntd), REPEATS)
            slow = best_ms(oracle, REPEATS)
            print(
                f"ladder 2x{columns:<4} load {fast:6.2f} ms, encode + "
                f"from_edb {slow:6.2f} ms: {slow / fast:.1f}x "
                f"(gate >= {MIN_LOAD_SPEEDUP})"
            )
            return slow / fast

        speedup = timed()
        if speedup < MIN_LOAD_SPEEDUP:
            # host noise reads as a regression once; a real one persists
            print("load speedup below the gate; re-timing once")
            speedup = max(speedup, timed())
        if speedup < MIN_LOAD_SPEEDUP:
            failures.append(
                f"ladder 2x{columns}: load speedup {speedup:.1f}x < "
                f"{MIN_LOAD_SPEEDUP}"
            )
    return failures


def quick() -> int:
    failures = []
    slope = front_end_slope()
    if slope > MAX_SLOPE:
        # host noise reads as a regression once; a real one persists
        print("slope above the gate; re-timing once")
        slope = min(slope, front_end_slope())
    if slope > MAX_SLOPE:
        failures.append(f"front-end slope {slope:.3f} > {MAX_SLOPE}")

    families = partial_2_trees()
    widths = {n: rebuild_width(g) for n, g in families.items()}
    print(f"min-degree rebuild widths on partial 2-trees: {widths} (gate <= 2)")
    wide = {n: w for n, w in widths.items() if w > 2}
    if wide:
        failures.append(f"min-degree rebuild wider than 2: {wide}")
    wide = [w for w in map(rebuild_width, deleted_ladders()) if w > 2]
    print(
        f"min-degree rebuilds wider than 2 on {DELETED_LADDERS} deleted "
        f"ladders: {len(wide)} (gate 0)"
    )
    if wide:
        failures.append(f"min-degree rebuild wider than 2 on {len(wide)} ladders")
    gaps = [
        rebuild_width(g) - treewidth_exact(g) for g in small_partial_2_trees()
    ]
    print(f"min-degree rebuild gaps to the exact width: {gaps} (gate 0)")
    if max(gaps) > 0:
        failures.append(f"min-degree rebuild gap {max(gaps)} > 0")

    widths = {n: decompose_graph(g).width for n, g in families.items()}
    print(f"min-fill widths on partial 2-trees: {widths} (gate <= 2)")
    wide = {n: w for n, w in widths.items() if w > 2}
    if wide:
        failures.append(f"min-fill wider than the treewidth bound 2: {wide}")
    gaps = [
        decompose_graph(g).width - treewidth_exact(g)
        for g in small_partial_2_trees()
    ]
    print(f"min-fill gaps to the exact width: {gaps} (gate <= {MAX_EXACT_GAP})")
    if max(gaps) > MAX_EXACT_GAP:
        failures.append(f"min-fill gap {max(gaps)} > {MAX_EXACT_GAP}")
    failures += load_gate()

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the scaling, width-quality and A_td load gates",
    )
    if not parser.parse_args(argv).quick:
        parser.error(
            "the full bench runs under pytest: "
            "pytest benchmarks/bench_treewidth.py --benchmark-only"
        )
    return quick()


if __name__ == "__main__":
    raise SystemExit(main())
