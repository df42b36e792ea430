"""Substrate: the solve front end's cost, and decomposition quality.

The paper assumes Bodlaender's linear-time algorithm [3]; we substitute
greedy elimination heuristics, as recorded under **Substitutions** in
``src/repro/core/README.md``: admission rebuilds every decomposition
of the compiled solve with min-degree, and the Section 5 front end
decomposes with min-fill.

This script is the front end's scaling and speed gate.  It times the
whole front end of a td-less solve -- :func:`repro.admission.admit`
(interning, the min-degree rebuild and its Section 2.2 check), then
:func:`~repro.treewidth.normalize.normalize_admitted` (widen, normalize
and the Definition 2.3 shape check) and
:func:`~repro.treewidth.encode.load_ids` -- on full 2 x N ladders at
width 2 (N = 64 ... 512) and on width-1 forests of 16-vertex random
trees (256 ... 2048 vertices).  Each input is timed in CPU time
(``time.process_time``, best of ``REPEATS``, garbage collector off),
once on this id route and once on the value-level front end it
replaced (``tests/treewidth/oracles.py`` ``value_front_end``).  Per
family it exits 1 if the log-log slope of the id route against the
domain size is above ``MAX_SLOPE``, or if the id route is less than
``MIN_FRONT_END_SPEEDUP`` times faster than the value route on some
input, on a first timing and on one re-timing of the family.

It also exits 1 if the rebuild is wider than 2 on the partial-2-tree
family or on seeded 2 x N ladders with ~10% of their vertices deleted,
or misses the exact treewidth on the small family (min-degree is exact
at treewidth <= 2), or if the min-fill width of the Section 5 front end
got worse on the partial-2-tree families below (wider than the
family's treewidth bound, or a gap to the exact treewidth above
``MAX_EXACT_GAP``).

The same run gates the ``A_td`` load: on full 2 x N ladders, N = 64 ...
256, decomposed by the rebuild, ``load_normalized`` (the solve path's
one-pass interned load) must
be at least ``MIN_LOAD_SPEEDUP`` times faster than its value-level
oracle, ``encode_normalized`` followed by ``SetDatabase.from_edb``
(best of ``REPEATS`` each in CPU time, a ladder below the gate re-timed
once), and both must decode to the same EDB.  It prints only; no
baseline file is written.

Run:  python benchmarks/bench_treewidth.py
"""

import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(REPO_ROOT / "src"))
# the value-level front end the id route is timed against
sys.path.insert(0, str(REPO_ROOT))

from bench_datalog_engine import random_forest  # noqa: E402
from repro.admission import admit, redecompose  # noqa: E402
from repro.bench import best_ms, log_log_slope  # noqa: E402
from repro.datalog import SetDatabase  # noqa: E402
from repro.problems import random_partial_ktree  # noqa: E402
from repro.structures import (  # noqa: E402
    GRAPH_SIGNATURE,
    Graph,
    graph_to_structure,
)
from repro.structures.graphs import subgraph  # noqa: E402
from repro.treewidth import (  # noqa: E402
    decompose_graph,
    encode_normalized,
    load_normalized,
    normalize,
    treewidth_exact,
)
from repro.treewidth.encode import load_ids  # noqa: E402
from repro.treewidth.normalize import normalize_admitted  # noqa: E402
from tests.treewidth.oracles import value_front_end  # noqa: E402

#: vertex counts of the partial-2-tree family of the width gates
SIZES = (25, 50, 100, 200)
#: ladder columns N of the full 2 x N ladders timed (width 2)
LADDER_COLUMNS = (64, 128, 256, 512)
#: vertex counts of the width-1 forests of 16-vertex trees timed
FOREST_VERTICES = (256, 512, 1024, 2048)
#: the largest tolerated log-log slope of the id-route front end
MAX_SLOPE = 1.15
#: the smallest tolerated speedup of the id route over the value route
MIN_FRONT_END_SPEEDUP = 1.8
#: timed runs per input; the best one counts
REPEATS = 9
#: the largest tolerated min-fill gap to the exact treewidth
#: on the small family (every member is exact today)
MAX_EXACT_GAP = 0
#: vertex-deleted ladders of the rebuild's width gate
DELETED_LADDERS = 100
#: ladder columns N of the A_td load gate
LOAD_COLUMNS = (64, 128, 256)
#: the smallest tolerated speedup of ``load_normalized`` over
#: ``encode_normalized`` + ``SetDatabase.from_edb``
MIN_LOAD_SPEEDUP = 3.0


def cpu_ms(run) -> float:
    """Best-of-``REPEATS`` CPU ms of ``run()``, gc off."""
    return best_ms(run, REPEATS, clock=time.process_time)


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


# ----------------------------------------------------------------------
# the front-end gate
# ----------------------------------------------------------------------


def id_front_end(structure, width: int) -> SetDatabase:
    """A td-less solve's front end on the id route: admit, then
    normalize with the shape check and load, in admission's ids."""
    result = admit(structure, signature=GRAPH_SIGNATURE, width=width)
    ntd = normalize_admitted(result.decomposition, width, result.ids.values)
    return load_ids(result.structure, result.ids, ntd)


def front_end_families():
    """``(family, width, [(label, structure), ...])`` of the gate."""
    ladders = [
        (f"2x{n}", graph_to_structure(Graph.grid(2, n))) for n in LADDER_COLUMNS
    ]
    forests = [
        (
            f"|V|={n}",
            graph_to_structure(random_forest(random.Random(f"front-end:{n}"), n)),
        )
        for n in FOREST_VERTICES
    ]
    return [("ladder-w2", 2, ladders), ("forest-w1", 1, forests)]


def time_family(family: str, width: int, inputs) -> tuple[float, list[float]]:
    """Time both routes on every input of a family: the id route's
    log-log slope and the speedup over the value route per input."""
    sizes, times, speedups = [], [], []
    for label, structure in inputs:
        fast = cpu_ms(lambda: id_front_end(structure, width))
        slow = cpu_ms(
            lambda: value_front_end(structure, signature=GRAPH_SIGNATURE, width=width)
        )
        sizes.append(len(structure.domain))
        times.append(fast)
        speedups.append(slow / fast)
        print(
            f"{family} {label:<7} |A|={sizes[-1]:<5} id {fast:7.2f} ms, "
            f"value {slow:7.2f} ms: {slow / fast:.2f}x"
        )
    slope = log_log_slope(sizes, times)
    print(
        f"{family} log-log slope {slope:.3f} (gate <= {MAX_SLOPE}), "
        f"least speedup {min(speedups):.2f}x (gate >= {MIN_FRONT_END_SPEEDUP})"
    )
    return slope, speedups


def front_end_gate() -> list[str]:
    """The slope and speedup gates per family; the failures."""
    failures = []
    for family, width, inputs in front_end_families():
        slope, speedups = time_family(family, width, inputs)
        if slope > MAX_SLOPE or min(speedups) < MIN_FRONT_END_SPEEDUP:
            # host noise reads as a regression once; a real one persists
            print(f"{family} outside the gate; re-timing once")
            again, more = time_family(family, width, inputs)
            slope = min(slope, again)
            speedups = list(map(max, speedups, more))
        if slope > MAX_SLOPE:
            failures.append(f"{family} front-end slope {slope:.3f} > {MAX_SLOPE}")
        if min(speedups) < MIN_FRONT_END_SPEEDUP:
            failures.append(
                f"{family} front-end speedup {min(speedups):.2f}x < "
                f"{MIN_FRONT_END_SPEEDUP}"
            )
    return failures


# ----------------------------------------------------------------------
# the quality gates and the A_td load gate
# ----------------------------------------------------------------------


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
            fast = cpu_ms(lambda: load_normalized(structure, ntd))
            slow = cpu_ms(oracle)
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


def main() -> int:
    failures = front_end_gate()

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


if __name__ == "__main__":
    raise SystemExit(main())
