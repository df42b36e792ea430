"""Table 1 (Section 6) and the Section 5.3 enumeration claim: the gate.

Table 1 is the paper's only experimental table: PRIMALITY at treewidth
3 with #Att = 3 ... 93, where the MD column shows "an essentially
linear increase of the processing time" and MONA runs out of memory
from row 4 on.  This script builds every row with
:func:`repro.bench.run_table1` (best of ``REPEATS`` per timed column,
garbage collector off), prints :func:`repro.bench.render_table1` and
the Figure 6 / direct time ratio per row (not gated), and exits 1 if

* ``PrimalityDatalog.decide`` (Figure 6 on the semi-naive set engine)
  answers differently from ``primality_direct`` on any row;
* under a ``MONA_BUDGET``-step budget the MONA stand-in (budgeted
  direct MSO evaluation) fails to finish one of the first
  ``MONA_ROWS`` rows, or finishes a later one -- the shape of the
  paper's out-of-memory dashes;
* the log-log slope of time against #tn over all rows is above
  ``MAX_SLOPE`` for ``primality_direct`` or for Figure 6.

Section 5.3: "A naive first attempt ... has quadratic time complexity
w.r.t. the data size.  However, ... we describe a linear time
algorithm."  On the Table 1 instances with #FD in ``ENUMERATION_FDS``
the script times ``prime_attributes_direct`` (one bottom-up and one
top-down pass) against ``prime_attributes_rerooting`` (one decision
run per attribute), and exits 1 if the two enumerate different prime
attributes, or if the re-rooting / direct time ratio at the largest
instance is less than ``MIN_RATIO_GROWTH`` times the ratio at the
smallest.

A timing gate fails only if it fails on a first timing and on one
re-timing.  It prints only; no baseline file is written.

Run:  python benchmarks/bench_table1_primality.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import (
    best_ms,
    log_log_slope,
    md_linearity,
    render_table1,
    run_table1,
)
from repro.problems import table1_instance
from repro.problems.primality import (
    prime_attributes_direct,
    prime_attributes_rerooting,
)

#: timed runs per Table 1 column and row; the best one counts
REPEATS = 3
#: the MONA stand-in's step budget ...
MONA_BUDGET = 500_000
#: ... within which it finishes exactly this many leading rows
MONA_ROWS = 2
#: the largest tolerated log-log slope of time against #tn
MAX_SLOPE = 1.15
#: #FD of the Table 1 instances the enumeration gate times
ENUMERATION_FDS = (2, 4, 8, 16)
#: timed runs per instance of the linear enumeration; the best one
#: counts (re-rooting takes seconds at FD 16 and is timed once, after
#: its untimed answer check)
ENUMERATION_REPEATS = 5
#: the smallest tolerated growth of the re-rooting / direct time ratio
#: from the smallest to the largest enumeration instance
MIN_RATIO_GROWTH = 4.0


def table1_slopes(rows) -> tuple[float, float]:
    """The log-log slopes of ``primality_direct`` and of Figure 6
    against #tn, printed."""
    direct = md_linearity(rows)
    figure6 = log_log_slope(
        [row.tree_nodes for row in rows], [row.md_datalog_ms for row in rows]
    )
    print(
        f"log-log slope vs #tn: primality_direct {direct:.3f}, "
        f"Figure 6 {figure6:.3f} (gate <= {MAX_SLOPE})"
    )
    return direct, figure6


def table1_gate() -> list[str]:
    """Build, print and check every Table 1 row; the failures."""
    failures = []
    rows = run_table1(repeat=REPEATS, mona_budget_steps=MONA_BUDGET)
    print(render_table1(rows))
    print(
        "Figure 6 / direct: "
        + ", ".join(
            f"FD {row.num_fds} {row.md_datalog_ms / row.md_ms:.1f}x"
            for row in rows
        )
    )
    for index, row in enumerate(rows):
        if row.md_datalog_answer != row.md_answer:
            failures.append(
                f"FD {row.num_fds}: Figure 6 answers "
                f"{row.md_datalog_answer}, primality_direct {row.md_answer}"
            )
        finished = row.mona_ms is not None
        if finished != (index < MONA_ROWS):
            failures.append(
                f"FD {row.num_fds}: the MONA stand-in "
                + ("finished" if finished else "exhausted")
                + f" its {MONA_BUDGET}-step budget"
            )
    slopes = table1_slopes(rows)
    if max(slopes) > MAX_SLOPE:
        # host noise reads as a regression once; a real one persists.
        # The re-timing skips the MONA column: a zero budget exhausts
        # at its first step
        print("above a gate; re-timing once")
        again = table1_slopes(run_table1(repeat=REPEATS, mona_budget_steps=0))
        slopes = tuple(map(min, slopes, again))
    for name, slope in zip(("primality_direct", "Figure 6"), slopes):
        if slope > MAX_SLOPE:
            failures.append(f"{name} slope {slope:.3f} > {MAX_SLOPE}")
    return failures


def ratio_growth(instances) -> float:
    """Time both enumerations on every instance and print their ratio;
    returns how much the ratio grows from the first to the last."""
    ratios = []
    for num_fd, instance in instances.items():
        args = (instance.schema, instance.decomposition)
        direct = best_ms(
            lambda: prime_attributes_direct(*args), ENUMERATION_REPEATS
        )
        rerooting = best_ms(lambda: prime_attributes_rerooting(*args), 1)
        ratios.append(rerooting / direct)
        print(
            f"FD {num_fd:<3} enumeration {direct:8.1f} ms, re-rooting "
            f"{rerooting:8.1f} ms: {ratios[-1]:5.1f}x"
        )
    growth = ratios[-1] / ratios[0]
    print(
        f"re-rooting / enumeration grows {growth:.1f}x from FD "
        f"{ENUMERATION_FDS[0]} to FD {ENUMERATION_FDS[-1]} "
        f"(gate >= {MIN_RATIO_GROWTH})"
    )
    return growth


def enumeration_gate() -> list[str]:
    """Check and time the Section 5.3 enumerations; the failures."""
    failures = []
    instances = {f: table1_instance(f) for f in ENUMERATION_FDS}
    for num_fd, instance in instances.items():
        args = (instance.schema, instance.decomposition)
        if prime_attributes_rerooting(*args) != prime_attributes_direct(*args):
            failures.append(
                f"FD {num_fd}: re-rooting and enumeration find different "
                "prime attributes"
            )
    growth = ratio_growth(instances)
    if growth < MIN_RATIO_GROWTH:
        # host noise reads as a regression once; a real one persists
        print("below the gate; re-timing once")
        growth = max(growth, ratio_growth(instances))
    if growth < MIN_RATIO_GROWTH:
        failures.append(
            f"re-rooting / enumeration grows {growth:.1f}x < "
            f"{MIN_RATIO_GROWTH}x"
        )
    return failures


def main() -> int:
    failures = table1_gate() + enumeration_gate()
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            "ok: Figure 6 agrees with primality_direct on every Table 1 "
            "row, both grow linearly in #tn, the MONA stand-in stops "
            "after two rows, and the linear enumeration pulls away from "
            "re-rooting"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
