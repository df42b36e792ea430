"""Timing and table-formatting utilities shared by the benchmarks.

The paper reports milliseconds per instance in Table 1; these helpers
measure in the same unit, fit the scaling exponent every benchmark
gate bounds, and render aligned text tables so that the benchmark
output can be compared to the paper's side by side.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Callable, Iterable, Sequence


def best_ms(
    run: Callable[[], object],
    repeats: int,
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """Best-of-``repeats`` ms of ``run()`` on ``clock`` (wall time by
    default; ``time.process_time`` reads this process's CPU time, which
    another process on a shared host does not inflate), with the garbage
    collector off while timing so a collection does not land on one
    size only."""
    best = math.inf
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = clock()
            run()
            best = min(best, clock() - start)
    finally:
        if enabled:
            gc.enable()
    return best * 1e3


def format_ms(value: float | None) -> str:
    """Milliseconds with paper-style precision; None renders as "-"
    (the paper's out-of-memory dash)."""
    if value is None:
        return "-"
    if value < 10:
        return f"{value:.1f}"
    return f"{value:.0f}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A plain aligned text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines)


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(ys) against log(xs): the scaling
    exponent the benchmark gates bound."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise ValueError("need at least two distinct x values")
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx
