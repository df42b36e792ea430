"""Timing and table-formatting utilities shared by the benchmarks.

The paper reports milliseconds per instance in Table 1; these helpers
measure in the same unit and render aligned text tables so that the
benchmark output can be compared to the paper's side by side (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


def time_ms(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock time of ``fn()`` in milliseconds."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        elapsed = (time.perf_counter() - start) * 1000.0
        best = min(best, elapsed)
    return best


def best_ms(run: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` ms of ``run()``, with the garbage collector
    off while timing so a collection does not land on one size only."""
    best = math.inf
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
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


@dataclass
class LinearityReport:
    """Least-squares fit diagnostics for 'is the scaling linear?'."""

    slope: float
    intercept: float
    r_squared: float

    @property
    def is_convincingly_linear(self) -> bool:
        return self.r_squared > 0.9


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> LinearityReport:
    """Ordinary least squares y = a*x + b with R^2."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate x values")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearityReport(slope, intercept, r_squared)


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(ys) against log(xs): the scaling
    exponent the ``--quick`` gates bound."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )
