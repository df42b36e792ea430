"""Benchmark harness shared by benchmarks/ and examples/."""

from .harness import best_ms, format_ms, format_table, log_log_slope
from .workloads import atd_cover_program
from .table1 import (
    DECISION_ATTRIBUTE,
    PAPER_MD_MS,
    PAPER_MONA_MS,
    PAPER_TREE_NODES,
    Table1Row,
    md_linearity,
    render_table1,
    run_table1,
)

__all__ = [
    "DECISION_ATTRIBUTE",
    "PAPER_MD_MS",
    "PAPER_MONA_MS",
    "PAPER_TREE_NODES",
    "Table1Row",
    "atd_cover_program",
    "best_ms",
    "format_ms",
    "format_table",
    "log_log_slope",
    "md_linearity",
    "render_table1",
    "run_table1",
]
