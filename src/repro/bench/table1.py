"""The Table 1 experiment driver (Section 6).

For each workload row (tw=3; #Att/#FD/#tn growing) we measure:

* **MD** -- the PRIMALITY decision algorithm of Figure 6, the direct
  dynamic program (our analogue of the paper's C++ implementation);
* **MD (datalog)** -- the same program run by the semi-naive datalog
  interpreter (an extra column the paper did not report);
* **MONA stand-in** -- direct MSO evaluation of the Example 2.6 query
  under a step budget; "-" marks budget exhaustion, the analogue of the
  paper's out-of-memory dashes (the substitution is recorded under
  **Substitutions** in ``src/repro/core/README.md``).

The paper's own measurements (1.6 GHz Pentium M, C++, 2007) are kept in
:data:`PAPER_MD_MS`/:data:`PAPER_MONA_MS` so the shape can be compared
row by row; absolute values are not expected to match.  Each timed
column runs once untimed first, and the row keeps that run's answer,
so a caller can check that the columns agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mso.eval import Budget, BudgetExceeded, evaluate
from ..mso.formulas import primality as primality_formula
from ..problems.generators import TABLE1_SIZES, Table1Instance, table1_instance
from ..problems.primality import (
    PrimalityDatalog,
    prepare_decision_decomposition,
    primality_direct,
)
from .harness import best_ms, format_ms, format_table, log_log_slope

#: Paper Table 1, "MD" column (ms).
PAPER_MD_MS = (0.1, 0.2, 0.4, 0.5, 0.8, 1.0, 1.2, 1.6, 1.8, 1.9, 2.2)
#: Paper Table 1, "MONA" column (ms); None = out-of-memory dash.
PAPER_MONA_MS = (650, 9210, 17930, None, None, None, None, None, None, None, None)
#: Paper Table 1, "#tn" column (number of tree nodes).
PAPER_TREE_NODES = (3, 12, 21, 34, 69, 105, 141, 193, 229, 265, 301)

#: The attribute whose primality each row decides (present in every row).
DECISION_ATTRIBUTE = "p0"


@dataclass
class Table1Row:
    num_attributes: int
    num_fds: int
    tree_nodes: int
    md_ms: float
    md_answer: bool
    md_datalog_ms: float | None
    md_datalog_answer: bool | None
    mona_ms: float | None  # None = budget exhausted ("-")
    paper_md_ms: float
    paper_mona_ms: float | None


def _mona_standin_ms(
    instance: Table1Instance, budget_steps: int
) -> float | None:
    """Time the budgeted naive MSO evaluation, or None on exhaustion."""
    structure = instance.schema.to_structure()
    formula = primality_formula("x")

    def run() -> None:
        evaluate(
            structure,
            formula,
            {"x": DECISION_ATTRIBUTE},
            budget=Budget(limit=budget_steps),
        )

    try:
        return best_ms(run, 1)
    except BudgetExceeded:
        return None


def run_table1(
    max_rows: int | None = None,
    repeat: int = 3,
    mona_budget_steps: int = 3_000_000,
    include_datalog: bool = True,
) -> list[Table1Row]:
    """Measure every Table 1 row; see the module docstring."""
    rows: list[Table1Row] = []
    sizes = TABLE1_SIZES[:max_rows] if max_rows else TABLE1_SIZES
    for index, (num_att, num_fd) in enumerate(sizes):
        instance = table1_instance(num_fd)
        nice = prepare_decision_decomposition(
            instance.schema, DECISION_ATTRIBUTE, instance.decomposition
        )

        def md() -> bool:
            return primality_direct(
                instance.schema, DECISION_ATTRIBUTE, instance.decomposition
            )

        md_answer = md()  # untimed warm-up; the row records the answer
        md_ms = best_ms(md, repeat)
        md_datalog_ms = md_datalog_answer = None
        if include_datalog:
            solver = PrimalityDatalog(instance.schema)

            def md_datalog() -> bool:
                return solver.decide(DECISION_ATTRIBUTE, instance.decomposition)

            md_datalog_answer = md_datalog()
            md_datalog_ms = best_ms(md_datalog, repeat)
        mona_ms = _mona_standin_ms(instance, mona_budget_steps)
        rows.append(
            Table1Row(
                num_attributes=num_att,
                num_fds=num_fd,
                tree_nodes=nice.node_count(),
                md_ms=md_ms,
                md_answer=md_answer,
                md_datalog_ms=md_datalog_ms,
                md_datalog_answer=md_datalog_answer,
                mona_ms=mona_ms,
                paper_md_ms=PAPER_MD_MS[index],
                paper_mona_ms=PAPER_MONA_MS[index],
            )
        )
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    """Paper-style text rendering with paper columns alongside."""
    headers = [
        "tw",
        "#Att",
        "#FD",
        "#tn",
        "MD (ms)",
        "MD-datalog (ms)",
        "MONA-standin (ms)",
        "paper MD",
        "paper MONA",
    ]
    body = [
        [
            3,
            row.num_attributes,
            row.num_fds,
            row.tree_nodes,
            format_ms(row.md_ms),
            format_ms(row.md_datalog_ms),
            format_ms(row.mona_ms),
            format_ms(row.paper_md_ms),
            format_ms(row.paper_mona_ms),
        ]
        for row in rows
    ]
    return format_table(headers, body)


def md_linearity(rows: list[Table1Row]) -> float:
    """The log-log slope of MD time against the instance size (#tn):
    the Table 1 claim is an 'essentially linear increase of the
    processing time', i.e. a slope near 1."""
    return log_log_slope(
        [row.tree_nodes for row in rows], [row.md_ms for row in rows]
    )
