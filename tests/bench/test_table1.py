"""Tests for the Table 1 experiment driver."""

from repro.bench import (
    PAPER_MD_MS,
    PAPER_MONA_MS,
    md_linearity,
    render_table1,
    run_table1,
)


class TestDriver:
    def test_paper_columns_well_formed(self):
        assert len(PAPER_MD_MS) == len(PAPER_MONA_MS) == 11
        # the paper's MONA column has measurements only for the first 3 rows
        assert all(v is None for v in PAPER_MONA_MS[3:])

    def test_small_run_shape(self):
        rows = run_table1(max_rows=2, repeat=1, include_datalog=False,
                          mona_budget_steps=50_000)
        assert len(rows) == 2
        first = rows[0]
        assert first.num_attributes == 3 and first.num_fds == 1
        assert first.md_ms > 0
        assert first.md_answer is True  # p0 is prime in every row
        assert first.md_datalog_answer is first.md_datalog_ms is None
        assert first.paper_md_ms == 0.1

    def test_rows_record_both_answers(self):
        rows = run_table1(max_rows=2, repeat=1, mona_budget_steps=10)
        for row in rows:
            assert row.md_datalog_ms > 0
            assert row.md_datalog_answer == row.md_answer

    def test_mona_budget_exhaustion_yields_dash(self):
        rows = run_table1(max_rows=2, repeat=1, include_datalog=False,
                          mona_budget_steps=10)
        assert all(row.mona_ms is None for row in rows)

    def test_render_contains_all_columns(self):
        rows = run_table1(max_rows=1, repeat=1, include_datalog=False,
                          mona_budget_steps=10)
        text = render_table1(rows)
        for token in ("tw", "#Att", "#FD", "#tn", "MD (ms)", "paper MONA"):
            assert token in text
        assert "-" in text  # the dash for the exhausted MONA stand-in

    def test_linearity_fit_runs(self):
        rows = run_table1(max_rows=3, repeat=1, include_datalog=False,
                          mona_budget_steps=10)
        slope = md_linearity(rows)
        assert slope > 0  # MD time grows with #tn (NaN fails too)
