"""The experiment harness: drivers produce sane, verified rows."""

import pytest

from repro.bench.experiments import (
    ANNOTATION_VARIANTS,
    PATH_DEPTH_TARGETS,
    run_annotation_variants,
    run_breakdown_matrix,
    run_path_depth,
    run_reduction_rule,
    run_scalability,
    run_snowcaps_vs_leaves,
    run_vs_full,
    run_vs_ivma,
)
from repro.bench.harness import (
    BreakdownRow,
    format_rows,
    fresh_engine,
    run_maintenance_pair,
    statement_for,
    update_profile_of,
)
from repro.maintenance.engine import PHASES


class TestHarness:
    def test_fresh_engine_registers_views(self):
        engine = fresh_engine(1, ("Q1", "Q2"))
        assert set(engine.views) == {"Q1", "Q2"}

    def test_statement_for(self):
        assert statement_for("X1_L", "insert").kind == "insert"
        assert statement_for("X1_L", "delete").kind == "delete"
        with pytest.raises(ValueError):
            statement_for("X1_L", "upsert")

    def test_update_profile_of(self):
        insert = statement_for("X1_L", "insert")
        assert "name" in update_profile_of(insert)
        delete = statement_for("X1_L", "delete")
        assert update_profile_of(delete) == ["person"]

    def test_run_pair_verifies_and_times(self):
        row = run_maintenance_pair(1, "Q1", "X1_L", "insert")
        assert isinstance(row, BreakdownRow)
        assert row.total_seconds > 0
        assert set(row.phase_seconds) == set(PHASES)
        assert row.counters["targets"] > 0
        assert row.as_dict()["view"] == "Q1"

    def test_format_rows(self):
        row = run_maintenance_pair(1, "Q1", "X1_L", "delete")
        table = format_rows([row], title="demo")
        assert "demo" in table and "Q1" in table and "total_ms" in table


class TestDrivers:
    def test_breakdown_matrix_shape(self):
        rows = run_breakdown_matrix(1, "insert", views=("Q1",))
        assert len(rows) == 5
        assert all(row.kind == "insert" for row in rows)

    def test_path_depth_rows(self):
        rows = run_path_depth(1)
        assert [row["path"] for row in rows] == list(PATH_DEPTH_TARGETS)
        # Deeper target paths doom fewer-or-equal nodes.
        removed = [row["derivations_removed"] for row in rows]
        assert removed[0] >= removed[-1]

    def test_annotation_variants(self):
        rows = run_annotation_variants(1)
        assert [row["variant"] for row in rows] == list(ANNOTATION_VARIANTS)

    def test_scalability_rows(self):
        rows = run_scalability(scales=(1, 2), kinds=("insert",))
        assert len(rows) == 2
        assert rows[1]["doc_bytes"] > rows[0]["doc_bytes"]

    def test_vs_full_reports_speedup(self):
        rows = run_vs_full(1, "insert", views=("Q1",))
        assert len(rows) == 5
        assert all("speedup" in row for row in rows)

    def test_vs_ivma_counts_calls(self):
        # Single scale-1 timings are a few milliseconds each: compare
        # the best of three runs per side, not one noisy pair.
        rows = [run_vs_ivma(1, updates=["X1_L"])[0] for _ in range(3)]
        for row in rows:
            assert row["ivma_calls"] >= 5 * 25  # 5 nodes x #persons
        assert min(row["ivma_exec_s"] for row in rows) > min(
            row["bulk_exec_s"] for row in rows
        )

    def test_snowcaps_vs_leaves_rows(self):
        rows = run_snowcaps_vs_leaves("Q4", scales=(1,))
        strategies = {row["strategy"] for row in rows}
        assert strategies == {"snowcaps", "leaves"}

    def test_reduction_rule_rows(self):
        rows = run_reduction_rule("I5", scale=1, percents=(50,), repeats=1)
        (row,) = rows
        assert row["ops_unoptimized"] > row["ops_optimized"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            run_reduction_rule("O9", scale=1, percents=(50,), repeats=1)
