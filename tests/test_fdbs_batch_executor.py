"""Chunked (columnar) execution: planner selection, EXPLAIN, satellites.

Covers the execution-mode plumbing (validation, per-mode statement
cache namespacing), hash-join selection and fallback in EXPLAIN output,
StatementCache counters, and deterministic HashIndex lookups.
"""

import pytest

from repro.errors import ExecutionError, PlanError
from repro.fdbs.engine import Database
from repro.fdbs.session import StatementCache
from repro.fdbs.storage import Table
from repro.fdbs.catalog import ColumnDef
from repro.fdbs.types import INTEGER


def make_join_db(mode: str) -> Database:
    db = Database("x", execution_mode=mode)
    db.execute("CREATE TABLE l (a INT, s CHAR(4))")
    db.execute("CREATE TABLE r (b INT, t CHAR(4))")
    return db


class TestExecutionMode:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ExecutionError):
            Database("bad", execution_mode="vectorwise")
        db = Database("ok")
        with pytest.raises(ExecutionError):
            db.set_execution_mode("vector")
        assert db.options.execution_mode == "row"

    def test_deleted_batch_mode_rejected(self):
        """Batch mode was folded into columnar; its name is unknown."""
        with pytest.raises(ExecutionError, match="expected 'row' or 'columnar'"):
            Database("gone", execution_mode="batch")
        db = Database("ok", execution_mode="columnar")
        with pytest.raises(ExecutionError):
            db.set_execution_mode("batch")
        assert db.options.execution_mode == "columnar"

    def test_set_execution_mode_switches(self):
        db = make_join_db("row")
        db.set_execution_mode("columnar")
        assert db.options.execution_mode == "columnar"
        assert "HashJoin" in db.explain("SELECT * FROM l JOIN r ON a = b")

    def test_statement_cache_is_namespaced_per_mode(self):
        db = make_join_db("row")
        db.execute("SELECT * FROM l")
        assert len(db.statement_cache) == 1  # DDL invalidated earlier entries
        db.set_execution_mode("columnar")
        db.execute("SELECT * FROM l")
        assert len(db.statement_cache) == 2  # row entry not reused


class TestExplainOutput:
    def test_explain_shows_mode_header(self):
        row_db = make_join_db("row")
        columnar_db = make_join_db("columnar")
        sql = "SELECT * FROM l"
        # Line 0 is the MVCC Snapshot(epoch=...) header; the mode header
        # follows it.
        assert row_db.explain(sql).splitlines()[1] == "Execution(mode=row)"
        assert columnar_db.explain(sql).splitlines()[1] == "Execution(mode=columnar)"

    def test_explain_leads_with_snapshot_epoch(self):
        db = make_join_db("row")
        first = db.explain("SELECT * FROM l").splitlines()[0]
        assert first.startswith("Snapshot(epoch=")

    def test_explain_statement_carries_mode(self):
        db = make_join_db("columnar")
        rows = db.execute("EXPLAIN SELECT * FROM l").rows
        assert rows[0][0].startswith("Snapshot(epoch=")
        assert rows[1] == ("Execution(mode=columnar)",)

    def test_columnar_equi_join_uses_hash_join(self):
        db = make_join_db("columnar")
        text = db.explain("SELECT * FROM l JOIN r ON l.a = r.b")
        assert "HashJoin(INNER, on (l.a = r.b), join=hash)" in text
        assert "NestedLoopJoin" not in text

    def test_row_mode_keeps_nested_loop(self):
        db = make_join_db("row")
        text = db.explain("SELECT * FROM l JOIN r ON l.a = r.b")
        assert "NestedLoopJoin(INNER, join=nlj)" in text
        assert "HashJoin" not in text

    def test_non_equi_join_falls_back_to_nlj(self):
        db = make_join_db("columnar")
        text = db.explain("SELECT * FROM l JOIN r ON l.a < r.b")
        assert "NestedLoopJoin(INNER, join=nlj)" in text

    def test_residual_conjunct_marked(self):
        db = make_join_db("columnar")
        text = db.explain(
            "SELECT * FROM l JOIN r ON l.a = r.b AND l.a + r.b > 3"
        )
        assert "HashJoin(INNER, on (l.a = r.b), residual, join=hash)" in text

    def test_left_outer_equi_join_hashes(self):
        db = make_join_db("columnar")
        text = db.explain("SELECT * FROM l LEFT JOIN r ON l.a = r.b")
        assert "HashJoin(LEFT OUTER" in text

    def test_bad_on_clause_errors_match_row_mode(self):
        for mode in ("row", "columnar"):
            db = make_join_db(mode)
            with pytest.raises(PlanError):
                db.explain("SELECT * FROM l JOIN r ON l.nope = r.b")


class TestStatementCacheCounters:
    def test_eviction_counter_and_stats(self):
        cache = StatementCache(capacity=2)
        cache.put("SELECT 1", "a")
        cache.put("SELECT 2", "b")
        cache.put("SELECT 3", "c")  # evicts SELECT 1
        assert cache.evictions == 1
        assert cache.get("SELECT 1") is None
        assert cache.get("SELECT 3") == "c"
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "plan_hits": 0,
            "size": 2,
            "capacity": 2,
        }

    def test_namespaces_do_not_collide(self):
        cache = StatementCache()
        cache.put("SELECT 1", "row-plan", namespace="row")
        cache.put("SELECT 1", "columnar-plan", namespace="columnar")
        assert cache.get("SELECT 1", namespace="row") == "row-plan"
        assert cache.get("SELECT 1", namespace="columnar") == "columnar-plan"

    def test_lru_refresh_protects_hot_entries(self):
        cache = StatementCache(capacity=2)
        cache.put("SELECT 1", "a")
        cache.put("SELECT 2", "b")
        cache.get("SELECT 1")  # refresh: SELECT 2 is now LRU
        cache.put("SELECT 3", "c")
        assert cache.get("SELECT 1") == "a"
        assert cache.get("SELECT 2") is None


class TestHashIndexDeterminism:
    def test_lookup_returns_sorted_rids(self):
        table = Table("t", [ColumnDef("a", INTEGER), ColumnDef("b", INTEGER)])
        for index in range(50):
            table.insert((index % 3, index))
        index = table.create_index("a")
        rids = index.lookup(0)
        assert rids == sorted(rids)
        assert isinstance(rids, list)

    def test_index_scan_rows_in_insertion_order(self):
        table = Table("t", [ColumnDef("a", INTEGER), ColumnDef("b", INTEGER)])
        for index in range(50):
            table.insert((index % 3, index))
        values = [row[1] for row in table.index_lookup("a", 1)]
        assert values == sorted(values)
