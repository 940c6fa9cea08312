"""Result helpers and the statement (plan) cache."""

import pytest

from repro.errors import ExecutionError, PlanError
from repro.fdbs.engine import Database
from repro.fdbs.session import Result, StatementCache


class TestResult:
    def test_scalar(self):
        assert Result(columns=["x"], rows=[(5,)]).scalar() == 5

    def test_scalar_rejects_multirow(self):
        with pytest.raises(ExecutionError):
            Result(columns=["x"], rows=[(1,), (2,)]).scalar()

    def test_scalar_rejects_multicolumn(self):
        with pytest.raises(ExecutionError):
            Result(columns=["x", "y"], rows=[(1, 2)]).scalar()

    def test_first(self):
        assert Result(rows=[(1,), (2,)]).first() == (1,)
        assert Result().first() is None

    def test_to_dicts(self):
        result = Result(columns=["a", "b"], rows=[(1, 2)])
        assert result.to_dicts() == [{"a": 1, "b": 2}]

    def test_column_case_insensitive(self):
        result = Result(columns=["Qual"], rows=[(7,), (9,)])
        assert result.column("QUAL") == [7, 9]

    def test_column_unknown_rejected(self):
        with pytest.raises(ExecutionError):
            Result(columns=["a"]).column("b")

    def test_iteration_and_len(self):
        result = Result(rows=[(1,), (2,)])
        assert list(result) == [(1,), (2,)]
        assert len(result) == 2


class TestStatementCache:
    def test_miss_then_hit(self):
        cache = StatementCache()
        assert cache.get("SELECT 1") is None
        cache.put("SELECT 1", "plan")
        assert cache.get("SELECT 1") == "plan"
        assert cache.hits == 1 and cache.misses == 1

    def test_literal_blanks_are_part_of_the_key(self):
        """Texts that differ only in blanks are different statements:
        inside a literal or a quoted identifier, or around the end of a
        ``--`` comment, blanks change what a statement means."""
        db = Database("blanks")
        db.execute('CREATE TABLE t (s VARCHAR(10), "a  b" INT, "a b" INT)')
        db.execute("INSERT INTO t VALUES ('a  b', 1, 2), ('a b', 3, 4)")
        for _ in range(3):  # cold, first hit, cached plan
            assert db.execute("SELECT s FROM t WHERE s = 'a  b'").rows == [("a  b",)]
            assert db.execute("SELECT s FROM t WHERE s = 'a b'").rows == [("a b",)]
            assert db.execute('SELECT "a  b" FROM t ORDER BY 1').rows == [(1,), (3,)]
            assert db.execute('SELECT "a b" FROM t ORDER BY 1').rows == [(2,), (4,)]
            assert db.execute('SELECT s -- c\n, "a b" FROM t ORDER BY 1').rows == [
                ("a  b", 2),
                ("a b", 4),
            ]
        with pytest.raises(PlanError):  # the comment runs to the end: no FROM
            db.execute('SELECT s -- c , "a b" FROM t ORDER BY 1')

    def test_lru_eviction(self):
        cache = StatementCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_invalidate_clears_all(self):
        cache = StatementCache()
        cache.put("a", 1)
        cache.invalidate()
        assert len(cache) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            StatementCache(capacity=0)


class TestEngineCacheIntegration:
    def test_repeated_statement_costs_less_than_first(self):
        from repro.fdbs.engine import Database
        from repro.sysmodel.machine import Machine

        machine = Machine()
        db = Database("c", machine=machine)
        db.execute("CREATE TABLE t (v INT)")
        start = machine.clock.now
        db.execute("SELECT v FROM t")
        first = machine.clock.now - start
        start = machine.clock.now
        db.execute("SELECT v FROM t")
        second = machine.clock.now - start
        assert second < first
        assert first - second >= machine.costs.plan_compile

    def test_ddl_invalidates_statement_cache(self):
        from repro.fdbs.engine import Database

        db = Database("c2")
        db.execute("CREATE TABLE t (v INT)")
        db.execute("SELECT v FROM t")
        assert len(db.statement_cache) > 0
        db.execute("CREATE TABLE u (w INT)")
        assert len(db.statement_cache) == 0
