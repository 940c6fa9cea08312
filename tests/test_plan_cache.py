"""Compiled SELECT plans kept in the statement cache.

A statement-cache entry holds the parsed statement and, once a cache hit
re-executes the text, its compiled plan; later executions reuse that
plan instead of re-planning.  The contract these tests pin:

* a first execution plans and discards; the first hit stores; later
  hits reuse (``plan_hits``);
* operators keep no state across executions, so a cached plan returns
  fresh rows after DML (the stale UDTF-body regression) and DETERMINISTIC
  calls memoise within one execution only;
* every planning input is part of the cache namespace or invalidates
  plans: after any change, rows, simulated time and EXPLAIN text match a
  fresh database;
* plans that read volatile runtime state (a cache-fronted source's
  response cache) are never stored;
* EXPLAIN / EXPLAIN ANALYZE always build fresh plans;
* concurrent executions of one shared plan give the rows of a
  single-threaded replay.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.fdbs.engine import Database
from repro.fdbs.federation import CACHE_FRONTED_PROFILE, DatabaseEndpoint
from repro.fdbs.functions import make_external_function
from repro.fdbs.types import INTEGER
from repro.sysmodel.machine import Machine

THREADS = 8
JOIN_TIMEOUT = 60.0

CROSS_SQL = "SELECT a.x, b.y FROM a, b"
LATERAL_SQL = "SELECT s.v, r.y FROM s, TABLE (F(s.v)) AS r"


def plan_hits(db: Database) -> int:
    return db.statement_cache.stats()["plan_hits"]


def cached_plans(db: Database) -> list:
    """Compiled plans currently held by the statement cache."""
    entries = db.statement_cache._entries.values()  # noqa: SLF001 - test probe
    return [entry.plan for entry in entries if entry.plan is not None]


def plans_that_ran(db: Database) -> list[str]:
    """EXPLAIN text of the cached plans under the current namespace."""
    prefix = db._plan_namespace() + "\x00"  # noqa: SLF001 - test probe
    entries = db.statement_cache._entries.items()  # noqa: SLF001 - test probe
    return sorted(
        entry.plan.explain(mode=db.options.execution_mode)
        for key, entry in entries
        if key.startswith(prefix) and entry.plan is not None
    )


def make_cross_db() -> Database:
    db = Database("cross")
    db.execute("CREATE TABLE a (x INT)")
    db.execute("CREATE TABLE b (y INT)")
    db.execute("INSERT INTO a VALUES (1)")
    db.execute("INSERT INTO b VALUES (10)")
    return db


class TestPlanReuse:
    def test_first_execution_discards_hit_stores_then_reuses(self):
        db = make_cross_db()
        db.execute(CROSS_SQL)
        assert cached_plans(db) == [] and plan_hits(db) == 0
        db.execute(CROSS_SQL)
        assert len(cached_plans(db)) == 1 and plan_hits(db) == 0
        db.execute(CROSS_SQL)
        db.execute(CROSS_SQL)
        assert plan_hits(db) == 2

    def test_one_shot_statements_keep_no_plans(self):
        db = make_cross_db()
        for value in range(20):
            db.execute(f"SELECT a.x FROM a WHERE a.x < {value}")
        assert cached_plans(db) == []

    def test_cached_plan_sees_later_writes(self):
        db = make_cross_db()
        for _ in range(3):
            assert db.execute(CROSS_SQL).rows == [(1, 10)]
        db.execute("INSERT INTO b VALUES (20)")
        assert db.execute(CROSS_SQL).rows == [(1, 10), (1, 20)]
        assert plan_hits(db) == 2

    def test_parameters_bind_per_execution(self):
        db = make_cross_db()
        db.execute("INSERT INTO a VALUES (2), (3)")
        sql = "SELECT a.x FROM a WHERE a.x > ?"
        assert [db.execute(sql, params=[v]).rows for v in (0, 1, 2, 3)] == [
            [(1,), (2,), (3,)],
            [(2,), (3,)],
            [(3,)],
            [],
        ]
        assert plan_hits(db) == 2

    def test_plan_hits_in_syscat_runtime_stats(self):
        db = make_cross_db()
        for _ in range(4):
            db.execute(CROSS_SQL)
        rows = db.execute(
            "SELECT value FROM SYSCAT_RUNTIME_STATS "
            "WHERE component = 'statement_cache' AND counter = 'plan_hits'"
        ).rows
        assert rows == [(2,)]

    def test_join_counters_count_built_plans(self):
        db = Database("built", execution_mode="columnar")
        db.execute("CREATE TABLE l (a INTEGER)")
        db.execute("CREATE TABLE r (b INTEGER)")
        db.execute("INSERT INTO l VALUES (1)")
        db.execute("INSERT INTO r VALUES (1)")
        for _ in range(5):
            db.execute("SELECT * FROM l JOIN r ON l.a = r.b")
        # Planned twice (discarded first execution, stored on the first
        # hit), then reused: the counter tracks built operators.
        assert db.join_stats()["joins_hash"] == 2

    def test_udtf_body_lookups_are_not_statement_hits(self):
        db = make_cross_db()
        db.execute(
            "CREATE FUNCTION g () RETURNS TABLE (x INT) "
            "LANGUAGE SQL RETURN SELECT a.x FROM a"
        )
        sql = "SELECT t.x FROM TABLE (g()) AS t"
        before = db.statement_cache.stats()
        for _ in range(3):
            db.execute(sql)
        after = db.statement_cache.stats()
        assert after["hits"] - before["hits"] == 2
        assert after["misses"] - before["misses"] == 1


def last_used_plan(db: Database) -> str:
    """EXPLAIN text of the statement-cache entry looked up last (the
    cache keeps its entries in LRU order)."""
    entries = db.statement_cache._entries  # noqa: SLF001 - test probe
    return next(reversed(entries.values())).plan.explain(mode="row")


class TestBodyPlanNamespace:
    BODY = (
        "CREATE FUNCTION f () RETURNS TABLE (y INT) "
        "LANGUAGE SQL RETURN SELECT t.a AS y FROM t WHERE t.a > 35"
    )
    SQL = "SELECT * FROM TABLE (f()) AS r"

    def make_db(self, zone_maps: bool) -> Database:
        db = Database("zones", chunk_size=4)
        db.set_zone_maps(zone_maps)
        db.execute("CREATE TABLE t (a INT)")
        db.execute_many("INSERT INTO t VALUES (?)", [(n,) for n in range(40)])
        db.execute(self.BODY)
        return db

    def test_cached_body_plan_follows_a_zone_map_toggle(self):
        """Regression: body plans were keyed on pushdown, index
        selection and the DDL epoch only, so a body planned with zone
        checks kept them after zone maps were switched off."""
        db = self.make_db(zone_maps=True)
        assert db.execute(self.SQL).rows == [(36,), (37,), (38,), (39,)]
        assert "TableScan(t, zone: (t.a > 35))" in last_used_plan(db)
        db.set_zone_maps(False)
        assert db.execute(self.SQL).rows == [(36,), (37,), (38,), (39,)]
        fresh = self.make_db(zone_maps=False)
        fresh.execute(self.SQL)
        assert last_used_plan(db) == last_used_plan(fresh)
        assert "TableScan(t)" in last_used_plan(db)


class TestOperatorStateIsPerExecution:
    def test_udtf_body_cross_join_sees_dml(self):
        """Regression: the body plan of a SQL UDTF is cached, and its
        cross join once kept the right side's rows for the plan's
        lifetime."""
        db = make_cross_db()
        db.execute(
            "CREATE FUNCTION f () RETURNS TABLE (x INT, y INT) "
            "LANGUAGE SQL RETURN SELECT a.x, b.y FROM a, b"
        )
        sql = "SELECT * FROM TABLE (f()) AS t"
        assert db.execute(sql).rows == [(1, 10)]
        db.execute("INSERT INTO b VALUES (20)")
        assert db.execute(sql).rows == [(1, 10), (1, 20)]

    def test_deterministic_call_in_body_not_memoised_across_invocations(self):
        db = make_cross_db()
        calls = {"n": 0}

        def impl(x):
            calls["n"] += 1
            return x * 2

        db.register_external_function(
            make_external_function(
                "D", [("x", INTEGER)], [("y", INTEGER)], impl, deterministic=True
            )
        )
        db.execute(
            "CREATE FUNCTION h () RETURNS TABLE (y INT) "
            "LANGUAGE SQL RETURN SELECT r.y FROM a, TABLE (D(a.x)) AS r"
        )
        sql = "SELECT * FROM TABLE (h()) AS t"
        for expected_calls in (1, 2, 3):
            assert db.execute(sql).rows == [(2,)]
            assert calls["n"] == expected_calls

    def test_deterministic_cache_is_per_statement_execution(self):
        db = make_cross_db()
        calls = {"n": 0}

        def impl(x):
            calls["n"] += 1
            return x * 2

        db.register_external_function(
            make_external_function(
                "D", [("x", INTEGER)], [("y", INTEGER)], impl, deterministic=True
            )
        )
        db.execute("INSERT INTO a VALUES (1), (2)")
        sql = "SELECT a.x, r.y FROM a, TABLE (D(a.x)) AS r"
        for run in range(1, 5):
            assert db.execute(sql).rows == [(1, 2), (1, 2), (2, 4)]
            assert calls["n"] == 2 * run  # distinct arguments, every run


class TestReattachedEndpoint:
    def test_cached_plan_queries_the_new_endpoint(self):
        db = Database("reattach")
        db.execute("CREATE WRAPPER w")
        db.execute("CREATE SERVER s WRAPPER w")
        db.attach_endpoint("s", DatabaseEndpoint(make_remote(3)))
        db.execute("CREATE NICKNAME n FOR s.orders")
        sql = "SELECT order_no FROM n"
        for _ in range(3):
            assert db.execute(sql).rows == [(0,), (1,), (2,)]
        db.attach_endpoint("s", DatabaseEndpoint(make_remote(2, shift=100)))
        assert db.execute(sql).rows == [(100,), (101,)]


# ---------------------------------------------------------------------------
# Invalidation matrix
# ---------------------------------------------------------------------------

MATRIX_QUERIES = (
    (
        "SELECT w.pk, g.name, o.order_no FROM watch AS w, grp AS g, n AS o "
        "WHERE w.comp_no = g.comp_no AND w.comp_no = o.comp_no "
        "AND o.qty > 150 ORDER BY w.pk, o.order_no",
        [],
    ),
    ("SELECT pk, comp_no FROM watch WHERE pk = ?", [7]),
    ("SELECT pk FROM watch WHERE comp_no > 2 ORDER BY pk", []),
)


def make_remote(rows: int, shift: int = 0) -> Database:
    remote = Database("remote")
    remote.execute(
        "CREATE TABLE orders (order_no INTEGER, comp_no INTEGER, qty INTEGER)"
    )
    for index in range(rows):
        remote.execute(
            "INSERT INTO orders VALUES (?, ?, ?)",
            params=[index + shift, index % 5, index * 10],
        )
    return remote


def make_matrix_db(machine: Machine) -> Database:
    """Cost optimizer, columnar mode (zone maps prune), a comma join of
    two local tables and a remote nickname, RUNSTATS everywhere."""
    db = Database(
        "matrix",
        machine=machine,
        execution_mode="columnar",
        optimizer="cost",
        chunk_size=4,
    )
    db.execute("CREATE WRAPPER w")
    db.execute("CREATE SERVER s WRAPPER w")
    db.attach_endpoint("s", DatabaseEndpoint(make_remote(60)))
    db.execute("CREATE NICKNAME n FOR s.orders")
    db.execute("CREATE TABLE watch (pk INTEGER, comp_no INTEGER)")
    db.execute("CREATE TABLE grp (comp_no INTEGER, name VARCHAR(10))")
    for index in range(40):
        db.execute("INSERT INTO watch VALUES (?, ?)", params=[index, index // 8])
    for comp in range(5):
        db.execute("INSERT INTO grp VALUES (?, ?)", params=[comp, f"c{comp}"])
    for name in ("watch", "grp", "n"):
        db.execute(f"RUNSTATS {name}")
    return db


def _grant_reader(db: Database) -> None:
    db.execute("CREATE USER reader")
    for name in ("watch", "grp", "n"):
        db.execute(f"GRANT SELECT ON {name} TO reader")
    db.set_current_user("reader")


def _recreate_grp(db: Database) -> None:
    db.execute("DROP TABLE grp")
    db.execute("CREATE TABLE grp (comp_no INTEGER, name VARCHAR(10))")
    db.execute("INSERT INTO grp VALUES (1, 'new1'), (3, 'new3')")


def _stale_feedback(db: Database) -> None:
    db.execute("DELETE FROM watch WHERE pk >= 10")
    epoch = db.catalog.stats_epoch
    db.execute(
        "EXPLAIN ANALYZE SELECT w.pk, g.name FROM watch AS w, grp AS g "
        "WHERE w.comp_no = g.comp_no"
    )
    assert db.catalog.stats_epoch == epoch + 1


CHANGES = {
    "set_execution_mode": lambda db: db.set_execution_mode("row"),
    "set_chunk_size": lambda db: db.configure(chunk_size=16),
    "set_zone_maps": lambda db: db.set_zone_maps(False),
    "set_optimizer": lambda db: db.configure(optimizer="syntactic"),
    "set_join_strategy": lambda db: db.configure(join_strategy="hash"),
    "set_adaptive_join": lambda db: db.configure(adaptive_join=1.5),
    "set_current_user": _grant_reader,
    "pushdown_enabled": lambda db: db.configure(pushdown=False),
    "index_selection_enabled": lambda db: db.configure(index_selection=False),
    "ddl": _recreate_grp,
    "dml": lambda db: db.execute("INSERT INTO watch VALUES (99, 1)"),
    "runstats": lambda db: (
        db.execute("DELETE FROM watch WHERE pk >= 4"),
        db.execute("RUNSTATS watch"),
    ),
    "feedback": _stale_feedback,
    "attach_endpoint": lambda db: db.attach_endpoint(
        "s", DatabaseEndpoint(make_remote(30, shift=1000))
    ),
}


def observe(db: Database, machine: Machine) -> list[tuple]:
    """Rows, simulated elapsed time and EXPLAIN text per matrix query."""
    seen = []
    for sql, params in MATRIX_QUERIES:
        start = machine.clock.now
        rows = db.execute(sql, params=params).rows
        seen.append((rows, machine.clock.now - start, db.explain(sql)))
    return seen


def run_queries(db: Database) -> None:
    for sql, params in MATRIX_QUERIES:
        db.execute(sql, params=params)


class TestInvalidationMatrix:
    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_change_after_cached_execution_matches_fresh_database(self, change):
        machine = Machine()
        cached = make_matrix_db(machine)
        for _ in range(3):
            run_queries(cached)
        assert plan_hits(cached) == len(MATRIX_QUERIES)
        CHANGES[change](cached)
        # Three runs after the change: miss or reuse, store, reuse.
        after = [observe(cached, machine) for _ in range(3)]
        after.append(plans_that_ran(cached))

        fresh_machine = Machine()
        fresh = make_matrix_db(fresh_machine)
        CHANGES[change](fresh)
        run_queries(fresh)  # warm: pays the plan-compile charges
        expected = [observe(fresh, fresh_machine) for _ in range(3)]
        expected.append(plans_that_ran(fresh))
        assert after == expected

    def test_matrix_changes_move_the_plans(self):
        """The planning-input changes really alter the plan, so the
        matrix exercises invalidation rather than identical plans."""
        base = make_matrix_db(Machine())
        texts = {sql: base.explain(sql) for sql, _ in MATRIX_QUERIES}
        for change in (
            "set_optimizer",
            "set_join_strategy",
            "set_adaptive_join",
            "set_zone_maps",
            "pushdown_enabled",
            "index_selection_enabled",
        ):
            db = make_matrix_db(Machine())
            CHANGES[change](db)
            assert any(
                db.explain(sql) != texts[sql] for sql, _ in MATRIX_QUERIES
            ), change


# ---------------------------------------------------------------------------
# Volatile planning input: the cache-fronted source
# ---------------------------------------------------------------------------

VOLATILE_SQL = (
    "SELECT w.pk, c.val FROM watch AS w, cat AS c "
    "WHERE w.k = c.k ORDER BY w.pk, c.val"
)


def make_cache_fronted_db(machine: Machine) -> Database:
    remote = Database("catalog")
    remote.execute("CREATE TABLE items (k INTEGER, val INTEGER)")
    for index in range(200):
        remote.execute(
            "INSERT INTO items VALUES (?, ?)", params=[index, index * 3]
        )
    db = Database("fronted", machine=machine, optimizer="cost")
    db.execute("CREATE WRAPPER w")
    db.execute("CREATE SERVER cs WRAPPER w")
    db.attach_endpoint("cs", DatabaseEndpoint(remote), CACHE_FRONTED_PROFILE)
    db.execute("CREATE NICKNAME cat FOR cs.items")
    db.execute("CREATE TABLE watch (pk INTEGER, k INTEGER)")
    for index in range(5):
        db.execute("INSERT INTO watch VALUES (?, ?)", params=[index, index * 7])
    db.execute("RUNSTATS watch")
    db.execute("RUNSTATS cat")
    db.federation.invalidate_source_caches()  # start cold
    return db


class TestVolatilePlans:
    def run_sequence(self, uncached: bool) -> list[tuple]:
        machine = Machine()
        db = make_cache_fronted_db(machine)
        seen = []
        for sql in [VOLATILE_SQL] * 3 + ["SELECT * FROM cat"] + [VOLATILE_SQL] * 3:
            if uncached:
                db.statement_cache.invalidate()
            explain = db.explain(sql)
            start = machine.clock.now
            rows = db.execute(sql).rows
            seen.append((rows, machine.clock.now - start, explain))
        return seen

    def test_cold_then_warm_matches_uncached_planning(self):
        cached = self.run_sequence(uncached=False)
        assert cached == self.run_sequence(uncached=True)
        cold_plan, warm_plan = cached[0][2], cached[-1][2]
        assert "BindJoin(cat" in cold_plan
        assert "BindJoin(cat" not in warm_plan

    def test_volatile_plans_are_never_stored(self):
        db = make_cache_fronted_db(Machine())
        for _ in range(4):
            db.execute(VOLATILE_SQL)
        assert cached_plans(db) == [] and plan_hits(db) == 0


class TestExplainBuildsFreshPlans:
    def test_explain_analyze_never_instruments_the_cached_plan(self):
        db = make_cross_db()
        for _ in range(3):
            db.execute(CROSS_SQL)
        (plan,) = cached_plans(db)
        first = db.execute("EXPLAIN ANALYZE " + CROSS_SQL).rows
        db.execute(CROSS_SQL)
        second = db.execute("EXPLAIN ANALYZE " + CROSS_SQL).rows
        assert first == second  # actual= counts did not accumulate
        assert cached_plans(db) == [plan]
        assert "rows" not in vars(plan) and "actual_rows" not in vars(plan)


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


class TestSharedPlanHammer:
    def test_threads_sharing_cached_plans_match_single_threaded_replay(self):
        db = make_cross_db()
        lock = threading.Lock()
        calls = {"n": 0}

        def impl(x):
            with lock:
                calls["n"] += 1
            return [(x * 100,), (x * 100 + 1,)]

        db.register_external_function(
            make_external_function(
                "F", [("x", INTEGER)], [("y", INTEGER)], impl, deterministic=True
            )
        )
        db.execute("CREATE TABLE s (v INT)")
        db.execute("INSERT INTO s VALUES (1), (1), (2), (2), (3)")
        for _ in range(2):  # plans stored on the first hit
            db.execute(CROSS_SQL)
            db.execute(LATERAL_SQL)
        hits_before = plan_hits(db)
        calls["n"] = 0
        steps = 12
        records: list[tuple] = []
        barrier = threading.Barrier(THREADS)

        def worker(index: int) -> None:
            barrier.wait(timeout=JOIN_TIMEOUT)
            for step in range(steps):
                for sql in (CROSS_SQL, LATERAL_SQL):
                    snapshot = db.pin_snapshot()
                    rows = db.execute(sql, snapshot=snapshot).rows
                    with lock:
                        records.append((sql, snapshot, rows))
                db.execute(
                    "INSERT INTO b VALUES (?)", params=[index * 1000 + step]
                )
                db.execute("INSERT INTO s VALUES (?)", params=[step % 4])

        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as executor:
                futures = [executor.submit(worker, i) for i in range(THREADS)]
                for future in futures:
                    future.result(timeout=JOIN_TIMEOUT)
        finally:
            sys.setswitchinterval(previous_interval)

        assert len(records) == THREADS * steps * 2
        assert plan_hits(db) - hits_before == len(records)
        concurrent_calls = calls["n"]
        calls["n"] = 0
        for sql, snapshot, rows in records:
            db.statement_cache.invalidate()  # replay on a fresh plan
            assert db.execute(sql, snapshot=snapshot).rows == rows
        assert calls["n"] == concurrent_calls
