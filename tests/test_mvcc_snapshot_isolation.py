"""MVCC snapshot isolation: semantics, conflicts, and concurrency.

Deterministic tests pin a snapshot explicitly (``db.execute(...,
snapshot=...)`` / ``db.pin_snapshot()``) and assert the isolation
contract single-threaded:

* a pinned snapshot never sees later writes (read skew is impossible);
* a write statement validated against a stale snapshot loses
  first-writer-wins and raises a retryable
  :class:`~repro.errors.WriteConflictError`;
* INSERT is append-only and exempt from version conflicts — a genuine
  key collision surfaces as the :class:`~repro.errors.ConstraintError`
  it is;
* DDL bumps the catalog epoch, so compiled plans cached before a
  DROP/CREATE can never serve the new table shape (the stale
  statement-cache fix);
* the MVCC counters are visible through ``runtime_stats()`` and the
  ``SYSCAT_RUNTIME_STATS`` view.

The hammer tests drive the same engine from many threads at a 1µs GIL
switch interval (style of ``test_thread_safety_regressions``):

* readers always observe a *consistent* snapshot while a writer
  republishes versions under them (no torn multi-row updates, no
  half-applied INSERT … SELECT);
* writers on different tables proceed independently (per-table
  latches, no database-wide lock);
* same-row writers race, lose first-writer-wins, retry against fresh
  snapshots, and still conserve every update exactly.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConstraintError, WriteConflictError
from repro.fdbs.engine import Database

THREADS = 8
JOIN_TIMEOUT = 60.0


def hammer(worker, threads: int = THREADS) -> None:
    """Run ``worker(thread_index)`` on N threads; barrier-aligned start,
    1µs GIL switch interval, bounded join, exceptions re-raised."""
    barrier = threading.Barrier(threads)

    def task(index: int):
        barrier.wait(timeout=JOIN_TIMEOUT)
        return worker(index)

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            futures = [executor.submit(task, i) for i in range(threads)]
            for future in futures:
                future.result(timeout=JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(previous_interval)


def values_insert(table: str, rows: list[tuple]) -> str:
    """One multi-row ``INSERT … VALUES`` statement for integer rows."""
    values = ", ".join(f"({', '.join(map(str, row))})" for row in rows)
    return f"INSERT INTO {table} VALUES {values}"


def make_accounts(name: str = "mvcc") -> Database:
    db = Database(name)
    db.execute("CREATE TABLE ACC (ID INTEGER PRIMARY KEY, VAL INTEGER)")
    db.execute("INSERT INTO ACC VALUES (1, 50), (2, 50)")
    return db


class TestSnapshotReads:
    def test_pinned_snapshot_never_sees_later_writes(self):
        db = make_accounts()
        old = db.pin_snapshot()
        db.execute("UPDATE ACC SET VAL = 99 WHERE ID = 1")
        stale_rows = db.execute(
            "SELECT VAL FROM ACC WHERE ID = 1", snapshot=old
        ).rows
        fresh_rows = db.execute("SELECT VAL FROM ACC WHERE ID = 1").rows
        assert stale_rows == [(50,)]
        assert fresh_rows == [(99,)]

    def test_pinned_snapshot_ignores_later_inserts_and_deletes(self):
        db = make_accounts()
        old = db.pin_snapshot()
        db.execute("INSERT INTO ACC VALUES (3, 10)")
        db.execute("DELETE FROM ACC WHERE ID = 2")
        stale = db.execute(
            "SELECT ID FROM ACC ORDER BY ID", snapshot=old
        ).rows
        fresh = db.execute("SELECT ID FROM ACC ORDER BY ID").rows
        assert stale == [(1,), (2,)]
        assert fresh == [(1,), (3,)]

    def test_snapshot_epoch_advances_with_writes(self):
        db = make_accounts()
        before = db.pin_snapshot()
        db.execute("UPDATE ACC SET VAL = VAL + 1")
        after = db.pin_snapshot()
        assert after.epoch > before.epoch

    def test_explain_header_names_the_pinned_epoch(self):
        db = make_accounts()
        first = db.explain("SELECT * FROM ACC").splitlines()[0]
        assert first.startswith("Snapshot(epoch=")
        rows = db.execute("EXPLAIN SELECT * FROM ACC").rows
        assert rows[0][0].startswith("Snapshot(epoch=")


class TestFirstWriterWins:
    def test_stale_update_raises_retryable_conflict(self):
        db = make_accounts()
        stale = db.pin_snapshot()
        db.execute("UPDATE ACC SET VAL = 60 WHERE ID = 1")
        with pytest.raises(WriteConflictError) as excinfo:
            db.execute(
                "UPDATE ACC SET VAL = 70 WHERE ID = 1", snapshot=stale
            )
        assert excinfo.value.retryable
        assert "first writer wins" in str(excinfo.value)
        # The losing statement must not have changed anything.
        assert db.execute("SELECT VAL FROM ACC WHERE ID = 1").rows == [(60,)]

    def test_stale_delete_raises_conflict(self):
        db = make_accounts()
        stale = db.pin_snapshot()
        db.execute("UPDATE ACC SET VAL = 60 WHERE ID = 2")
        with pytest.raises(WriteConflictError):
            db.execute("DELETE FROM ACC WHERE ID = 2", snapshot=stale)
        assert len(db.execute("SELECT * FROM ACC").rows) == 2

    def test_retry_with_fresh_snapshot_succeeds(self):
        db = make_accounts()
        stale = db.pin_snapshot()
        db.execute("UPDATE ACC SET VAL = 60 WHERE ID = 1")
        with pytest.raises(WriteConflictError):
            db.execute(
                "UPDATE ACC SET VAL = VAL + 5 WHERE ID = 1", snapshot=stale
            )
        db.note_conflict_retry()
        db.execute("UPDATE ACC SET VAL = VAL + 5 WHERE ID = 1")
        assert db.execute("SELECT VAL FROM ACC WHERE ID = 1").rows == [(65,)]
        stats = db.mvcc_stats()
        assert stats["write_conflicts"] == 1
        assert stats["retries"] == 1

    def test_insert_is_exempt_from_version_conflicts(self):
        db = make_accounts()
        stale = db.pin_snapshot()
        db.execute("UPDATE ACC SET VAL = 60 WHERE ID = 1")
        # Appends never first-writer-conflict...
        db.execute("INSERT INTO ACC VALUES (3, 10)", snapshot=stale)
        assert len(db.execute("SELECT * FROM ACC").rows) == 3
        # ...and a genuine collision is a key violation, not a version race.
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO ACC VALUES (3, 11)")

    def test_conflicts_on_different_tables_are_independent(self):
        db = make_accounts()
        db.execute("CREATE TABLE OTHER (ID INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO OTHER VALUES (1, 1)")
        stale = db.pin_snapshot()
        db.execute("UPDATE ACC SET VAL = 60 WHERE ID = 1")
        # ACC moved on, but the snapshot is still current for OTHER.
        db.execute("UPDATE OTHER SET V = 2 WHERE ID = 1", snapshot=stale)
        assert db.execute("SELECT V FROM OTHER").rows == [(2,)]


class TestStaleStatementCache:
    def test_recreated_table_never_served_by_old_plan(self):
        db = Database("ddl-epoch")
        db.execute("CREATE TABLE T (A INTEGER)")
        db.execute("INSERT INTO T VALUES (1)")
        assert db.execute("SELECT * FROM T").rows == [(1,)]
        db.execute("DROP TABLE T")
        db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
        db.execute("INSERT INTO T VALUES (2, 3)")
        # Same SQL text as the cached plan — must reflect the new shape.
        assert db.execute("SELECT * FROM T").rows == [(2, 3)]

    def test_ddl_bumps_cache_namespace_epoch(self):
        db = Database("ddl-epoch-2")
        before = db.catalog.schema_key
        db.execute("CREATE TABLE T (A INTEGER)")
        assert db.catalog.schema_key != before


class TestMvccCounters:
    def test_runtime_stats_exposes_mvcc_counters(self):
        db = make_accounts()
        db.execute("SELECT * FROM ACC")
        stats = db.runtime_stats()["mvcc"]
        assert set(stats) == {
            "snapshots_pinned",
            "versions_published",
            "write_conflicts",
            "retries",
            "snapshot_epoch",
        }
        assert stats["snapshots_pinned"] > 0
        # make_accounts runs one two-row INSERT: one version per statement.
        assert stats["versions_published"] == 1
        assert stats["write_conflicts"] == 0

    def test_syscat_view_reports_mvcc(self):
        db = make_accounts()
        rows = db.execute(
            "SELECT counter, value FROM SYSCAT_RUNTIME_STATS "
            "WHERE component = 'mvcc'"
        ).rows
        counters = dict(rows)
        assert counters["snapshots_pinned"] > 0
        assert counters["versions_published"] > 0


class TestConcurrentSnapshots:
    def test_readers_see_consistent_versions_while_writer_publishes(self):
        """No torn reads: a single-statement multi-row update is published
        atomically, so SUM(VAL) is invariant for every concurrent reader."""
        db = make_accounts("hammer-consistency")
        writes = 150
        reads = 150
        failures: list[tuple] = []

        def worker(index: int):
            if index == 0:
                for _ in range(writes):
                    # Moves value between the rows; the sum stays 100.
                    db.execute("UPDATE ACC SET VAL = 100 - VAL")
            else:
                for _ in range(reads):
                    total = db.execute("SELECT SUM(VAL) FROM ACC").scalar()
                    if total != 100:
                        failures.append((index, total))

        hammer(worker)
        assert not failures, f"torn snapshot reads observed: {failures[:5]}"
        stats = db.mvcc_stats()
        assert stats["write_conflicts"] == 0  # single writer never loses
        assert stats["versions_published"] >= writes

    def test_readers_never_see_a_half_applied_insert_select(self):
        """One INSERT … SELECT publishes all its rows at once: a reader
        counts either none or all of them, never a prefix."""
        rows = 20_000
        db = Database("hammer-insert-select")
        db.execute("CREATE TABLE SRC (ID INTEGER PRIMARY KEY, V INTEGER)")
        db.execute(values_insert("SRC", [(i, i % 7) for i in range(rows)]))
        db.execute("CREATE TABLE DST (ID INTEGER PRIMARY KEY, V INTEGER)")
        done = threading.Event()
        seen: set[int] = set()

        def worker(index: int):
            if index == 0:
                try:
                    db.execute("INSERT INTO DST SELECT ID, V FROM SRC")
                finally:
                    done.set()
            else:
                while not done.is_set():
                    seen.add(db.execute("SELECT COUNT(*) FROM DST").scalar())
                seen.add(db.execute("SELECT COUNT(*) FROM DST").scalar())

        hammer(worker, threads=3)
        assert seen <= {0, rows}, f"torn insert observed: {sorted(seen)[:5]}"
        assert rows in seen

    def test_readers_see_invariant_sum_across_a_large_update(self):
        """``SET v = 1 - v`` over 2,000 0/1 rows keeps SUM(v) at 1,000;
        a reader polling during the statement must never see it move."""
        rows = 2_000
        db = Database("hammer-large-update")
        db.execute("CREATE TABLE ACC (ID INTEGER PRIMARY KEY, V INTEGER)")
        db.execute(values_insert("ACC", [(i, i % 2) for i in range(rows)]))
        done = threading.Event()
        failures: list[object] = []

        def worker(index: int):
            if index == 0:
                try:
                    for _ in range(3):
                        db.execute("UPDATE ACC SET V = 1 - V")
                finally:
                    done.set()
            else:
                while not done.is_set():
                    total = db.execute("SELECT SUM(V) FROM ACC").scalar()
                    if total != rows // 2:
                        failures.append(total)

        hammer(worker, threads=3)
        assert not failures, f"torn snapshot reads observed: {failures[:5]}"

    def test_writers_on_different_tables_never_conflict(self):
        db = Database("hammer-tables")
        for index in range(THREADS):
            db.execute(
                f"CREATE TABLE T{index} (ID INTEGER PRIMARY KEY, V INTEGER)"
            )
            db.execute(f"INSERT INTO T{index} VALUES (1, 0)")
        increments = 100

        def worker(index: int):
            for _ in range(increments):
                db.execute(f"UPDATE T{index} SET V = V + 1 WHERE ID = 1")

        hammer(worker)
        for index in range(THREADS):
            value = db.execute(f"SELECT V FROM T{index}").scalar()
            assert value == increments, f"T{index} lost updates: {value}"
        # Per-table latches, disjoint tables: nobody ever lost a race.
        assert db.mvcc_stats()["write_conflicts"] == 0

    def test_same_row_writers_retry_and_conserve_every_update(self):
        """First-writer-wins on one row: losers retry with a fresh
        snapshot until they win; no increment is lost or duplicated."""
        db = Database("hammer-conflicts")
        db.execute("CREATE TABLE C (ID INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO C VALUES (1, 0)")
        increments = 60

        def worker(index: int):
            for _ in range(increments):
                while True:
                    try:
                        db.execute("UPDATE C SET V = V + 1 WHERE ID = 1")
                        break
                    except WriteConflictError:
                        db.note_conflict_retry()

        hammer(worker)
        assert db.execute("SELECT V FROM C").scalar() == THREADS * increments
        stats = db.mvcc_stats()
        # Every conflict was retried (and only conflicts were retried).
        assert stats["retries"] == stats["write_conflicts"]

    def test_concurrent_inserts_conserve_rows_without_conflicts(self):
        db = Database("hammer-inserts")
        db.execute("CREATE TABLE R (ID INTEGER PRIMARY KEY, V INTEGER)")
        per_thread = 80

        def worker(index: int):
            base = index * per_thread
            for offset in range(per_thread):
                db.execute(
                    "INSERT INTO R VALUES (?, ?)", params=[base + offset, index]
                )

        hammer(worker)
        count = db.execute("SELECT COUNT(*) FROM R").scalar()
        assert count == THREADS * per_thread
        assert db.mvcc_stats()["write_conflicts"] == 0
