"""DML statements compile once, under the SELECT plan rule.

INSERT … VALUES, UPDATE and DELETE keep their compiled form in the
statement-cache entry (``CachedStatement.dml``): a first execution
compiles and discards, the first cache hit stores, later hits reuse.
A VALUES list of literals and ``?`` markers only builds each row with
one ``itemgetter``; other VALUES lists keep their closures.

Reuse is checked against a fresh compile before every execution
(``statement_cache.invalidate()``, as the plan-cache replay does):
rows, rowcounts, errors and their messages, ``versions_published``,
ROLLBACK and simulated time on a machine-attached database, in row and
columnar mode.  The remaining tests pin what may not be kept (one-shot
texts, a form compiled against a dropped table or another mode, an
UPDATE whose compile planned a subquery), duplicate target columns
(DB2 SQL0121N), a hypothesis property over VALUES rows that mix
markers, literals, NULL, ``-?`` and ``? + 1``, and 8 threads sharing
one INSERT and one UPDATE text against a serial replay.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateColumnError, PlanError, WriteConflictError
from repro.fdbs.engine import Database
from repro.sysmodel.machine import Machine

MODES = ["row", "columnar"]
THREADS = 8
JOIN_TIMEOUT = 60.0

SCHEMA = (
    "CREATE TABLE p (k INT PRIMARY KEY, c CHAR(5), d DECIMAL(6,2), "
    "v VARCHAR(10) NOT NULL)"
)
MARKERS = "INSERT INTO p VALUES (?, ?, ?, ?), (?, 'lit', NULL, ?)"
CLOSURES = "INSERT INTO p (k, v) VALUES (? + 100, ?), (-?, 'neg')"
ONE_ROW = "INSERT INTO p VALUES (?, ?, ?, ?)"
UPDATE = "UPDATE p SET d = d + ?, c = ? WHERE k > ?"
SET_V = "UPDATE p SET v = ? WHERE k = ?"
SET_K = "UPDATE p SET k = ? WHERE k = ?"
DELETE = "DELETE FROM p WHERE k >= ?"

SNAN = Decimal("sNaN")

#: (method, text, params) steps.  Every text runs at least three times,
#: so its form is stored on the first hit and reused after; the failing
#: bindings come after it is stored.
SCRIPT = [
    ("execute", MARKERS, [1, "a", Decimal("1.5"), "x", 2, "y"]),
    ("execute", MARKERS, [3, None, 7, "x", 4, "y"]),
    ("execute", MARKERS, [5, "b", None, "x", 6, "y"]),
    ("execute", MARKERS, [7, "c", 1, "x", 8]),  # ?6 unbound
    ("execute", MARKERS, [7, "c", 1, None, 8, "y"]),  # NOT NULL
    ("execute", MARKERS, [1, "c", 1, "x", 9, "y"]),  # duplicate key
    ("execute", MARKERS, [7, "c", 1, "x" * 11, 8, "y"]),  # over-long VARCHAR
    ("execute", MARKERS, [7, "c", SNAN, "x", 8, "y"]),  # signalling NaN
    ("execute", CLOSURES, [1, "p", 11]),
    ("execute", CLOSURES, [2, "q", 12]),
    ("execute", CLOSURES, [3, "r", 13]),
    ("execute", CLOSURES, [4, "s"]),  # ?3 unbound, inside -?
    ("execute", CLOSURES, [5, None, 15]),  # NOT NULL
    ("execute", CLOSURES, [1, "p", 16]),  # duplicate key 101
    ("many", ONE_ROW, [(20, "m", 1, "v"), (21, None, None, "w")]),
    ("many", ONE_ROW, [(22, "m", 1, "v")]),
    ("many", ONE_ROW, [(23, "m", 1, "v"), (24, "m", SNAN, "w")]),
    ("many", ONE_ROW, [(25, "m", 1, "v"), (26, "m", 1)]),  # ?4 unbound
    ("many", ONE_ROW, [(27, "m", 1, None)]),
    ("execute", UPDATE, [Decimal("0.25"), "u", 2]),
    ("execute", UPDATE, [1, "w", 4]),
    ("execute", UPDATE, [1, None, 100]),
    ("execute", UPDATE, [1, "toolong", 0]),  # CHAR(5) overflow
    ("execute", UPDATE, [1, "u"]),  # ?3 unbound
    ("execute", SET_V, ["z", 1]),
    ("execute", SET_V, ["zz", 2]),
    ("execute", SET_V, [None, 3]),  # NOT NULL
    ("execute", SET_V, ["y" * 11, 3]),  # over-long VARCHAR
    ("execute", SET_K, [2, 1]),  # duplicate key
    ("execute", SET_K, [2, 1]),
    ("execute", SET_K, [50, 1]),
    ("execute", "ROLLBACK", []),
    ("execute", MARKERS, [30, "a", 1, "x", 31, "y"]),
    ("execute", "COMMIT", []),
    ("execute", DELETE, [200]),
    ("execute", DELETE, [100]),
    ("execute", DELETE, [30]),
    ("execute", SET_K, [60, 2]),
    ("execute", "ROLLBACK", []),
]


def dml_forms(db: Database) -> list:
    """Compiled DML forms currently held by the statement cache."""
    entries = db.statement_cache._entries.values()  # noqa: SLF001 - test probe
    return [entry.dml for entry in entries if entry.dml is not None]


def cached_plans(db: Database) -> list:
    entries = db.statement_cache._entries.values()  # noqa: SLF001 - test probe
    return [entry.plan for entry in entries if entry.plan is not None]


def published(db: Database) -> int:
    return db.mvcc_stats()["versions_published"]


def run_step(db: Database, method: str, sql: str, params) -> object:
    """A step's outcome: its rowcount, or its error type and message."""
    try:
        if method == "many":
            return db.execute_many(sql, params).rowcount
        return db.execute(sql, params=params).rowcount
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return (type(exc).__name__, str(exc))


def replay(mode: str, fresh_compile: bool, script=SCRIPT) -> list[tuple]:
    """Run ``script`` on a new machine-attached database and record,
    per step, its outcome, the table, the versions published and the
    simulated time it took."""
    machine = Machine()
    db = Database("dml", machine=machine, execution_mode=mode, chunk_size=4)
    db.execute(SCHEMA)
    seen = []
    for method, sql, params in script:
        if fresh_compile:
            db.statement_cache.invalidate()
        start = machine.clock.now
        outcome = run_step(db, method, sql, params)
        seen.append(
            (
                outcome,
                db.table_rows("p"),
                published(db),
                machine.clock.now - start,
            )
        )
    return seen


class TestReuseMatchesFreshCompile:
    @pytest.mark.parametrize("mode", MODES)
    def test_script(self, mode):
        reused = replay(mode, fresh_compile=False)
        assert reused == replay(mode, fresh_compile=True)
        outcomes = [step[0] for step in reused]
        assert ("ExecutionError", "statement parameter ?6 was not bound") in outcomes
        assert ("ExecutionError", "statement parameter ?3 was not bound") in outcomes
        assert ("ExecutionError", "statement parameter ?4 was not bound") in outcomes
        kinds = {outcome[0] for outcome in outcomes if isinstance(outcome, tuple)}
        assert kinds == {"ExecutionError", "ConstraintError", "TypeError_"}
        # Every failing step left the table and the version count as
        # they were.
        for before, after in zip(reused, reused[1:]):
            if isinstance(after[0], tuple):
                assert after[1:3] == before[1:3]

    def test_forms_are_stored_on_the_first_hit_and_reused(self):
        db = Database("dml")
        db.execute(SCHEMA)
        db.execute(MARKERS, params=[1, "a", 1, "x", 2, "y"])
        assert dml_forms(db) == []
        db.execute(MARKERS, params=[3, "a", 1, "x", 4, "y"])
        (form,) = dml_forms(db)
        db.execute(MARKERS, params=[5, "a", 1, "x", 6, "y"])
        db.execute_many(ONE_ROW, [(7, "a", 1, "x")])
        db.execute(ONE_ROW, params=[8, "a", 1, "x"])
        assert len(db.table_rows("p")) == 8
        for _ in range(3):
            db.execute(UPDATE, params=[1, "u", 0])
            db.execute(DELETE, params=[8])
        forms = dml_forms(db)
        assert forms[0] is form and len(forms) == 4
        # DML forms are not plans: the SELECT-plan probes and counter
        # read as before.
        assert cached_plans(db) == []
        assert db.statement_cache.stats()["plan_hits"] == 0


class TestWhatIsNotKept:
    def test_one_shot_dml_texts_keep_nothing(self):
        db = Database("dml")
        db.execute(SCHEMA)
        for k in range(20):
            db.execute(f"INSERT INTO p VALUES ({k}, NULL, NULL, 'v')")
            db.execute(f"UPDATE p SET d = {k} WHERE k = {k}")
        for k in range(20):
            db.execute(f"DELETE FROM p WHERE k = {k}")
        assert dml_forms(db) == []
        assert db.table_rows("p") == []

    def test_recreated_table_with_other_columns_misses(self):
        db = Database("dml")
        db.execute("CREATE TABLE t (a INT, b INT)")
        insert = "INSERT INTO t (a, b) VALUES (?, ?)"
        update = "UPDATE t SET b = b + 1 WHERE a = ?"
        for value in range(3):
            db.execute(insert, params=[value, value * 10])
            db.execute(update, params=[value])
        assert len(dml_forms(db)) == 2
        assert db.table_rows("t") == [(0, 1), (1, 11), (2, 21)]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (b VARCHAR(5), a DOUBLE)")
        misses = db.statement_cache.stats()["misses"]
        db.execute(insert, params=[1, "one"])
        assert db.statement_cache.stats()["misses"] == misses + 1
        db.execute(insert, params=[2, "two"])
        db.execute(insert, params=[3, "three"])
        assert db.table_rows("t") == [("one", 1.0), ("two", 2.0), ("three", 3.0)]
        # ``b + 1`` no longer type-checks: the stale form is not reused.
        for _ in range(3):
            with pytest.raises(PlanError, match="must be numeric"):
                db.execute(update, params=[1])

    def test_mode_switch_misses(self):
        db = Database("dml")
        db.execute(SCHEMA)
        for k in range(3):
            db.execute(ONE_ROW, params=[k, "a", 1, "x"])
        (row_form,) = dml_forms(db)
        db.configure(execution_mode="columnar")
        misses = db.statement_cache.stats()["misses"]
        db.execute(ONE_ROW, params=[3, "a", 1, "x"])
        assert db.statement_cache.stats()["misses"] == misses + 1
        db.execute(ONE_ROW, params=[4, "a", 1, "x"])
        assert [f for f in dml_forms(db) if f is not row_form] != []
        assert [row[0] for row in db.table_rows("p")] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("mode", MODES)
    def test_update_with_a_subquery_keeps_nothing_and_reads_the_latest_state(self, mode):
        db = Database("dml", execution_mode=mode)
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        bump = "UPDATE t SET v = (SELECT MAX(v) FROM t) + 1 WHERE k = ?"
        for k in (1, 2, 3, 1):
            db.execute(bump, params=[k])
        assert db.table_rows("t") == [(1, 34), (2, 32), (3, 33)]
        prune = "DELETE FROM t WHERE v < (SELECT MAX(v) FROM t) - ?"
        assert [db.execute(prune, params=[n]).rowcount for n in (1, 1, 0)] == [1, 0, 1]
        assert db.table_rows("t") == [(1, 34)]
        assert dml_forms(db) == []


class TestDuplicateTargets:
    STATEMENTS = [
        ("execute", "INSERT INTO t (a, a) VALUES (1, 2)", []),
        ("execute", "INSERT INTO t (a, b, A) VALUES (?, ?, ?)", [1, 2, 3]),
        ("execute", "INSERT INTO t (b, b) SELECT a, b FROM t", []),
        ("execute", "UPDATE t SET b = 1, b = 2", []),
        ("execute", "UPDATE t SET a = ?, c = ?, A = ? WHERE b = ?", [1, 2, 3, 20]),
        ("many", "INSERT INTO t (c, c) VALUES (?, ?)", [(1, 2), (3, 4)]),
    ]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("method, sql, params", STATEMENTS)
    def test_rejected_before_anything_is_written(self, mode, method, sql, params):
        db = Database("dml", execution_mode=mode)
        db.execute("CREATE TABLE t (a INT, b INT, c INT)")
        db.execute("INSERT INTO t VALUES (1, 10, 100), (2, 20, 200)")
        db.execute("COMMIT")
        before = (db.table_rows("t"), published(db))
        for _ in range(3):  # first execution, first hit, later hits
            with pytest.raises(DuplicateColumnError, match="more than once"):
                if method == "many":
                    db.execute_many(sql, params)
                else:
                    db.execute(sql, params=params)
        assert (db.table_rows("t"), published(db)) == before
        assert dml_forms(db) == []
        db.execute("ROLLBACK")  # nothing was logged to undo
        assert db.table_rows("t") == before[0]


# ---------------------------------------------------------------------------
# VALUES rows: the itemgetter form and the closures against a reference
# ---------------------------------------------------------------------------

#: VALUES item kinds: ``?`` alone, a literal, NULL, ``-?`` and ``? + 1``.
ITEM_KINDS = ["?", "7", "'s'", "NULL", "-?", "? + 1"]
WIDTH = 3


def reference(template: list[list[str]], params: list) -> list[tuple] | str:
    """The rows a template inserts, or the unbound-marker message."""
    rows, cursor = [], 0
    for row in template:
        values = []
        for kind in row:
            if kind in ("7", "'s'", "NULL"):
                values.append({"7": 7, "'s'": "s", "NULL": None}[kind])
                continue
            if cursor >= len(params):
                return f"statement parameter ?{cursor + 1} was not bound"
            value = params[cursor]
            cursor += 1
            if kind == "-?":
                value = None if value is None else -value
            elif kind == "? + 1":
                value = None if value is None else value + 1
            values.append(value)
        rows.append(tuple(values))
    return rows


def values_sql(template: list[list[str]], columns: list[int] | None) -> str:
    names = "" if columns is None else " (" + ", ".join("abc"[i] for i in columns) + ")"
    rows = ", ".join("(" + ", ".join(row) + ")" for row in template)
    return f"INSERT INTO t{names} VALUES {rows}"


@st.composite
def values_cases(draw):
    columns = draw(
        st.one_of(st.none(), st.permutations(range(WIDTH)).flatmap(
            lambda order: st.integers(1, WIDTH).map(lambda n: list(order[:n]))
        ))
    )
    width = WIDTH if columns is None else len(columns)
    template = draw(
        st.lists(
            st.lists(st.sampled_from(ITEM_KINDS), min_size=width, max_size=width),
            min_size=1,
            max_size=3,
        )
    )
    markers = sum(kind in ("?", "-?", "? + 1") for row in template for kind in row)
    bindings = draw(
        st.lists(
            st.lists(
                st.one_of(st.none(), st.integers(-50, 50)),
                min_size=max(0, markers - 2),
                max_size=markers,
            ),
            min_size=3,
            max_size=5,
        )
    )
    return template, columns, bindings


@settings(max_examples=120, deadline=None)
@given(case=values_cases(), mode=st.sampled_from(MODES))
def test_values_rows_equal_fresh_compiles_and_the_reference(case, mode):
    template, columns, bindings = case
    sql = values_sql(template, columns)
    outcomes = []
    for fresh_compile in (False, True):
        db = Database("values", execution_mode=mode)
        db.execute("CREATE TABLE t (a INT, b INT, c INT)")
        seen = []
        for params in bindings:
            if fresh_compile:
                db.statement_cache.invalidate()
            try:
                rowcount = db.execute(sql, params=params).rowcount
            except Exception as exc:  # noqa: BLE001 - the error is the outcome
                rowcount = (type(exc).__name__, str(exc))
            seen.append((rowcount, db.table_rows("t"), published(db)))
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]
    # Against the reference: every binding inserts the rows it names,
    # scattered into the target columns, or raises the unbound message.
    expected: list[tuple] = []
    for params, (rowcount, rows, _) in zip(bindings, outcomes[0]):
        want = reference(template, params)
        if isinstance(want, str):
            assert rowcount == ("ExecutionError", want)
            continue
        if isinstance(rowcount, tuple):  # a value that does not fit its column
            assert rowcount[0] == "TypeError_"
            continue
        for row in want:
            full = list(row) if columns is None else [None] * WIDTH
            if columns is not None:
                for position, value in zip(columns, row):
                    full[position] = value
            expected.append(tuple(full))
        assert rows == expected


# ---------------------------------------------------------------------------
# Threads sharing one INSERT and one UPDATE text
# ---------------------------------------------------------------------------


def test_threads_sharing_dml_forms_match_a_serial_replay():
    insert = "INSERT INTO c VALUES (?, ?, 'n'), (?, NULL, ?)"
    update = "UPDATE c SET n = n + ? WHERE k = ?"
    steps = 15

    def script(index: int) -> list[tuple[str, list]]:
        out = []
        for step in range(steps):
            base = index * 1000 + 2 * step
            out.append((insert, [base, step, base + 1, f"t{index}"]))
            out.append((update, [index + 1, index * 1000]))
        return out

    def make() -> Database:
        db = Database("threads")
        db.execute("CREATE TABLE c (k INT PRIMARY KEY, n INT, s VARCHAR(4))")
        for sql in (insert, update):  # forms stored before the threads start
            db.execute(sql, params=[-1, 0, -2, "w"] if sql is insert else [0, -1])
            db.execute(sql, params=[-3, 0, -4, "w"] if sql is insert else [0, -1])
        return db

    db = make()
    forms = dml_forms(db)
    assert len(forms) == 2
    results: dict[int, list] = {}
    barrier = threading.Barrier(THREADS)

    def worker(index: int) -> None:
        barrier.wait(timeout=JOIN_TIMEOUT)
        counts = []
        for sql, params in script(index):
            while True:
                try:
                    counts.append(db.execute(sql, params=params).rowcount)
                    break
                except WriteConflictError:
                    continue  # retry against a fresh snapshot
        results[index] = counts

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as executor:
            futures = [executor.submit(worker, i) for i in range(THREADS)]
            for future in futures:
                future.result(timeout=JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(previous_interval)
    assert sorted(results) == list(range(THREADS))
    assert dml_forms(db) == forms  # shared, never replaced

    serial = make()
    serial_results = {}
    for index in range(THREADS):
        counts = []
        for sql, params in script(index):
            serial.statement_cache.invalidate()  # replay on a fresh compile
            counts.append(serial.execute(sql, params=params).rowcount)
        serial_results[index] = counts
    assert results == serial_results
    assert sorted(db.table_rows("c")) == sorted(serial.table_rows("c"))
    assert len(db.table_rows("c")) == 4 + THREADS * steps * 2
