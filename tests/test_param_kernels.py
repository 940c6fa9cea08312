"""``?``-bound predicates share the literal path: kernels and zone maps.

A statement parameter is one value per execution, exactly like a
literal.  The columnar kernels read it once per chunk and the
zone-map checks bind it per execution, so a ``?`` query must be
indistinguishable from the same query with its values inlined as
literals — rows *and* simulated time — in every execution mode with zone
maps on and off.  Bindings the kernels do not cover (bool, Decimal,
strings against numbers, an unbound ``?``) fall back to row-at-a-time
evaluation and must reproduce row mode's result or its exact error.
The cached plan is shared across executions and threads, so no binding
may leak into it.
"""

import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import pytest

from repro.fdbs.engine import Database
from repro.fdbs.executor import TableScanPlan
from repro.sysmodel.machine import Machine

ROWS = 40
CHUNK = 4
CHUNKS = ROWS // CHUNK
THREADS = 8
JOIN_TIMEOUT = 60.0

CONFIGS = [
    (mode, zone_maps)
    for mode in ("row", "columnar")
    for zone_maps in (True, False)
]
REFERENCE = ("row", False)

#: One-parameter shapes over INT (``id`` is clustered, so it prunes),
#: DOUBLE and the flipped ``scalar <op> column`` forms.
ONE_PARAM_SHAPES = [
    "t.id = ?",  # an index probe, not a filter
    "t.g = ?",
    "t.x = ?",
    "t.id <> ?",
    "t.id < ?",
    "t.id <= ?",
    "t.x > ?",
    "t.x >= ?",
    "? < t.id",
    "? >= t.x",
]
TWO_PARAM_SHAPES = [
    "t.id BETWEEN ? AND ?",
    "t.x NOT BETWEEN ? AND ?",
    "t.g IN (?, ?)",
    "t.id IN (?, ?)",
    "t.id > ? AND t.g = ?",
    "t.id < ? OR t.x > ?",
]
UNBOUND = "unbound"
ONE_PARAM_BINDINGS = [
    (3,),
    (17,),
    (2.5,),
    (17.5,),
    (None,),
    (True,),
    (Decimal("17.5"),),
    ("abc",),
    UNBOUND,
]
TWO_PARAM_BINDINGS = [
    (8, 20),
    (8.5, 20.25),
    (None, 20),
    (8, None),
    (True, 3),
    (Decimal("8.0"), 20),
    ("a", 20),
    UNBOUND,
]
CHAR_BINDINGS = [("k3",), ("k3   ",), (None,), (3,), UNBOUND]

CASES = (
    [(shape, binding) for shape in ONE_PARAM_SHAPES for binding in ONE_PARAM_BINDINGS]
    + [(shape, binding) for shape in TWO_PARAM_SHAPES for binding in TWO_PARAM_BINDINGS]
    + [("t.s = ?", binding) for binding in CHAR_BINDINGS]
)


def make_db(mode: str, zone_maps: bool, machine: Machine | None = None) -> Database:
    """A 40-row table in chunks of 4 with NULLs in every value column."""
    db = Database("params", machine=machine, execution_mode=mode, chunk_size=CHUNK)
    db.set_zone_maps(zone_maps)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, x DOUBLE, s CHAR(6))")
    for index in range(ROWS):
        db.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            params=[
                index,
                None if index % 9 == 0 else index % 5,
                None if index % 7 == 3 else index * 1.25,
                f"k{index % 6}",
            ],
        )
    return db


def sql_literal(value: object) -> str:
    """SQL text that parses back to exactly ``value``."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        text = repr(value)
        return text if "e" in text else text + "E0"  # an approximate literal
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)  # int, or a Decimal with a point


def inline(sql: str, params: tuple) -> str:
    """``sql`` with each ``?`` replaced by its bound value's literal."""
    parts = sql.split("?")
    assert len(parts) == len(params) + 1
    text = parts[0]
    for value, rest in zip(params, parts[1:]):
        text += sql_literal(value) + rest
    return text


def outcome(db: Database, machine: Machine, sql: str, params: list) -> tuple:
    """Rows or error, plus simulated time, of a warm execution.

    The time is a clock capture, a sum from zero, so it does not depend
    on how far each database's clock has already run.
    """

    def once():
        with machine.clock.capture() as elapsed:
            try:
                result = ("rows", db.execute(sql, params=params).rows)
            except Exception as error:  # noqa: BLE001 - the error is the outcome
                result = ("error", type(error).__name__, str(error))
        return result, elapsed.total

    once()  # warm: the first execution of a text pays for planning
    return once()


@pytest.fixture(scope="module")
def databases():
    """One machine-backed database per (mode, zone maps) configuration."""
    built = {}
    for config in CONFIGS:
        machine = Machine()
        built[config] = (make_db(*config, machine=machine), machine)
    return built


def cached_scans(db: Database) -> list[TableScanPlan]:
    """Table scans of every plan the statement cache holds."""
    entries = db.statement_cache._entries.values()  # noqa: SLF001 - test probe
    scans = []

    def walk(node):
        if isinstance(node, TableScanPlan):
            scans.append(node)
        for child in node._children():  # noqa: SLF001 - test probe
            walk(child)

    for entry in entries:
        if entry.plan is not None:
            walk(entry.plan)
    return scans


#: A predicate filters rows in WHERE; projected, its NULLs show too.
FORMS = {
    "where": "SELECT t.id, t.g, t.x FROM t WHERE {}",
    "projected": "SELECT t.id, {} FROM t",
}


class TestParameterMatchesLiteral:
    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize(
        "shape, binding", CASES, ids=[f"{s} <- {b}" for s, b in CASES]
    )
    def test_rows_time_and_errors(self, databases, form, shape, binding):
        sql = FORMS[form].format(shape)
        params = [] if binding == UNBOUND else list(binding)
        seen = {
            config: outcome(db, machine, sql, params)
            for config, (db, machine) in databases.items()
        }
        reference = seen[REFERENCE]
        for config, observed in seen.items():
            assert observed == reference, config
        if binding == UNBOUND:
            (kind, error, message), _ = reference
            assert (kind, error) == ("error", "ExecutionError")
            assert re.fullmatch(r"statement parameter \?\d was not bound", message)
            return
        literal_sql = inline(sql, binding)
        for config, (db, machine) in databases.items():
            literal = outcome(db, machine, literal_sql, [])
            if reference[0][0] == "rows":
                assert literal == reference, config
            else:
                # An error names the node it failed in, which renders the
                # ``?`` in one query and the literal in the other.
                assert literal[0][:2] == reference[0][:2], config
                assert literal[1] == reference[1], config

    def test_vectorized_shapes_really_prune(self, databases):
        """The differential above would pass if ``?`` never pruned; pin
        that a ``?`` conjunct prunes exactly as its literal does."""
        db, _ = databases[("columnar", True)]

        def pruned(sql, params):
            before = db.columnar_stats()["chunks_pruned"]
            db.execute(sql, params=params)
            return db.columnar_stats()["chunks_pruned"] - before

        sql = "SELECT t.id FROM t WHERE t.id BETWEEN ? AND ?"
        assert pruned(sql, [8, 15]) == pruned(inline(sql, (8, 15)), []) == CHUNKS - 2
        assert pruned("SELECT t.id FROM t WHERE t.id IN (?, ?)", [1, 38]) == CHUNKS - 2
        assert pruned("SELECT t.id FROM t WHERE ? < t.id", [35]) == CHUNKS - 1


class TestBindingsNeverReachThePlan:
    def test_successive_bindings_on_one_cached_plan(self):
        db = make_db("columnar", True)
        sql = "SELECT t.id FROM t WHERE t.id > ?"
        for _ in range(2):  # the plan is stored on the first cache hit
            db.execute(sql, params=[0])
        (scan,) = cached_scans(db)
        hits = db.statement_cache.stats()["plan_hits"]
        counts = []
        for params, expected in (([1000], []), ([-1], list(range(ROWS)))):
            before = db.columnar_stats()
            rows = db.execute(sql, params=params).rows
            after = db.columnar_stats()
            assert [row[0] for row in rows] == expected
            counts.append(
                tuple(after[key] - before[key] for key in ("chunks_scanned", "chunks_pruned"))
            )
        assert counts == [(0, CHUNKS), (CHUNKS, 0)]
        assert db.statement_cache.stats()["plan_hits"] == hits + 2
        assert cached_scans(db) == [scan]
        assert scan.last_chunks is None  # no execution state on a shared plan

    def test_null_binding_prunes_everything_nan_prunes_nothing(self):
        db = make_db("columnar", True)
        before = db.columnar_stats()["chunks_pruned"]
        assert db.execute("SELECT t.id FROM t WHERE t.x > ?", params=[None]).rows == []
        assert db.columnar_stats()["chunks_pruned"] - before == CHUNKS
        # NaN compares false with everything, so a bounds test could
        # prune chunks that ``NOT BETWEEN NaN AND ...`` matches in full.
        sql = "SELECT t.id FROM t WHERE t.x NOT BETWEEN ? AND ?"
        nan = float("nan")
        rows = db.execute(sql, params=[nan, 20.0]).rows
        assert rows == make_db("row", False).execute(sql, params=[nan, 20.0]).rows
        assert len(rows) == ROWS - len(range(3, ROWS, 7))

    def test_threads_with_different_bindings_match_single_threaded_replay(self):
        db = make_db("columnar", True)
        queries = [
            "SELECT t.id, t.x FROM t WHERE t.id BETWEEN ? AND ?",
            "SELECT t.g, COUNT(*), SUM(t.x) FROM t WHERE t.x > ? AND t.g IN (?, ?) "
            "GROUP BY t.g ORDER BY t.g",
        ]
        for sql in queries:  # store the shared plans
            for _ in range(2):
                db.execute(sql, params=[0, 0, 0][: sql.count("?")])
        steps = 12
        records: list[tuple] = []
        lock = threading.Lock()
        barrier = threading.Barrier(THREADS)

        def worker(index: int) -> None:
            barrier.wait(timeout=JOIN_TIMEOUT)
            for step in range(steps):
                low = (index * 5 + step * 3) % ROWS
                bindings = ([low, low + index], [low * 1.25, index % 5, step % 5])
                for sql, params in zip(queries, bindings):
                    rows = db.execute(sql, params=params).rows
                    with lock:
                        records.append((sql, params, rows))

        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as executor:
                futures = [executor.submit(worker, i) for i in range(THREADS)]
                for future in futures:
                    future.result(timeout=JOIN_TIMEOUT)
        finally:
            sys.setswitchinterval(previous_interval)

        assert len(records) == THREADS * steps * len(queries)
        assert all(scan.last_chunks is None for scan in cached_scans(db))
        replay = make_db("columnar", True)
        for sql, params, rows in records:
            assert replay.execute(sql, params=params).rows == rows


class TestExplain:
    def test_zone_text_renders_parameters(self):
        db = make_db("columnar", True)
        text = db.explain("SELECT t.id FROM t WHERE t.id BETWEEN ? AND ? AND t.g IN (?, ?)")
        assert "zone: (t.id BETWEEN ? AND ?) AND (t.g IN (?, ?))" in text

    @pytest.mark.parametrize("params, expected", [([8, 15], CHUNKS - 2), ([None, 15], CHUNKS)])
    def test_analyze_pruned_counts_match_counters(self, params, expected):
        db = make_db("columnar", True)
        before = db.columnar_stats()
        sql = "EXPLAIN ANALYZE SELECT t.id FROM t WHERE t.id BETWEEN ? AND ?"
        lines = [line for line, in db.execute(sql, params=params).rows]
        after = db.columnar_stats()
        scanned = after["chunks_scanned"] - before["chunks_scanned"]
        pruned = after["chunks_pruned"] - before["chunks_pruned"]
        (scan_line,) = [line for line in lines if "TableScan" in line]
        assert f"[pruned={pruned}/{scanned + pruned} chunks]" in scan_line
        assert (pruned, scanned) == (expected, CHUNKS - expected)
