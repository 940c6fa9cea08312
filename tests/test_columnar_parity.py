"""Columnar execution parity: bit-identical rows *and* simulated times.

Columnar mode changes only how often Python dispatches — storage column
chunks, zone-map pruning and column-at-a-time operators must never
change result rows, their order, or the simulated cost accounting,
across every architecture and both optimizer modes.  Edge cases cover
all-NULL chunks, empty tables, tombstoned slots after a COW arena
rebuild, stats-less columns, snapshots pinned against an old arena, the
zone-map ablation toggle and non-default chunk sizes.
"""

import random

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.engine import Database

ARCHITECTURES = [
    Architecture.WFMS,
    Architecture.SIMPLE_UDTF,
    Architecture.ENHANCED_SQL_UDTF,
    Architecture.ENHANCED_JAVA_UDTF,
]

MODES = ("row", "columnar")

WATCH_SUPPLIERS = [1234, 5001, 1234, 5002, 5001, 5003, 1234, 5004, 5002, 1234]

FEDERATED_QUERY = (
    "SELECT w.pk, w.supplier_no, q.Qual "
    "FROM watch AS w, TABLE (GetQuality(w.supplier_no)) AS q "
    "ORDER BY w.pk"
)

LOCAL_QUERY = (
    "SELECT w.supplier_no, COUNT(*) FROM watch AS w "
    "WHERE w.pk >= 2 AND w.pk <= 8 "
    "GROUP BY w.supplier_no ORDER BY w.supplier_no"
)


def prepare(architecture, optimizer="syntactic", runstats=True):
    """A scenario FDBS with a local ``watch`` table over supplier numbers."""
    scenario = build_scenario(architecture, optimizer=optimizer)
    fdbs = scenario.server.fdbs
    fdbs.execute("CREATE TABLE watch (pk INT PRIMARY KEY, supplier_no INT)")
    for pk, supplier_no in enumerate(WATCH_SUPPLIERS):
        fdbs.execute("INSERT INTO watch VALUES (?, ?)", params=[pk, supplier_no])
    if runstats:
        fdbs.execute("RUNSTATS watch")
    return scenario


def plain_db(mode="columnar", chunk_size=None):
    """A machine-less database with a small mixed-type table."""
    db = Database("parity", execution_mode=mode, chunk_size=chunk_size)
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE, s CHAR(6), flag INT)"
    )
    return db


class TestScenarioParity:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    @pytest.mark.parametrize("optimizer", ["syntactic", "cost"])
    def test_rows_and_time_identical_across_modes(self, architecture, optimizer):
        outcomes = {}
        for mode in MODES:
            scenario = prepare(architecture, optimizer=optimizer)
            fdbs = scenario.server.fdbs
            fdbs.set_execution_mode(mode)
            fdbs.execute(FEDERATED_QUERY)  # same warm-up on every side
            rows, elapsed = scenario.server.elapsed(fdbs.execute, FEDERATED_QUERY)
            outcomes[mode] = (rows.rows, elapsed)
        assert outcomes["columnar"] == outcomes["row"]
        assert len(outcomes["row"][0]) == len(WATCH_SUPPLIERS)

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_local_pruning_query_identical(self, architecture):
        outcomes = {}
        for mode in MODES:
            scenario = prepare(architecture)
            fdbs = scenario.server.fdbs
            fdbs.set_execution_mode(mode)
            fdbs.execute(LOCAL_QUERY)
            rows, elapsed = scenario.server.elapsed(fdbs.execute, LOCAL_QUERY)
            outcomes[mode] = (rows.rows, elapsed)
        assert outcomes["columnar"] == outcomes["row"]


def fill(db, rows):
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", params=list(row))


def all_modes(rows, queries, chunk_size=None, mutate=None):
    """Execute ``queries`` in every mode (fresh db each) and compare."""
    results = {}
    for mode in MODES:
        db = plain_db(mode, chunk_size=chunk_size)
        fill(db, rows)
        if mutate is not None:
            mutate(db)
        results[mode] = [db.execute(q).rows for q in queries]
    assert results["columnar"] == results["row"], "columnar vs row rows differ"
    return results["row"]


class TestEdgeCases:
    def test_empty_table(self):
        all_modes(
            [],
            [
                "SELECT * FROM t WHERE id > 5",
                "SELECT COUNT(*), SUM(v) FROM t",
                "SELECT s, COUNT(*) FROM t GROUP BY s",
            ],
        )

    def test_all_null_chunks(self):
        rows = [(i, None, None, None) for i in range(20)]
        baseline = all_modes(
            rows,
            [
                "SELECT id FROM t WHERE v > 1.0",
                "SELECT id FROM t WHERE v IS NULL ORDER BY id",
                "SELECT COUNT(*), COUNT(v), SUM(v) FROM t",
            ],
            chunk_size=4,
        )
        assert baseline[0] == []  # NULL comparisons never match
        assert len(baseline[1]) == 20

    def test_tombstones_after_cow_rebuild(self):
        rows = [(i, float(i), "s%d" % (i % 3), i % 2) for i in range(50)]

        def mutate(db):
            db.execute("DELETE FROM t WHERE id >= 10 AND id < 20")
            db.execute("UPDATE t SET v = 999.0 WHERE id = 30")

        all_modes(
            rows,
            [
                "SELECT id, v FROM t WHERE id BETWEEN 5 AND 35 ORDER BY id",
                "SELECT COUNT(*), SUM(v) FROM t WHERE v >= 100.0",
                "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s",
            ],
            chunk_size=8,
            mutate=mutate,
        )

    def test_stats_less_columns_keep_chunks(self):
        # CHAR and mixed-NULL columns never carry value zone checks;
        # predicates on them must still filter correctly.
        rows = [(i, float(i), "k%d" % (i % 4), None) for i in range(30)]
        all_modes(
            rows,
            [
                "SELECT id FROM t WHERE s = 'k1' ORDER BY id",
                "SELECT id FROM t WHERE flag IS NULL AND id < 10 ORDER BY id",
                "SELECT id FROM t WHERE flag IS NOT NULL",
            ],
            chunk_size=7,
        )

    def test_pinned_snapshot_sees_old_arena(self):
        db = plain_db("columnar", chunk_size=4)
        fill(db, [(i, float(i), "x", 0) for i in range(20)])
        snapshot = db.pin_snapshot()
        db.execute("DELETE FROM t WHERE id >= 10")
        db.execute("UPDATE t SET v = -1.0 WHERE id = 0")
        old = db.execute(
            "SELECT id, v FROM t WHERE id >= 0 ORDER BY id", snapshot=snapshot
        )
        assert old.rows == [(i, float(i)) for i in range(20)]
        new = db.execute("SELECT id, v FROM t WHERE id >= 0 ORDER BY id")
        assert new.rows == [(0, -1.0)] + [(i, float(i)) for i in range(1, 10)]

    def test_zone_maps_off_identical_rows(self):
        db = plain_db("columnar", chunk_size=4)
        fill(db, [(i, float(i % 5), "c%d" % (i % 2), i) for i in range(40)])
        query = "SELECT id, v FROM t WHERE id BETWEEN 8 AND 12 ORDER BY id"
        with_maps = db.execute(query).rows
        stats_before = db.columnar_stats()
        assert stats_before["chunks_pruned"] > 0
        db.set_zone_maps(False)
        assert db.execute(query).rows == with_maps
        db.set_zone_maps(True)
        assert db.execute(query).rows == with_maps

    @pytest.mark.parametrize("chunk_size", [1, 3, 1024])
    def test_chunk_sizes(self, chunk_size):
        rows = [(i, float(i), "s%d" % (i % 3), i % 2) for i in range(25)]
        all_modes(
            rows,
            [
                "SELECT id, v, s FROM t WHERE id > 10 AND v < 20.0 ORDER BY id",
                "SELECT flag, COUNT(*), SUM(v) FROM t GROUP BY flag ORDER BY flag",
            ],
            chunk_size=chunk_size,
        )

    def test_set_chunk_size_validation(self):
        from repro.errors import ExecutionError

        db = plain_db("columnar")
        for bad in (0, -5, True, "16", 2**21):
            with pytest.raises(ExecutionError):
                db.configure(chunk_size=bad)
        db.configure(chunk_size=16)
        assert db.options.chunk_size == 16
        assert db.catalog.get_table("t").storage.chunk_size == 16


class TestCounters:
    def test_counters_and_explain_suffix(self):
        db = plain_db("columnar", chunk_size=4)
        fill(db, [(i, float(i), "x", 0) for i in range(40)])
        db.execute("SELECT COUNT(*) FROM t WHERE id BETWEEN 0 AND 3")
        stats = db.columnar_stats()
        assert stats["chunks_pruned"] > 0
        assert stats["chunks_scanned"] > 0
        assert stats["chunks_sealed"] > 0
        plan = db.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE id BETWEEN 0 AND 3"
        )
        text = "\n".join(line for (line,) in plan.rows)
        assert "pruned=" in text
        assert "zone:" in text

    def test_syscat_exposes_columnar_component(self):
        db = plain_db("columnar")
        rows = db.execute(
            "SELECT counter FROM SYSCAT_RUNTIME_STATS "
            "WHERE component = 'columnar'"
        ).rows
        counters = {counter for (counter,) in rows}
        assert {"chunks_scanned", "chunks_pruned", "zone_map_rebuilds"} <= counters

    def test_rebuild_counter_after_cow(self):
        db = plain_db("columnar", chunk_size=4)
        fill(db, [(i, float(i), "x", 0) for i in range(16)])
        db.execute("SELECT COUNT(*) FROM t WHERE id > 0")  # seal chunks
        db.execute("UPDATE t SET v = 0.0 WHERE id = 3")  # COW rebuild
        db.execute("SELECT COUNT(*) FROM t WHERE id > 0")  # reseal
        assert db.columnar_stats()["zone_map_rebuilds"] >= 1


class TestDoubleAggregates:
    """Ungrouped SUM/AVG over DOUBLE fold in row order in every mode.

    Float addition is not associative: pre-summing each chunk and adding
    the partial to the running total gave ``995656.1999999998`` where row
    mode gives ``995656.2000000002``.  Replacing the in-order fold with
    ``sum(live)`` + add, or with ``sum(live, total)`` (compensated from
    Python 3.12), makes this test fail.
    """

    @staticmethod
    def _db(mode):
        db = Database("sums", execution_mode=mode, chunk_size=64)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, x DOUBLE)")
        rng = random.Random(3)
        for index in range(2000):
            db.execute(
                "INSERT INTO t VALUES (?, ?, ?)",
                params=[index, index % 7, rng.randrange(100, 100000) / 100],
            )
        return db

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(x) FROM t",
            "SELECT SUM(x), AVG(x) FROM t WHERE x > 10.5",
            "SELECT SUM(id), AVG(id), SUM(x) FROM t",
        ],
    )
    def test_bit_identical_across_modes(self, sql):
        results = {mode: self._db(mode).execute(sql).rows for mode in MODES}
        assert results["columnar"] == results["row"]
        assert repr(results["columnar"]) == repr(results["row"])

    def test_row_mode_value(self):
        assert self._db("columnar").execute("SELECT SUM(x) FROM t").rows == [
            (995656.2000000002,)
        ]
