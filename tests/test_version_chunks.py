"""Column chunks belong to the immutable table version that reads them.

* the first columnar read of a version at a chunk size stores its chunk
  list (the arena's shared sealed chunks plus the version's own tail
  chunk) on the version; every later read returns that same list and the
  same tail object, with its column and zone caches;
* after INSERT, UPDATE, DELETE and ROLLBACK the new version's chunks
  reproduce its rows, while a version pinned beforehand keeps its own
  tail, rows and zone maps;
* for any DML sequence and chunk size, every retained version's chunks
  concatenate to ``version.rows()`` and each zone equals ``zone_bounds``
  of its column;
* reading an already-chunked version takes no write latch, so it
  completes while a writer holds the latch;
* a chunk-size change rebuilds the stored list;
* each chunk column's ordered flag equals a plain-Python reference: a
  sealed chunk's values are plain ints/floats in non-decreasing order
  with no NULL and no NaN, while a tail chunk is never ordered; checked
  after tombstones, on a fork and around NaN.
"""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdbs.catalog import ColumnDef
from repro.fdbs.engine import Database
from repro.fdbs.stats import zone_bounds
from repro.fdbs.storage import Table, UndoLog
from repro.fdbs.types import DOUBLE, INTEGER, VARCHAR

#: (chunk size, row count): every count leaves a partial tail chunk
#: except at size 1, where each rid is a full chunk.
SIZES_AND_COUNTS = [(1, 7), (3, 10), (1024, 2500)]


def make_db(chunk_size: int, count: int, mode: str = "columnar") -> Database:
    db = Database("chunks", execution_mode=mode, chunk_size=chunk_size)
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, g INT, s VARCHAR(8))")
    db.execute_many(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(k, k % 7 if k % 5 else None, f"s{k % 11}") for k in range(count)],
    )
    return db


def storage(db: Database) -> Table:
    return db.catalog.get_table("t").storage


def chunk_rows(chunks) -> list[tuple]:
    return [row for chunk in chunks for row in chunk.rows]


def reference_ordered(values: list) -> bool:
    """Plain ints/floats (no bool), no NULL, no NaN, each <= the next."""
    for value in values:
        if type(value) not in (int, float) or math.isnan(value):
            return False
    return all(values[i] <= values[i + 1] for i in range(len(values) - 1))


def sealed(table: Table, version, chunk) -> bool:
    """Whether ``chunk`` covers a full rid range below the version's limit."""
    return chunk.start + table.chunk_size <= version.row_limit


def assert_chunks_reproduce(table: Table, version) -> None:
    """The version's chunks are rid-aligned, concatenate to its rows and
    carry the zone map and ordered flag of each column."""
    chunks = table.columnar_chunks(version)
    size = table.chunk_size
    assert chunk_rows(chunks) == version.rows()
    for chunk in chunks:
        assert chunk.start % size == 0 and chunk.start < version.row_limit
        for position in range(len(table.columns)):
            column = [row[position] for row in chunk.rows]
            assert chunk.column(position) == column
            assert chunk.zone(position) == zone_bounds(column)
            assert chunk.ordered(position) == (
                sealed(table, version, chunk) and reference_ordered(column)
            )


class TestOneChunkListPerVersion:
    @pytest.mark.parametrize("size,count", SIZES_AND_COUNTS)
    def test_two_reads_return_the_identical_list_and_tail(self, size, count):
        db = make_db(size, count)
        table = storage(db)
        version = table.current_version
        first = table.columnar_chunks(version)
        sealed = table.chunks_sealed
        second = table.columnar_chunks(version)
        assert second is first
        assert table.chunks_sealed == sealed
        if count % size:
            tail = first[-1]
            assert tail.start == count // size * size
            assert tail.count == count % size

    @pytest.mark.parametrize("size,count", SIZES_AND_COUNTS)
    def test_scans_reuse_the_tail_and_its_zone_cache(self, size, count):
        """Columnar and zone-pruned row scans both read the list the
        version stores, so the tail's zones are computed once."""
        for mode in ("columnar", "row"):
            db = make_db(size, count, mode)
            table = storage(db)
            sql = "SELECT k FROM t WHERE k >= ?"
            expected = [(k,) for k in range(count - 2, count)]
            assert db.execute(sql, [count - 2]).rows == expected, mode
            version = table.current_version
            chunks = table.columnar_chunks(version)
            tail = chunks[-1]
            zone = tail.zone(0)
            assert db.execute(sql, [count - 2]).rows == expected, mode
            again = table.columnar_chunks(version)
            assert again is chunks and again[-1] is tail, mode
            assert again[-1].zone(0) is zone, mode

    def test_sealed_chunks_are_shared_with_later_versions(self):
        """An INSERT publishes a version of the same arena: the sealed
        chunks stay shared, only the new tail differs."""
        db = make_db(3, 10)
        table = storage(db)
        before = table.current_version
        old = table.columnar_chunks(before)
        db.execute("INSERT INTO t VALUES (100, 1, 'x')")
        new = table.columnar_chunks(table.current_version)
        assert all(a is b for a, b in zip(old[:3], new[:3]))
        assert new[3] is not old[3]
        assert chunk_rows(new) == table.current_version.rows()


class TestVersionsAfterDml:
    @pytest.mark.parametrize("size,count", SIZES_AND_COUNTS)
    def test_dml_and_rollback_keep_pinned_versions_intact(self, size, count):
        db = make_db(size, count)
        table = storage(db)
        db.execute("COMMIT")
        statements = [
            f"INSERT INTO t VALUES ({count}, 3, 'new'), ({count + 1}, NULL, 'n2')",
            f"UPDATE t SET g = g + 100 WHERE k > {count // 2}",
            f"DELETE FROM t WHERE k < {count // 3} OR k = {count - 2}",
            "ROLLBACK",
        ]
        for sql in statements:
            pinned = table.current_version
            chunks = table.columnar_chunks(pinned)
            rows = pinned.rows()
            zones = [
                [chunk.zone(p) for p in range(len(table.columns))]
                for chunk in chunks
            ]
            db.execute(sql)
            current = table.current_version
            assert current is not pinned, sql
            assert_chunks_reproduce(table, current)
            assert table.columnar_chunks(pinned) is chunks, sql
            assert chunk_rows(chunks) == rows == pinned.rows(), sql
            assert [
                [chunk.zone(p) for p in range(len(table.columns))]
                for chunk in chunks
            ] == zones, sql
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(count,)]


# -- property: any DML sequence, any chunk size ------------------------------------

COLUMNS = [
    ColumnDef("k", INTEGER, not_null=True),
    ColumnDef("g", INTEGER),
    ColumnDef("s", VARCHAR(4)),
]

VALUES = st.tuples(
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.none(), st.sampled_from(["a", "b", "zz"])),
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(VALUES, min_size=1, max_size=6)),
        st.tuples(st.just("update"), st.integers(0, 3), VALUES),
        st.tuples(st.just("delete"), st.integers(0, 3)),
        st.tuples(st.just("read"), st.just(None)),
        st.tuples(st.just("rollback"), st.just(None)),
        st.tuples(st.just("commit"), st.just(None)),
        st.tuples(st.just("resize"), st.sampled_from([1, 2, 3, 5, 1024])),
    ),
    max_size=14,
)


@settings(max_examples=80, deadline=None)
@given(size=st.sampled_from([1, 2, 3, 5, 1024]), operations=OPERATIONS)
def test_every_retained_version_reproduces_its_rows(size, operations):
    """Reads interleave with DML, so stored lists of older versions must
    survive later appends to, and copy-on-write clones of, their arena."""
    table = Table("t", COLUMNS, chunk_size=size)
    undo = UndoLog()
    versions = [table.current_version]
    next_key = 0
    for operation, *args in operations:
        live = [rid for rid, _ in table.scan()]
        if operation == "insert":
            batch = [(next_key + i, *values) for i, values in enumerate(args[0])]
            next_key += len(batch)
            table.insert_many(batch, undo)
        elif operation == "update" and live:
            rids = live[args[0] :: 4]
            table.update_many(
                [(rid, (table.current_version.row_at(rid)[0], *args[1])) for rid in rids],
                undo,
            )
        elif operation == "delete" and live:
            table.delete_many(live[args[0] :: 4], undo)
        elif operation == "read":
            table.columnar_chunks(table.current_version)
        elif operation == "rollback":
            undo.rollback()
        elif operation == "commit":
            undo.clear()
        elif operation == "resize":
            table.chunk_size = args[0]
        if table.current_version is not versions[-1]:
            versions.append(table.current_version)
    for version in versions:
        assert_chunks_reproduce(table, version)
        assert table.columnar_chunks(version) is table.columnar_chunks(version)


# -- readers take no latch ---------------------------------------------------------


@pytest.mark.parametrize("mode", ["columnar", "row"])
def test_scan_of_read_version_completes_while_a_writer_holds_the_latch(mode):
    db = make_db(3, 10, mode)
    table = storage(db)
    sql = "SELECT k FROM t WHERE k >= 8"  # zone-pruned in every mode
    assert db.execute(sql).rows == [(8,), (9,)]
    results = []
    reader = threading.Thread(target=lambda: results.append(db.execute(sql).rows))
    with table.write_transaction():
        reader.start()
        reader.join(timeout=5.0)
        blocked = reader.is_alive()
    reader.join(timeout=5.0)
    assert not blocked, "reader waited for the write latch"
    assert results == [[(8,), (9,)]]


# -- chunk-size changes ------------------------------------------------------------


def test_set_chunk_size_rebuilds_the_stored_list():
    db = make_db(3, 10)
    table = storage(db)
    version = table.current_version
    old = table.columnar_chunks(version)
    rebuilds = table.zone_map_rebuilds
    db.configure(chunk_size=4)
    new = table.columnar_chunks(version)
    assert new is not old
    assert [chunk.start for chunk in new] == [0, 4, 8]
    assert version.chunks == (4, new)
    assert table.zone_map_rebuilds == rebuilds + 1
    assert_chunks_reproduce(table, version)
    assert table.columnar_chunks(version) is new


# -- ordered flags -----------------------------------------------------------------


def ordered_flags(table: Table, version=None) -> list[list[bool]]:
    chunks = table.columnar_chunks(version or table.current_version)
    return [[chunk.ordered(p) for p in range(len(table.columns))] for chunk in chunks]


def reference_flags(table: Table, version=None) -> list[list[bool]]:
    version = version or table.current_version
    return [
        [
            sealed(table, version, chunk) and reference_ordered([row[p] for row in chunk.rows])
            for p in range(len(table.columns))
        ]
        for chunk in table.columnar_chunks(version)
    ]


class TestOrderedFlag:
    @pytest.mark.parametrize("size,count", SIZES_AND_COUNTS)
    def test_sealed_and_tail_chunks(self, size, count):
        """``k`` ascends; ``g`` cycles and holds NULLs; ``s`` is text.
        Every count but at size 1 leaves an ascending tail chunk."""
        table = storage(make_db(size, count))
        flags = ordered_flags(table)
        assert flags == reference_flags(table)
        full = count // size
        assert all(chunk_flags[0] for chunk_flags in flags[:full])
        assert flags[full:] in ([], [[False, False, False]])
        assert not any(chunk_flags[2] for chunk_flags in flags)

    def test_flags_are_lazy_and_cached(self):
        table = storage(make_db(3, 10))
        chunks = table.columnar_chunks(table.current_version)
        assert chunks[0]._ordered == [None, None, None]  # sealing computes none
        assert chunks[0].ordered(0) is True
        assert chunks[0]._ordered == [True, None, None]
        assert chunks[-1].ordered(0) is False and chunks[-1]._ordered is None

    @pytest.mark.parametrize("size,count", SIZES_AND_COUNTS)
    def test_after_update_and_delete_tombstones(self, size, count):
        db = make_db(size, count)
        table = storage(db)
        pinned = table.current_version
        before = ordered_flags(table)
        db.execute(f"UPDATE t SET k = k + {count} WHERE MOD(k, 4) = 2")
        assert ordered_flags(table) == reference_flags(table)
        # Deleting the moved keys, and more, leaves ``k`` ascending
        # between tombstones.
        db.execute(f"DELETE FROM t WHERE k >= {count} OR MOD(k, 3) = 0")
        assert ordered_flags(table) == reference_flags(table)
        assert all(chunk_flags[0] for chunk_flags in ordered_flags(table)[: count // size])
        assert ordered_flags(table, pinned) == before == reference_flags(table, pinned)

    def test_on_a_copy_on_write_fork(self):
        table = storage(make_db(3, 10))
        source = ordered_flags(table)
        fork = table.fork(3)
        assert ordered_flags(fork) == source == reference_flags(fork)
        undo = UndoLog()
        rid = next(rid for rid, row in fork.scan() if row[0] == 4)
        fork.update_many([(rid, (-1, 1, "x"))], undo)
        assert ordered_flags(fork) == reference_flags(fork)
        assert ordered_flags(fork)[1][0] is False
        assert ordered_flags(table) == source

    @pytest.mark.parametrize(
        "values,size,expected",
        [
            ([math.nan, 1.0, 2.0], 3, [False]),
            ([1.0, 2.0, math.nan], 3, [False]),
            ([1.0, math.nan, 2.0], 3, [False]),
            ([1.0, 2.0, 3.0], 3, [True]),
            ([math.nan], 1, [False]),
            ([math.nan, 1.0, 2.0], 1, [False, True, True]),
            ([0.5], 1, [True]),
            ([-0.0, 0.0, float("inf"), 2.0], 3, [True, False]),
            ([float("-inf"), None, 1.0], 2, [False, False]),
        ],
    )
    def test_nan_first_last_alone_and_one_row_chunks(self, values, size, expected):
        table = Table("d", [ColumnDef("x", DOUBLE)], chunk_size=size)
        table.insert_many([(value,) for value in values])
        assert ordered_flags(table) == reference_flags(table)
        assert [flags[0] for flags in ordered_flags(table)] == expected
