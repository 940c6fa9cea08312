"""Columnar grouped-aggregation and hash-join probe kernels.

Grouped aggregation collects each group's argument values and folds
them once per group; the columnar hash-join probe reads key columns and
emits a late-materialised :class:`~repro.fdbs.executor.JoinBatch`.  The
contract: rows, their order (first-occurrence group order without ORDER
BY) and every DOUBLE bit equal row mode, at every chunk size, and a
remote build side is fetched with the same requests at the same
simulated time.
"""

import random
import sys
import threading
from decimal import Decimal
from functools import reduce
from operator import add

import pytest

from repro.fdbs.engine import Database
from repro.fdbs.executor import (
    ColumnBatch,
    HashJoinPlan,
    JoinBatch,
    Plan,
    SelectionBatch,
)
from repro.fdbs.expr import ColumnSlot, CompiledExpr, EvalContext
from tests.test_remote_hash_join import make_db as make_federated_db
from tests.test_remote_hash_join import observe

MODES = ("row", "columnar")
CHUNK_SIZES = (1, 3, 1024)

#: Doubles whose sums depend on the order they are added in.
DOUBLES = [0.1, 1e16, 0.2, -1e16, 3.3, 1e-3, 2.5e15, -0.0, 0.0, 7.7, None]


def canon(rows):
    """Rows with every float spelled by its bits and every value typed,
    so ``==`` means bit-identical (``-0.0``, NaN, ``True`` vs ``1``)."""
    return [
        tuple(
            (type(value).__name__, value.hex() if isinstance(value, float) else value)
            for value in row
        )
        for row in rows
    ]


def fact_rows(count=60, seed=11):
    """Mixed rows for ``f``: NULL keys, blank-padded strings, signed zeros."""
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        rows.append(
            (
                index,
                rng.choice([None, 0, 1, 2, 3, 4]),
                rng.choice([None, "a", "a ", "b", "b  ", "c"]),
                rng.choice([None, "p", "q ", "r"]),
                rng.choice(DOUBLES),
                rng.choice([None, 1, 2, 2, 5, 9]),
                rng.choice([None, Decimal("1.25"), Decimal("2.50"), Decimal("-0.75")]),
            )
        )
    return rows


DIM_ROWS = [
    (1, 10, "a"),
    (1, 11, "b"),  # duplicate build key
    (2, 20, "a  "),
    (3, 30, None),
    (None, 99, "a"),  # NULL build key never matches
    (4, 40, "c"),
    (4, 41, "c "),
]


def make_db(mode, chunk_size=None):
    """A machine-less database holding ``f``, ``dim`` and an empty ``e``."""
    db = Database("kernels", execution_mode=mode, chunk_size=chunk_size)
    db.execute(
        "CREATE TABLE f (id INT PRIMARY KEY, g INT, h VARCHAR(6), c CHAR(4), "
        "x DOUBLE, n INT, d DECIMAL(8,2))"
    )
    for row in fact_rows():
        db.execute("INSERT INTO f VALUES (?, ?, ?, ?, ?, ?, ?)", params=list(row))
    db.execute("CREATE TABLE dim (k INT, region INT, label VARCHAR(4))")
    for row in DIM_ROWS:
        db.execute("INSERT INTO dim VALUES (?, ?, ?)", params=list(row))
    db.execute("CREATE TABLE e (k INT, v INT)")
    return db


@pytest.fixture(scope="module")
def databases():
    """One database per (mode, chunk size), shared by the module's tests."""
    return {
        (mode, size): make_db(mode, size) for mode in MODES for size in CHUNK_SIZES
    }


def assert_modes_agree(databases, sql):
    """Every mode at every chunk size returns row mode's rows, bit for bit."""
    expected = canon(databases[("row", 1024)].execute(sql).rows)
    for (mode, size), db in databases.items():
        assert canon(db.execute(sql).rows) == expected, (mode, size, sql)
    return expected


GROUPED = [
    # Single key with NULLs, every aggregate, no ORDER BY.
    "SELECT f.g, COUNT(*), COUNT(f.x), SUM(f.x), AVG(f.x), MIN(f.x), MAX(f.x), "
    "SUM(f.n), AVG(f.n), SUM(f.d), MIN(f.h), MAX(f.c) FROM f GROUP BY f.g",
    # Multi-key, NULLs in both keys.
    "SELECT f.g, f.h, COUNT(*), SUM(f.x), MAX(f.n) FROM f GROUP BY f.g, f.h",
    "SELECT f.h, f.g, COUNT(*) FROM f GROUP BY f.h, f.g",
    # VARCHAR keys with trailing blanks, CHAR keys blank-padded.
    "SELECT f.h, COUNT(*), MIN(f.c), SUM(f.n) FROM f GROUP BY f.h",
    "SELECT f.c, COUNT(*), SUM(f.x), AVG(f.d) FROM f GROUP BY f.c",
    # DOUBLE key: -0.0 and 0.0 share one group.
    "SELECT f.x, COUNT(*), SUM(f.n) FROM f GROUP BY f.x",
    # DISTINCT aggregates.
    "SELECT f.g, COUNT(DISTINCT f.n), SUM(DISTINCT f.n), COUNT(DISTINCT f.h), "
    "SUM(DISTINCT f.x), AVG(DISTINCT f.x) FROM f GROUP BY f.g",
    # Expressions as keys and arguments, a filter below, HAVING above.
    "SELECT f.n + 1, SUM(f.x * 2), COUNT(*) FROM f WHERE f.id > 7 GROUP BY f.n + 1",
    "SELECT f.g, SUM(f.x) FROM f GROUP BY f.g HAVING COUNT(*) > 8",
    # Grouped and ungrouped over an empty input.
    "SELECT f.g, COUNT(*), SUM(f.x) FROM f WHERE f.id > 1000 GROUP BY f.g",
    "SELECT COUNT(*), SUM(f.x), MIN(f.x), AVG(f.n) FROM f WHERE f.id > 1000",
    # Ungrouped, ordered.
    "SELECT COUNT(*), COUNT(f.h), SUM(f.x), AVG(f.x), MIN(f.x), MAX(f.x), "
    "SUM(DISTINCT f.n) FROM f",
    "SELECT f.g, COUNT(*), SUM(f.x) FROM f GROUP BY f.g ORDER BY f.g DESC",
]


class TestGroupedAggregation:
    @pytest.mark.parametrize("sql", GROUPED)
    def test_modes_agree_bit_for_bit(self, databases, sql):
        assert_modes_agree(databases, sql)

    def test_groups_come_out_in_first_occurrence_order(self, databases):
        rows = assert_modes_agree(databases, "SELECT f.g, COUNT(*) FROM f GROUP BY f.g")
        first_seen = list(dict.fromkeys(row[1] for row in fact_rows()))
        assert [row[0][1] for row in rows] == first_seen

    def test_double_sums_fold_in_row_order(self, databases):
        sql = "SELECT f.g, SUM(f.x), AVG(f.x) FROM f GROUP BY f.g"
        rows = assert_modes_agree(databases, sql)
        for (_, key), (_, total), (_, mean) in rows:
            values = [row[4] for row in fact_rows() if row[1] == key and row[4] is not None]
            if not values:
                assert total is None and mean is None
                continue
            expected = reduce(add, values)
            assert total == expected.hex()
            assert mean == (expected / len(values)).hex()

    def test_signed_zero_group_keeps_the_first_key(self):
        for mode in MODES:
            for size in CHUNK_SIZES:
                db = Database("zeros", execution_mode=mode, chunk_size=size)
                db.execute("CREATE TABLE z (k DOUBLE, v INT)")
                for k, v in [(-0.0, 1), (0.0, 2), (1.5, 3), (0.0, 4), (-0.0, 5)]:
                    db.execute("INSERT INTO z VALUES (?, ?)", params=[k, v])
                rows = db.execute("SELECT z.k, COUNT(*), SUM(z.v) FROM z GROUP BY z.k").rows
                assert canon(rows) == canon([(-0.0, 4, 12), (1.5, 1, 3)]), (mode, size)


JOINS = [
    # Duplicate build keys, NULL keys on both sides.
    "SELECT f.id, f.g, d.region FROM f JOIN dim AS d ON f.g = d.k",
    # Multi-key with VARCHAR trailing blanks matching like '='.
    "SELECT f.id, d.region, d.label FROM f JOIN dim AS d ON f.g = d.k AND f.h = d.label",
    "SELECT f.id, f.h, d.region FROM f LEFT OUTER JOIN dim AS d ON f.g = d.k",
    "SELECT f.id, d.k, d.label FROM f LEFT OUTER JOIN dim AS d "
    "ON f.g = d.k AND f.h = d.label",
    # Residual conjunct: still evaluated against combined rows.
    "SELECT f.id, d.region FROM f JOIN dim AS d ON f.g = d.k AND f.n * 5 > d.region",
    "SELECT f.id, d.region FROM f LEFT OUTER JOIN dim AS d "
    "ON f.g = d.k AND f.n * 5 > d.region",
    # Filter and aggregate over the join output.
    "SELECT d.region, COUNT(*), SUM(f.x), MIN(d.label) FROM f JOIN dim AS d "
    "ON f.g = d.k WHERE f.n > 1 GROUP BY d.region",
    "SELECT d.label, f.h, COUNT(*), SUM(f.d) FROM f LEFT OUTER JOIN dim AS d "
    "ON f.g = d.k GROUP BY d.label, f.h",
    "SELECT COUNT(*), SUM(f.x), MAX(d.region) FROM f JOIN dim AS d ON f.g = d.k",
    # Empty outer side.
    "SELECT e.k, d.region FROM e JOIN dim AS d ON e.k = d.k",
    "SELECT e.k, d.region FROM e LEFT OUTER JOIN dim AS d ON e.k = d.k",
    "SELECT d.region, COUNT(*) FROM e JOIN dim AS d ON e.k = d.k GROUP BY d.region",
]


class TestHashJoinProbe:
    @pytest.mark.parametrize("sql", JOINS)
    def test_modes_agree_bit_for_bit(self, databases, sql):
        assert "HashJoin" in databases[("columnar", 1024)].explain(sql)
        assert_modes_agree(databases, sql)

    def test_left_outer_pads_unmatched_rows(self, databases):
        sql = "SELECT f.id, d.region FROM f LEFT OUTER JOIN dim AS d ON f.g = d.k"
        rows = databases[("columnar", 3)].execute(sql).rows
        ids = [row[0] for row in rows]
        assert sorted(set(ids)) == list(range(60))
        assert any(region is None for _, region in rows)

    def test_cached_plan_shared_by_four_threads(self):
        db = make_db("columnar", 3)
        sql = JOINS[6]
        expected = make_db("row").execute(sql).rows
        db.execute(sql)
        db.execute(sql)  # the first cache hit stores the plan
        hits = db.statement_cache.stats()["plan_hits"]
        failures = []

        def worker():
            for _ in range(25):
                if canon(db.execute(sql).rows) != canon(expected):
                    failures.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the shared plan's runs
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert db.statement_cache.stats()["plan_hits"] - hits == 100


class TestRemoteBuildSide:
    SQL = (
        "SELECT n.s, COUNT(*), SUM(n.f), MAX(l.tag) FROM loc AS l, n_arch AS n "
        "WHERE l.k = n.k GROUP BY n.s"
    )

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_requests_and_clock_match_row_mode_and_nlj(self, chunk_size):
        reference = observe(make_federated_db("cost", "row", "nlj"), self.SQL)
        for mode in MODES:
            db = make_federated_db("cost", mode, chunk_size=chunk_size)
            assert "HashJoin" in db.explain(self.SQL)
            rows, deltas, elapsed = observe(db, self.SQL)
            assert (canon(rows), deltas, elapsed) == (
                canon(reference[0]),
                reference[1],
                reference[2],
            ), mode

    def test_empty_outer_side_makes_no_request(self):
        sql = self.SQL.replace("WHERE", "WHERE l.k > 100 AND")
        for mode in MODES:
            rows, deltas, _ = observe(make_federated_db("cost", mode), sql)
            assert rows == []
            assert all(counters.get("requests", 0) == 0 for counters in deltas.values())


def _leaf(index):
    return CompiledExpr(lambda row, ctx, i=index: row[i], None, None, ("row", index))


class _Input(Plan):
    """A plan feeding fixed row lists as column batches."""

    def __init__(self, chunks, width):
        self.schema = [ColumnSlot("t", f"c{i}", None) for i in range(width)]
        self.chunks = chunks

    def rows(self, ctx):
        for chunk in self.chunks:
            yield from chunk

    def column_batches(self, ctx, size=1024):
        for chunk in self.chunks:
            yield ColumnBatch(len(chunk), rows=chunk)


LEFT = [[(1, "a"), (2, "b "), (None, "c"), (7, "d")], [(2, "e"), (1, "f")]]
RIGHT = [(1, 10), (2, 20), (1, 11), (None, 0), (5, 50)]


def join_plan(kind="INNER", residual=None):
    plan = HashJoinPlan(
        _Input(LEFT, 2), _Input([RIGHT], 2), kind, [_leaf(0)], [_leaf(0)], residual
    )
    plan.columnar_left_keys = [lambda batch, ctx: batch.column(0)]
    return plan


class TestJoinBatch:
    @pytest.mark.parametrize("kind", ["INNER", "LEFT OUTER"])
    def test_column_matches_rows_view(self, kind):
        plan = join_plan(kind)
        batches = list(plan.column_batches(EvalContext()))
        assert batches and all(isinstance(batch, JoinBatch) for batch in batches)
        for batch in batches:
            rows = batch.rows_view()
            assert len(rows) == len(batch)
            for position in range(4):
                assert batch.column(position) == [row[position] for row in rows]
            assert list(batch) == rows
        assert [row for batch in batches for row in batch] == list(plan.rows(EvalContext()))

    def test_columns_are_read_without_building_tuples(self):
        batch = next(join_plan().column_batches(EvalContext()))
        assert batch.column(3) == [10, 11, 20]
        assert batch.column(1) == ["a", "a", "b "]
        assert batch._rows is None
        assert isinstance(batch.left, SelectionBatch)
        assert batch.left.indices == [0, 0, 1]

    def test_every_row_matched_once_keeps_the_probe_batch(self):
        plan = HashJoinPlan(
            _Input([[(2, "x"), (5, "y")]], 2),
            _Input([RIGHT], 2),
            "INNER",
            [_leaf(0)],
            [_leaf(0)],
        )
        plan.columnar_left_keys = [lambda batch, ctx: batch.column(0)]
        (batch,) = plan.column_batches(EvalContext())
        assert isinstance(batch.left, ColumnBatch)
        assert batch.rows_view() == [(2, "x", 2, 20), (5, "y", 5, 50)]

    def test_residual_joins_keep_the_row_path(self):
        residual = CompiledExpr(lambda row, ctx: row[3] > 10, None, None)
        plan = join_plan("LEFT OUTER", residual)
        batches = list(plan.column_batches(EvalContext()))
        assert all(isinstance(batch, ColumnBatch) for batch in batches)
        assert [row for batch in batches for row in batch] == list(plan.rows(EvalContext()))


class TestRegressions:
    def test_min_max_with_nan_opening_a_chunk(self):
        """Ungrouped MIN/MAX fold from the running best in row order: a
        chunk starting with NaN no longer drops its later values."""
        results = {}
        for mode in MODES:
            db = Database("nan", execution_mode=mode)
            db.execute("CREATE TABLE t (g INT, x DOUBLE)")
            for value in (1.0, 2.0, 3.0, float("nan"), 0.5, 4.0):
                db.execute("INSERT INTO t VALUES (?, ?)", params=[1, value])
            db.configure(chunk_size=3)
            results[mode] = (
                db.execute("SELECT MIN(x), MAX(x) FROM t").rows,
                db.execute("SELECT g, MIN(x), MAX(x) FROM t GROUP BY g").rows,
            )
        assert results["row"] == ([(0.5, 4.0)], [(1, 0.5, 4.0)])
        assert results["columnar"] == results["row"]

    def test_lone_boolean_sum_stays_a_boolean(self):
        for mode in MODES:
            db = Database("bool", execution_mode=mode, chunk_size=2)
            db.execute("CREATE TABLE t (g INT, b BOOLEAN)")
            for g, b in [(1, True), (2, True), (2, True), (3, None)]:
                db.execute("INSERT INTO t VALUES (?, ?)", params=[g, b])
            rows = db.execute("SELECT g, SUM(b) FROM t GROUP BY g").rows
            assert canon(rows) == canon([(1, True), (2, 2), (3, None)]), mode
            assert canon(db.execute("SELECT SUM(b) FROM t WHERE g = 1").rows) == canon(
                [(True,)]
            )

    def test_avg_returns_the_quotient(self):
        for mode in MODES:
            db = Database("avg", execution_mode=mode)
            db.execute("CREATE TABLE t (n INT)")
            for n in (1, 2):
                db.execute("INSERT INTO t VALUES (?)", params=[n])
            assert db.execute("SELECT AVG(n) FROM t").rows == [(1.5,)]
