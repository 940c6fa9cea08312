"""Columnar selection kernels give row mode's rows and errors.

A columnar filter compiles through ``ColumnarCompiler.select``: nodes
with a selection kernel (``column <op> scalar``, ``[NOT] BETWEEN``,
``[NOT] IN``, ``IS [NOT] NULL`` and ``AND`` of those) produce the
surviving row positions in one pass, an ``AND`` narrows its right side
to its left side's survivors, and with zone maps on a range or equality
kernel bisects a chunk column whose values are ordered.  Every other
predicate, and a binding no kernel covers, keeps the TRUE positions of
the guarded mask.

The property runs random filters over random tables in both execution
modes and compares rows and errors: column values with NULL, NaN,
infinities, ``-0.0``, ints beyond 2**53 and CHAR/VARCHAR values that
differ only in trailing blanks; bounds that are NULL, NaN, Decimal,
boolean, crossed (``lo > hi``) or unbound; ``AND`` chains with a
division by zero the short-circuit may hide; chunk sizes 1-8 and 1024,
so both sealed and tail chunks; ordered and shuffled tables; zone maps
on and off.  The remaining tests pin where the ordered search runs,
and that zone-map pruning may skip a row whose predicate would raise.
"""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdbs.engine import Database
from repro.fdbs.executor import FilterPlan, SelectionBatch
from repro.fdbs.expr import EvalContext
from repro.fdbs.parser import parse_statement

NAN = float("nan")
INF = float("inf")
BIG = 2**53 + 1

DDL = "CREATE TABLE t (k INT PRIMARY KEY, x DOUBLE, b BIGINT, c CHAR(4), s VARCHAR(6))"

X_VALUES = st.one_of(
    st.integers(-4, 4),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.sampled_from([None, NAN, INF, -INF, -0.0, BIG]),
)
B_VALUES = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([None, 2**53, BIG, -BIG, 2**62]),
)
STRINGS = ["", " ", "a", "a ", "a  ", "ab", "b"]
S_VALUES = st.sampled_from([None, *STRINGS])

NUMERIC_BOUNDS = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [NAN, INF, -INF, -0.0, 2**53, BIG, float(2**53), Decimal("1.5"), Decimal("-0"), True, False]
    ),
)
STRING_BOUNDS = st.one_of(st.none(), st.sampled_from([*STRINGS, 1]))

#: Conjuncts that divide by zero: row mode raises on every row that
#: reaches them, so only an earlier FALSE conjunct hides the error.
DIVISIONS = ["b / 0 = 1", "x / 0 > 1"]

SHAPES = ["cmp", "flipped", "between", "not between", "in", "not in", "is null", "is not null"]
OPS = ["=", "<>", "<", "<=", ">", ">="]


def literal(value: object) -> str | None:
    """SQL text of a bound that parses back as a literal, else None."""
    if value is None:
        return "NULL"
    if type(value) is int and value >= 0:
        return str(value)
    if type(value) is str and "'" not in value:
        return f"'{value}'"
    return None


@st.composite
def conjunct(draw, params: list) -> str:
    column = draw(st.sampled_from(["k", "x", "b", "c", "s"]))
    bounds = STRING_BOUNDS if column in ("c", "s") else NUMERIC_BOUNDS

    def scalar() -> str:
        value = draw(bounds)
        text = literal(value)
        if text is not None and draw(st.booleans()):
            return text
        params.append(value)
        return "?"

    shape = draw(st.sampled_from(SHAPES))
    if shape == "cmp":
        return f"{column} {draw(st.sampled_from(OPS))} {scalar()}"
    if shape == "flipped":
        return f"{scalar()} {draw(st.sampled_from(OPS))} {column}"
    if shape in ("between", "not between"):
        low = scalar()
        return f"{column} {shape.upper()} {low} AND {scalar()}"
    if shape in ("in", "not in"):
        items = ", ".join(scalar() for _ in range(draw(st.integers(1, 3))))
        return f"{column} {shape.upper()} ({items})"
    return f"{column} {shape.upper()}"


@st.composite
def filters(draw) -> tuple[str, list]:
    """A WHERE clause of 1-3 conjuncts, maybe with a division by zero
    somewhere in the chain, and its parameters (maybe one short)."""
    params: list = []
    conjuncts = [draw(conjunct(params)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.integers(0, 3)) == 0:
        conjuncts.insert(draw(st.integers(0, len(conjuncts))), draw(st.sampled_from(DIVISIONS)))
    if params and draw(st.integers(0, 7)) == 0:
        params.pop()  # the last ``?`` stays unbound
    return " AND ".join(conjuncts), params


ROWS = st.lists(st.tuples(X_VALUES, B_VALUES, S_VALUES, S_VALUES), max_size=30)


def order_key(value: object) -> tuple:
    """Sorts NULL and NaN last, every other number by value."""
    if value is None or value != value:
        return (1, 0)
    return (0, value)


def build(rows: list, chunk_size: int, zone_maps: bool, sort_by: int | None, tombstones: bool):
    if sort_by is not None:
        rows = sorted(rows, key=lambda row: order_key(row[sort_by]))
    db = Database("sel", execution_mode="columnar", chunk_size=chunk_size, zone_maps=zone_maps)
    db.execute(DDL)
    if rows:
        db.execute_many(
            "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
            [(k, *row) for k, row in enumerate(rows)],
        )
    if tombstones:
        db.execute("DELETE FROM t WHERE MOD(k, 4) = 1")
    return db


def outcome(db: Database, mode: str, sql: str, params: list):
    db.configure(execution_mode=mode)
    try:
        return db.execute(sql, params=list(params)).rows
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return (type(exc).__name__, str(exc))


@settings(max_examples=250, deadline=None)
@given(
    rows=ROWS,
    chunk_size=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 1024]),
    zone_maps=st.booleans(),
    sort_by=st.sampled_from([None, 0, 1]),
    tombstones=st.booleans(),
    where=filters(),
)
def test_columnar_filter_equals_row_mode(rows, chunk_size, zone_maps, sort_by, tombstones, where):
    predicate, params = where
    db = build(rows, chunk_size, zone_maps, sort_by, tombstones)
    sql = f"SELECT k FROM t WHERE {predicate}"
    assert outcome(db, "columnar", sql, params) == outcome(db, "row", sql, params), sql


EDGE_ROWS = [
    (NAN, BIG, "a", "a "),
    (-0.0, 2**53, "a ", None),
    (INF, None, None, "a"),
    (None, -BIG, "ab", "b"),
    (1.5, 3, "b", ""),
    (-INF, 3, "", "ab  "),
    (2.0, 4, " ", " "),
]

EDGE_FILTERS = [
    ("x NOT IN (?, ?)", [1.5, None]),
    ("x IN (?, ?)", [1.5, None]),
    ("s NOT IN (?, 'b')", ["a"]),
    ("c = ?", ["a"]),
    ("s <= ?", ["a   "]),
    ("x = ?", [0]),
    ("x <= ?", [3]),
    ("x > ?", [-INF]),
    ("b > ?", [float(2**53)]),
    ("b = ?", [float(BIG)]),
    ("b BETWEEN ? AND ?", [float(2**53), BIG]),
    ("x NOT BETWEEN ? AND ?", [-1, 1]),
    ("x BETWEEN ? AND ?", [Decimal("-1"), 2]),
    ("x < ? AND b IS NOT NULL", [True]),
    ("x IS NULL AND b < ?", [0]),
]


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 1024])
@pytest.mark.parametrize("zone_maps", [True, False])
@pytest.mark.parametrize("sort_by", [None, 0])
@pytest.mark.parametrize("predicate,params", EDGE_FILTERS)
def test_edge_values_equal_row_mode(predicate, params, chunk_size, zone_maps, sort_by):
    """One-row NaN chunks, NULL members, blank-padded strings and ints
    past 2**53, deterministically."""
    db = build(EDGE_ROWS, chunk_size, zone_maps, sort_by, tombstones=False)
    sql = f"SELECT k FROM t WHERE {predicate}"
    assert outcome(db, "columnar", sql, params) == outcome(db, "row", sql, params)


# -- where the ordered search runs ---------------------------------------------------


def sorted_db(zone_maps: bool) -> Database:
    """20 rows in 5 chunks of 4; ``b`` and ``x`` ascend, ``b`` has runs
    of equal values.  No index probes: ``b = ?`` stays a filter."""
    db = Database(
        "ordered",
        execution_mode="columnar",
        chunk_size=4,
        zone_maps=zone_maps,
        index_selection=False,
    )
    db.execute(DDL)
    db.execute_many(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
        [(k, k / 2, k // 3, "a", "b") for k in range(20)],
    )
    return db


def selections(db: Database, sql: str, params: list) -> list:
    """What the plan's filter selects from each chunk of ``t``."""
    plan = db._planner().plan_select(parse_statement(sql))
    while not isinstance(plan, FilterPlan):
        plan = plan._children()[0]
    select = plan.selection(EvalContext(params=params, snapshot=db.pin_snapshot(), database=db))
    table = db.catalog.get_table("t").storage
    return [select(chunk) for chunk in table.columnar_chunks(table.current_version)]


@pytest.mark.parametrize(
    "predicate,params",
    [
        ("b BETWEEN ? AND ?", [2, 4]),
        ("b = ?", [3]),
        ("x >= ? AND b < ?", [2.5, 5]),
        ("b > ? AND x <= ?", [1, 7.0]),
        ("b BETWEEN ? AND ?", [4, 2]),
    ],
)
def test_ordered_chunks_select_runs_only_with_zone_maps(predicate, params):
    sql = f"SELECT k FROM t WHERE {predicate}"
    expected = sorted_db(False).execute(sql, params).rows
    assert sorted_db(True).execute(sql, params).rows == expected
    with_zones = selections(sorted_db(True), sql, params)
    without = selections(sorted_db(False), sql, params)
    assert all(type(run) is range for run in with_zones)
    assert all(type(picked) is list for picked in without)
    assert [list(run) for run in with_zones] == without
    assert [(chunk * 4 + i,) for chunk, run in enumerate(with_zones) for i in run] == expected


@pytest.mark.parametrize(
    "predicate",
    ["b > ?", "b = ?", "x <= ?", "x BETWEEN ? AND 5", "x BETWEEN 1 AND ?", "b <> ?"],
)
def test_nan_bounds_and_not_equal_scan_linearly(predicate):
    """A NaN bound would bisect to every row; ``<>`` holds on two runs."""
    value = 2 if predicate == "b <> ?" else NAN
    sql = f"SELECT k FROM t WHERE {predicate}"
    db = sorted_db(True)
    assert all(type(picked) is list for picked in selections(db, sql, [value]))
    row = sorted_db(True)
    row.configure(execution_mode="row")
    assert db.execute(sql, [value]).rows == row.execute(sql, [value]).rows


def test_unordered_chunk_scans_linearly():
    db = sorted_db(True)
    db.execute("UPDATE t SET b = 10 - b WHERE k = 5")
    picked = selections(db, "SELECT k FROM t WHERE b >= ?", [3])
    assert [type(p) for p in picked] == [range, list, range, range, range]
    assert picked[1] == [1]  # positions within the chunk: k = 5


def test_selection_batch_gathers_a_run_as_a_slice():
    table = sorted_db(True).catalog.get_table("t").storage
    chunk = table.columnar_chunks(table.current_version)[1]
    run, listed = SelectionBatch(chunk, range(1, 3)), SelectionBatch(chunk, [1, 2])
    assert len(run) == len(listed) == 2
    assert run.column(1) == listed.column(1) == [2.5, 3.0]
    assert run.rows_view() == listed.rows_view() == chunk.rows[1:3]


# -- HAVING and join filters -----------------------------------------------------------


@pytest.mark.parametrize(
    "sql,params",
    [
        ("SELECT b, COUNT(*) FROM t GROUP BY b HAVING b BETWEEN ? AND ?", [1, 4]),
        ("SELECT b, COUNT(*) FROM t GROUP BY b HAVING b IN (?, ?) AND b IS NOT NULL", [0, 6]),
        ("SELECT b, COUNT(*) FROM t GROUP BY b HAVING b > ? AND b / 0 = 1", [99]),
        ("SELECT a.k, o.k FROM t AS a JOIN t AS o ON a.b = o.k AND o.x > ? WHERE a.k < ?",
         [1.5, 12]),
    ],
)
def test_having_and_join_filters_equal_row_mode(sql, params):
    columnar, row = sorted_db(True), sorted_db(True)
    row.configure(execution_mode="row")
    assert outcome(columnar, "columnar", sql, params) == outcome(row, "row", sql, params)


def test_short_circuit_errors_are_kept():
    """Zone maps off, so no chunk is pruned before the filter runs."""
    db = sorted_db(False)
    hidden = "SELECT k FROM t WHERE x > ? AND b / 0 = 1"
    assert outcome(db, "columnar", hidden, [100]) == outcome(db, "row", hidden, [100]) == []
    # ``x > 100`` is NULL on a NULL ``x``: row mode goes on to divide, and
    # so does the columnar mask path.
    db.execute("INSERT INTO t VALUES (20, NULL, 9, 'a', 'b')")
    raised = outcome(db, "row", hidden, [100])
    assert raised == ("ExecutionError", "division by zero")
    assert outcome(db, "columnar", hidden, [100]) == raised


@pytest.mark.parametrize("sql, params", [
    ("SELECT k FROM t WHERE x > 100 AND b / 0 = 1", []),
    ("SELECT k FROM t WHERE x > ? AND b / 0 = 1", [100]),
])
def test_pruning_may_skip_rows_whose_predicate_would_raise(sql, params):
    """Zone-map pruning, like an index probe, may skip rows whose
    predicate would raise: 9 rows in chunks of 4, the first chunk's
    ``x`` all NULL and every other ``x`` at most 8.  With zone maps on
    every chunk is pruned and the statement returns no row; with them
    off ``x > 100`` is NULL on the first chunk, so ``b / 0`` runs and
    raises.  Row and columnar mode agree under either setting."""
    outcomes = {}
    for zone_maps in (True, False):
        db = Database("pruned", chunk_size=4, zone_maps=zone_maps, index_selection=False)
        db.execute(DDL)
        db.execute_many(
            "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
            [(k, None if k < 4 else float(k), k, "a", "b") for k in range(9)],
        )
        row = outcome(db, "row", sql, params)
        assert outcome(db, "columnar", sql, params) == row
        outcomes[zone_maps] = row
    assert outcomes == {True: [], False: ("ExecutionError", "division by zero")}
