"""WHERE conjuncts selected at a hash join's probe scan keep row mode's rows.

In columnar mode an explicit ``JOIN ... ON`` with an equi-conjunct is a
hash join.  When it is the whole FROM clause, a WHERE conjunct that
reads only the probe (left) scan's columns and has a selection kernel
is attached to that scan: the scan yields only the rows whose conjunct
is TRUE, running the kernel alone, and passes every row through for a
binding no kernel covers.  A scan on the null-supplying side of a LEFT
OUTER join is never selected.

The property runs random INNER, LEFT OUTER and nested explicit joins
with WHERE conjuncts on the probe side, on the null-supplying side and
across both, against row mode's nested-loop plan: NULL and NaN join
keys; Decimal, boolean, string-vs-number and unbound bounds; divisions
by zero that raise only on some rows; chunk sizes 1-8 and 1024; ordered
and shuffled probe tables; zone maps on and off; tombstones.  Columnar
may skip a row-mode error, as zone-map pruning may (DESIGN §11), but
never raises where row mode succeeds, and rows agree whenever both
succeed.  The remaining tests pin where a selection is attached and
what a scan with one yields.
"""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdbs.engine import Database
from repro.fdbs.executor import HashJoinPlan, SelectionBatch, TableScanPlan
from repro.fdbs.expr import EvalContext
from repro.fdbs.functions import make_external_function
from repro.fdbs.parser import parse_statement
from repro.fdbs.types import INTEGER
from tests.test_selection_kernels import order_key, outcome

NAN = float("nan")

DDL = [
    "CREATE TABLE a (k INT PRIMARY KEY, j DOUBLE, x DOUBLE, b BIGINT, s VARCHAR(6))",
    "CREATE TABLE d (k INT PRIMARY KEY, j DOUBLE, y DOUBLE, t VARCHAR(6))",
]

#: FROM clause -> upper-cased aliases on a null-supplying side.
JOINS = {
    "a JOIN d ON a.j = d.j": set(),
    "a LEFT JOIN d ON a.j = d.j": {"D"},
    "a JOIN d ON a.j = d.j AND a.x < d.y": set(),
    "a LEFT OUTER JOIN d ON a.j = d.j AND d.y > 1": {"D"},
    "a JOIN d ON a.j = d.j LEFT JOIN d AS e ON d.k = e.j": {"E"},
    "a LEFT JOIN (d JOIN d AS e ON d.j = e.j) ON a.j = d.j": {"D", "E"},
    "a JOIN (d LEFT JOIN d AS e ON d.k = e.j) ON a.j = d.j": {"E"},
}

KEYS = st.sampled_from([None, NAN, -0.0, 0, 1, 2, 3, 1.5])
NUMBERS = st.one_of(
    st.integers(-4, 4),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.sampled_from([None, NAN]),
)
STRINGS = ["", "a", "a ", "ab", "b"]
TEXTS = st.sampled_from([None, *STRINGS])

NUMERIC_BOUNDS = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    st.sampled_from([NAN, Decimal("1.5"), True, "a"]),
)
STRING_BOUNDS = st.one_of(st.none(), st.sampled_from([*STRINGS, 1]))

#: Columns a conjunct may read, by side.
PROBE = ["a.k", "a.x", "a.b", "a.s"]
BUILD = ["d.k", "d.y", "d.t"]
NESTED = ["e.y", "e.t"]
CROSS = ["a.x < d.y", "a.b = d.k", "a.x + d.y > 1", "a.s = d.t", "a.x IS NULL OR d.y > 0"]
#: Divisions by zero: they raise on every row that reaches them.
DIVISIONS = ["a.b / 0 = 1", "d.k / 0 = 1"]

SHAPES = ["cmp", "between", "not between", "in", "not in", "is null", "is not null"]
OPS = ["=", "<>", "<", "<=", ">", ">="]


@st.composite
def conjunct(draw, params: list, nested: bool) -> str:
    side = draw(st.sampled_from(["probe", "probe", "build", "cross", "division"]))
    if side == "cross":
        return draw(st.sampled_from(CROSS))
    if side == "division":
        return draw(st.sampled_from(DIVISIONS))
    column = draw(st.sampled_from(PROBE if side == "probe" else BUILD + NESTED * nested))
    bounds = STRING_BOUNDS if column[-1] in "st" else NUMERIC_BOUNDS

    def scalar() -> str:
        params.append(draw(bounds))
        return "?"

    shape = draw(st.sampled_from(SHAPES))
    if shape == "cmp":
        return f"{column} {draw(st.sampled_from(OPS))} {scalar()}"
    if shape in ("between", "not between"):
        low = scalar()
        return f"{column} {shape.upper()} {low} AND {scalar()}"
    if shape in ("in", "not in"):
        items = ", ".join(scalar() for _ in range(draw(st.integers(1, 2))))
        return f"{column} {shape.upper()} ({items})"
    return f"{column} {shape.upper()}"


@st.composite
def queries(draw) -> tuple[str, list]:
    """A SELECT over one of :data:`JOINS` with 1-3 WHERE conjuncts, and
    its parameters (maybe one short)."""
    joins = draw(st.sampled_from(sorted(JOINS)))
    nested = "AS e" in joins
    params: list = []
    conjuncts = [draw(conjunct(params, nested)) for _ in range(draw(st.integers(1, 3)))]
    if params and draw(st.integers(0, 7)) == 0:
        params.pop()  # the last ``?`` stays unbound
    sql = f"SELECT a.k, d.k FROM {joins} WHERE {' AND '.join(conjuncts)}"
    return sql, params


PROBE_ROWS = st.lists(st.tuples(KEYS, NUMBERS, st.integers(-3, 3) | st.none(), TEXTS), max_size=24)
BUILD_ROWS = st.lists(st.tuples(KEYS, NUMBERS, TEXTS), max_size=10)


def build(
    probe: list,
    build_rows: list,
    chunk_size: int,
    zone_maps: bool,
    sort_by: int | None,
    tombstones: bool,
) -> Database:
    if sort_by is not None:
        probe = sorted(probe, key=lambda row: order_key(row[sort_by]))
    db = Database("probe", execution_mode="columnar", chunk_size=chunk_size, zone_maps=zone_maps)
    for ddl in DDL:
        db.execute(ddl)
    if probe:
        db.execute_many(
            "INSERT INTO a VALUES (?, ?, ?, ?, ?)", [(k, *row) for k, row in enumerate(probe)]
        )
    if build_rows:
        db.execute_many(
            "INSERT INTO d VALUES (?, ?, ?, ?)", [(k, *row) for k, row in enumerate(build_rows)]
        )
    if tombstones:
        db.execute("DELETE FROM a WHERE MOD(k, 4) = 1")
        db.execute("DELETE FROM d WHERE MOD(k, 3) = 2")
    return db


def failed(result) -> bool:
    return isinstance(result, tuple)


def scans(plan) -> list[TableScanPlan]:
    """Every table scan of a plan tree."""
    found = [plan] if isinstance(plan, TableScanPlan) else []
    for child in plan._children():
        found += scans(child)
    return found


def selected_aliases(db: Database, sql: str) -> set[str]:
    """Upper-cased aliases of the scans the columnar plan selects at."""
    db.configure(execution_mode="columnar")
    plan = db._planner().plan_select(parse_statement(sql))
    return {scan.schema[0].alias.upper() for scan in scans(plan) if scan.selection is not None}


@settings(max_examples=300, deadline=None)
@given(
    probe=PROBE_ROWS,
    build_rows=BUILD_ROWS,
    chunk_size=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 1024]),
    zone_maps=st.booleans(),
    sort_by=st.sampled_from([None, 0, 1]),
    tombstones=st.booleans(),
    query=queries(),
)
def test_probe_selection_equals_row_mode(
    probe, build_rows, chunk_size, zone_maps, sort_by, tombstones, query
):
    sql, params = query
    db = build(probe, build_rows, chunk_size, zone_maps, sort_by, tombstones)
    row = outcome(db, "row", sql, params)
    columnar = outcome(db, "columnar", sql, params)
    if failed(columnar):
        assert failed(row), (sql, columnar)
    elif not failed(row):
        assert columnar == row, sql
    joins = sql.split(" FROM ")[1].split(" WHERE ")[0]
    assert not selected_aliases(db, sql) & JOINS[joins], sql


# -- where a selection is attached ---------------------------------------------------


@pytest.mark.parametrize("joins", sorted(JOINS))
def test_null_supplying_sides_are_never_selected(joins):
    """A kernel conjunct on every alias: the probe scan ``a`` is always
    selected, a scan on a null-supplying side never."""
    aliases = ["a", "d", "e"] if "AS e" in joins else ["a", "d"]
    where = " AND ".join(f"{alias}.{'x' if alias == 'a' else 'y'} > 0" for alias in aliases)
    selected = selected_aliases(db_with_rows(), f"SELECT a.k FROM {joins} WHERE {where}")
    assert "A" in selected
    assert not selected & JOINS[joins]


def db_with_rows(zone_maps: bool = True) -> Database:
    """40 probe rows in chunks of 4, ``x`` ascending; 3 build rows."""
    return build(
        [(k % 3, k / 4, k, "a") for k in range(40)],
        [(0, 1.0, "a"), (1, 2.0, "b"), (2, None, None)],
        chunk_size=4,
        zone_maps=zone_maps,
        sort_by=None,
        tombstones=False,
    )


@pytest.mark.parametrize(
    "sql,expected",
    [
        ("SELECT a.k FROM a JOIN d ON a.j = d.j WHERE a.x > ? AND d.y < ?", {"A"}),
        ("SELECT a.k FROM a LEFT JOIN d ON a.j = d.j WHERE a.x > ? AND d.y < ?", {"A"}),
        ("SELECT a.k FROM a JOIN (d JOIN d AS e ON d.j = e.j) ON a.j = d.j "
         "WHERE a.x > ? AND d.y < ?", {"A", "D"}),
        ("SELECT a.k FROM a LEFT JOIN (d JOIN d AS e ON d.j = e.j) ON a.j = d.j "
         "WHERE a.x > ? AND d.y < ?", {"A"}),
        # Only conjuncts with a kernel, over the probe scan alone.
        ("SELECT a.k FROM a JOIN d ON a.j = d.j WHERE a.x + 1 > ? AND a.x < d.y + ?", set()),
        # A comma join, a join after a comma item, a CROSS JOIN and a
        # nested-loop join never select.
        ("SELECT a.k FROM a, d WHERE a.j = d.j AND a.x > ? AND d.y < ?", set()),
        ("SELECT a.k FROM d AS z, a JOIN d ON a.j = d.j WHERE a.x > ? AND z.y < ?", set()),
        ("SELECT a.k FROM a CROSS JOIN d WHERE a.x > ? AND d.y < ?", set()),
        ("SELECT a.k FROM a JOIN d ON a.x < d.y WHERE a.x > ? AND d.y < ?", set()),
    ],
)
def test_selection_is_attached_only_to_probe_scans(sql, expected):
    db = db_with_rows()
    assert selected_aliases(db, sql) == expected
    params = [3.0, 1.5]
    assert outcome(db, "columnar", sql, params) == outcome(db, "row", sql, params)


def test_a_lateral_fold_after_the_join_is_called_for_every_joined_row():
    """Only the join as the whole FROM clause selects: a table function
    folded after it is called, and charged, once per joined row in both
    modes, not only for the rows the WHERE keeps."""
    db = db_with_rows()
    calls = []

    def tag(k):
        calls.append(k)
        return [(k,)]

    db.register_external_function(
        make_external_function("TAG", [("k", INTEGER)], [("t", INTEGER)], tag)
    )
    sql = "SELECT r.t FROM a JOIN d ON a.j = d.j, TABLE (TAG(a.k)) AS r WHERE a.x > ?"
    assert selected_aliases(db, sql) == set()
    counts = []
    for mode in ("row", "columnar"):
        calls.clear()
        assert outcome(db, mode, sql, [8.5]) == [(35,), (36,), (37,), (38,), (39,)]
        counts.append(len(calls))
    # Zone maps keep chunks 8 and 9 (k 32..39) in both modes; a scan
    # selection would have cut the calls to the 5 rows with x > 8.5.
    assert counts == [8, 8]


def test_row_mode_and_zone_maps_off_never_select():
    sql = "SELECT a.k FROM a JOIN d ON a.j = d.j WHERE a.x > ?"
    db = db_with_rows(zone_maps=False)
    assert selected_aliases(db, sql) == set()
    db.configure(execution_mode="row")
    plan = db._planner().plan_select(parse_statement(sql))
    assert all(scan.selection is None for scan in scans(plan))


def probe_batches(db: Database, sql: str, params: list) -> list:
    """What the probe scan of the plan's hash join yields."""
    db.configure(execution_mode="columnar")
    plan = db._planner().plan_select(parse_statement(sql))
    join = plan
    while not isinstance(join, HashJoinPlan):
        join = join._children()[-1]
    ctx = EvalContext(params=params, snapshot=db.pin_snapshot(), database=db)
    return list(join.left.column_batches(ctx))


def test_scan_yields_selected_runs_and_passes_uncovered_bindings():
    db = db_with_rows()
    sql = "SELECT a.k FROM a JOIN d ON a.j = d.j WHERE a.x BETWEEN ? AND ?"
    # x = k / 4: rows 6..13 lie in [1.5, 3.25]; zone maps prune chunks
    # 0 and 4..9, chunks 1 and 3 are cut to runs, chunk 2 passes whole.
    batches = probe_batches(db, sql, [1.5, 3.25])
    assert [type(batch).__name__ for batch in batches] == [
        "SelectionBatch", "ColumnChunk", "SelectionBatch"
    ]
    assert [batch.indices for batch in batches if isinstance(batch, SelectionBatch)] == [
        range(2, 4), range(0, 2)
    ]
    assert [row[0] for batch in batches for row in batch.rows_view()] == list(range(6, 14))
    # A Decimal bound has no kernel, and no zone check either: the scan
    # passes every chunk through whole.
    uncovered = probe_batches(db, sql, [Decimal("1.5"), 3.25])
    assert [type(batch).__name__ for batch in uncovered] == ["ColumnChunk"] * 10
    assert outcome(db, "columnar", sql, [Decimal("1.5"), 3.25]) == outcome(
        db, "row", sql, [Decimal("1.5"), 3.25]
    )


def test_explain_analyze_counts_the_selected_rows():
    db = db_with_rows()
    sql = "SELECT a.k FROM a JOIN d ON a.j = d.j WHERE a.x BETWEEN 2 AND 3"
    lines = [line for line, in db.execute("EXPLAIN ANALYZE " + sql).rows]
    scan = next(line for line in lines if "TableScan(a" in line)
    assert "select: (a.x BETWEEN 2 AND 3)" in scan
    # x = k / 4: rows 8..12, of chunks 2 and 3; the other 8 are pruned.
    assert scan.endswith("[pruned=8/10 chunks] [actual=5 rows]")


@pytest.mark.parametrize("zone_maps", [True, False])
def test_unmatched_rows_never_raise(zone_maps):
    """``a.b / 0 = 1`` raises on every row that reaches the filter.  In an
    INNER join no probe row matches, so row mode returns nothing, and the
    scan, which runs kernels only, must not evaluate it either."""
    db = db_with_rows(zone_maps)
    db.execute("DELETE FROM d")
    sql = "SELECT a.k FROM a JOIN d ON a.j = d.j WHERE a.x > ? AND a.b / 0 = 1"
    assert outcome(db, "row", sql, [1]) == outcome(db, "columnar", sql, [1]) == []


def test_probe_selection_may_skip_a_row_mode_error():
    """Over a NULL ``x``, ``a.x > 100`` is NULL and row mode goes on to
    divide; the scan drops that row, so columnar returns no row.  The
    chunk also holds an ``x`` of 200, so no zone check prunes it."""
    db = db_with_rows()
    db.execute("INSERT INTO a VALUES (40, 0, NULL, 1, 'a'), (41, 5, 200, 2, 'a')")
    sql = "SELECT a.k FROM a JOIN d ON a.j = d.j WHERE a.x > ? AND a.b / 0 = 1"
    assert outcome(db, "row", sql, [100]) == ("ExecutionError", "division by zero")
    assert outcome(db, "columnar", sql, [100]) == []
