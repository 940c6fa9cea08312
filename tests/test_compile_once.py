"""Cold SELECT planning compiles each expression once; ORDER BY sorts on
native keys; layouts resolve names through an index.

The planner hands one ``MemoCompiler`` every form it needs of an
expression: the row form, then, in columnar mode only, the columnar
form, whose types and row-at-a-time fallbacks reuse the row forms already
built.  An INSERT's ``VALUES`` items compile through the plain
``ExpressionCompiler``, once per statement-cache entry.  ``SortPlan``
sorts every key on ``(0, value)`` keys, with fixed keys above every
value for NaN and, above that, NULL;
the properties here check it against a comparison-function reference in
every mode.  A columnar plan run through ``rows`` (as EXPLAIN ANALYZE
runs it) evaluates its row forms and returns the same rows.
``RowLayout.resolve`` reads a name index; its reference is the linear
scan it replaced.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.fdbs import ast
from repro.fdbs.engine import Database
from repro.fdbs.executor import (
    ColumnBatch,
    FilterPlan,
    MergeJoinPlan,
    Plan,
    ProjectPlan,
    SortPlan,
)
from repro.fdbs.expr import (
    ColumnarCompiler,
    ColumnSlot,
    EvalContext,
    ExpressionCompiler,
    MemoCompiler,
    ParamScope,
    RowLayout,
    _align,
)
from repro.fdbs.parser import parse_statement
from repro.fdbs.types import INTEGER, VARCHAR

MODES = ("row", "columnar")


def canon(rows):
    """Rows with floats spelled by their bits and every value typed, so
    ``==`` means identical (``-0.0``, NaN, ``1`` vs ``1.0`` vs ``True``)."""
    return [
        tuple(
            (type(value).__name__, value.hex() if isinstance(value, float) else str(value))
            for value in row
        )
        for row in rows
    ]


# ---------------------------------------------------------------------------
# ORDER BY: native sort keys against a comparison-function reference
# ---------------------------------------------------------------------------


def _rank(value) -> int:
    """0 for an ordinary value, 1 for NaN (float or Decimal), 2 for NULL."""
    if value is None:
        return 2
    if isinstance(value, float) and math.isnan(value):
        return 1
    if isinstance(value, Decimal) and value.is_nan():
        return 1
    return 0


def reference_sorted(rows, keys):
    """``rows`` ordered by ``keys`` (``(position, ascending)`` pairs) as
    one stable sort with a comparison function: NULL above NaN above
    every other value, other values by ``<`` as ``_align`` compares them
    (strings without trailing blanks); DESC reverses each key."""

    def compare(a, b):
        for position, ascending in keys:
            x, y = a[position], b[position]
            rx, ry = _rank(x), _rank(y)
            if rx == ry == 0:
                x, y = _align(x, y, ast.Literal(None))
            if rx != ry:
                result = -1 if rx < ry else 1
            elif rx == 0 and x != y:
                result = -1 if x < y else 1
            else:
                result = 0
            if result:
                return result if ascending else -result
        return 0

    return sorted(rows, key=cmp_to_key(compare))


COLUMNS = ("id", "i", "d", "m", "c", "v", "b")
DDL = (
    "CREATE TABLE t (id INT, i INT, d DOUBLE, m DECIMAL(8,2), "
    "c CHAR(3), v VARCHAR(4), b BOOLEAN)"
)

#: One strategy per non-id column of ``t``.  DECIMAL holds ints and
#: Decimals (NaN and a negative zero among them); CHAR values are
#: blank-padded by storage, VARCHAR keeps trailing blanks.
COLUMN_VALUES = (
    st.one_of(st.none(), st.integers(min_value=-4, max_value=4)),
    st.one_of(
        st.none(),
        st.sampled_from([0.0, -0.0, 0.5, -2.0, math.inf, -math.inf, math.nan]),
        st.floats(min_value=-4, max_value=4),
    ),
    st.one_of(
        st.none(),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from(
            [Decimal("1.50"), Decimal("-2"), Decimal("0.00"), Decimal("-0"), Decimal("NaN")]
        ),
    ),
    st.one_of(st.none(), st.sampled_from(["", "a", "ab", "ab ", " a", "b", "B"])),
    st.one_of(st.none(), st.sampled_from(["", "a", "ab", "ab ", "ab  ", "b", "B"])),
    st.one_of(st.none(), st.booleans()),
)

TABLE_ROWS = st.lists(st.tuples(*COLUMN_VALUES), max_size=18)
ORDER_KEYS = st.lists(
    st.tuples(st.sampled_from(COLUMNS[1:]), st.booleans()), min_size=1, max_size=3
)


def load(mode, rows):
    """A database in ``mode`` holding ``rows`` in ``t``, ids 0..n-1."""
    db = Database("sort", execution_mode=mode)
    db.execute(DDL)
    if rows:
        db.execute_many(
            "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?)",
            [(index, *row) for index, row in enumerate(rows)],
        )
    return db


def order_clause(keys):
    return ", ".join(f"{column} {'ASC' if asc else 'DESC'}" for column, asc in keys)


class TestSortSemantics:
    def test_nan_sorts_above_every_number_and_below_null(self):
        """3.0, NaN, 1.0, 2.0, NULL, 0.5 used to come back with NaN's
        neighbours unsorted (NaN compares false both ways)."""
        values = [3.0, math.nan, 1.0, 2.0, None, 0.5]
        for mode in MODES:
            db = Database("nan", execution_mode=mode)
            db.execute("CREATE TABLE t (d DOUBLE)")
            db.execute_many("INSERT INTO t VALUES (?)", [(v,) for v in values])
            ascending = [row[0] for row in db.execute("SELECT d FROM t ORDER BY d").rows]
            descending = [
                row[0] for row in db.execute("SELECT d FROM t ORDER BY d DESC").rows
            ]
            assert ascending[:4] == [0.5, 1.0, 2.0, 3.0], mode
            assert math.isnan(ascending[4]) and ascending[5] is None, mode
            assert descending[0] is None and math.isnan(descending[1]), mode
            assert descending[2:] == [3.0, 2.0, 1.0, 0.5], mode

    def test_decimal_nan_sorts_without_raising(self):
        values = [Decimal("2.50"), Decimal("NaN"), None, 1, Decimal("-0.75")]
        for mode in MODES:
            db = Database("dnan", execution_mode=mode)
            db.execute("CREATE TABLE t (m DECIMAL(8,2))")
            db.execute_many("INSERT INTO t VALUES (?)", [(v,) for v in values])
            got = [row[0] for row in db.execute("SELECT m FROM t ORDER BY m").rows]
            assert got[:3] == [Decimal("-0.75"), 1, Decimal("2.50")], mode
            assert got[3].is_nan() and got[4] is None, mode

    @settings(max_examples=60, deadline=None)
    @given(rows=TABLE_ROWS, keys=ORDER_KEYS, project_all=st.booleans())
    def test_order_by_equals_reference_in_every_mode(self, rows, keys, project_all):
        """Multi-key ASC/DESC over NULLs, NaN, signed zeros, mixed int and
        Decimal, padded CHAR/VARCHAR and booleans; ties keep scan order.
        Projecting only ``id`` sorts on hidden key columns instead."""
        base = load("row", rows).execute(f"SELECT {', '.join(COLUMNS)} FROM t").rows
        positions = [(COLUMNS.index(column), asc) for column, asc in keys]
        expected = reference_sorted(base, positions)
        select = ", ".join(COLUMNS) if project_all else "id"
        sql = f"SELECT {select} FROM t ORDER BY {order_clause(keys)}"
        if not project_all:
            expected = [row[:1] for row in expected]
        for mode in MODES:
            assert canon(load(mode, rows).execute(sql).rows) == canon(expected), mode

    @settings(max_examples=40, deadline=None)
    @given(rows=TABLE_ROWS, ascending=st.booleans(), by_id=st.booleans())
    def test_union_of_int_double_decimal_equals_reference(self, rows, ascending, by_id):
        """One sort key holding ints, floats and Decimals (the UNION's
        ORDER BY path), NaN of both kinds included."""
        direction = "ASC" if ascending else "DESC"
        order = f"2 {direction}, 1" if by_id else f"2 {direction}"
        sql = (
            "SELECT id, d FROM t UNION ALL SELECT id, m FROM t "
            f"UNION ALL SELECT id, i FROM t ORDER BY {order}"
        )
        base = load("row", rows).execute(f"SELECT {', '.join(COLUMNS)} FROM t").rows
        union = [(r[0], r[2]) for r in base] + [(r[0], r[3]) for r in base]
        union += [(r[0], r[1]) for r in base]
        keys = [(1, ascending)] + ([(0, True)] if by_id else [])
        expected = canon(reference_sorted(union, keys))
        for mode in MODES:
            assert canon(load(mode, rows).execute(sql).rows) == expected, mode


class _Rows(Plan):
    """A plan over fixed rows, chunked ``size`` at a time."""

    def __init__(self, rows, width):
        self.schema = [ColumnSlot("s", f"k{i}", None) for i in range(width)]
        self.data = rows

    def rows(self, ctx):
        yield from self.data

    def column_batches(self, ctx, size=1024):
        for start in range(0, len(self.data), size):
            chunk = self.data[start : start + size]
            yield ColumnBatch(len(chunk), rows=chunk)


#: Numbers of every kind in one column: the sort compares them exactly.
MIXED_NUMBERS = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.5, -1.0, math.inf, math.nan, 2.0]),
    st.sampled_from(
        [Decimal("1.5"), Decimal("-0"), Decimal("2"), Decimal("NaN"), Decimal("1E+1")]
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.tuples(MIXED_NUMBERS, MIXED_NUMBERS), max_size=30),
    directions=st.tuples(st.booleans(), st.booleans()),
    callable_key=st.booleans(),
    size=st.sampled_from([1, 3, 1024]),
)
def test_sort_plan_protocols_equal_reference(values, directions, callable_key, size):
    """``rows`` and ``column_batches`` of a two-key sort on
    mixed int/float/Decimal columns (the third column numbers the input,
    so ties must keep it ascending); the first key is a position or a
    ``(row, ctx)`` closure."""
    rows = [(a, b, index) for index, (a, b) in enumerate(values)]
    first = (lambda row, ctx: row[0]) if callable_key else 0
    plan = SortPlan(_Rows(rows, 3), [(first, directions[0]), (1, directions[1])])
    expected = canon(reference_sorted(rows, [(0, directions[0]), (1, directions[1])]))
    ctx = EvalContext()
    assert canon(plan.rows(ctx)) == expected
    assert canon(
        row for batch in plan.column_batches(ctx, size) for row in batch.rows_view()
    ) == expected


# ---------------------------------------------------------------------------
# Planning compiles each (compiler, node) pair once
# ---------------------------------------------------------------------------


def planning_db(mode, optimizer):
    db = Database("once", execution_mode=mode, optimizer=optimizer)
    db.execute_script(
        """
        CREATE TABLE f (id INT PRIMARY KEY, g INT, h VARCHAR(6), x DOUBLE, n INT);
        CREATE TABLE dim (k INT, region INT, label VARCHAR(4));
        """
    )
    db.execute_many(
        "INSERT INTO f VALUES (?, ?, ?, ?, ?)",
        [
            (i, i % 5, ("ab", "b ", "abc", None)[i % 4], (i % 7) / 2 or None, i % 3)
            for i in range(40)
        ],
    )
    db.execute_many(
        "INSERT INTO dim VALUES (?, ?, ?)",
        [(k, k % 3, ("n", "s", "e", "w", None)[k]) for k in range(5)],
    )
    if optimizer == "cost":
        db.execute("RUNSTATS f")
        db.execute("RUNSTATS dim")
    return db


PLANNED_QUERIES = {
    "aggregate": (
        "SELECT dim.label, COUNT(*), SUM(f.n) "
        "FROM f JOIN dim ON f.g = dim.k AND f.n <= dim.region + 1 "
        "WHERE f.x IS NOT NULL AND f.g IN (SELECT k FROM dim WHERE region < 2) "
        "GROUP BY dim.label HAVING COUNT(*) > 0 "
        "ORDER BY MAX(f.n) DESC, dim.label"
    ),
    "hidden_keys": (
        "SELECT f.id, UPPER(f.h) AS u FROM f, dim "
        "WHERE f.g = dim.k AND f.x > 0.5 AND f.h LIKE 'a%' "
        "ORDER BY dim.region DESC, f.x + f.n, u, f.id"
    ),
    "union": (
        "SELECT id, n FROM f WHERE n BETWEEN 1 AND 5 AND id IN (1, 2, 3, 30) "
        "UNION ALL SELECT k, region FROM dim ORDER BY 2 DESC, id"
    ),
}


def planned(db, sql, monkeypatch):
    """Rows of ``sql`` (a cold plan), each real compile as a (compiler,
    node) count, and the chunk compilers built, by class name.

    ``ExpressionCompiler.compile`` compiles; a ``MemoCompiler`` calls it
    only for a node it has not compiled yet."""
    compiles: Counter = Counter()
    chunk_compilers: Counter = Counter()
    alive = []  # keeps compilers and nodes alive, so ids stay unique
    compile_ = ExpressionCompiler.compile
    init = ColumnarCompiler.__init__

    def counted_compile(self, node):
        alive.append((self, node))
        compiles[(id(self), id(node))] += 1
        return compile_(self, node)

    def counted_init(self, row_compiler):
        chunk_compilers[type(self).__name__] += 1
        init(self, row_compiler)

    with monkeypatch.context() as patch:
        patch.setattr(ExpressionCompiler, "compile", counted_compile)
        patch.setattr(ColumnarCompiler, "__init__", counted_init)
        rows = db.execute(sql).rows
    return rows, compiles, chunk_compilers


class TestCompileOnce:
    @pytest.mark.parametrize("optimizer", ["syntactic", "cost"])
    @pytest.mark.parametrize("name", sorted(PLANNED_QUERIES))
    def test_no_pair_compiled_twice_and_only_the_modes_forms(
        self, name, optimizer, monkeypatch
    ):
        sql = PLANNED_QUERIES[name]
        results = {}
        for mode in MODES:
            rows, compiles, chunk_compilers = planned(
                planning_db(mode, optimizer), sql, monkeypatch
            )
            results[mode] = canon(rows)
            assert compiles, mode
            assert max(compiles.values()) == 1, (mode, compiles.most_common(3))
            if mode == "row":
                assert not chunk_compilers
            else:
                assert set(chunk_compilers) == {"ColumnarCompiler"}
        assert results["row"], name
        assert results["columnar"] == results["row"]

    def test_cast_function_reuses_its_form(self, monkeypatch):
        """``BIGINT(x)`` compiles as a cast of its argument; its memoised
        form still answers for the call node."""
        db = planning_db("columnar", "syntactic")
        rows, compiles, _ = planned(
            db, "SELECT BIGINT(n) + 1 FROM f WHERE BIGINT(g) > 2 ORDER BY 1", monkeypatch
        )
        assert max(compiles.values()) == 1
        assert rows == sorted(rows) and len(rows) == 16

    def test_1500_marker_insert_evaluates_every_marker(self, monkeypatch):
        """A 250-row, six-column load INSERT compiles its 1,500 ``?``
        markers once each, through the plain compiler."""
        db = Database("wide")
        db.execute("CREATE TABLE w (a INT, b INT, c VARCHAR(8), d DOUBLE, e INT, f INT)")
        rows = [(i, -i, f"r{i}", i / 4, i * 3, None) for i in range(250)]
        sql = "INSERT INTO w VALUES " + ", ".join(["(?, ?, ?, ?, ?, ?)"] * 250)
        compilers = []
        compile_ = ExpressionCompiler.compile

        def recorded(self, node):
            compilers.append(self)
            return compile_(self, node)

        with monkeypatch.context() as patch:
            patch.setattr(ExpressionCompiler, "compile", recorded)
            assert db.execute(sql, params=[v for row in rows for v in row]).rowcount == 250
        assert len(compilers) == 1500
        assert not any(isinstance(compiler, MemoCompiler) for compiler in compilers)
        assert db.execute("SELECT * FROM w").rows == rows


# ---------------------------------------------------------------------------
# Columnar plans run through the row protocol
# ---------------------------------------------------------------------------


def columnar_plan(db, sql):
    """The plan ``db`` (in columnar mode) builds for ``sql``, and a
    context to run it in."""
    plan = db._planner().plan_select(parse_statement(sql))
    return plan, EvalContext(params=[], snapshot=db.pin_snapshot(), database=db)


def walk(plan):
    yield plan
    for child in plan._children():
        yield from walk(child)


class TestColumnarPlansOnTheRowProtocol:
    """A columnar plan carries columnar forms next to its row forms.
    Run through ``rows`` (EXPLAIN ANALYZE does), or pulled row by row
    through the default ``column_batches`` of an operator without a
    columnar form, it evaluates its row forms per row, with the same
    rows as the columnar protocol."""

    @pytest.mark.parametrize("optimizer", ["syntactic", "cost"])
    @pytest.mark.parametrize("name", sorted(PLANNED_QUERIES))
    def test_rows_equal_column_batches(self, name, optimizer):
        db = planning_db("columnar", optimizer)
        plan, ctx = columnar_plan(db, PLANNED_QUERIES[name])
        forms = [
            node.selection if isinstance(node, FilterPlan) else node.columnar_exprs
            for node in walk(plan)
            if isinstance(node, (FilterPlan, ProjectPlan))
        ]
        assert any(form is not None for form in forms)
        rows = list(plan.rows(ctx))
        assert rows
        assert [
            row for batch in plan.column_batches(ctx, 7) for row in batch.rows_view()
        ] == rows

    def test_merge_join_left_side_returns_the_row_mode_rows(self):
        """A columnar Filter + Project under a merge join's left side:
        the join pulls it through ``column_batches`` and merges on the
        key column of its output."""
        db = planning_db("columnar", "syntactic")
        left, ctx = columnar_plan(db, "SELECT id, g FROM f WHERE x > 1 AND h <> 'b'")
        right, _ = columnar_plan(db, "SELECT k, label FROM dim")
        chunk_forms = {
            type(node).__name__: node
            for node in walk(left)
            if isinstance(node, (FilterPlan, ProjectPlan))
        }
        assert chunk_forms["FilterPlan"].selection is not None
        assert chunk_forms["ProjectPlan"].columnar_exprs is not None
        left_key = ExpressionCompiler(RowLayout(left.schema)).compile(
            ast.ColumnRef(None, "g")
        )
        join = MergeJoinPlan(left, right, left_key, 0, "g")
        joined = [
            row for batch in join.column_batches(ctx, 4) for row in batch.rows_view()
        ]
        assert join.sorts_applied + join.presorted_inputs == 1
        expected = planning_db("row", "syntactic").execute(
            "SELECT f.id, f.g, dim.k, dim.label FROM f, dim "
            "WHERE f.x > 1 AND f.h <> 'b' AND f.g = dim.k"
        ).rows
        assert expected
        assert joined == expected


# ---------------------------------------------------------------------------
# RowLayout.resolve against the linear scan it replaced
# ---------------------------------------------------------------------------


def linear_resolve(layout, qualifier, name):
    """The reference: scan every slot, comparing upper-cased names."""
    target = name.upper()
    qual = qualifier.upper() if qualifier else None
    matches = [
        (index, slot)
        for index, slot in enumerate(layout.slots)
        if slot.name.upper() == target
        and (qual is None or (slot.alias or "").upper() == qual)
    ]
    if not matches:
        return None
    if len(matches) > 1:
        shown = qualifier + "." + name if qualifier else name
        raise PlanError(f"ambiguous column reference {shown!r}")
    return matches[0]


def outcome(thunk):
    """A result, or an error's type and message."""
    try:
        return ("value", thunk())
    except PlanError as error:
        return ("error", str(error))


LAYOUT = RowLayout(
    [
        ColumnSlot("s", "SupplierNo", INTEGER),
        ColumnSlot("s", "Name", VARCHAR(10)),
        ColumnSlot("P", "supplierno", INTEGER),
        ColumnSlot(None, "$g0", INTEGER),
    ]
)


class TestResolve:
    @pytest.mark.parametrize(
        "qualifier, name",
        [
            ("s", "supplierno"),
            ("S", "SUPPLIERNO"),
            ("p", "SupplierNo"),
            (None, "name"),
            (None, "NAME"),
            ("s", "name"),
            (None, "$G0"),
            ("", "name"),
        ],
    )
    def test_hits_match_the_linear_scan(self, qualifier, name):
        got = LAYOUT.resolve(qualifier, name)
        assert got is not None
        assert got == linear_resolve(LAYOUT, qualifier, name)

    @pytest.mark.parametrize(
        "qualifier, name",
        [(None, "missing"), ("q", "name"), ("p", "name"), ("s", "$g0"), ("s", "")],
    )
    def test_misses_are_none(self, qualifier, name):
        assert LAYOUT.resolve(qualifier, name) is None
        assert linear_resolve(LAYOUT, qualifier, name) is None

    def test_one_name_under_two_aliases_is_ambiguous_unqualified(self):
        with pytest.raises(PlanError) as got:
            LAYOUT.resolve(None, "SUPPLIERNO")
        with pytest.raises(PlanError) as expected:
            linear_resolve(LAYOUT, None, "SUPPLIERNO")
        assert str(got.value) == str(expected.value)
        assert str(got.value) == "ambiguous column reference 'SUPPLIERNO'"

    def test_a_repeated_alias_is_ambiguous_qualified(self):
        layout = RowLayout([ColumnSlot("a", "x", None), ColumnSlot("A", "X", None)])
        with pytest.raises(PlanError, match=r"ambiguous column reference 'a\.x'"):
            layout.resolve("a", "x")

    def test_parameters_resolve_when_no_column_does(self):
        """Function parameters (qualified by the function name or not)
        answer only for names the layout does not hold."""
        scope = ParamScope("BuySuppComp", {"SUPPLIERNO": (0, INTEGER), "QTY": (1, INTEGER)})
        compiler = ExpressionCompiler(RowLayout([ColumnSlot("s", "qty", INTEGER)]), scope)
        ctx = EvalContext(params=[7, 9])
        row = (3,)
        for qualifier, name, value in [
            ("buysuppcomp", "SupplierNo", 7),
            (None, "supplierno", 7),
            (None, "QTY", 3),
            ("s", "qty", 3),
            ("BUYSUPPCOMP", "qty", 9),
        ]:
            assert compiler.compile(ast.ColumnRef(qualifier, name)).fn(row, ctx) == value
        with pytest.raises(PlanError, match="cannot resolve reference"):
            compiler.compile(ast.ColumnRef("other", "qty"))

    @settings(max_examples=300, deadline=None)
    @given(
        slots=st.lists(
            st.tuples(
                st.sampled_from([None, "a", "A", "b", "ab"]),
                st.sampled_from(["x", "X", "y", "xY"]),
            ),
            max_size=6,
        ),
        lookups=st.lists(
            st.tuples(
                st.sampled_from([None, "", "a", "B", "AB", "z"]),
                st.sampled_from(["x", "Y", "XY", "q"]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_index_equals_linear_scan(self, slots, lookups):
        layout = RowLayout([ColumnSlot(alias, name, None) for alias, name in slots])
        for qualifier, name in lookups:
            assert outcome(lambda: layout.resolve(qualifier, name)) == outcome(
                lambda: linear_resolve(layout, qualifier, name)
            )
