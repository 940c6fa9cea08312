"""Row-mode comparison and coercion kernels against their references.

Row mode compares through closures specialised when the expression
compiles: the operator function is picked once, operands of one exact
``int``/``float`` type or two strings take a fast path, column-vs-scalar
shapes read ``row[i]`` and the literal or ``ctx.params[j]`` inline, and
everything else goes through ``_align``.  Application-system and UDTF
boundaries coerce through cached per-type coercers.  ``_align`` plus an
``operator`` function, and ``coerce_into``, stay the reference
semantics, so the properties here compare each specialised path with
its reference value for value, error for error.

The regression classes pin two bugs the same reference exposed:
``IN``/``BETWEEN`` used raw Python ``==``/``<=`` instead of ``=``/``<=``,
and a hash-index probe took ``col = value`` for a raw dict lookup.  Both
run in every execution mode under both optimizers.
"""

from __future__ import annotations

import datetime
import math
import operator
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.fdbs import ast
from repro.fdbs.engine import Database
from repro.fdbs.expr import (
    ColumnSlot,
    EvalContext,
    ExpressionCompiler,
    RowLayout,
    _align,
)
from repro.fdbs.storage import Table
from repro.fdbs.types import (
    BIGINT,
    BOOLEAN,
    CHAR,
    DATE,
    DECIMAL,
    DOUBLE,
    INTEGER,
    SMALLINT,
    VARCHAR,
    coerce_into,
    coercer,
)

OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

LAYOUT = RowLayout([ColumnSlot("t", "a", None), ColumnSlot("t", "b", None)])


class MyInt(int):
    """An int subclass: never on a fast path, always the reference."""


class MyStr(str):
    """A str subclass: never on a fast path, always the reference."""


#: Operand values: NULL, booleans, ints beyond INTEGER (and BIGINT)
#: range, NaN, infinities, signed zeros, exponent Decimals, strings with
#: trailing blanks, dates and subclasses.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 1, -1, 2**31, -(2**31) - 1, 2**63, MyInt(1)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 0.1, math.inf, -math.inf, math.nan]),
    st.sampled_from(
        [Decimal("0.1"), Decimal("1E+2"), Decimal("100"), Decimal("-0"),
         Decimal("1.00"), Decimal("NaN"), Decimal("2.5E-3")]
    ),
    st.sampled_from(["", " ", "ab", "ab  ", "ab\t", "b", "AB", MyStr("ab ")]),
    st.text(alphabet="ab ", max_size=4),
    st.dates(min_value=datetime.date(1999, 12, 30), max_value=datetime.date(2000, 1, 2)),
)


def outcome(thunk) -> tuple:
    """A value with its exact type, or an error's type and message."""
    try:
        value = thunk()
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error).__name__, str(error))
    return ("value", type(value), repr(value))


def reference(op: str, a: object, b: object, node: ast.Expression):
    """``a <op> b`` by definition: NULL in, NULL out; else ``_align``."""
    if a is None or b is None:
        return None
    a, b = _align(a, b, node)
    return OPS[op](a, b)


def compiled(node: ast.Expression):
    return ExpressionCompiler(LAYOUT).compile(node)


COLUMN_A = ast.ColumnRef("t", "a")
COLUMN_B = ast.ColumnRef("t", "b")


class TestComparisonMatchesAlign:
    @settings(max_examples=400, deadline=None)
    @given(op=st.sampled_from(sorted(OPS)), a=VALUES, b=VALUES)
    def test_column_literal(self, op, a, b):
        node = ast.BinaryOp(op, COLUMN_A, ast.Literal(b))
        got = outcome(lambda: compiled(node).fn((a, None), EvalContext()))
        assert got == outcome(lambda: reference(op, a, b, node))

    @settings(max_examples=400, deadline=None)
    @given(op=st.sampled_from(sorted(OPS)), a=VALUES, b=VALUES)
    def test_literal_column(self, op, a, b):
        node = ast.BinaryOp(op, ast.Literal(a), COLUMN_B)
        got = outcome(lambda: compiled(node).fn((None, b), EvalContext()))
        assert got == outcome(lambda: reference(op, a, b, node))

    @settings(max_examples=400, deadline=None)
    @given(op=st.sampled_from(sorted(OPS)), a=VALUES, b=VALUES, flipped=st.booleans())
    def test_column_parameter(self, op, a, b, flipped):
        if flipped:
            node = ast.BinaryOp(op, ast.Parameter(0), COLUMN_A)
            left, right = b, a
        else:
            node = ast.BinaryOp(op, COLUMN_A, ast.Parameter(0))
            left, right = a, b
        got = outcome(lambda: compiled(node).fn((a, None), EvalContext(params=[b])))
        assert got == outcome(lambda: reference(op, left, right, node))

    @settings(max_examples=400, deadline=None)
    @given(op=st.sampled_from(sorted(OPS)), a=VALUES, b=VALUES)
    def test_column_column(self, op, a, b):
        node = ast.BinaryOp(op, COLUMN_A, COLUMN_B)
        got = outcome(lambda: compiled(node).fn((a, b), EvalContext()))
        assert got == outcome(lambda: reference(op, a, b, node))

    @settings(max_examples=200, deadline=None)
    @given(op=st.sampled_from(sorted(OPS)), a=VALUES, b=VALUES)
    def test_general_operands(self, op, a, b):
        """Neither side a leaf: both operands come from child closures."""
        left = ast.FunctionCall("COALESCE", [COLUMN_A])
        right = ast.FunctionCall("COALESCE", [COLUMN_B])
        node = ast.BinaryOp(op, left, right)
        got = outcome(lambda: compiled(node).fn((a, b), EvalContext()))
        assert got == outcome(lambda: reference(op, a, b, node))

    @pytest.mark.parametrize(
        "node",
        [
            ast.BinaryOp("<", COLUMN_A, ast.Parameter(1)),
            ast.BinaryOp("<", ast.Parameter(1), COLUMN_A),
        ],
    )
    def test_unbound_parameter_keeps_its_error(self, node):
        for row in [(1, None), (None, None)]:
            with pytest.raises(ExecutionError, match=r"^statement parameter \?2 was not bound$"):
                compiled(node).fn(row, EvalContext(params=[5]))


#: Every type ``types.py`` defines, at lengths and scales that bite.
TYPES = [
    BOOLEAN, SMALLINT, INTEGER, BIGINT, DOUBLE, DATE,
    DECIMAL(), DECIMAL(5, 2), CHAR(1), CHAR(3), VARCHAR(1), VARCHAR(3), VARCHAR(),
]

COERCE_VALUES = st.one_of(
    VALUES,
    st.sampled_from(
        [2**15, -(2**15) - 1, 2**31 - 1, 2**63 - 1, -(2**63) - 1, MyInt(7), MyInt(2**40),
         "abc", "abcd", "a", "  ", MyStr("abc"), MyStr("ab"), "1", " 12 ", "2000-01-01",
         datetime.datetime(2000, 1, 1, 12, 0), True, False, 1.5, 2.0]
    ),
)


class TestCoercerMatchesCoerceInto:
    @settings(max_examples=1500, deadline=None)
    @given(t=st.sampled_from(TYPES), value=COERCE_VALUES)
    def test_value_type_and_error(self, t, value):
        assert outcome(lambda: coercer(t)(value)) == outcome(lambda: coerce_into(value, t))

    def test_fast_path_returns_the_value_itself(self):
        for t, value in [(INTEGER, 5), (DOUBLE, 2.5), (VARCHAR(3), "ab"), (CHAR(2), "ab")]:
            assert coercer(t)(value) is value

    def test_one_coercer_per_type(self):
        assert coercer(VARCHAR(7)) is coercer(VARCHAR(7))
        assert coercer(DECIMAL(5, 2)) is not coercer(DECIMAL(5, 3))


MODES = ("row", "columnar")
OPTIMIZERS = ("syntactic", "cost")
CONFIGS = [(mode, optimizer) for mode in MODES for optimizer in OPTIMIZERS]


def make_db(mode: str, optimizer: str) -> Database:
    db = Database("kernels", execution_mode=mode, optimizer=optimizer, chunk_size=2)
    db.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, c CHAR(5), v VARCHAR(10), i INT, "
        "b BOOLEAN, f DOUBLE, d DECIMAL(5, 2))"
    )
    rows = [
        (1, "ab", "ab", 5, True, 0.1, Decimal("0.10")),
        (2, "zz", "x", 7, False, 2.5, Decimal("2.50")),
        (3, None, None, None, None, None, None),
        (4, "abc", "ab  ", 9, True, -0.0, Decimal("100")),
    ]
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?)", params=list(row))
    if optimizer == "cost":
        db.execute("RUNSTATS t")
    return db


@pytest.fixture(scope="module")
def dbs():
    return {config: make_db(*config) for config in CONFIGS}


def result(db: Database, sql: str, params=()) -> tuple:
    try:
        return ("rows", sorted(db.execute(sql, params=list(params)).rows, key=repr))
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error).__name__, str(error))


def rows(*keys: int) -> tuple:
    return ("rows", [(k,) for k in keys])


def same_everywhere(dbs, sql: str, params=()) -> tuple:
    """The one outcome every configuration agrees on."""
    seen = {config: result(db, sql, params) for config, db in dbs.items()}
    assert len(set(map(repr, seen.values()))) == 1, seen
    return seen[CONFIGS[0]]


class TestInAndBetweenFollowComparison:
    @pytest.mark.parametrize(
        "where, expected",
        [
            ("c = 'ab'", rows(1)),
            ("c IN ('ab', 'zz')", rows(1, 2)),
            ("c IN ('ab  ')", rows(1)),
            ("c BETWEEN 'ab' AND 'ab'", rows(1)),
            ("c NOT BETWEEN 'ab' AND 'ab'", rows(2, 4)),
            ("v IN ('ab  ')", rows(1, 4)),
            ("v NOT IN ('ab', NULL)", rows()),
            ("v NOT IN ('x')", rows(1, 4)),
            ("i IN (5, 9.0E0)", rows(1, 4)),
            ("i IN (5.0, 1E+2)", rows(1)),
            ("d IN (0.1, 100)", rows(1, 4)),
            ("f IN (0.1)", rows(1)),
            ("f IN (0.0E0)", rows(4)),
            ("f BETWEEN 0.1 AND 0.1", rows(1)),
            ("i BETWEEN 5 AND 'b'", ("error", "ExecutionError",
                                     "cannot compare int with str in (i BETWEEN 5 AND 'b')")),
            ("i BETWEEN 6 AND 'b'", ("error", "ExecutionError",
                                     "cannot compare int with str in (i BETWEEN 6 AND 'b')")),
            ("i BETWEEN 10 AND 'b'", rows()),  # 10 <= i is FALSE first
            ("i NOT BETWEEN NULL AND 6", rows(2, 4)),
            ("i NOT BETWEEN 6 AND NULL", rows(1)),
            ("i BETWEEN NULL AND 6", rows()),
        ],
    )
    def test_rows(self, dbs, where, expected):
        assert same_everywhere(dbs, f"SELECT k FROM t WHERE {where}") == expected

    @pytest.mark.parametrize(
        "where, message",
        [
            ("i BETWEEN 'a' AND 'b'", "cannot compare str with int in (i BETWEEN 'a' AND 'b')"),
            ("b IN (1, 2)", "cannot compare boolean with non-boolean in (b IN (1, 2))"),
            ("b = 1", "cannot compare boolean with non-boolean in (b = 1)"),
            ("i IN (5, 'a')", "cannot compare int with str in (i IN (5, 'a'))"),
        ],
    )
    def test_errors(self, dbs, where, message):
        assert same_everywhere(dbs, f"SELECT k FROM t WHERE {where}") == (
            "error", "ExecutionError", message
        )

    def test_in_matches_before_a_bad_member(self, dbs):
        """``x IN (a, b)`` is ``x = a OR x = b``: a hit stops the scan."""
        assert same_everywhere(dbs, "SELECT k FROM t WHERE k = 1 AND i IN (5, 'a')") == rows(1)

    @pytest.mark.parametrize(
        "where, params",
        [
            ("c IN (?, ?)", ["ab  ", "zz"]),
            ("v IN (?)", ["ab"]),
            ("i IN (?, ?)", [True, 9]),
            ("f IN (?, ?)", [Decimal("0.1"), None]),
            ("i BETWEEN ? AND ?", ["a", "b"]),
            ("i NOT BETWEEN ? AND ?", [None, 6]),
            ("c BETWEEN ? AND ?", ["ab", "ab  "]),
        ],
    )
    def test_parameters_match_literals(self, dbs, where, params):
        literal = where
        for value in params:
            text = "NULL" if value is None else (
                f"'{value}'" if isinstance(value, str) else
                ("TRUE" if value is True else str(value))
            )
            literal = literal.replace("?", text, 1)
        bound = same_everywhere(dbs, f"SELECT k FROM t WHERE {where}", params)
        inlined = same_everywhere(dbs, f"SELECT k FROM t WHERE {literal}")
        if bound[0] == "error":  # the rendered node differs: ? vs literal
            assert inlined[:2] == bound[:2]
        else:
            assert bound == inlined


class TestIndexProbeFollowsEquality:
    @pytest.mark.parametrize(
        "where, expected",
        [
            ("f = 0.1", rows(1)),
            ("f = 0.1 OR k = 99", rows(1)),
            ("d = 0.1", rows(1)),
            ("d = 1E+2", rows(4)),
            ("f = -0.0E0", rows(4)),
            ("i = 5.0", rows(1)),
            ("i = 5", rows(1)),
            ("k = 2", rows(2)),
        ],
    )
    def test_rows(self, dbs, where, expected):
        assert same_everywhere(dbs, f"SELECT k FROM t WHERE {where}") == expected

    def test_projected_comparison_agrees(self, dbs):
        assert same_everywhere(dbs, "SELECT f = 0.1 FROM t WHERE k = 1") == ("rows", [(True,)])

    @pytest.mark.parametrize("where", ["i = 'a'", "i = TRUE", "f = 'x'"])
    def test_type_errors_are_not_swallowed(self, dbs, where):
        scanned = same_everywhere(dbs, f"SELECT k FROM t WHERE {where}")
        projected = same_everywhere(dbs, f"SELECT {where} FROM t")
        assert scanned[:2] == projected[:2] == ("error", "ExecutionError")

    @pytest.mark.parametrize(
        "column, value, expected",
        [
            ("f", Decimal("0.1"), rows(1)),
            ("f", 0.1, rows(1)),
            ("d", 0.1, rows(1)),
            ("d", Decimal("0.1"), rows(1)),
            ("i", Decimal("5.00"), rows(1)),
            ("i", 5.0, rows(1)),
            ("f", math.nan, rows()),
            ("f", None, rows()),
        ],
    )
    def test_bound_values(self, dbs, column, value, expected):
        assert same_everywhere(dbs, f"SELECT k FROM t WHERE {column} = ?", [value]) == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_nan_is_never_found_by_identity(self, mode):
        """A dict lookup or set membership matches the very NaN object
        that was stored; ``=`` never matches NaN."""
        nan = float("nan")
        db = Database("nan", execution_mode=mode)
        db.execute("CREATE TABLE n (k INT, f DOUBLE)")
        db.execute("INSERT INTO n VALUES (1, ?)", params=[nan])
        assert db.execute("SELECT k FROM n WHERE f = ?", params=[nan]).rows == []
        assert db.execute("SELECT k FROM n WHERE f IN (?, ?)", params=[nan, 1.0]).rows == []

    def test_plain_values_stay_on_the_probe(self, dbs, monkeypatch):
        lookups = []
        original = Table.version_index_lookup

        def counting(self, version, column, value):
            lookups.append(value)
            return original(self, version, column, value)

        monkeypatch.setattr(Table, "version_index_lookup", counting)
        db = dbs[("row", "syntactic")]
        assert "IndexLookup(t.k)" in "\n".join(r for r, in db.execute("EXPLAIN SELECT k FROM t WHERE k = ?").rows)
        assert result(db, "SELECT k FROM t WHERE k = ?", [2]) == rows(2)
        assert result(db, "SELECT k FROM t WHERE f = ?", [2.5]) == rows(2)
        assert lookups == [2, 2.5]
        assert result(db, "SELECT k FROM t WHERE f = ?", [Decimal("2.5")]) == rows(2)
        assert result(db, "SELECT k FROM t WHERE i = ?", ["a"])[0] == "error"
        assert lookups == [2, 2.5]  # scanned through the conjunct instead
