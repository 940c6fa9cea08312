"""One value key for ``=``, joins, GROUP BY, DISTINCT, UNION and ORDER BY.

``repro.fdbs.types`` owns value identity: character values drop trailing
blanks (blanks only), every NaN maps to one key, and integer, BOOLEAN
and DATE values are their own key.  ``=`` compares by that key, joins
match by it (a NULL or NaN key matches nothing), grouping and
deduplication key on it and keep the first value in input order, and
ORDER BY sorts on it.  Everything here runs in both execution modes and
under both optimizers.
"""

from __future__ import annotations

import datetime
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdbs import ast
from repro.fdbs.engine import Database
from repro.fdbs.expr import ColumnSlot, EvalContext, ExpressionCompiler, RowLayout
from repro.fdbs.federation import DatabaseEndpoint
from repro.fdbs.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DECIMAL,
    DOUBLE,
    VARCHAR,
    sort_key,
    value_key,
)
from repro.sysmodel.machine import Machine

MODES = ("row", "columnar")
OPTIMIZERS = ("syntactic", "cost")

#: Values of ``t.v`` and ``u.w``: one value spelt with and without a
#: trailing blank.
T_ROWS = ["ab", "ab ", "ab"]
U_ROWS = ["ab "]


def padded_db(mode, optimizer, first="ab"):
    """``t.v`` holds ``first`` then the other spelling twice over, and
    ``u.w`` holds ``'ab '``."""
    rows = T_ROWS if first == "ab" else ["ab ", "ab", "ab"]
    db = Database("pad", execution_mode=mode, optimizer=optimizer)
    db.execute("CREATE TABLE t (id INT, v VARCHAR(4))")
    db.execute("CREATE TABLE u (w VARCHAR(4))")
    db.execute_many("INSERT INTO t VALUES (?, ?)", list(enumerate(rows)))
    db.execute_many("INSERT INTO u VALUES (?)", [(w,) for w in U_ROWS])
    if optimizer == "cost":
        db.execute("RUNSTATS t")
        db.execute("RUNSTATS u")
    return db


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("mode", MODES)
class TestTrailingBlanks:
    def test_equality_join_and_in_count_every_spelling(self, mode, optimizer):
        db = padded_db(mode, optimizer)
        for sql in (
            "SELECT COUNT(*) FROM t WHERE v = 'ab'",
            "SELECT COUNT(*) FROM t JOIN u ON v = w",
            "SELECT COUNT(*) FROM t, u WHERE v = w",
            "SELECT COUNT(*) FROM t WHERE v IN (SELECT w FROM u)",
            "SELECT COUNT(*) FROM t WHERE v IN ('ab ', 'x')",
        ):
            assert db.execute(sql).rows == [(3,)], sql

    @pytest.mark.parametrize("first", ["ab", "ab "])
    def test_one_group_one_distinct_value_one_union_row(self, mode, optimizer, first):
        db = padded_db(mode, optimizer, first)
        assert db.execute("SELECT v, COUNT(*) FROM t GROUP BY v").rows == [(first, 3)]
        assert db.execute("SELECT COUNT(DISTINCT v) FROM t").rows == [(1,)]
        assert db.execute("SELECT DISTINCT v FROM t").rows == [(first,)]
        assert db.execute("SELECT v FROM t UNION SELECT w FROM u").rows == [(first,)]
        assert db.execute("SELECT w FROM u UNION SELECT v FROM t").rows == [("ab ",)]

    def test_order_by_keeps_spellings_in_scan_order(self, mode, optimizer):
        db = padded_db(mode, optimizer)
        db.execute("INSERT INTO t VALUES (3, 'aa'), (4, 'ab  ')")
        rows = db.execute("SELECT id FROM t ORDER BY v, id DESC").rows
        assert rows == [(3,), (4,), (2,), (1,), (0,)]

    def test_only_blanks_pad(self, mode, optimizer):
        db = Database("tab", execution_mode=mode, optimizer=optimizer)
        db.execute("CREATE TABLE t (v VARCHAR(4), c CHAR(4))")
        db.execute_many("INSERT INTO t VALUES (?, ?)", [("ab", "ab"), ("ab\t", "ab\t")])
        assert db.execute("SELECT COUNT(*) FROM t WHERE v = 'ab'").rows == [(1,)]
        assert db.execute("SELECT COUNT(*) FROM t WHERE c = 'ab'").rows == [(1,)]
        assert db.execute("SELECT COUNT(*) FROM t WHERE v = c").rows == [(2,)]
        assert db.execute("SELECT COUNT(*) FROM t WHERE 'ab\t' = 'ab'").rows == [(0,)]
        grouped = db.execute("SELECT v, COUNT(*) FROM t GROUP BY v").rows
        assert grouped == [("ab", 1), ("ab\t", 1)]
        assert db.execute("SELECT COUNT(DISTINCT c) FROM t").rows == [(2,)]


def nan_db(mode, optimizer, column_type="DOUBLE", values=None):
    """``t(k, m)`` over ``values`` (1.0 and two distinct NaN objects by
    default), RUNSTATS taken under the cost optimizer."""
    if values is None:
        values = [1.0, float("nan"), float("nan")]
    db = Database("nan", execution_mode=mode, optimizer=optimizer)
    db.execute(f"CREATE TABLE t (k INT, m {column_type})")
    db.execute_many("INSERT INTO t VALUES (?, ?)", [(i + 1, v) for i, v in enumerate(values)])
    if optimizer == "cost":
        db.execute("RUNSTATS t")
    return db


def is_nan(value):
    return value is not None and value != value


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("mode", MODES)
class TestNaNGroups:
    @pytest.mark.parametrize(
        "column_type,nan", [("DOUBLE", lambda: float("nan")), ("DECIMAL(8,2)", lambda: Decimal("NaN"))]
    )
    def test_every_nan_is_one_group_and_one_distinct_value(
        self, mode, optimizer, column_type, nan
    ):
        db = nan_db(mode, optimizer, column_type, [nan(), 1, nan(), 1])
        groups = db.execute("SELECT m, COUNT(*), MIN(k) FROM t GROUP BY m").rows
        assert len(groups) == 2
        assert is_nan(groups[0][0]) and groups[0][1:] == (2, 1)
        assert groups[1][0] == 1 and groups[1][1:] == (2, 2)
        assert db.execute("SELECT COUNT(DISTINCT m) FROM t").rows == [(2,)]
        distinct = db.execute("SELECT DISTINCT m FROM t").rows
        assert len(distinct) == 2 and is_nan(distinct[0][0])
        union = db.execute("SELECT m FROM t UNION SELECT m FROM t").rows
        assert len(union) == 2
        # ``=`` still holds between no two NaNs.
        assert db.execute("SELECT COUNT(*) FROM t WHERE m = m").rows == [(2,)]

    def test_a_double_and_a_decimal_nan_are_one_union_row(self, mode, optimizer):
        db = nan_db(mode, optimizer, values=[float("nan"), 2.0])
        db.execute("CREATE TABLE e (m DECIMAL(8,2))")
        db.execute_many("INSERT INTO e VALUES (?)", [(Decimal("NaN"),), (2,)])
        union = db.execute("SELECT m FROM t UNION SELECT m FROM e").rows
        assert len(union) == 2 and is_nan(union[0][0]) and union[1] == (2.0,)


JOIN_STRATEGIES = ("nlj", "hash", "merge", "indexnlj")


@pytest.mark.parametrize("strategy", JOIN_STRATEGIES)
@pytest.mark.parametrize("mode", MODES)
def test_nan_self_join_matches_nothing_under_every_strategy(mode, strategy):
    """A NULL or NaN join key matches nothing, whether the hash table,
    the merge cursor or the index probe sees it; the same NaN object on
    both sides included."""
    expected = [(1, 1)]
    db = nan_db(mode, "cost", values=[1.0, float("nan"), float("nan"), None])
    db.configure(join_strategy=strategy)
    sql = "SELECT x.k, y.k FROM t AS x, t AS y WHERE x.m = y.m"
    shape = "Filter(on (x.m = y.m))" if strategy == "nlj" else f"join={strategy}"
    assert shape in db.explain(sql)
    assert db.execute(sql).rows == expected
    explicit = "SELECT x.k, y.k FROM t AS x JOIN t AS y ON x.m = y.m"
    assert db.execute(explicit).rows == expected


@pytest.mark.parametrize("mode", MODES)
def test_padded_character_keys_join_alike_under_every_strategy(mode):
    """A forced index nested-loop join probes the inner column's index
    with padded and unpadded keys and finds the rows hash and merge do."""
    db = Database("padjoin", execution_mode=mode, optimizer="cost")
    db.execute("CREATE TABLE a (i INT, s VARCHAR(6))")
    db.execute("CREATE TABLE b (j INT, c CHAR(4))")
    db.execute_many(
        "INSERT INTO a VALUES (?, ?)",
        [(1, "ab"), (2, "ab  "), (3, "ab\t"), (4, None), (5, ""), (6, "x")],
    )
    db.execute_many(
        "INSERT INTO b VALUES (?, ?)",
        [(10, "ab "), (11, "ab"), (12, "ab\t"), (13, " "), (14, None)],
    )
    db.execute("RUNSTATS a")
    db.execute("RUNSTATS b")
    sql = "SELECT a.i, b.j FROM a, b WHERE a.s = b.c"
    results = {}
    for strategy in ("indexnlj", "hash", "merge", "nlj"):
        db.configure(join_strategy=strategy)
        if strategy != "nlj":
            assert f"join={strategy}" in db.explain(sql)
        results[strategy] = sorted(db.execute(sql).rows)
    expected = [(1, 10), (1, 11), (2, 10), (2, 11), (3, 12), (5, 13)]
    assert all(rows == expected for rows in results.values()), results


@pytest.mark.parametrize("mode", MODES)
def test_nan_keys_are_neither_shipped_nor_matched_by_the_bind_join(mode):
    nan = float("nan")
    db = Database("fed", machine=Machine(), execution_mode=mode, optimizer="cost")
    db.execute("CREATE TABLE l (k INT, m DOUBLE)")
    db.execute_many("INSERT INTO l VALUES (?, ?)", [(1, 1.0), (2, nan), (3, None)])
    remote = Database("remote")
    remote.execute("CREATE TABLE r (m DOUBLE, v INT)")
    remote.execute_many(
        "INSERT INTO r VALUES (?, ?)",
        [(float(i % 50), i) for i in range(400)] + [(nan, -1)],
    )
    db.execute("CREATE WRAPPER w")
    db.execute("CREATE SERVER s WRAPPER w")
    db.attach_endpoint("s", DatabaseEndpoint(remote))
    db.execute("CREATE NICKNAME n FOR s.r")
    db.execute("RUNSTATS l")
    db.execute("RUNSTATS n")
    sql = "SELECT l.k, n.v FROM l, n WHERE l.m = n.m"
    assert "BindJoin(n, bind: m)" in db.explain(sql)
    assert db.execute(sql).rows == [(1, v) for v in range(1, 400, 50)]


@pytest.mark.parametrize("mode", MODES)
def test_infinite_and_negative_zero_keys_ship_to_the_bind_join(mode):
    """A bind key renders as SQL text that parses back to the key: ``inf``
    used to ship as a bare word, which the remote could not resolve."""
    inf = float("inf")
    db = Database("fed", machine=Machine(), execution_mode=mode, optimizer="cost")
    db.execute("CREATE TABLE l (k INT, m DOUBLE)")
    db.execute_many("INSERT INTO l VALUES (?, ?)", [(1, 1.0), (2, inf), (3, -0.0), (4, -inf)])
    remote = Database("remote")
    remote.execute("CREATE TABLE r (m DOUBLE, v INT)")
    remote.execute_many(
        "INSERT INTO r VALUES (?, ?)",
        [(float(i % 50), i) for i in range(400)] + [(inf, -1), (0.0, -2)],
    )
    db.execute("CREATE WRAPPER w")
    db.execute("CREATE SERVER s WRAPPER w")
    db.attach_endpoint("s", DatabaseEndpoint(remote))
    db.execute("CREATE NICKNAME n FOR s.r")
    db.execute("RUNSTATS l")
    db.execute("RUNSTATS n")
    sql = "SELECT l.k, n.v FROM l, n WHERE l.m = n.m"
    assert "BindJoin(n, bind: m)" in db.explain(sql)
    expected = [(1, v) for v in range(1, 400, 50)] + [(2, -1)]
    expected += [(3, v) for v in range(0, 400, 50)] + [(3, -2)]
    assert db.execute(sql).rows == expected


class TestRunstatsReadsKeys:
    def test_nan_breaks_sorted_and_the_merge_join_sorts(self):
        db = nan_db("row", "cost", values=[1.0, float("nan"), 0.5, 2.0])
        stats = db.catalog.get_statistics("t").columns["M"]
        assert not stats.sorted_asc
        assert stats.ndv == 4
        db.configure(join_strategy="merge")
        text = db.explain("SELECT x.k, y.k FROM t AS x, t AS y WHERE x.m = y.m")
        assert "MergeJoin(INNER, on (x.m = y.m), join=merge, input=sort)" in text

    def test_bounds_are_never_nan(self):
        """NaN first used to leave both bounds NaN; over a NaN they are
        unknown, as the chunk zone maps' are."""
        db = nan_db("row", "cost", values=[float("nan"), 1.0, 0.5, 2.0])
        stats = db.catalog.get_statistics("t").columns["M"]
        assert stats.min_value is None and stats.max_value is None
        assert not stats.sorted_asc

    def test_ndv_counts_keys(self):
        db = padded_db("row", "cost")
        stats = db.catalog.get_statistics("t").columns["V"]
        assert stats.ndv == 1 and stats.sorted_asc
        db = nan_db("row", "cost")
        assert db.catalog.get_statistics("t").columns["M"].ndv == 2


# ---------------------------------------------------------------------------
# The key agrees with = and < value for value
# ---------------------------------------------------------------------------

#: Per type, the non-NULL, non-NaN values of ``tests/test_row_kernels.py``'s
#: operand pool.
POOLS = {
    BIGINT: st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.sampled_from([0, 1, -1, 2**31, -(2**31) - 1]),
    ),
    DOUBLE: st.one_of(
        st.floats(allow_nan=False, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1.0, 0.1, math.inf, -math.inf]),
    ),
    DECIMAL(): st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.sampled_from(
            [Decimal("0.1"), Decimal("1E+2"), Decimal("100"), Decimal("-0"),
             Decimal("1.00"), Decimal("2.5E-3")]
        ),
    ),
    VARCHAR(8): st.one_of(
        st.sampled_from(["", " ", "ab", "ab  ", "ab\t", "b", "AB"]),
        st.text(alphabet="ab \t", max_size=4),
    ),
    BOOLEAN: st.booleans(),
    DATE: st.dates(
        min_value=datetime.date(1999, 12, 30), max_value=datetime.date(2000, 1, 2)
    ),
}

LAYOUT = RowLayout([ColumnSlot("t", "a", None), ColumnSlot("t", "b", None)])


def compare(op, a, b):
    node = ast.BinaryOp(op, ast.ColumnRef("t", "a"), ast.ColumnRef("t", "b"))
    return ExpressionCompiler(LAYOUT).compile(node).fn((a, b), EvalContext())


@pytest.mark.parametrize("sql_type", list(POOLS), ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_equal_and_less_agree_with_the_keys(sql_type, data):
    a = data.draw(POOLS[sql_type])
    b = data.draw(POOLS[sql_type])
    key = value_key(sql_type) or (lambda value: value)
    assert compare("=", a, b) is (key(a) == key(b))
    assert compare("<", a, b) is (sort_key(a) < sort_key(b))


# ---------------------------------------------------------------------------
# An index probe finds what the scan finds
# ---------------------------------------------------------------------------

_STRINGS = st.sampled_from(["ab", "ab ", "ab  ", "ab\t", "", " ", "b", "AB"])
_DOUBLES = st.sampled_from([0.0, -0.0, 1.0, 0.1, 2.5, math.nan, math.inf])
_DECIMALS = st.sampled_from(
    [Decimal("0"), Decimal("-0.00"), Decimal("1.00"), Decimal("0.10"), Decimal("NaN"), 1]
)

#: Per column type: the values rows hold, and the values bound against
#: the column, which add NULL and values of other types (a probe must
#: compare them as ``=`` does, rows or error).
PROBE_TYPES = {
    "CHAR(4)": (_STRINGS, st.one_of(_STRINGS, st.sampled_from([None, 5, 1.5, True]))),
    "VARCHAR(6)": (_STRINGS, st.one_of(_STRINGS, st.sampled_from([None, 5, Decimal("1")]))),
    "DOUBLE": (
        _DOUBLES,
        st.one_of(_DOUBLES, st.sampled_from([None, 1, 0, Decimal("0.1"), Decimal("NaN"), "ab", True])),
    ),
    "DECIMAL(8,2)": (
        _DECIMALS,
        st.one_of(_DECIMALS, st.sampled_from([None, 0.1, 1.0, -0.0, math.nan, "1", False])),
    ),
}


def _dml(values):
    """One statement changing ``t`` (with its parameters), or a COMMIT
    or ROLLBACK of everything since the last COMMIT."""
    keys = st.integers(min_value=0, max_value=7)
    return st.one_of(
        st.tuples(st.just("INSERT INTO t VALUES (?, ?)"), st.tuples(keys, values)),
        st.tuples(st.just("UPDATE t SET v = ? WHERE k = ?"), st.tuples(values, keys)),
        st.tuples(st.just("DELETE FROM t WHERE k = ?"), st.tuples(keys)),
        st.tuples(st.sampled_from(["COMMIT", "ROLLBACK"]), st.just(())),
    )


def _outcome(db, sql, params):
    try:
        return db.execute(sql, params=list(params)).rows
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return (type(exc), str(exc))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("column_type", list(PROBE_TYPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_index_probe_finds_what_the_scan_finds(column_type, mode, data):
    """``v = ?`` through the hash index (index selection on) gives the
    rows, or the error, of the scan (off), after any mix of INSERT,
    UPDATE, DELETE, COMMIT and ROLLBACK between probes."""
    values, bound = PROBE_TYPES[column_type]
    db = Database("probe", execution_mode=mode)
    db.execute(f"CREATE TABLE t (k INT, v {column_type})")
    rows = data.draw(st.lists(values, max_size=6))
    db.execute_many("INSERT INTO t VALUES (?, ?)", list(enumerate(rows)))
    db.execute("COMMIT")
    probe = "SELECT k, v FROM t WHERE v = ?"
    assert "IndexLookup(t.v)" in db.explain(probe)
    steps = data.draw(st.lists(st.tuples(_dml(values), bound), min_size=1, max_size=6))
    for (statement, params), value in steps:
        _outcome(db, statement, params)
        db.configure(index_selection=True)
        probed = _outcome(db, probe, [value])
        db.configure(index_selection=False)
        scanned = _outcome(db, probe, [value])
        assert probed == scanned, (statement, params, value)
