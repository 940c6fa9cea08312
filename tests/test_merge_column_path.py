"""The sort-merge join's column path.

``MergeJoinPlan.column_batches`` reads a bare-column outer key with
``batch.column`` and any other key through the ``left_key`` closure,
and emits :class:`~repro.fdbs.executor.JoinBatch` views.  Whatever the
chunk size, its rows must equal ``rows()`` and the hash join's, through
every branch of the merge: the forward cursor over presorted and sorted
inner input, the bisect taken when the outer keys regress, NULL keys,
inner keys that defeat ordering (the bucket fallback) and an outer key
unorderable against sorted inner keys (the lookup fallback).
"""

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdbs.engine import Database
from repro.fdbs.executor import (
    ColumnBatch,
    HashJoinPlan,
    JoinBatch,
    MergeJoinPlan,
    Plan,
)
from repro.fdbs.expr import ColumnSlot, CompiledExpr, EvalContext

CHUNK_SIZES = (1, 3, 1024)


class _Rows(Plan):
    """A plan over fixed rows, chunked ``size`` at a time."""

    def __init__(self, rows, name):
        self.schema = [ColumnSlot(name, "k", None), ColumnSlot(name, "v", None)]
        self.data = rows

    def rows(self, ctx):
        yield from self.data

    def column_batches(self, ctx, size=1024):
        for start in range(0, len(self.data), size):
            chunk = self.data[start : start + size]
            yield ColumnBatch(len(chunk), rows=chunk)


def _key(fn):
    return CompiledExpr(fn, None, None)


def _shifted(value):
    """``value - 100`` for a number; NULL and other values unchanged."""
    return value - 100 if isinstance(value, int) else value


#: The inner key: column 0 of the inner rows.
INNER_KEY = _key(lambda row, ctx: row[0])
#: The bare outer key: column 1 of the outer rows, read by position.
BARE_KEY = _key(lambda row, ctx: row[1])
#: An expression key: ``k - 100`` over column 0 equals the bare key on
#: every outer row built by :func:`outer_rows`.
EXPRESSION_KEY = _key(lambda row, ctx: _shifted(row[0]))


def merge_plan(left, right, expression):
    """A merge join of ``left`` onto ``right.k``: the bare outer key
    (read by position) or the expression key (read through the
    closure)."""
    return MergeJoinPlan(
        _Rows(left, "l"),
        _Rows(right, "r"),
        EXPRESSION_KEY if expression else BARE_KEY,
        0,
        "l.v = r.k",
        left_key_index=None if expression else 1,
    )


def outer_rows(keys):
    """Outer rows ``(k + 100, k)`` whose expression key equals their
    bare key."""
    return [(k + 100 if isinstance(k, int) else k, k) for k in keys]


def joined(plan, size):
    """The rows ``column_batches`` produces, checking every batch's
    columns against its own row tuples on the way."""
    rows = []
    for batch in plan.column_batches(EvalContext(), size):
        assert isinstance(batch, JoinBatch)
        view = batch.rows_view()
        for position in range(len(plan.schema)):
            assert batch.column(position) == [row[position] for row in view]
        rows.extend(view)
    return rows


def assert_paths_agree(left, right, expression):
    """Column path at every chunk size == ``rows()`` == the hash join."""
    plan = merge_plan(left, right, expression)
    expected = list(
        HashJoinPlan(
            _Rows(left, "l"),
            _Rows(right, "r"),
            "INNER",
            [EXPRESSION_KEY if expression else BARE_KEY],
            [INNER_KEY],
        ).rows(EvalContext())
    )
    assert list(plan.rows(EvalContext())) == expected
    for size in CHUNK_SIZES:
        assert joined(plan, size) == expected, size
    return plan, expected


@pytest.mark.parametrize("expression", [False, True], ids=["bare", "expression"])
class TestBranches:
    def test_presorted_inner_forward_cursor(self, expression):
        right = [(k, f"r{k}") for k in range(10)]
        plan, rows = assert_paths_agree(outer_rows([0, 2, 2, 5, 9, 11]), right, expression)
        assert [row[1] for row in rows] == [0, 2, 2, 5, 9]
        assert plan.presorted_inputs > 0 and plan.sorts_applied == 0

    def test_unsorted_inner_with_duplicates(self, expression):
        right = [(3, "a"), (1, "b"), (3, "c"), (2, "d"), (1, "e"), (3, "f")]
        plan, rows = assert_paths_agree(outer_rows([1, 3, 4]), right, expression)
        # Groups keep scan order: 1 -> b, e; 3 -> a, c, f.
        assert [row[3] for row in rows] == ["b", "e", "a", "c", "f"]
        assert plan.sorts_applied > 0 and plan.presorted_inputs == 0

    def test_regressing_outer_keys_bisect(self, expression):
        right = [(k, k * 10) for k in range(0, 20, 2)]
        left = outer_rows([18, 4, 4, 10, 2, 16, 0, 7, 6])
        _, rows = assert_paths_agree(left, right, expression)
        assert [row[1] for row in rows] == [18, 4, 4, 10, 2, 16, 0, 6]

    def test_null_keys_never_match(self, expression):
        right = [(None, "x"), (1, "a"), (None, "y"), (2, "b")]
        _, rows = assert_paths_agree(outer_rows([None, 1, None, 2, None]), right, expression)
        assert [row[1] for row in rows] == [1, 2]

    def test_unorderable_inner_keys_use_buckets(self, expression):
        right = [(1, "a"), ("1 ", "s"), (2, "b"), (1, "c")]
        plan, rows = assert_paths_agree(outer_rows([1, 2, 3, "1  ", None]), right, expression)
        # "1  " finds "1 ": both sides' keys are blank-stripped.
        assert [row[3] for row in rows] == ["a", "c", "b", "s"]
        assert plan.presorted_inputs == plan.sorts_applied == 0

    def test_outer_key_unorderable_against_inner_uses_lookup(self, expression):
        """``1+0j`` equals the inner key 1 but does not order against
        it, so only the lookup dict finds its match."""
        right = [(k, k) for k in range(5)]
        left = outer_rows([1, "x", 3, 1 + 0j, None, 0, 4])
        _, rows = assert_paths_agree(left, right, expression)
        assert [row[1] for row in rows] == [1, 3, 1 + 0j, 0, 4]


def test_nan_inner_keys_never_match_nor_hide_other_keys():
    """A NaN among the inner keys matched nothing and, left in the
    sorted keys, hid the keys after it from the cursor."""
    nan = float("nan")
    right = [(1.0, "a"), (nan, "n"), (0.5, "b"), (2.0, "c"), (nan, "m")]
    left = [(k, k) for k in (0.5, 1.0, nan, 2.0)]
    plan = merge_plan(left, right, False)
    expected = [(0.5, 0.5, 0.5, "b"), (1.0, 1.0, 1.0, "a"), (2.0, 2.0, 2.0, "c")]
    assert list(plan.rows(EvalContext())) == expected
    for size in CHUNK_SIZES:
        assert joined(plan, size) == expected


@pytest.mark.parametrize("mode", ["row", "columnar"])
def test_decimal_nan_keys_match_nothing_like_the_hash_join(mode):
    """A stored quiet DECIMAL NaN on either side of a merge join equals
    nothing; comparing it with the cursor raised a bare
    ``decimal.InvalidOperation``."""
    db = Database("dnan", execution_mode=mode, optimizer="cost")
    db.execute("CREATE TABLE a (k DECIMAL(8,2))")
    db.execute("CREATE TABLE b (k DECIMAL(8,2), w INT)")
    db.execute_many("INSERT INTO a VALUES (?)", [(Decimal(v),) for v in ("0.5", "NaN", "2")])
    db.execute_many(
        "INSERT INTO b VALUES (?, ?)",
        [(Decimal(v), w) for v, w in (("0.5", 1), ("NaN", 2), ("1", 3), ("2", 4))],
    )
    db.execute("RUNSTATS a")
    db.execute("RUNSTATS b")
    sql = "SELECT a.k, b.w FROM a, b WHERE a.k = b.k ORDER BY b.w"
    results = {}
    for strategy in ("merge", "hash"):
        db.configure(join_strategy=strategy)
        assert f"join={strategy}" in db.explain(sql)
        results[strategy] = db.execute(sql).rows
    assert results["merge"] == results["hash"] == [(Decimal("0.5"), 1), (Decimal("2"), 4)]


def test_character_keys_ignore_trailing_blanks():
    right = [("ab ", 1), ("b", 2), ("ab", 3)]
    left = [(None, "ab"), (None, "b  "), (None, "c")]
    plan = merge_plan(left, right, False)
    expected = [(None, "ab", "ab ", 1), (None, "ab", "ab", 3), (None, "b  ", "b", 2)]
    assert list(plan.rows(EvalContext())) == expected
    for size in CHUNK_SIZES:
        assert joined(plan, size) == expected


def test_every_outer_row_matched_once_keeps_the_probe_batch():
    right = [(k, -k) for k in range(8)]
    plan = merge_plan(outer_rows(range(8)), right, False)
    (batch,) = plan.column_batches(EvalContext(), 1024)
    assert isinstance(batch.left, ColumnBatch)
    assert batch.column(1) == list(range(8))
    assert batch._rows is None


KEYS = st.one_of(st.none(), st.integers(min_value=-3, max_value=6))


@settings(max_examples=150, deadline=None)
@given(
    left=st.lists(KEYS, max_size=25),
    right=st.lists(KEYS, max_size=25),
    presort=st.booleans(),
    expression=st.booleans(),
)
def test_column_path_equals_rows_and_hash_join(left, right, presort, expression):
    """Random outer and inner keys (NULLs, duplicates, regressions),
    inner presorted or not: every path returns the hash join's rows."""
    inner = sorted(right, key=lambda k: (k is None, k or 0)) if presort else right
    assert_paths_agree(
        outer_rows(left), [(k, index) for index, k in enumerate(inner)], expression
    )
