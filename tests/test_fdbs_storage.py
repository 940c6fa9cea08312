"""Heap storage: constraints, indexes, undo."""

import pytest

from repro.errors import ConstraintError, ExecutionError
from repro.fdbs.catalog import ColumnDef
from repro.fdbs.storage import Table, UndoLog
from repro.fdbs.types import DOUBLE, INTEGER, VARCHAR


def make_table(primary_key=("id",)):
    columns = [
        ColumnDef("id", INTEGER, not_null=True),
        ColumnDef("name", VARCHAR(20)),
        ColumnDef("score", INTEGER),
    ]
    return Table("t", columns, primary_key)


def test_insert_and_scan():
    table = make_table()
    table.insert((1, "a", 10))
    table.insert((2, "b", 20))
    assert table.rows() == [(1, "a", 10), (2, "b", 20)]
    assert len(table) == 2


def test_insert_coerces_values():
    table = make_table()
    with pytest.raises(Exception):
        table.insert((1, 5, 10))  # 5 is not a string


def test_wrong_arity_rejected():
    table = make_table()
    with pytest.raises(ExecutionError):
        table.insert((1, "a"))


def test_duplicate_primary_key_rejected():
    table = make_table()
    table.insert((1, "a", 10))
    with pytest.raises(ConstraintError):
        table.insert((1, "b", 20))


def test_null_primary_key_rejected():
    table = make_table()
    with pytest.raises(ConstraintError):
        table.insert((None, "a", 10))


def test_not_null_enforced():
    table = make_table(primary_key=())
    with pytest.raises(ConstraintError):
        table.insert((None, "a", 1))


def test_composite_primary_key():
    table = Table(
        "t2",
        [ColumnDef("a", INTEGER, True), ColumnDef("b", INTEGER, True)],
        ("a", "b"),
    )
    table.insert((1, 1))
    table.insert((1, 2))
    with pytest.raises(ConstraintError):
        table.insert((1, 1))


def test_lookup_pk():
    table = make_table()
    table.insert((7, "x", 1))
    assert table.lookup_pk((7,)) == (7, "x", 1)
    assert table.lookup_pk((8,)) is None


def test_lookup_pk_without_key_rejected():
    table = make_table(primary_key=())
    with pytest.raises(ExecutionError):
        table.lookup_pk((1,))


def test_delete_frees_pk():
    table = make_table()
    rid = table.insert((1, "a", 10))
    table.delete_rid(rid)
    assert len(table) == 0
    table.insert((1, "again", 5))  # pk reusable


def test_delete_twice_rejected():
    table = make_table()
    rid = table.insert((1, "a", 10))
    table.delete_rid(rid)
    with pytest.raises(ExecutionError):
        table.delete_rid(rid)


def test_update_rid():
    table = make_table()
    rid = table.insert((1, "a", 10))
    table.update_rid(rid, (1, "b", 99))
    assert table.rows() == [(1, "b", 99)]


def test_update_to_conflicting_pk_rejected():
    table = make_table()
    table.insert((1, "a", 10))
    rid = table.insert((2, "b", 20))
    with pytest.raises(ConstraintError):
        table.update_rid(rid, (1, "b", 20))


def test_update_keeping_own_pk_allowed():
    table = make_table()
    rid = table.insert((1, "a", 10))
    table.update_rid(rid, (1, "a", 11))
    assert table.lookup_pk((1,)) == (1, "a", 11)


def test_hash_index_lookup():
    table = make_table()
    table.insert((1, "a", 10))
    table.insert((2, "b", 10))
    table.insert((3, "c", 20))
    assert table.index_lookup("score", 10) == [(1, "a", 10), (2, "b", 10)]
    assert table.index_lookup("score", 99) == []


def test_index_maintained_across_mutations():
    table = make_table()
    rid = table.insert((1, "a", 10))
    table.create_index("score")
    table.update_rid(rid, (1, "a", 33))
    assert table.index_lookup("score", 10) == []
    assert table.index_lookup("score", 33) == [(1, "a", 33)]


def keyed_table():
    table = Table("k", [ColumnDef("id", INTEGER), ColumnDef("v", VARCHAR(6)),
                        ColumnDef("m", DOUBLE)])
    nan = float("nan")
    table.insert_many([(1, "ab", 1.0), (2, "ab ", nan), (3, "ab\t", nan), (4, "x", -0.0)])
    return table


def test_index_buckets_by_the_value_key():
    table = keyed_table()
    assert [r[0] for r in table.index_lookup("v", "ab  ")] == [1, 2]
    assert [r[0] for r in table.index_lookup("v", "ab\t")] == [3]
    assert [r[0] for r in table.index_lookup("m", float("nan"))] == [2, 3]
    assert [r[0] for r in table.index_lookup("m", 0.0)] == [4]
    table.delete_rid(0)
    table.update_rid(1, (2, "y", 5.0))
    assert table.index_lookup("v", "ab") == []
    assert [r[0] for r in table.index_lookup("v", "y ")] == [2]
    assert [r[0] for r in table.index_lookup("m", float("nan"))] == [3]


@pytest.mark.parametrize(
    "column,value", [("v", "ab"), ("v", "ab "), ("v", "ab\t"), ("m", float("nan")), ("m", 0.0)]
)
def test_old_version_without_the_index_scans_by_the_value_key(column, value):
    """A version pinned on an arena older than the index scans instead of
    probing, and finds what the index finds on the current version."""
    table = keyed_table()
    pinned = table.current_version
    table.delete_rid(3)
    table.insert((4, "x", -0.0))
    table.create_index(column)
    assert column.upper() not in pinned.arena.indexes
    scanned = table.version_index_lookup(pinned, column, value)
    probed = table.version_index_lookup(table.current_version, column, value)
    assert sorted(scanned) == sorted(probed)
    assert scanned


class TestUndo:
    def test_rollback_insert(self):
        table = make_table()
        undo = UndoLog()
        table.insert((1, "a", 10), undo=undo)
        undo.rollback()
        assert len(table) == 0

    def test_rollback_delete(self):
        table = make_table()
        rid = table.insert((1, "a", 10))
        undo = UndoLog()
        table.delete_rid(rid, undo=undo)
        undo.rollback()
        assert table.rows() == [(1, "a", 10)]

    def test_rollback_update(self):
        table = make_table()
        rid = table.insert((1, "a", 10))
        undo = UndoLog()
        table.update_rid(rid, (1, "z", 0), undo=undo)
        undo.rollback()
        assert table.rows() == [(1, "a", 10)]

    def test_rollback_applies_in_reverse_order(self):
        table = make_table()
        undo = UndoLog()
        rid = table.insert((1, "a", 10), undo=undo)
        table.update_rid(rid, (1, "b", 20), undo=undo)
        table.delete_rid(rid, undo=undo)
        undo.rollback()
        assert len(table) == 0
        assert table.lookup_pk((1,)) is None

    def test_clear_commits(self):
        table = make_table()
        undo = UndoLog()
        table.insert((1, "a", 10), undo=undo)
        undo.clear()
        undo.rollback()  # nothing to undo
        assert len(table) == 1
