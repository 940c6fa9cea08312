"""ORDER BY resolution: output aliases, hidden keys, positions."""

import pytest

from repro.errors import PlanError
from repro.fdbs.engine import Database


@pytest.fixture()
def db():
    database = Database("ob")
    database.execute_script(
        """
        CREATE TABLE t (name VARCHAR(10), relia INT, qual INT);
        INSERT INTO t VALUES
            ('a', 3, 9), ('b', 1, 7), ('c', 2, 7), ('d', 2, 1)
        """
    )
    return database


def test_order_by_non_selected_column(db):
    result = db.execute("SELECT name FROM t ORDER BY relia")
    assert result.columns == ["name"]
    assert result.rows == [("b",), ("c",), ("d",), ("a",)]


def test_order_by_expression_over_non_selected_columns(db):
    result = db.execute("SELECT name FROM t ORDER BY relia * 10 + qual DESC")
    assert result.rows[0] == ("a",)


def test_order_by_mixed_hidden_and_selected(db):
    result = db.execute("SELECT name, qual FROM t ORDER BY qual DESC, relia")
    assert result.rows == [("a", 9), ("b", 7), ("c", 7), ("d", 1)]


def test_order_by_select_alias(db):
    result = db.execute("SELECT relia + qual AS score, name FROM t ORDER BY score")
    assert [row[0] for row in result.rows] == sorted(
        row[0] for row in result.rows
    )


def test_order_by_alias_expression(db):
    result = db.execute("SELECT relia AS r, name FROM t ORDER BY r * -1, name")
    assert result.rows[0][0] == 3


def test_order_by_position_still_works(db):
    by_pos = db.execute("SELECT name, relia FROM t ORDER BY 2, 1")
    by_name = db.execute("SELECT name, relia FROM t ORDER BY relia, name")
    assert by_pos.rows == by_name.rows


def test_order_by_hidden_with_distinct_rejected(db):
    with pytest.raises(PlanError, match="DISTINCT"):
        db.execute("SELECT DISTINCT name FROM t ORDER BY relia")


def test_order_by_distinct_on_selected_allowed(db):
    result = db.execute("SELECT DISTINCT relia FROM t ORDER BY relia DESC")
    assert result.rows == [(3,), (2,), (1,)]


def test_order_by_unresolvable_rejected(db):
    with pytest.raises(PlanError):
        db.execute("SELECT name FROM t ORDER BY nonexistent")


def test_limit_applies_after_hidden_sort(db):
    result = db.execute("SELECT name FROM t ORDER BY relia DESC FETCH FIRST 1 ROWS ONLY")
    assert result.rows == [("a",)]


def test_hidden_keys_do_not_leak_into_output(db):
    result = db.execute("SELECT name FROM t ORDER BY relia")
    assert result.columns == ["name"]
    assert all(len(row) == 1 for row in result.rows)


def test_aggregate_output_names_are_clean(db):
    result = db.execute(
        "SELECT relia, COUNT(*) AS c, MAX(qual) FROM t GROUP BY relia ORDER BY relia"
    )
    assert result.columns == ["relia", "c", "COL3"]


def test_order_by_aggregate_not_in_select(db):
    result = db.execute(
        "SELECT relia FROM t GROUP BY relia ORDER BY COUNT(*) DESC, relia"
    )
    assert result.rows[0] == (2,)  # relia=2 appears twice


def test_union_order_by_output_only(db):
    result = db.execute(
        "SELECT name FROM t WHERE relia = 1 UNION SELECT name FROM t "
        "WHERE relia = 3 ORDER BY name DESC"
    )
    assert result.rows == [("b",), ("a",)]


@pytest.mark.parametrize("mode", ["row", "columnar"])
def test_grouped_order_by_survives_the_first_cache_hit(mode):
    """Planning rewrote the ORDER BY of a grouped block inside the
    parsed statement, so the statement cache's first hit, which plans
    that statement again, lost its hidden aggregate key."""
    database = Database("ob2", execution_mode=mode)
    database.execute("CREATE TABLE t (name VARCHAR(10), relia INT, qual INT)")
    database.execute_many(
        "INSERT INTO t VALUES (?, ?, ?)",
        [("a", 3, 9), ("b", 1, 7), ("c", 2, 7), ("d", 2, 1)],
    )
    sql = "SELECT qual, COUNT(*) FROM t GROUP BY qual ORDER BY MAX(relia) DESC"
    runs = [database.execute(sql).rows for _ in range(3)]
    assert runs == [[(9, 1), (7, 2), (1, 1)]] * 3


def test_union_order_by_name_over_a_grouped_first_branch(db):
    """The first branch's aggregation used to rewrite the union's ORDER
    BY onto its own synthetic columns (``cannot resolve '$g0'``)."""
    sql = (
        "SELECT qual, COUNT(*) AS n FROM t GROUP BY qual "
        "UNION ALL SELECT relia, 0 FROM t ORDER BY qual, n"
    )
    expected = [(1, 0), (1, 1), (2, 0), (2, 0), (3, 0), (7, 2), (9, 1)]
    assert db.execute(sql).rows == expected
    assert db.execute(sql).rows == expected
