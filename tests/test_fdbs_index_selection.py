"""Index selection: equality conjuncts become hash-index probes."""

import pytest

from repro.fdbs.engine import Database


@pytest.fixture()
def db():
    database = Database("idx")
    database.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, grp INT, label VARCHAR(10))"
    )
    for index in range(50):
        database.execute(
            "INSERT INTO t VALUES (?, ?, ?)",
            params=[index, index % 5, f"L{index % 5}"],
        )
    return database


def plan_text(db, sql):
    return "\n".join(r[0] for r in db.execute("EXPLAIN " + sql).rows)


def test_equality_literal_uses_index(db):
    text = plan_text(db, "SELECT k FROM t WHERE grp = 3")
    assert "IndexLookup(t.grp)" in text
    assert "Filter(WHERE)" not in text  # the conjunct was consumed


def test_results_identical_with_and_without_index(db):
    sql = "SELECT k FROM t WHERE grp = 3 ORDER BY k"
    with_index = db.execute(sql).rows
    db.configure(index_selection=False)
    without = db.execute(sql).rows
    assert with_index == without
    assert len(with_index) == 10


def test_parameter_probe(db):
    rows = db.execute("SELECT COUNT(*) FROM t WHERE grp = ?", params=[2])
    assert rows.scalar() == 10
    assert "IndexLookup" in plan_text(db, "SELECT k FROM t WHERE grp = ?")


def test_remaining_conjuncts_stay_in_filter(db):
    text = plan_text(db, "SELECT k FROM t WHERE grp = 1 AND k > 10")
    assert "IndexLookup(t.grp)" in text
    assert "Filter(WHERE)" in text
    rows = db.execute("SELECT k FROM t WHERE grp = 1 AND k > 10 ORDER BY k").rows
    assert rows == [(11,), (16,), (21,), (26,), (31,), (36,), (41,), (46,)]


@pytest.mark.parametrize("value", ["'L1'", "?"])
def test_character_columns_probe(db, value):
    sql = f"SELECT k FROM t WHERE label = {value}"
    text = plan_text(db, sql)
    assert "IndexLookup(t.label)" in text
    assert "Filter(WHERE)" not in text
    rows = db.execute(sql + " ORDER BY k", params=["L1"] if value == "?" else []).rows
    assert rows == [(k,) for k in range(1, 50, 5)]


def test_character_probe_ignores_trailing_blanks(db):
    db.execute("INSERT INTO t VALUES (50, 1, 'L1  ')")
    sql = "SELECT k FROM t WHERE label = ? ORDER BY k"
    padded = db.execute(sql, params=["L1 "]).rows
    assert padded == db.execute(sql, params=["L1"]).rows
    assert padded == [(k,) for k in range(1, 50, 5)] + [(50,)]
    db.configure(index_selection=False)
    assert db.execute(sql, params=["L1 "]).rows == padded


def test_a_tab_does_not_pad(db):
    db.execute("INSERT INTO t VALUES (50, 1, 'L1\t')")
    sql = "SELECT k FROM t WHERE label = ? ORDER BY k"
    assert db.execute(sql, params=["L1\t"]).rows == [(50,)]
    assert db.execute(sql, params=["L1"]).rows == [(k,) for k in range(1, 50, 5)]
    db.configure(index_selection=False)
    assert db.execute(sql, params=["L1\t"]).rows == [(50,)]


def test_non_string_value_on_a_character_column_compares_as_equals_does(db):
    """A bound number is not probed: the conjunct compares it, and the
    error is the one ``=`` raises without an index."""
    sql = "SELECT k FROM t WHERE label = ?"
    with pytest.raises(Exception) as probed:
        db.execute(sql, params=[5])
    db.configure(index_selection=False)
    with pytest.raises(Exception) as scanned:
        db.execute(sql, params=[5])
    assert type(probed.value) is type(scanned.value)
    assert str(probed.value) == str(scanned.value)


def test_null_literal_not_probed(db):
    text = plan_text(db, "SELECT k FROM t WHERE grp = NULL")
    assert "IndexLookup" not in text
    assert db.execute("SELECT k FROM t WHERE grp = NULL").rows == []


def test_null_parameter_yields_no_rows(db):
    assert db.execute("SELECT k FROM t WHERE grp = ?", params=[None]).rows == []


def test_one_probe_per_scan_rest_filtered(db):
    sql = "SELECT k FROM t WHERE grp = 1 AND k = 21"
    rows = db.execute(sql).rows
    assert rows == [(21,)]
    text = plan_text(db, sql)
    assert text.count("IndexLookup") == 1


def test_index_maintained_across_dml(db):
    db.execute("SELECT k FROM t WHERE grp = 0")  # builds the index
    db.execute("UPDATE t SET grp = 99 WHERE k = 0")
    db.execute("DELETE FROM t WHERE k = 5")
    rows = db.execute("SELECT k FROM t WHERE grp = 0 ORDER BY k").rows
    assert rows == [(10,), (15,), (20,), (25,), (30,), (35,), (40,), (45,)]
    assert db.execute("SELECT k FROM t WHERE grp = 99").rows == [(0,)]


def test_join_predicates_not_probed(db):
    db.execute("CREATE TABLE u (grp INT)")
    db.execute("INSERT INTO u VALUES (1)")
    sql = "SELECT COUNT(*) FROM t, u WHERE t.grp = u.grp"
    assert db.execute(sql).scalar() == 10
    assert "IndexLookup" not in plan_text(db, sql)


def test_lateral_function_args_unaffected(db):
    from repro.fdbs.functions import make_external_function
    from repro.fdbs.types import INTEGER

    db.register_external_function(
        make_external_function("F", [("x", INTEGER)], [("y", INTEGER)], lambda x: x)
    )
    rows = db.execute(
        "SELECT r.y FROM t, TABLE (F(k)) AS r WHERE grp = 1 AND k = 6"
    ).rows
    assert rows == [(6,)]
