"""EXPLAIN as a SQL statement."""

import pytest

from repro.errors import AuthorizationError
from repro.fdbs.engine import Database
from repro.fdbs.functions import make_external_function
from repro.fdbs.types import INTEGER


@pytest.fixture()
def db():
    database = Database("explain")
    database.execute("CREATE TABLE t (v INT)")
    database.execute("INSERT INTO t VALUES (1), (2)")
    database.register_external_function(
        make_external_function("F", [("x", INTEGER)], [("y", INTEGER)], lambda x: x)
    )
    return database


def test_explain_returns_plan_rows(db):
    result = db.execute("EXPLAIN SELECT v FROM t WHERE v > 1 ORDER BY v")
    assert result.columns == ["PLAN"]
    text = "\n".join(row[0] for row in result.rows)
    # Zone checks attach in every execution mode, so the pushed
    # conjunct shows up as a zone annotation even in row mode.
    assert "TableScan(t, zone: (v > 1))" in text
    assert "Filter(WHERE)" in text
    assert "Sort" in text


def test_explain_does_not_execute_functions(db):
    calls = {"n": 0}

    def counting(x):
        calls["n"] += 1
        return x

    db.bind_external("F", counting)
    db.execute("EXPLAIN SELECT r.y FROM t, TABLE (F(v)) AS r")
    assert calls["n"] == 0


def test_explain_shows_cross_apply_for_table_functions(db):
    result = db.execute("EXPLAIN SELECT r.y FROM t, TABLE (F(v)) AS r")
    text = "\n".join(row[0] for row in result.rows)
    assert "CrossApply" in text


def test_explain_requires_query_privileges(db):
    db.execute("CREATE USER alice")
    db.set_current_user("alice")
    try:
        with pytest.raises(AuthorizationError):
            db.execute("EXPLAIN SELECT v FROM t")
    finally:
        db.set_current_user("SYSTEM")


def test_explain_render_round_trip(db):
    from repro.fdbs.parser import parse_statement

    statement = parse_statement("EXPLAIN SELECT v FROM t")
    assert parse_statement(statement.render()).render() == statement.render()


@pytest.mark.parametrize("mode", ["row", "columnar"])
def test_explain_names_lateral_table_functions(mode):
    """A lateral table function is a node of its own under CrossApply."""
    from repro.core.architectures import Architecture
    from repro.core.scenario import build_scenario

    database = build_scenario(Architecture.ENHANCED_JAVA_UDTF).server.fdbs
    database.execute("CREATE TABLE w (k INT)")
    database.configure(execution_mode=mode)

    def plan(sql):
        return [row[0] for row in database.execute("EXPLAIN " + sql).rows]

    alone = plan("SELECT * FROM TABLE (GetQuality(1234)) AS R")
    assert alone[-3:] == [
        "  CrossApply",
        "    Unit",
        "    TableFunction(GetQuality) AS R",
    ]
    lateral = plan("SELECT R.Qual FROM w, TABLE (GetQuality(w.k)) AS R")
    assert lateral[-5:] == [
        "  CrossApply",
        "    CrossApply",
        "      Unit",
        "      TableScan(w)",
        "    TableFunction(GetQuality) AS R",
    ]


@pytest.mark.parametrize(
    "kind,label,build_scan",
    [
        ("JOIN", "INNER", "TableScan(store, zone: (s.region = 1))"),
        ("LEFT OUTER JOIN", "LEFT OUTER", "TableScan(store)"),
    ],
)
def test_explain_shows_the_probe_scan_selection(kind, label, build_scan):
    """In columnar mode a WHERE conjunct over the probe side of an
    explicit hash join is selected at its scan; the null-supplying side
    of a LEFT OUTER join is neither zone-checked nor selected."""
    database = Database("probe", execution_mode="columnar")
    database.execute("CREATE TABLE sales (day INT, store_id INT)")
    database.execute("CREATE TABLE store (store_id INT, region INT)")
    sql = (
        f"EXPLAIN SELECT s.region FROM sales AS f {kind} store AS s "
        "ON f.store_id = s.store_id WHERE f.day BETWEEN ? AND ? AND s.region = 1"
    )
    lines = [row[0] for row in database.execute(sql).rows]
    assert lines[-3:] == [
        f"      HashJoin({label}, on (f.store_id = s.store_id), join=hash)",
        "        TableScan(sales, zone: (f.day BETWEEN ? AND ?), "
        "select: (f.day BETWEEN ? AND ?))",
        f"        {build_scan}",
    ]
    database.configure(execution_mode="row")
    lines = [row[0] for row in database.execute(sql).rows]
    assert "        TableScan(sales, zone: (f.day BETWEEN ? AND ?))" in lines
