"""The cost-based optimizer: gate, reordering, bind joins, EXPLAIN."""

import pytest

from repro.errors import ExecutionError
from repro.fdbs.engine import Database
from repro.fdbs.executor import RemoteBindJoinPlan
from repro.fdbs.expr import EvalContext
from repro.fdbs.federation import DatabaseEndpoint
from repro.fdbs.optimizer import plan_decisions
from repro.fdbs.parser import parse_statement
from repro.sysmodel.machine import Machine


def federated_pair(machine=None, n_rows=50, n_watch=6):
    """A local FDBS with a skewed ``watch`` table joined to a remote
    ``orders`` nickname (``comp_no`` in 0..4, ~n_rows/5 rows per key)."""
    remote = Database("remote")
    remote.execute(
        "CREATE TABLE orders (order_no INT PRIMARY KEY, comp_no INT, qty INT)"
    )
    for index in range(n_rows):
        remote.execute(
            "INSERT INTO orders VALUES (?, ?, ?)",
            params=[index, index % 5, index * 10],
        )
    local = Database("local", machine=machine)
    local.execute("CREATE WRAPPER w")
    local.execute("CREATE SERVER s WRAPPER w")
    local.attach_endpoint("s", DatabaseEndpoint(remote))
    local.execute("CREATE NICKNAME n FOR s.orders")
    local.execute("CREATE TABLE watch (pk INT PRIMARY KEY, comp_no INT)")
    for index in range(n_watch):
        local.execute(
            "INSERT INTO watch VALUES (?, ?)", params=[index, index % 2]
        )
    return local, remote


JOIN_SQL = (
    "SELECT w.pk, o.order_no FROM watch AS w, n AS o "
    "WHERE w.comp_no = o.comp_no ORDER BY w.pk, o.order_no"
)


def collect_runstats(db):
    db.execute("RUNSTATS watch")
    db.execute("RUNSTATS n")


class TestMode:
    def test_default_is_syntactic(self):
        assert Database("d").options.optimizer == "syntactic"

    def test_constructor_and_setter(self):
        db = Database("d", optimizer="cost")
        assert db.options.optimizer == "cost"
        db.configure(optimizer="syntactic")
        assert db.options.optimizer == "syntactic"

    def test_invalid_mode_rejected(self):
        db = Database("d")
        with pytest.raises(ExecutionError):
            db.configure(optimizer="rule-based")
        with pytest.raises(ExecutionError):
            Database("d2", optimizer="bogus")


class TestGate:
    def test_without_stats_plan_is_identical(self):
        local, _ = federated_pair()
        syntactic = local.explain(JOIN_SQL)
        local.configure(optimizer="cost")
        cost = local.explain(JOIN_SQL)
        assert cost == syntactic
        assert "est=" not in cost
        assert "BindJoin" not in cost

    def test_without_stats_time_is_identical(self):
        elapsed = {}
        for mode in ("syntactic", "cost"):
            machine = Machine()
            local, _ = federated_pair(machine)
            local.configure(optimizer=mode)
            local.execute(JOIN_SQL)  # warm the statement cache
            start = machine.clock.now
            rows = local.execute(JOIN_SQL).rows
            elapsed[mode] = (machine.clock.now - start, rows)
        assert elapsed["cost"] == elapsed["syntactic"]

    def test_decisions_none_for_views_and_unknown_names(self):
        local, _ = federated_pair()
        collect_runstats(local)
        local.execute("CREATE VIEW wv AS SELECT pk, comp_no FROM watch")
        for sql in (
            "SELECT v.pk FROM wv AS v",
            "SELECT x.a FROM missing AS x",
        ):
            select = parse_statement(sql)
            assert plan_decisions(select, local.catalog, local.catalog.get_statistics) is None

    def test_default_mode_ignores_stats(self):
        local, _ = federated_pair()
        collect_runstats(local)
        text = local.explain(JOIN_SQL)
        assert "BindJoin" not in text
        assert "est=" not in text


class TestRemoteBindJoin:
    def test_bind_join_in_plan_and_rows_identical(self):
        local, remote = federated_pair()
        baseline = local.execute(JOIN_SQL).rows
        collect_runstats(local)
        local.configure(optimizer="cost")
        text = local.explain(JOIN_SQL)
        assert "BindJoin(n, bind: comp_no)" in text
        before = local.federation.bind_join_count
        rows = local.execute(JOIN_SQL).rows
        assert rows == baseline and rows
        assert local.federation.bind_join_count == before + 1

    def test_bind_keys_reach_remote_sql(self):
        local, remote = federated_pair()
        collect_runstats(local)
        local.configure(optimizer="cost")
        shipped = _spy_on_endpoint(local)
        local.execute(JOIN_SQL)
        assert any("IN (0, 1)" in sql for sql in shipped)

    def test_bind_join_saves_transfer_time(self):
        def hot(mode):
            machine = Machine()
            local, _ = federated_pair(machine, n_rows=500)
            collect_runstats(local)
            local.configure(optimizer=mode)
            local.execute(JOIN_SQL)
            start = machine.clock.now
            rows = local.execute(JOIN_SQL).rows
            return machine.clock.now - start, rows

        fast, rows_cost = hot("cost")
        slow, rows_syntactic = hot("syntactic")
        assert rows_cost == rows_syntactic
        # 200 of 500 remote rows shipped instead of all 500.
        assert fast < slow

    def test_too_many_keys_falls_back_to_unbound_fetch(self):
        local, _ = federated_pair()
        collect_runstats(local)
        select = parse_statement(JOIN_SQL)
        decisions = plan_decisions(
            select, local.catalog, local.catalog.get_statistics
        )
        assert decisions is not None and decisions.bind_remote
        local.configure(optimizer="cost")
        plan = local._planner().plan_select(select)
        bind = _find(plan, RemoteBindJoinPlan)
        bind.max_keys = 1  # force the outer side past the cap
        rows = list(plan.rows(EvalContext(params=None, database=local)))
        assert bind.unbound_fetches == 1 and bind.bound_fetches == 0
        local.configure(optimizer="syntactic")
        assert sorted(rows) == sorted(local.execute(JOIN_SQL).rows)

    def test_all_null_outer_keys_skip_the_fetch(self):
        local, _ = federated_pair(n_watch=0)
        local.execute("INSERT INTO watch VALUES (1, NULL)")
        collect_runstats(local)
        local.configure(optimizer="cost")
        before = local.federation.pushdown_count
        assert local.execute(JOIN_SQL).rows == []
        assert local.federation.pushdown_count == before  # fetch skipped


class TestReordering:
    def test_smaller_table_is_moved_first(self):
        db = Database("order")
        db.execute("CREATE TABLE big (k INT)")
        db.execute("CREATE TABLE small (k INT)")
        for index in range(40):
            db.execute("INSERT INTO big VALUES (?)", params=[index % 4])
        for index in range(3):
            db.execute("INSERT INTO small VALUES (?)", params=[index])
        db.execute("RUNSTATS big")
        db.execute("RUNSTATS small")
        sql = (
            "SELECT b.k FROM big AS b, small AS s "
            "WHERE b.k = s.k ORDER BY b.k"
        )
        baseline = db.execute(sql).rows
        syntactic = db.explain(sql)
        assert syntactic.index("TableScan(big)") < syntactic.index(
            "TableScan(small)"
        )
        db.configure(optimizer="cost")
        cost = db.explain(sql)
        assert cost.index("TableScan(small)") < cost.index("TableScan(big)")
        assert db.execute(sql).rows == baseline

    def test_equal_cardinality_ties_break_on_alias_name(self):
        """Equal effective cardinalities order alphabetically by alias,
        pinning the greedy order against dict/hash-seed accidents."""
        db = Database("tie")
        db.execute("CREATE TABLE zeta (k INT)")
        db.execute("CREATE TABLE alpha (k INT)")
        for index in range(5):
            db.execute("INSERT INTO zeta VALUES (?)", params=[index])
            db.execute("INSERT INTO alpha VALUES (?)", params=[index])
        db.execute("RUNSTATS zeta")
        db.execute("RUNSTATS alpha")
        select = parse_statement(
            "SELECT z.k FROM zeta AS z, alpha AS a WHERE z.k = a.k"
        )
        decisions = plan_decisions(
            select, db.catalog, db.catalog.get_statistics
        )
        # Both tables have 5 rows; alias "A" sorts before alias "Z",
        # so alpha (written second) is promoted to the outer position.
        assert decisions.order == [1, 0]

    def test_lateral_dependency_is_respected(self):
        local, _ = federated_pair()
        collect_runstats(local)
        select = parse_statement(
            "SELECT w.pk FROM watch AS w, n AS o WHERE w.comp_no = o.comp_no"
        )
        decisions = plan_decisions(
            select, local.catalog, local.catalog.get_statistics
        )
        # watch (6 rows) before the nickname (50 rows).
        assert decisions.order == [0, 1]


class TestExplain:
    def test_cost_mode_reports_estimates(self):
        local, _ = federated_pair()
        collect_runstats(local)
        local.configure(optimizer="cost")
        text = local.explain(JOIN_SQL)
        assert "est=" in text

    def test_explain_analyze_reports_actuals(self):
        local, _ = federated_pair()
        collect_runstats(local)
        local.configure(optimizer="cost")
        result = local.execute("EXPLAIN ANALYZE " + JOIN_SQL)
        text = "\n".join(row[0] for row in result.rows)
        assert "est=" in text and "actual=" in text

    def test_explain_analyze_works_in_syntactic_mode(self):
        local, _ = federated_pair()
        result = local.execute("EXPLAIN ANALYZE " + JOIN_SQL)
        text = "\n".join(row[0] for row in result.rows)
        assert "actual=" in text and "est=" not in text


def _spy_on_endpoint(local, server="s"):
    """Record every SQL text shipped through the server's endpoint."""
    endpoint = local.catalog.get_server(server).endpoint
    shipped = []
    original = endpoint.query

    def recording(sql):
        shipped.append(sql)
        return original(sql)

    endpoint.query = recording
    return shipped


def _find(plan, cls):
    """Depth-first search for the first operator of the given class."""
    if isinstance(plan, cls):
        return plan
    for child in plan._children():  # noqa: SLF001 - test introspection
        found = _find(child, cls)
        if found is not None:
            return found
    return None
