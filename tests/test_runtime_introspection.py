"""Runtime introspection: SYSCAT view, shell .stats, EXPLAIN header."""

import io

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.errors import ExecutionError
from repro.fdbs.engine import Database
from repro.fdbs.shell import Shell
from repro.sysmodel.machine import Machine


@pytest.fixture()
def pooled_scenario(data):
    scenario = build_scenario(
        Architecture.ENHANCED_SQL_UDTF, data=data,
        pooling=True, result_cache=True,
    )
    scenario.call("GetSuppQual", "ACME Industrial")
    # Different argument: the result cache misses but the pooled A-UDTF
    # runtimes are warm; the repeat of the first argument hits the cache.
    scenario.call("GetSuppQual", "Globex Metals")
    scenario.call("GetSuppQual", "ACME Industrial")
    return scenario


class TestSyscatView:
    def test_view_lists_all_components(self, pooled_scenario):
        rows = pooled_scenario.server.fdbs.execute(
            "SELECT component, counter, value FROM SYSCAT_RUNTIME_STATS"
        ).rows
        components = {component for component, _, _ in rows}
        assert components == {
            "statement_cache",
            "runtime_pool",
            "result_cache",
            "rmi_udtf",
            "rmi_wfms",
            "faults",
            "mvcc",
            "columnar",
            "joins",
        }

    def test_view_reflects_live_counters(self, pooled_scenario):
        rows = pooled_scenario.server.fdbs.execute(
            "SELECT counter, value FROM SYSCAT_RUNTIME_STATS "
            "WHERE component = 'runtime_pool'"
        ).rows
        counters = dict(rows)
        pool_stats = pooled_scenario.server.machine.runtime_pool.stats()
        assert counters == pool_stats
        assert counters["warm_hits"] > 0

    def test_cache_hits_visible(self, pooled_scenario):
        rows = pooled_scenario.server.fdbs.execute(
            "SELECT value FROM SYSCAT_RUNTIME_STATS "
            "WHERE component = 'result_cache' AND counter = 'hits'"
        ).rows
        assert rows[0][0] > 0

    def test_plain_database_exposes_statement_cache_and_mvcc(self):
        db = Database("plain")
        rows = db.execute(
            "SELECT DISTINCT component FROM SYSCAT_RUNTIME_STATS"
        ).rows
        assert sorted(rows) == [
            ("columnar",),
            ("joins",),
            ("mvcc",),
            ("statement_cache",),
        ]


class TestShellStats:
    def test_stats_command_prints_counters(self, pooled_scenario):
        shell = Shell(pooled_scenario.server.fdbs)
        out = io.StringIO()
        shell.run(io.StringIO(".stats\n.quit\n"), out)
        text = out.getvalue()
        assert "runtime_pool" in text
        assert "warm_hits" in text
        assert "result_cache" in text

    def test_help_mentions_stats(self):
        shell = Shell(Database("help-test"))
        out = io.StringIO()
        shell.run(io.StringIO(".help\n.quit\n"), out)
        assert ".stats" in out.getvalue()


class TestExplainHeader:
    def test_no_header_with_features_off(self, data):
        scenario = build_scenario(Architecture.ENHANCED_SQL_UDTF, data=data)
        text = scenario.server.fdbs.explain("SELECT 1 AS one")
        assert "Runtime(" not in text

    def test_header_shows_pool_and_cache_state(self, pooled_scenario):
        db = pooled_scenario.server.fdbs
        text = db.explain("SELECT 1 AS one")
        first = text.splitlines()[0]
        pool = pooled_scenario.server.machine.runtime_pool
        assert first.startswith("Runtime(")
        assert f"pooling=on({len(pool)}/{pool.capacity} warm)" in first
        assert "result_cache=on(" in first

    def test_explain_statement_carries_header_too(self, pooled_scenario):
        rows = pooled_scenario.server.fdbs.execute(
            "EXPLAIN SELECT 1 AS one"
        ).rows
        assert rows[0][0].startswith("Runtime(")

    def test_header_with_only_pooling_on(self):
        db = Database("pool-only", machine=Machine(), pooling=True)
        first = db.explain("SELECT 1 AS one").splitlines()[0]
        assert "pooling=on(" in first
        assert "result_cache=off" in first


RUNTIME_CHANGES = [
    {"pooling": True},
    {"result_cache": True},
    {"pool_capacity": 2},
    {"cache_capacity": 2},
    {"rmi_wall_latency_s": 0.001},
]


class TestConfigureRuntime:
    def test_requires_machine(self):
        with pytest.raises(ExecutionError):
            Database("no-machine").configure(pooling=True)

    @pytest.mark.parametrize("change", RUNTIME_CHANGES, ids=lambda c: next(iter(c)))
    def test_every_runtime_setting_requires_a_machine(self, change):
        """Regression: a machine-less database accepted runtime settings
        at construction and silently dropped them."""
        with pytest.raises(ExecutionError, match="needs a machine-attached database"):
            Database("no-machine", **change)
        db = Database("no-machine")
        with pytest.raises(ExecutionError, match="needs a machine-attached database"):
            db.configure(**change)
        assert db.options == Database("defaults").options

    def test_toggle_after_construction(self):
        db = Database("toggle", machine=Machine())
        db.configure(pooling=True, result_cache=True)
        assert db.machine.runtime_pool.enabled
        assert db.machine.result_cache.enabled
        db.configure(pooling=False, result_cache=False)
        assert not db.machine.runtime_pool.enabled
        assert not db.machine.result_cache.enabled

    def test_machine_runtime_stats_keys(self):
        machine = Machine()
        stats = machine.runtime_stats()
        assert set(stats) == {
            "runtime_pool", "result_cache", "rmi_udtf", "rmi_wfms", "faults"
        }
