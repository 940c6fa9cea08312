"""Heterogeneous source profiles: per-source wire models, RUNSTATS-visible
counters, profile-aware bind-join costing, the MAX_BIND_KEYS runtime
guard, NULL/empty bind-join edges, and chunk-counter consistency under
early LIMIT termination."""

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.engine import Database
from repro.fdbs.federation import (
    ARCHIVE_PROFILE,
    CACHE_FRONTED_PROFILE,
    DatabaseEndpoint,
    WEB_API_PROFILE,
)

JOIN_BY_NICKNAME = {
    "api_ratings": ("supplier_no", "source:ratings_api"),
    "arch_orders": ("supplier_no", "source:order_archive"),
    "cat_components": ("comp_no", "source:comp_catalog"),
}


@pytest.fixture()
def hetero():
    """A WFMS scenario with the three profiled sources federated."""
    return build_scenario(
        Architecture.WFMS,
        data=generate_enterprise_data(),
        optimizer="cost",
        heterogeneous=True,
    )


def runstats_sources(fdbs):
    for nickname in JOIN_BY_NICKNAME:
        fdbs.execute(f"RUNSTATS ON TABLE {nickname}")


class TestSourceProfiles:
    def test_profiles_attached_to_servers(self, hetero):
        catalog = hetero.server.fdbs.catalog
        assert catalog.get_server("RATINGS_API").profile is WEB_API_PROFILE
        assert catalog.get_server("ORDER_ARCHIVE").profile is ARCHIVE_PROFILE
        assert (
            catalog.get_server("COMP_CATALOG").profile is CACHE_FRONTED_PROFILE
        )

    def test_counters_surface_in_runtime_stats(self, hetero):
        fdbs = hetero.server.fdbs
        for nickname in JOIN_BY_NICKNAME:
            fdbs.execute(f"SELECT COUNT(*) FROM {nickname}")
        rows = fdbs.execute("SELECT * FROM SYSCAT_RUNTIME_STATS").rows
        components = {component for component, _counter, _value in rows}
        assert "source:ratings_api" in components
        assert "source:order_archive" in components
        assert "source:comp_catalog" in components
        counters = {
            counter
            for component, counter, _value in rows
            if component == "source:ratings_api"
        }
        assert counters == {
            "requests",
            "pages",
            "rows",
            "rate_limit_waits",
            "cache_hits",
        }

    def test_web_api_pages_and_rate_limit_stall(self, hetero):
        fdbs = hetero.server.fdbs
        server = hetero.server
        elapsed = []
        for _ in range(3):
            _, e = server.elapsed(
                fdbs.execute, "SELECT COUNT(*) FROM api_ratings"
            )
            elapsed.append(e)
        stats = server.source_stats()["source:ratings_api"]
        # 120 rows / page 25 = 5 paged requests per scan, three scans.
        assert stats["requests"] == 15
        assert stats["pages"] == 15
        # the 8-requests-per-window budget forces at least one stall
        assert stats["rate_limit_waits"] >= 1
        assert max(elapsed) > min(elapsed)

    def test_cache_fronted_repeat_scan_is_cheap(self, hetero):
        fdbs = hetero.server.fdbs
        server = hetero.server
        _, cold = server.elapsed(
            fdbs.execute, "SELECT * FROM cat_components"
        )
        fdbs.statement_cache.invalidate()
        _, warm = server.elapsed(
            fdbs.execute, "SELECT * FROM cat_components"
        )
        assert warm < cold
        assert server.source_stats()["source:comp_catalog"]["cache_hits"] >= 1

    def test_archive_scan_cheaper_than_api_scan(self, hetero):
        fdbs = hetero.server.fdbs
        server = hetero.server
        _, archive = server.elapsed(
            fdbs.execute, "SELECT COUNT(*) FROM arch_orders"
        )
        _, api = server.elapsed(
            fdbs.execute, "SELECT COUNT(*) FROM api_ratings"
        )
        # 240 archive rows cost less to scan than 120 web-API rows
        assert archive < api

    def test_cost_plans_diverge_across_profiles(self, hetero):
        """The acceptance-criterion divergence: the same join shape
        against each profile lands on different plans purely because of
        the per-source cost constants."""
        fdbs = hetero.server.fdbs
        fdbs.execute(
            "CREATE TABLE hwatch (pk INT PRIMARY KEY, supplier_no INT, "
            "comp_no INT)"
        )
        for pk in range(12):
            fdbs.execute(
                "INSERT INTO hwatch VALUES (?, ?, ?)",
                params=[pk, 1234 if pk % 3 == 0 else 5001 + pk % 4, 1 + pk],
            )
        fdbs.execute("RUNSTATS ON TABLE hwatch")
        runstats_sources(fdbs)
        plans = {}
        for nickname, (column, _) in JOIN_BY_NICKNAME.items():
            text = fdbs.explain(
                f"SELECT w.pk FROM hwatch AS w, {nickname} AS r "
                f"WHERE w.{column} = r.{column}"
            )
            plans[nickname] = "BindJoin" in text
        # paged-and-expensive web API: ship only the needed keys; the
        # scan-cheap archive and the cache-warm catalog: ship all.
        assert plans == {
            "api_ratings": True,
            "arch_orders": False,
            "cat_components": False,
        }


class TestBindKeyGuard:
    """MAX_BIND_KEYS is an estimate-based gate at plan time and an
    actual-count guard at run time: stale statistics must degrade to
    ship-all, never to an oversized IN list or wrong rows."""

    @staticmethod
    def _pair(extra_distinct_keys):
        remote = Database("remote")
        remote.execute(
            "CREATE TABLE orders (order_no INT PRIMARY KEY, comp_no INT)"
        )
        for index in range(50):
            remote.execute(
                "INSERT INTO orders VALUES (?, ?)", params=[index, index % 5]
            )
        local = Database("local")
        local.execute("CREATE WRAPPER w")
        local.execute("CREATE SERVER s WRAPPER w")
        local.attach_endpoint("s", DatabaseEndpoint(remote))
        local.execute("CREATE NICKNAME n FOR s.orders")
        local.execute("CREATE TABLE watch (pk INT PRIMARY KEY, comp_no INT)")
        for index in range(6):
            local.execute(
                "INSERT INTO watch VALUES (?, ?)", params=[index, index % 2]
            )
        local.execute("RUNSTATS watch")
        local.execute("RUNSTATS n")
        local.configure(optimizer="cost")
        # stale statistics: new distinct keys arrive after RUNSTATS
        for index in range(extra_distinct_keys):
            local.execute(
                "INSERT INTO watch VALUES (?, ?)",
                params=[100 + index, 1000 + index],
            )
        return local

    SQL = (
        "SELECT w.pk, o.order_no FROM watch AS w, n AS o "
        "WHERE w.comp_no = o.comp_no ORDER BY w.pk, o.order_no"
    )

    def test_exactly_at_cap_still_binds(self):
        local = self._pair(extra_distinct_keys=198)  # 2 + 198 = 200 keys
        assert "BindJoin" in local.explain(self.SQL)
        rows = local.execute(self.SQL).rows
        assert local.federation.bind_join_count == 1
        assert local.federation.bind_join_fallbacks == 0
        local.configure(optimizer="syntactic")
        assert local.execute(self.SQL).rows == rows

    def test_one_past_cap_falls_back_to_ship_all(self):
        local = self._pair(extra_distinct_keys=199)  # 2 + 199 = 201 keys
        assert "BindJoin" in local.explain(self.SQL)  # plan gate is stale
        rows = local.execute(self.SQL).rows
        assert local.federation.bind_join_count == 0
        assert local.federation.bind_join_fallbacks == 1
        local.configure(optimizer="syntactic")
        assert local.execute(self.SQL).rows == rows

    def test_profile_cap_guards_at_fifty_keys(self, hetero):
        """The web-API profile lowers the cap to 50: growing the outer
        side past it after RUNSTATS must trigger the same runtime
        fallback, with identical rows."""
        fdbs = hetero.server.fdbs
        fdbs.execute(
            "CREATE TABLE probe (pk INT PRIMARY KEY, supplier_no INT)"
        )
        for index in range(6):
            fdbs.execute(
                "INSERT INTO probe VALUES (?, ?)",
                params=[index, 1234 if index == 0 else 5000 + index],
            )
        fdbs.execute("RUNSTATS ON TABLE probe")
        runstats_sources(fdbs)
        sql = (
            "SELECT p.pk, r.score FROM probe AS p, api_ratings AS r "
            "WHERE p.supplier_no = r.supplier_no ORDER BY p.pk, r.score"
        )
        assert "BindJoin" in fdbs.explain(sql)
        layer = fdbs.federation
        binds = layer.bind_join_count
        fdbs.execute(sql)
        assert layer.bind_join_count == binds + 1
        for index in range(6, 55):  # 55 distinct keys > profile cap 50
            fdbs.execute(
                "INSERT INTO probe VALUES (?, ?)",
                params=[index, 9000 + index],
            )
        assert "BindJoin" in fdbs.explain(sql)  # stale estimate still binds
        binds = layer.bind_join_count
        fallbacks = layer.bind_join_fallbacks
        rows = fdbs.execute(sql).rows
        assert layer.bind_join_count == binds
        assert layer.bind_join_fallbacks == fallbacks + 1
        fdbs.configure(optimizer="syntactic")
        assert fdbs.execute(sql).rows == rows


class TestNullAndEmptyBindEdges:
    """NULL join keys never match an inner equality; what each profile
    *charges* for discovering that depends on the plan it picked."""

    @pytest.fixture()
    def edges(self, hetero):
        fdbs = hetero.server.fdbs
        fdbs.execute(
            "CREATE TABLE nulls (pk INT PRIMARY KEY, supplier_no INT, "
            "comp_no INT)"
        )
        for pk in range(5):
            fdbs.execute(
                "INSERT INTO nulls VALUES (?, NULL, NULL)", params=[pk]
            )
        fdbs.execute(
            "CREATE TABLE empty_t (pk INT PRIMARY KEY, supplier_no INT, "
            "comp_no INT)"
        )
        fdbs.execute("RUNSTATS ON TABLE nulls")
        fdbs.execute("RUNSTATS ON TABLE empty_t")
        runstats_sources(fdbs)
        return hetero

    @pytest.mark.parametrize("nickname", sorted(JOIN_BY_NICKNAME))
    @pytest.mark.parametrize("outer", ["nulls", "empty_t"])
    def test_no_matches_and_profile_consistent_charging(
        self, edges, nickname, outer
    ):
        fdbs = edges.server.fdbs
        column, stats_key = JOIN_BY_NICKNAME[nickname]
        sql = (
            f"SELECT o.pk FROM {outer} AS o, {nickname} AS r "
            f"WHERE o.{column} = r.{column}"
        )
        before = edges.server.source_stats()[stats_key]["requests"]
        rows = fdbs.execute(sql).rows
        delta = edges.server.source_stats()[stats_key]["requests"] - before
        assert rows == []
        if nickname == "api_ratings":
            # bind join: zero usable keys, the fetch is skipped outright
            assert delta == 0
        elif nickname == "arch_orders":
            # ship-all: an all-NULL outer still pulls the archive once;
            # an empty outer never pulls the lazy inner side at all
            assert delta == (1 if outer == "nulls" else 0)
        else:
            # cache-fronted: RUNSTATS warmed the response cache, so
            # even the ship-all pull is a cache hit, not a request
            assert delta == 0


class TestChunkCountersUnderLimit:
    """EXPLAIN ANALYZE ``pruned=N/M chunks`` and the global
    ``chunks_scanned`` counter stay consistent when LIMIT stops a
    columnar scan early.

    Plain columnar execution streams: a satisfied LIMIT closes the scan
    generator, and the counters record only the chunks actually
    examined (pruned) or delivered (scanned).  EXPLAIN ANALYZE instead
    reports the execution *it* performed — the row pipeline, whose
    static join sides materialise — so its ``pruned=N/M`` covers the
    full drain.  Both views satisfy the same identity: the scanned
    delta equals delivered chunks (``M - N`` for the drain ANALYZE
    reports)."""

    @staticmethod
    def _db():
        db = Database("chunks", execution_mode="columnar", chunk_size=4)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for index in range(40):
            db.execute(
                "INSERT INTO t VALUES (?, ?)", params=[index, index % 7]
            )
        return db

    def test_early_limit_counts_only_examined_chunks(self):
        db = self._db()
        before = db.columnar_stats()
        rows = db.execute(
            "SELECT t.id FROM t WHERE t.id >= 8 LIMIT 2"
        ).rows
        after = db.columnar_stats()
        assert rows == [(8,), (9,)]
        # chunks 0-1 (ids 0..7) are zone-pruned; LIMIT 2 is satisfied
        # by the first delivered chunk, and the scan stops there.
        assert after["chunks_pruned"] - before["chunks_pruned"] == 2
        assert after["chunks_scanned"] - before["chunks_scanned"] == 1

    def test_full_scan_counts_all_chunks(self):
        db = self._db()
        before = db.columnar_stats()
        db.execute("SELECT t.id FROM t WHERE t.id >= 8")
        after = db.columnar_stats()
        assert after["chunks_pruned"] - before["chunks_pruned"] == 2
        assert after["chunks_scanned"] - before["chunks_scanned"] == 8

    def test_explain_analyze_reports_its_own_drain(self):
        db = self._db()
        before = db.columnar_stats()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT t.id FROM t WHERE t.id >= 8 LIMIT 2"
        )
        after = db.columnar_stats()
        scan_line = next(
            line for line, in result.rows if "TableScan" in line
        )
        assert "[pruned=2/10 chunks]" in scan_line
        # identity: scanned delta == delivered == M - N
        assert after["chunks_scanned"] - before["chunks_scanned"] == 8
        assert after["chunks_pruned"] - before["chunks_pruned"] == 2
