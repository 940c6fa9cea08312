"""Local join strategies, cardinality feedback and the adaptive join.

The hard invariant throughout: every join strategy — nested-loop, hash,
sort-merge, index nested-loop, and the adaptive remote join on either of
its paths — produces *bit-identical rows* to the syntactic plan, and
(because local join operators charge no simulated time of their own)
identical simulated elapsed times on a machine-backed database.
"""

import pytest

from repro.errors import ExecutionError
from repro.fdbs.engine import Database
from repro.fdbs.federation import DatabaseEndpoint
from repro.fdbs.stats import StatsFeedback, q_error
from repro.sysmodel.machine import Machine

STRATEGIES = ("auto", "hash", "merge", "indexnlj", "nlj")

JOIN_SQL = (
    "SELECT b.id, b.val, s.name FROM big AS b, small AS s "
    "WHERE b.grp = s.grp AND b.val > 60 ORDER BY b.id"
)


def make_local_pair(optimizer="cost", mode="row", machine=None, runstats=True):
    """A database with two comma-joinable base tables (numeric key)."""
    db = Database("joins", machine=machine, execution_mode=mode,
                  optimizer=optimizer)
    db.execute("CREATE TABLE big (id INTEGER, grp INTEGER, val INTEGER)")
    db.execute("CREATE TABLE small (grp INTEGER, name VARCHAR(10))")
    for index in range(120):
        db.execute(
            "INSERT INTO big VALUES (?, ?, ?)", params=[index, index % 8, index]
        )
    for grp in range(8):
        db.execute("INSERT INTO small VALUES (?, ?)", params=[grp, f"g{grp}"])
    if runstats:
        db.execute("RUNSTATS big")
        db.execute("RUNSTATS small")
    return db


class TestStrategySweep:
    @pytest.mark.parametrize("mode", ["row", "columnar"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rows_bit_identical_across_strategies(self, mode, strategy):
        baseline = make_local_pair("syntactic", mode).execute(JOIN_SQL).rows
        assert baseline  # the sweep must exercise real matches
        db = make_local_pair("cost", mode)
        db.configure(join_strategy=strategy)
        assert db.execute(JOIN_SQL).rows == baseline

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_simulated_time_identical_across_strategies(self, strategy):
        def run(optimizer, strategy="auto"):
            machine = Machine()
            db = make_local_pair(optimizer, machine=machine)
            db.configure(join_strategy=strategy)
            db.execute(JOIN_SQL)  # warm statement cache + plan compile
            start = machine.clock.now
            rows = db.execute(JOIN_SQL).rows
            return rows, machine.clock.now - start

        base_rows, base_elapsed = run("syntactic")
        rows, elapsed = run("cost", strategy)
        assert rows == base_rows
        assert elapsed == base_elapsed

    def test_forced_strategies_reach_the_executor(self):
        for strategy, token in (
            ("hash", "join=hash"),
            ("merge", "join=merge"),
            ("indexnlj", "join=indexnlj"),
        ):
            db = make_local_pair()
            db.configure(join_strategy=strategy)
            assert token in db.explain(JOIN_SQL)
            # Counters track *built* operators, so EXPLAIN counts too.
            assert db.join_stats()[f"joins_{strategy}"] == 1
            db.execute(JOIN_SQL)
            assert db.join_stats()[f"joins_{strategy}"] == 2

    def test_forced_nlj_keeps_the_syntactic_fold(self):
        db = make_local_pair()
        db.configure(join_strategy="nlj")
        text = db.explain(JOIN_SQL)
        assert "join=" not in text
        assert "CrossApply" in text

    def test_unknown_strategy_rejected(self):
        db = Database("bad")
        with pytest.raises(ExecutionError):
            db.configure(join_strategy="loop")

    def test_stats_absent_keeps_syntactic_plan(self):
        db = make_local_pair(runstats=False)
        assert "join=" not in db.explain(JOIN_SQL)


class TestMergeJoin:
    def test_presorted_input_skips_the_sort(self):
        # ``big.grp`` cycles 0..7 (unsorted); ``small.grp`` is inserted
        # ascending, so with small as the inner side the sort is skipped.
        db = make_local_pair()
        db.configure(join_strategy="merge")
        sql = (
            "SELECT b.id, s.name FROM small AS s, big AS b "
            "WHERE s.grp = b.grp ORDER BY b.id"
        )
        text = db.explain(sql)
        assert "join=merge" in text
        # The optimizer reorders: small (8 rows) outer, big inner —
        # big's key column is 0..7 cycling, hence an explicit sort.
        assert "input=sort" in text

    def test_sorted_hint_reported_for_ordered_inner(self):
        # ``inner_t`` (40 rows, ascending key: RUNSTATS records
        # sorted_asc) stays inner after reordering puts the 10-row
        # ``outer_t`` first — the explicit sort is skipped.
        def build(name):
            db = Database(name)
            db.execute("CREATE TABLE outer_t (k INTEGER)")
            db.execute("CREATE TABLE inner_t (k INTEGER, tag VARCHAR(5))")
            for index in range(10):
                db.execute(
                    "INSERT INTO outer_t VALUES (?)", params=[index % 4]
                )
            for index in range(40):
                db.execute(
                    "INSERT INTO inner_t VALUES (?, ?)", params=[index, "x"]
                )
            return db

        db = build("sorted")
        db.execute("RUNSTATS outer_t")
        db.execute("RUNSTATS inner_t")
        db.configure(optimizer="cost")
        db.configure(join_strategy="merge")
        sql = (
            "SELECT o.k, i.tag FROM outer_t AS o, inner_t AS i "
            "WHERE o.k = i.k ORDER BY o.k"
        )
        assert "input=presorted" in db.explain(sql)
        assert db.execute(sql).rows == build("sorted-base").execute(sql).rows


class TestFeedback:
    def prepare_stale(self):
        """RUNSTATS at 1000 rows, then shrink ``big`` to 50 (q-error 20)."""
        db = Database("stale", optimizer="cost")
        db.execute("CREATE TABLE big (id INTEGER, grp INTEGER)")
        db.execute("CREATE TABLE small (grp INTEGER, name VARCHAR(10))")
        for index in range(1000):
            db.execute(
                "INSERT INTO big VALUES (?, ?)", params=[index, index % 10]
            )
        for grp in range(10):
            db.execute(
                "INSERT INTO small VALUES (?, ?)", params=[grp, f"g{grp}"]
            )
        db.execute("RUNSTATS big")
        db.execute("RUNSTATS small")
        db.execute("DELETE FROM big WHERE id >= 50")
        return db

    def test_analyze_records_feedback_and_bumps_epoch(self):
        db = self.prepare_stale()
        sql = (
            "SELECT b.id, s.name FROM big AS b, small AS s "
            "WHERE b.grp = s.grp"
        )
        epoch = db.catalog.stats_epoch
        db.execute("EXPLAIN ANALYZE " + sql)
        assert db.catalog.stats_epoch == epoch + 1
        feedback = db.catalog.feedback_for("big")
        assert feedback is not None
        assert feedback.observed == 50
        assert feedback.q_error == pytest.approx(20.0)
        stats = db.join_stats()
        assert stats["plans_invalidated"] == 1
        assert stats["max_q_error_pct"] == 2000
        # Planning now sees the corrected cardinality...
        assert db.catalog.planning_statistics("big").card == 50
        # ...and the replanned estimate reflects it.
        assert "est=50" in db.explain("SELECT b.id FROM big AS b")

    def test_feedback_invalidates_cached_statements(self):
        db = self.prepare_stale()
        sql = (
            "SELECT b.id, s.name FROM big AS b, small AS s "
            "WHERE b.grp = s.grp"
        )
        db.execute(sql)
        hits_before = db.statement_cache.stats()["hits"]
        db.execute(sql)
        assert db.statement_cache.stats()["hits"] == hits_before + 1
        db.execute("EXPLAIN ANALYZE " + sql)  # bumps the stats epoch
        hits_after = db.statement_cache.stats()["hits"]
        db.execute(sql)  # namespace changed: recompiles, no new hit
        assert db.statement_cache.stats()["hits"] == hits_after

    def test_small_drift_below_threshold_is_ignored(self):
        db = make_local_pair()
        db.execute("DELETE FROM big WHERE id >= 100")  # 120 -> 100: q 1.2
        epoch = db.catalog.stats_epoch
        db.execute("EXPLAIN ANALYZE " + JOIN_SQL)
        assert db.catalog.stats_epoch == epoch
        assert db.catalog.feedback() == []
        assert db.join_stats()["max_q_error_pct"] >= 100

    def test_runstats_clears_feedback(self):
        db = self.prepare_stale()
        db.execute(
            "EXPLAIN ANALYZE SELECT b.id, s.name FROM big AS b, small AS s "
            "WHERE b.grp = s.grp"
        )
        assert db.catalog.feedback_for("big") is not None
        db.execute("RUNSTATS big")
        assert db.catalog.feedback_for("big") is None
        assert db.catalog.planning_statistics("big").card == 50  # fresh scan

    def test_feedback_never_creates_statistics(self):
        db = make_local_pair(runstats=False)
        epoch = db.catalog.stats_epoch
        db.execute("EXPLAIN ANALYZE " + JOIN_SQL)
        # Without RUNSTATS the plan is syntactic, scans carry no
        # estimates, and no feedback may materialise.
        assert db.catalog.feedback() == []
        assert db.catalog.stats_epoch == epoch
        assert db.catalog.planning_statistics("big") is None
        # Even a directly recorded observation is refused.
        db.catalog.record_feedback(
            StatsFeedback(table="big", estimated=1, observed=9, q_error=9.0)
        )
        assert db.catalog.feedback() == []

    def test_q_error_is_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0
        assert q_error(0, 5) == 1.0


class TestAdaptiveJoin:
    def make_federated(self, optimizer="cost"):
        remote = Database("remote")
        remote.execute(
            "CREATE TABLE orders (order_no INTEGER, comp_no INTEGER)"
        )
        for index in range(100):
            remote.execute(
                "INSERT INTO orders VALUES (?, ?)", params=[index, index % 5]
            )
        local = Database("local", optimizer=optimizer)
        local.execute("CREATE WRAPPER w")
        local.execute("CREATE SERVER s WRAPPER w")
        local.attach_endpoint("s", DatabaseEndpoint(remote))
        local.execute("CREATE NICKNAME n FOR s.orders")
        local.execute("CREATE TABLE watch (pk INTEGER, comp_no INTEGER)")
        for index in range(20):
            local.execute(
                "INSERT INTO watch VALUES (?, ?)", params=[index, index % 5]
            )
        return local, remote

    SQL = (
        "SELECT w.pk, o.order_no FROM watch AS w, n AS o "
        "WHERE w.comp_no = o.comp_no ORDER BY w.pk, o.order_no"
    )

    def test_factor_validation(self):
        db = Database("v")
        with pytest.raises(ExecutionError):
            db.configure(adaptive_join=0.5)
        db.configure(adaptive_join=None)  # disable is always legal

    def test_escape_hatch_fires_on_remote_blowup(self):
        local, remote = self.make_federated()
        local.execute("RUNSTATS watch")
        local.execute("RUNSTATS n")
        for index in range(100, 5000):  # remote grows 50x after RUNSTATS
            remote.execute(
                "INSERT INTO orders VALUES (?, ?)", params=[index, index % 5]
            )
        local.configure(adaptive_join=4.0)
        assert "AdaptiveJoin(n" in local.explain(self.SQL)
        rows = local.execute(self.SQL).rows
        assert local.join_stats()["midquery_fallbacks"] == 1
        baseline, grown = self.make_federated("syntactic")
        for index in range(100, 5000):
            grown.execute(
                "INSERT INTO orders VALUES (?, ?)", params=[index, index % 5]
            )
        assert rows == baseline.execute(self.SQL).rows

    def test_no_fallback_when_estimate_holds(self):
        local, _ = self.make_federated()
        local.execute("RUNSTATS watch")
        local.execute("RUNSTATS n")
        local.configure(adaptive_join=4.0)
        baseline, _ = self.make_federated("syntactic")
        assert local.execute(self.SQL).rows == baseline.execute(self.SQL).rows
        assert local.join_stats()["midquery_fallbacks"] == 0

    def test_disabled_without_factor(self):
        local, _ = self.make_federated()
        local.execute("RUNSTATS watch")
        local.execute("RUNSTATS n")
        assert "AdaptiveJoin" not in local.explain(self.SQL)


class TestRuntimeCounters:
    def test_joins_component_in_syscat(self):
        db = make_local_pair()
        db.execute(JOIN_SQL)
        rows = db.execute(
            "SELECT counter, value FROM SYSCAT_RUNTIME_STATS "
            "WHERE component = 'joins'"
        ).rows
        counters = dict(rows)
        for key in (
            "joins_hash",
            "joins_merge",
            "joins_indexnlj",
            "joins_nlj",
            "plans_invalidated",
            "midquery_fallbacks",
            "max_q_error_pct",
            "stats_epoch",
        ):
            assert key in counters
        assert sum(
            counters[key]
            for key in ("joins_hash", "joins_merge", "joins_indexnlj")
        ) >= 1

    def test_explicit_joins_counted_too(self):
        db = Database("explicit", execution_mode="columnar")
        db.execute("CREATE TABLE l (a INTEGER)")
        db.execute("CREATE TABLE r (b INTEGER)")
        db.execute("INSERT INTO l VALUES (1)")
        db.execute("INSERT INTO r VALUES (1)")
        db.execute("SELECT * FROM l JOIN r ON l.a = r.b")
        db.execute("SELECT * FROM l JOIN r ON l.a < r.b")
        stats = db.join_stats()
        assert stats["joins_hash"] == 1
        assert stats["joins_nlj"] == 1
