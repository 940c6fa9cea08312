"""Hash joins onto unbound nicknames in the cost optimizer's FROM fold.

When the cost model rejects a bind join onto a nickname, the ship-all
scan becomes the build side of a hash join instead of a cross apply plus
a WHERE filter.  The hard invariant: rows, their order, every
per-source counter and the simulated clock equal forced ``nlj`` and the
syntactic plan, in every execution mode and for every source profile —
the hash table is built exactly when the cross-apply fold would have
pulled the remote side.  Also here: the nested-loop fold step filtered
by its own conjunct, identity projections, and ``IN (subquery)`` /
simple ``CASE`` comparing like ``=``.
"""

import sys
import threading
from decimal import Decimal

import pytest

from repro.core.architectures import Architecture
from repro.fdbs.engine import Database
from repro.fdbs.executor import ColumnBatch, HashJoinPlan, Plan, ProjectPlan, UnitPlan
from repro.fdbs.expr import ColumnSlot, CompiledExpr, EvalContext
from repro.fdbs.federation import (
    ARCHIVE_PROFILE,
    CACHE_FRONTED_PROFILE,
    WEB_API_PROFILE,
    DatabaseEndpoint,
)
from repro.sysmodel.machine import Machine
from tests.sql_battery.runner import build_battery_scenario

MODES = ("row", "columnar")

#: Counter key of the archive-profiled source in ``federation.stats()``.
ARCHIVE = "source:s_n_arch"

#: Nickname -> source profile (None: the uniform remote cost model).
SOURCES = {
    "n_arch": ARCHIVE_PROFILE,
    "n_cache": CACHE_FRONTED_PROFILE,
    "n_api": WEB_API_PROFILE,
    "n_plain": None,
}

LOCAL_ROWS = [
    (1, "ab", Decimal("1.50"), "x"),
    (2, "cd  ", Decimal("2.00"), "y"),
    (None, "ab  ", Decimal("3.25"), "x"),
    (3, None, None, "z"),
    (4, "ef", Decimal("1.50"), "y"),
    (2, "zz", Decimal("9.99"), "x"),
]

REMOTE_ROWS = [
    (index % 4 if index % 9 else None, s, index / 4, index)
    for index, s in enumerate(
        ["ab", "ab ", "cd", "ef  ", None, "gh", "cd   ", "ab", "ef"] * 5
    )
]


def make_db(
    optimizer="cost", mode="row", strategy="auto", machine=True, chunk_size=None
):
    """A database with two local tables and four profiled nicknames."""
    db = Database(
        "fed",
        machine=Machine() if machine else None,
        execution_mode=mode,
        optimizer=optimizer,
        chunk_size=chunk_size,
    )
    db.execute(
        "CREATE TABLE loc (k INT, s VARCHAR(8), d DECIMAL(6,2), tag VARCHAR(4))"
    )
    for row in LOCAL_ROWS:
        db.execute("INSERT INTO loc VALUES (?, ?, ?, ?)", params=list(row))
    db.execute("CREATE TABLE one (k INT)")
    db.execute("INSERT INTO one VALUES (2)")
    db.execute("CREATE WRAPPER w")
    for nickname, profile in SOURCES.items():
        remote = Database(f"remote-{nickname}")
        remote.execute("CREATE TABLE r (k INT, s VARCHAR(8), f DOUBLE, v INT)")
        for row in REMOTE_ROWS:
            remote.execute("INSERT INTO r VALUES (?, ?, ?, ?)", params=list(row))
        server = f"s_{nickname}"
        db.execute(f"CREATE SERVER {server} WRAPPER w")
        db.attach_endpoint(server, DatabaseEndpoint(remote), profile=profile)
        db.execute(f"CREATE NICKNAME {nickname} FOR {server}.r")
    for name in ("loc", "one", *SOURCES):
        db.execute(f"RUNSTATS {name}")
    if strategy != "auto":
        db.configure(join_strategy=strategy)
    return db


def observe(db, sql):
    """(rows, per-source counter deltas, simulated elapsed) of one run."""
    before = db.federation.stats()
    start = db.machine.clock.now
    rows = db.execute(sql).rows
    elapsed = db.machine.clock.now - start
    after = db.federation.stats()
    deltas = {
        source: {
            name: value - before.get(source, {}).get(name, 0)
            for name, value in counters.items()
        }
        for source, counters in after.items()
    }
    return rows, deltas, elapsed


def join_sql(nickname, extra=""):
    return (
        f"SELECT l.k, l.tag, n.v, n.s FROM loc AS l, {nickname} AS n "
        f"WHERE l.k = n.k{extra}"
    )


class TestPlanShape:
    @pytest.mark.parametrize("nickname", ["n_arch", "n_cache"])
    def test_rejected_bind_join_becomes_a_hash_join(self, nickname):
        text = make_db().explain(join_sql(nickname))
        assert "HashJoin(INNER, on (l.k = n.k), join=hash)" in text
        assert f"RemoteScan({nickname})" in text
        assert text.count("CrossApply") == 1  # only the Unit seed step

    def test_pushed_predicates_stay_on_the_hash_built_scan(self):
        text = make_db().explain(join_sql("n_arch", " AND n.v > 5"))
        assert "HashJoin" in text
        assert "RemoteScan(n_arch, pushed: (v > 5))" in text

    def test_web_api_keeps_its_bind_join(self):
        text = make_db().explain(
            "SELECT o.k, n.v FROM one AS o, n_api AS n WHERE o.k = n.k"
        )
        assert "BindJoin(n_api, bind: k)" in text
        assert "HashJoin" not in text

    def test_adaptive_factor_keeps_the_adaptive_join(self):
        db = make_db()
        db.configure(adaptive_join=2.0)
        text = db.explain(join_sql("n_arch"))
        assert "AdaptiveJoin(n_arch" in text
        assert "HashJoin" not in text

    def test_table_function_before_the_nickname_keeps_cross_apply(self):
        db = make_db()
        db.execute(
            "CREATE FUNCTION Twice (N INT) RETURNS TABLE (Y INT) LANGUAGE SQL "
            "DETERMINISTIC RETURN SELECT Twice.N * 2 AS Y"
        )
        sql = (
            "SELECT l.k, t.y, n.v FROM loc AS l, TABLE (Twice(l.k)) AS t, "
            "n_arch AS n WHERE t.y = n.k"
        )
        text = db.explain(sql)
        assert "HashJoin" not in text
        assert "RemoteScan(n_arch)" in text

    def test_decimal_double_keys_keep_cross_apply(self):
        sql = "SELECT l.k, n.v FROM loc AS l, n_arch AS n WHERE l.d = n.f"
        text = make_db().explain(sql)
        assert "HashJoin" not in text
        # The conjunct filters its own fold step, not the top-level WHERE.
        assert "Filter(on (l.d = n.f))" in text
        assert "Filter(WHERE)" not in text

    @pytest.mark.parametrize("strategy", ["merge", "indexnlj", "nlj"])
    def test_non_hash_strategies_leave_nicknames_on_nlj(self, strategy):
        text = make_db(strategy=strategy).explain(join_sql("n_arch"))
        assert "join=" not in text
        assert "Filter(on (l.k = n.k))" in text

    def test_forced_hash_applies_to_nicknames(self):
        text = make_db(strategy="hash").explain(join_sql("n_arch"))
        assert "HashJoin(INNER, on (l.k = n.k), join=hash)" in text


QUERIES = [
    join_sql("{nick}"),
    join_sql("{nick}", " AND n.v > 5 AND l.tag <> 'z'"),
    (
        "SELECT l.s, n.v FROM loc AS l, {nick} AS n "
        "WHERE l.s = n.s ORDER BY n.v DESC"
    ),
    (
        "SELECT l.k, a.v, c.v FROM loc AS l, n_arch AS a, {nick} AS c "
        "WHERE l.k = a.k AND a.v = c.v"
    ),
    "SELECT l.k, n.v FROM loc AS l, {nick} AS n WHERE l.d = n.f",
    (
        "SELECT COUNT(*), SUM(n.v) FROM loc AS l, {nick} AS n "
        "WHERE l.k = n.k AND l.k > 100"
    ),
]


class TestParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("nickname", sorted(SOURCES))
    def test_rows_counters_and_time_match_nlj_and_syntactic(self, mode, nickname):
        # One database per plan, each warmed by one run, so every
        # source's cache and rate-limit window start from equal state.
        dbs = {
            "auto": make_db("cost", mode),
            "hash": make_db("cost", mode, "hash"),
            "nlj": make_db("cost", mode, "nlj"),
            "syntactic": make_db("syntactic", mode),
        }
        for template in QUERIES:
            sql = template.format(nick=nickname)
            seen = {
                name: [observe(db, sql), observe(db, sql)]
                for name, db in dbs.items()
            }
            baseline = seen.pop("syntactic")
            for name, runs in seen.items():
                assert runs == seen["auto"], f"[{name}/{mode}] diverges: {sql}"
            assert [run[0] for run in seen["auto"]] == [run[0] for run in baseline]
            if "BindJoin" not in dbs["auto"].explain(sql):
                # A bind join ships less by design; everything else
                # must equal the syntactic fold.
                assert seen["auto"] == baseline, f"[{mode}] diverges: {sql}"

    @pytest.mark.parametrize(
        "sql",
        [
            join_sql("n_arch", " AND n.v > 5"),
            # Nickname first: its scan feeds the fold in slices.
            "SELECT a.k, a.s, c.v FROM n_arch AS a, n_cache AS c WHERE a.v = c.v",
        ],
    )
    def test_modes_agree_with_each_other(self, sql):
        results = {
            mode: observe(make_db("cost", mode, chunk_size=4), sql)
            for mode in MODES
        }
        assert results["row"][0]
        assert results["columnar"] == results["row"]


class TestLazyBuild:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", ["auto", "hash", "nlj"])
    def test_empty_outer_side_makes_no_request(self, mode, strategy):
        db = make_db("cost", mode, strategy)
        # Stale statistics keep the hash join while the outer is empty.
        db.execute("DELETE FROM loc")
        sql = join_sql("n_arch")
        if strategy != "nlj":
            assert "HashJoin" in db.explain(sql)
        reference = make_db("syntactic", mode)
        reference.execute("DELETE FROM loc")
        rows, deltas, elapsed = observe(db, sql)
        assert rows == []
        assert deltas[ARCHIVE]["requests"] == 0
        assert (rows, deltas, elapsed) == observe(reference, sql)

    @pytest.mark.parametrize("mode", MODES)
    def test_build_waits_for_the_first_outer_row(self, mode):
        db = make_db("cost", mode)
        sql = join_sql("n_arch", " AND l.k > 100")
        rows, deltas, _ = observe(db, sql)
        assert rows == []
        # Zone maps prune every chunk of loc: nothing reaches the join.
        assert deltas[ARCHIVE]["requests"] == 0


def _leaf(index):
    return CompiledExpr(
        lambda row, ctx, i=index: row[i], None, None, ("row", index)
    )


class _Chunks(Plan):
    """An outer input yielding fixed chunks (possibly empty ones)."""

    def __init__(self, chunks):
        self.schema = [ColumnSlot("l", "k", None)]
        self.chunks = chunks

    def rows(self, ctx):
        for chunk in self.chunks:
            yield from chunk

    def column_batches(self, ctx, size=1024):
        for chunk in self.chunks:
            yield ColumnBatch(len(chunk), rows=chunk)


class _Pulls(Plan):
    """A build side counting how often it is pulled."""

    def __init__(self):
        self.schema = [ColumnSlot("r", "k", None)]
        self.pulls = 0

    def rows(self, ctx):
        self.pulls += 1
        yield (1,)


class TestLazyBuildOperator:
    @staticmethod
    def run(chunks, method, lazy=True):
        right = _Pulls()
        join = HashJoinPlan(_Chunks(chunks), right, "INNER", [_leaf(0)], [_leaf(0)])
        join.lazy_build = lazy
        stream = getattr(join, method)(EvalContext())
        if method == "rows":
            return list(stream), right.pulls
        return [row for part in stream for row in part], right.pulls

    @pytest.mark.parametrize("method", ["rows", "column_batches"])
    def test_no_build_without_an_outer_row(self, method):
        for chunks in ([], [[]], [[], []]):
            assert self.run(chunks, method) == ([], 0)
        assert self.run([[], [(1,)], [(2,)]], method) == ([(1, 1)], 1)

    @pytest.mark.parametrize("method", ["rows", "column_batches"])
    def test_explicit_join_builds_first(self, method):
        assert self.run([], method, lazy=False) == ([], 1)


class TestKeys:
    @pytest.mark.parametrize("mode", MODES)
    def test_null_keys_never_match(self, mode):
        rows = make_db("cost", mode).execute(join_sql("n_arch")).rows
        assert rows
        assert all(row[0] is not None for row in rows)
        expected = make_db("syntactic", mode).execute(join_sql("n_arch")).rows
        assert rows == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_varchar_trailing_blanks_match_like_equals(self, mode):
        sql = (
            "SELECT l.s, n.s, n.v FROM loc AS l, n_arch AS n WHERE l.s = n.s"
        )
        db = make_db("cost", mode)
        assert "HashJoin" in db.explain(sql)
        rows = db.execute(sql).rows
        assert ("ab  ", "ab ", 1) in rows  # padded on both sides
        assert ("cd  ", "cd   ", 6) in rows
        assert rows == make_db("syntactic", mode).execute(sql).rows


class TestCachedPlans:
    def test_cached_plan_reused_across_dml(self):
        db = make_db("cost", "columnar")
        reference = make_db("syntactic", "columnar")
        sql = join_sql("n_arch")
        hits = db.statement_cache.stats()["plan_hits"]
        for step in range(4):
            assert db.execute(sql).rows == reference.execute(sql).rows
            for target in (db, reference):
                target.execute(
                    "INSERT INTO loc VALUES (?, 'q', 1.00, 'x')", params=[step % 7]
                )
                target.execute("DELETE FROM loc WHERE k = ?", params=[step])
        assert db.statement_cache.stats()["plan_hits"] > hits

    @pytest.mark.parametrize("mode", MODES)
    def test_shared_plan_from_four_threads(self, mode):
        db = make_db("cost", mode, machine=False)
        sql = join_sql("n_arch")
        expected = make_db("syntactic", mode, machine=False).execute(sql).rows
        assert "HashJoin" in db.explain(sql)
        db.execute(sql)
        db.execute(sql)  # the first cache hit stores the plan
        hits = db.statement_cache.stats()["plan_hits"]
        failures = []

        def worker():
            for _ in range(25):
                if db.execute(sql).rows != expected:
                    failures.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the shared plan's runs
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert db.statement_cache.stats()["plan_hits"] - hits == 100


class _Rows(UnitPlan):
    """A two-column input plan yielding fixed tuples."""

    def __init__(self, data):
        self.schema = [ColumnSlot("t", "a", None), ColumnSlot("t", "b", None)]
        self.data = data

    def rows(self, ctx):
        yield from self.data


class TestIdentityProjection:
    DATA = [(1, "x"), (2, None), (None, "z")]

    def project(self, indices):
        schema = [ColumnSlot("t", f"c{i}", None) for i in indices]
        return ProjectPlan(_Rows(self.DATA), [_leaf(i) for i in indices], schema)

    def test_identity_passes_input_tuples_through(self):
        plan = self.project([0, 1])
        out = list(plan.rows(None))
        assert out == self.DATA
        assert all(got is given for got, given in zip(out, self.DATA))

    @pytest.mark.parametrize("indices", [[1, 0], [0, 0], [1, 1], [0], [0, 1, 0]])
    def test_other_projections_take_the_general_path(self, indices):
        out = list(self.project(indices).rows(None))
        assert out == [tuple(row[i] for i in indices) for row in self.DATA]

    @pytest.mark.parametrize("mode", MODES)
    def test_sql_projections(self, mode):
        db = Database("proj", execution_mode=mode)
        db.execute("CREATE TABLE t (a INT, b VARCHAR(3))")
        for row in self.DATA:
            db.execute("INSERT INTO t VALUES (?, ?)", params=list(row))
        assert db.execute("SELECT * FROM t").rows == self.DATA
        assert db.execute("SELECT a, b FROM t").rows == self.DATA
        assert db.execute("SELECT b, a FROM t").rows == [
            (b, a) for a, b in self.DATA
        ]
        assert db.execute("SELECT a, a FROM t").rows == [
            (a, a) for a, _ in self.DATA
        ]
        assert db.execute("SELECT b, b FROM t").rows == [
            (b, b) for _, b in self.DATA
        ]


BATTERY_NLJ_SQL = (
    "SELECT w.pk, p.pno, o.order_no FROM bat_watch AS w, bat_parts AS p, "
    "arch_orders AS o WHERE w.pk = p.sno AND p.sno = o.supplier_no"
)


class TestNestedLoopFoldFilter:
    """Forced ``nlj`` used to pull the archive for a join whose earlier
    steps match nothing; every other strategy skipped it."""

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    def test_forced_nlj_pays_no_extra_request(self, data, mode):
        seen = {}
        for strategy in ("auto", "hash", "merge", "nlj"):
            scenario = build_battery_scenario(
                Architecture.ENHANCED_SQL_UDTF, mode, "cost", data=data,
                join_strategy=strategy,
            )
            fdbs = scenario.server.fdbs
            before = scenario.server.source_stats()["source:order_archive"]
            result, elapsed = scenario.server.elapsed(fdbs.execute, BATTERY_NLJ_SQL)
            after = scenario.server.source_stats()["source:order_archive"]
            seen[strategy] = (
                result.rows, after["requests"] - before["requests"], elapsed
            )
        assert seen["nlj"][1] == 0
        assert len(set(map(repr, seen.values()))) == 1

    @pytest.mark.parametrize("optimizer", ["syntactic", "cost"])
    @pytest.mark.parametrize("mode", MODES)
    def test_rows_agree_under_both_optimizers(self, data, optimizer, mode):
        scenario = build_battery_scenario(
            Architecture.ENHANCED_SQL_UDTF, mode, optimizer, data=data,
            join_strategy="nlj",
        )
        assert scenario.server.fdbs.execute(BATTERY_NLJ_SQL).rows == []

    @pytest.mark.parametrize("strategy", ["auto", "nlj"])
    def test_local_tables_filter_their_own_fold_step(self, strategy):
        db = make_db(strategy=strategy)
        db.execute("CREATE TABLE miss (k INT)")
        db.execute("INSERT INTO miss VALUES (99)")
        db.execute("RUNSTATS miss")
        sql = (
            "SELECT o.k, l.tag, n.v FROM miss AS o, loc AS l, n_arch AS n "
            "WHERE o.k = l.k AND l.k = n.k"
        )
        rows, deltas, _ = observe(db, sql)
        assert rows == []
        assert deltas[ARCHIVE]["requests"] == 0


class TestComparisonBugfixes:
    """``IN (subquery)`` and ``CASE x WHEN`` compare like ``=``."""

    @pytest.mark.parametrize("optimizer", ["syntactic", "cost"])
    @pytest.mark.parametrize("mode", MODES)
    def test_char_padding_and_numeric_mixes(self, optimizer, mode):
        db = Database("cmp", execution_mode=mode, optimizer=optimizer)
        db.execute("CREATE TABLE c (k CHAR(5), d DECIMAL(5,2), n INT)")
        db.execute("INSERT INTO c VALUES ('ab', 1.50, NULL)")
        db.execute("RUNSTATS c")
        assert db.execute("SELECT k FROM c WHERE k = 'ab'").rows == [("ab   ",)]
        assert db.execute(
            "SELECT k FROM c WHERE k IN (SELECT 'ab' FROM c)"
        ).rows == [("ab   ",)]
        assert db.execute(
            "SELECT k FROM c WHERE k NOT IN (SELECT 'ab' FROM c)"
        ).rows == []
        assert db.execute(
            "SELECT CASE k WHEN 'ab' THEN 1 ELSE 0 END, "
            "CASE WHEN k = 'ab' THEN 1 ELSE 0 END FROM c"
        ).rows == [(1, 1)]
        assert db.execute(
            "SELECT d FROM c WHERE d IN (SELECT 1.5 FROM c)"
        ).rows == db.execute("SELECT d FROM c WHERE d = 1.5").rows
        assert db.execute(
            "SELECT CASE d WHEN 1.5 THEN 'y' ELSE 'n' END FROM c"
        ).rows == [("y",)]

    @pytest.mark.parametrize("mode", MODES)
    def test_three_valued_logic_kept(self, mode):
        db = Database("tvl", execution_mode=mode)
        db.execute("CREATE TABLE c (k CHAR(5), n INT)")
        db.execute("INSERT INTO c VALUES ('ab', NULL)")
        # A NULL in the subquery makes a non-match unknown, not false.
        assert db.execute(
            "SELECT k FROM c WHERE 'zz' NOT IN (SELECT k FROM c UNION ALL "
            "SELECT NULL FROM c)"
        ).rows == []
        assert db.execute(
            "SELECT CASE n WHEN NULL THEN 1 ELSE 0 END FROM c"
        ).rows == [(0,)]

    @pytest.mark.parametrize("mode", MODES)
    def test_incomparable_types_raise_like_equals(self, mode):
        db = Database("err", execution_mode=mode)
        db.execute("CREATE TABLE c (k CHAR(5))")
        db.execute("INSERT INTO c VALUES ('ab')")
        with pytest.raises(Exception) as equals:
            db.execute("SELECT k FROM c WHERE k = 1")
        for sql in (
            "SELECT k FROM c WHERE k IN (SELECT 1 FROM c)",
            "SELECT CASE k WHEN 1 THEN 1 END FROM c",
        ):
            with pytest.raises(type(equals.value), match="cannot compare str with int"):
                db.execute(sql)
