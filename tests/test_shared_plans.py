"""Compiled plans shared between the databases of one serving worker.

A plan binds no :class:`~repro.fdbs.engine.Database`: operators keep
catalog names and resolve storage, functions and fetchers through the
executing database, ``ctx.database``.  So the databases stamped from
one :class:`~repro.serving.template.SessionTemplate` share their plans
through the template's :class:`~repro.fdbs.session.ParseMap`, keyed by
the planner options' key, the catalog's ``schema_key`` and the
statement text.  The contract pinned here:

* the key is sound: two catalogs after equally many schema changes but
  with different schemas never share a plan, and every field of every
  catalog definition moves ``schema_key``;
* a session that adopts plans returns the rows, simulated times and
  runtime counters of a fresh build, also when threads stamp, build,
  store and adopt on one template at once;
* texts that differ only in a literal's blanks are different
  statements, in the statement cache and in the map;
* the map holds plans, not databases: a dropped session is freed;
* the map's bound holds with plans in it;
* a second pass over one template plans nothing and builds no index.
"""

import dataclasses
import gc
import sys
import weakref

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.errors import PlanError
from repro.fdbs import ast
from repro.fdbs.catalog import (
    DEFINITIONS,
    ColumnDef,
    ExternalTableFunction,
    FunctionParam,
    NicknameDef,
    ProcedureDef,
    ServerDef,
    SqlTableFunction,
    TableDef,
    ViewDef,
    WrapperDef,
    describe,
)
from repro.fdbs.engine import Database
from repro.fdbs.federation import ARCHIVE_PROFILE, WEB_API_PROFILE
from repro.fdbs.options import Options
from repro.fdbs.parser import parse_statement
from repro.fdbs.planner import Planner
from repro.fdbs.session import ParseMap
from repro.fdbs.storage import Table
from repro.fdbs.types import INTEGER, VARCHAR
from repro.serving.shard import run_script
from repro.serving.template import SessionTemplate, ShardConfig
from repro.serving.workload import SessionScript, make_profile_workload, make_workload
from repro.udtf.sql_iudtf import create_sql_iudtf

from tests.test_session_template import (
    BUY,
    DATA,
    FAULTS,
    SUPP_QUAL,
    bare,
    outcome,
    run_on_threads,
)

BODY = parse_statement("SELECT 1 FROM t")
OTHER_BODY = parse_statement("SELECT 2 FROM t")

#: Every dataclass a schema change describes.
DESCRIBED = DEFINITIONS + (ColumnDef, FunctionParam)

#: One instance per described dataclass, and a different value per field.
SAMPLES = {
    ColumnDef: (
        ColumnDef("A", INTEGER),
        {"name": "B", "type": VARCHAR(4), "not_null": True},
    ),
    FunctionParam: (
        FunctionParam("P", INTEGER),
        {"name": "Q", "type": VARCHAR(4), "mode": "OUT"},
    ),
    TableDef: (
        TableDef("T", [ColumnDef("A", INTEGER)], ["A"], None),
        {
            "name": "U",
            "columns": [ColumnDef("A", VARCHAR(5))],
            "primary_key": [],
            "storage": Table("T", [ColumnDef("A", INTEGER)]),
        },
    ),
    SqlTableFunction: (
        SqlTableFunction("F", [FunctionParam("P", INTEGER)], [ColumnDef("X", INTEGER)], BODY),
        {
            "name": "G",
            "params": [FunctionParam("P", VARCHAR(3))],
            "returns": [ColumnDef("Y", INTEGER)],
            "body": OTHER_BODY,
            "deterministic": True,
            "kind": "other",
        },
    ),
    ExternalTableFunction: (
        ExternalTableFunction("E", [], [ColumnDef("X", INTEGER)], "ext:e"),
        {
            "name": "E2",
            "params": [FunctionParam("P", INTEGER)],
            "returns": [ColumnDef("X", VARCHAR(2))],
            "external_name": "ext:f",
            "language": "C",
            "fenced": False,
            "implementation": lambda: [],
            "deterministic": True,
            "owner_system": "stock",
            "source_deterministic": True,
            "rows_typed": True,
            "kind": "other",
        },
    ),
    ProcedureDef: (
        ProcedureDef("P", [FunctionParam("A", INTEGER)], []),
        {
            "name": "Q",
            "params": [],
            "body": [ast.PsmSet("A", ast.Literal(1))],
        },
    ),
    WrapperDef: (WrapperDef("W"), {"name": "W2"}),
    ServerDef: (
        ServerDef("S", "W", None, ARCHIVE_PROFILE),
        {"name": "S2", "wrapper": "W2", "endpoint": object(), "profile": WEB_API_PROFILE},
    ),
    ViewDef: (ViewDef("V", None, BODY), {"name": "V2", "columns": ["C"], "body": OTHER_BODY}),
    NicknameDef: (
        NicknameDef("N", "S", "remote", [ColumnDef("A", INTEGER)]),
        {
            "name": "N2",
            "server": "S2",
            "remote_name": "other",
            "columns": [ColumnDef("B", INTEGER)],
        },
    ),
}


def two_sessions(template=None):
    template = template or SessionTemplate(ShardConfig(data=DATA))
    return [template.stamp(Architecture.SIMPLE_UDTF) for _ in range(2)]


class TestSchemaKey:
    def test_equal_ddl_counts_with_different_tables_plan_apart(self):
        first, second = (server.fdbs for server in two_sessions())
        first.execute("CREATE TABLE T (a INT, b INT)")
        first.execute("INSERT INTO T VALUES (?, ?)", [1, 2])
        second.execute("CREATE TABLE T (x VARCHAR(5))")
        second.execute("INSERT INTO T VALUES (?)", ["q"])
        assert first.catalog.schema_key != second.catalog.schema_key
        for _ in range(3):  # cold, first hit, cached
            one = first.execute("SELECT * FROM T")
            two = second.execute("SELECT * FROM T")
            assert (one.columns, one.rows) == (["a", "b"], [(1, 2)])
            assert (two.columns, two.rows) == (["x"], [("q",)])

    def test_every_definition_has_samples_for_every_field(self):
        assert set(SAMPLES) == set(DESCRIBED)
        for kind, (sample, other) in SAMPLES.items():
            assert type(sample) is kind
            assert set(other) == {f.name for f in dataclasses.fields(kind)}, kind

    @pytest.mark.parametrize(
        "kind, field",
        [
            (kind, f)
            for kind in DESCRIBED
            for f in dataclasses.fields(kind)
        ],
        ids=lambda value: getattr(value, "__name__", getattr(value, "name", None)),
    )
    def test_every_field_moves_the_schema_key(self, kind, field):
        sample, other = SAMPLES[kind]
        changed = dataclasses.replace(sample, **{field.name: other[field.name]})
        before, after = Database("a").catalog, Database("b").catalog
        before.note_ddl(f"CREATE {describe(sample)}")
        after.note_ddl(f"CREATE {describe(changed)}")
        assert before.schema_key != after.schema_key, field.name

    def test_presence_fields_fold_only_whether_they_are_set(self):
        table = SAMPLES[TableDef][0]
        with_storage = dataclasses.replace(table, storage=Table("T", table.columns))
        other_storage = dataclasses.replace(table, storage=Table("T", table.columns))
        assert describe(with_storage) == describe(other_storage) != describe(table)

    def test_the_same_changes_give_the_same_key(self):
        ddl = ["CREATE TABLE a (k INT)", "CREATE TABLE b (k INT)", "DROP TABLE a"]
        changed = ["CREATE TABLE a (k INT)", "CREATE TABLE b (k SMALLINT)", "DROP TABLE a"]
        keys = []
        for statements in (ddl, ddl, changed):
            db = Database("keys", parses=ParseMap(8))
            for statement in statements:
                db.execute(statement)
            keys.append(db.catalog.schema_key)
        assert keys[0] == keys[1] != keys[2]

    def test_without_a_map_every_change_still_moves_the_key(self):
        """A database that shares no plans folds only the statement
        kind, which its own statement cache needs no more than."""
        db = Database("alone")
        seen = {db.catalog.schema_key}
        for statement in ("CREATE TABLE a (k INT)", "DROP TABLE a") * 2:
            db.execute(statement)
            seen.add(db.catalog.schema_key)
        assert len(seen) == 5


class TestAdoption:
    def test_stamps_that_adopt_equal_fresh_builds_in_counters(self):
        options = Options(execution_mode="columnar")
        template = SessionTemplate(ShardConfig(data=DATA, options=options))
        fresh = build_scenario(Architecture.SIMPLE_UDTF, data=DATA, options=options).server
        query = "SELECT l.a, r.b FROM l JOIN r ON l.a = r.b"
        stats = []
        for server in two_sessions(template) + [fresh]:
            db = server.fdbs
            db.execute("CREATE TABLE l (a INT)")
            db.execute("CREATE TABLE r (b INT)")
            db.execute("INSERT INTO l VALUES (1)")
            db.execute("INSERT INTO r VALUES (1)")
            for _ in range(4):
                assert db.execute(query).rows == [(1, 1)]
            stats.append(db.runtime_stats())
        assert stats[0] == stats[1] == stats[2]
        assert stats[0]["joins"]["joins_hash"] == 2  # built, then adopted on the hit
        assert stats[0]["statement_cache"]["plan_hits"] == 2

    def test_texts_differing_in_literal_blanks_never_share_a_plan(self):
        """Blanks inside a literal change the statement, so each text
        keeps its own cache entry and shared plan: two sessions on one
        map return what a bare build does, cold, on the first hit and
        from the cached plan."""
        first, second = (server.fdbs for server in two_sessions())
        plain = Database("plain")
        for db in (first, second, plain):
            db.execute("CREATE TABLE t (s VARCHAR(10))")
            db.execute("INSERT INTO t VALUES ('a  b'), ('a b')")
        for _ in range(3):
            for db in (first, second, plain):
                assert db.execute("SELECT s FROM t WHERE s = 'a  b'").rows == [("a  b",)]
                assert db.execute("SELECT s FROM t WHERE s = 'a b'").rows == [("a b",)]

    def test_plans_read_from_statistics_are_not_shared(self):
        parses = ParseMap(64)
        db = Database("stats", parses=parses, optimizer="cost")
        db.execute("CREATE TABLE a (k INT)")
        db.execute("CREATE TABLE b (k INT)")
        db.execute("RUNSTATS a")
        db.execute("RUNSTATS b")
        db.execute("SELECT * FROM a, b WHERE a.k = b.k")
        assert parses.plan_count() == 0
        db.configure(optimizer="syntactic")
        db.execute("SELECT * FROM a, b WHERE a.k = b.k")
        assert parses.plan_count() == 1

    def test_a_dropped_session_is_freed_while_its_plans_stay(self):
        template = SessionTemplate(ShardConfig(data=DATA))
        server = template.stamp(Architecture.ENHANCED_SQL_UDTF)
        server.call("GetSuppQual", "ACME Industrial")
        server.fdbs.execute("SELECT * FROM TABLE (GetQuality(?)) AS R", [1234])
        ref = weakref.ref(server.fdbs)
        held = template.parses.plan_count()
        del server
        gc.collect()
        assert ref() is None
        assert held > 0 and template.parses.plan_count() == held

    def test_bind_check_plan_is_adopted_by_the_next_stamp(self, monkeypatch):
        template = SessionTemplate(ShardConfig(data=DATA))
        template.stamp(Architecture.ENHANCED_SQL_UDTF)
        calls = []
        original = Planner.plan_select

        def counted(self, select):
            calls.append(select)
            return original(self, select)

        monkeypatch.setattr(Planner, "plan_select", counted)
        server = template.stamp(Architecture.ENHANCED_SQL_UDTF)
        assert calls == []  # every I-UDTF bind check adopted its plan
        server.call("GetSuppQual", "ACME Industrial")
        fresh = build_scenario(Architecture.ENHANCED_SQL_UDTF, data=DATA).server
        fresh.call("GetSuppQual", "ACME Industrial")
        assert server.machine.clock.now == fresh.machine.clock.now

    def test_failed_bind_check_drops_the_function_as_ddl(self):
        db = Database("bind")
        db.execute("CREATE TABLE t (k INT)")
        key = db.catalog.schema_key
        with pytest.raises(PlanError):
            create_sql_iudtf(
                db,
                "CREATE FUNCTION bad () RETURNS TABLE (a INT, b INT) "
                "LANGUAGE SQL RETURN SELECT k FROM t",
            )
        assert not db.catalog.has_function("bad")
        # The DROP is a schema change of its own: the key differs from
        # the one before the CREATE, which the CREATE alone had moved.
        again = Database("bind")
        again.execute("CREATE TABLE t (k INT)")
        again.execute(
            "CREATE FUNCTION bad () RETURNS TABLE (a INT, b INT) "
            "LANGUAGE SQL RETURN SELECT k FROM t"
        )
        assert db.catalog.schema_key not in (key, again.catalog.schema_key)


class TestPlanMapBound:
    def test_bound_holds_and_answers_stay_correct(self):
        parses = ParseMap(capacity=3)
        db = Database("bounded", parses=parses)
        plain = Database("plain")
        for target in (db, plain):
            target.execute("CREATE TABLE t (k INT, v INT)")
            target.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        texts = [f"SELECT v + {n} FROM t WHERE k >= ? ORDER BY v" for n in range(8)]
        for _ in range(3):
            for text in texts:
                assert db.execute(text, [2]).rows == plain.execute(text, [2]).rows
                assert parses.plan_count() <= 3
        assert parses.plan_count() == 3


class TestSecondPass:
    def test_second_pass_plans_nothing_and_builds_no_index(self, monkeypatch):
        counts = {"plan": 0, "index": 0}
        plan_block = Planner._plan_query_block
        create_index = Table.create_index

        def counted_plan(self, *args, **kwargs):
            counts["plan"] += 1
            return plan_block(self, *args, **kwargs)

        def counted_index(self, column):
            counts["index"] += 1
            return create_index(self, column)

        monkeypatch.setattr(Planner, "_plan_query_block", counted_plan)
        monkeypatch.setattr(Table, "create_index", counted_index)
        scripts = make_profile_workload("mixed", 1, sessions=8, calls_per_session=12)
        template = SessionTemplate(ShardConfig(data=DATA))
        template.shared()
        passes = []
        for _ in range(2):
            counts.update(plan=0, index=0)
            sessions = [run_script(template, script)[0] for script in scripts]
            passes.append(([outcome(session) for session in sessions], dict(counts)))
        (first, first_counts), (second, second_counts) = passes
        assert first_counts["index"] == 0 and first_counts["plan"] > 0
        assert second_counts == {"plan": 0, "index": 0}
        assert first == second == [bare(script) for script in scripts]


class TestThreadServing:
    def test_one_template_from_threads_equals_bare(self):
        """Four threads, switching often, stamp sessions from one
        template and build, store and adopt plans in its map at once:
        all four architectures, with faults and with pooling, forward
        and then in reverse order.  Every session equals the bare stack
        in rows, per-call and total simulated ms."""
        config = ShardConfig(data=DATA, options=Options(pooling=True))
        template = SessionTemplate(config)
        scripts = make_workload(seed=13, sessions=8, calls_per_session=5, dml_fraction=0.3)
        scripts += [
            SessionScript(100 + i, architecture, [SUPP_QUAL, BUY, SUPP_QUAL], faults=FAULTS)
            for i, architecture in enumerate(Architecture)
        ]
        expected = {script.session_id: bare(script, config) for script in scripts}
        assert len({script.architecture for script in scripts}) == 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for order in (scripts, scripts[::-1]):
                sessions = run_on_threads(template, order, workers=4)
                for session_id, (rows, sims) in expected.items():
                    session = sessions[session_id]
                    assert outcome(session) == (rows, sims), session_id
                    assert session.simulated_time == sum(sims)
            for i in range(4):  # the faults did fire
                assert sessions[100 + i].server.machine.runtime_stats()["faults"]["injected_total"]
        finally:
            sys.setswitchinterval(interval)
