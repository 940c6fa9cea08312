"""Session templates: a stamped session server equals a fresh build.

:class:`~repro.serving.template.SessionTemplate` stamps each isolated
session's server from one per-worker template: the application systems
are loaded once and forked per stamp (their tables copied on a
session's first write), each architecture's functions are compiled
once, and every database reads parsed statements from one shared
:class:`~repro.fdbs.session.ParseMap`.  The
contract is the serving layer's: a session's rows and per-call
simulated times are those of a bare ``build_scenario`` server, whatever
sessions ran on the template before it.  Writes through a local
function or to a scratch table stay in their own session, faults stay
in their own injector, and a shared statement AST is never changed by
executing it.  Sessions run through :func:`repro.serving.shard.run_script`,
the one code path that runs an isolated session, one after another or
from several threads on one template.

The ``proc`` cases at the end run the same checks through process
shards (deselected by default; run with ``-m proc``).
"""

import dataclasses
import hashlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import pytest

import repro.core.server as core_server
from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.compile_sql_udtf import compile_sql_udtf
from repro.core.scenario import build_scenario
from repro.fdbs.catalog import describe
from repro.fdbs.options import Options
from repro.fdbs.parser import parse_statement
from repro.fdbs.session import ParseMap
from repro.fdbs.storage import _Arena
from repro.serving import ShardedIntegrationServer
from repro.serving.session import ClientSession
from repro.serving.shard import run_script
from repro.serving.template import SessionTemplate, ShardConfig
from repro.serving.workload import SessionScript, WorkloadCall, make_workload
from repro.sysmodel.faults import SITE_ACTIVITY_PROGRAM, SITE_LOCAL_FUNCTION
from repro.wfms.template import ProcessTemplate

DATA = generate_enterprise_data()

#: Seconds a threaded run may take before the test fails.
JOIN_TIMEOUT = 120.0

#: ACME Industrial is supplier 1234.
SET_QUALITY = WorkloadCall("sql", "SELECT * FROM TABLE (SetQuality(?, ?)) AS R", (1234, 2))
GET_QUALITY = WorkloadCall("sql", "SELECT * FROM TABLE (GetQuality(?)) AS R", (1234,))
SUPP_QUAL = WorkloadCall("call", "GetSuppQual", ("ACME Industrial",))
BUY = WorkloadCall("call", "BuySuppComp", (1234, "gearbox"))

#: Local-function faults with WfMS retries and forward recovery.
FAULTS = {
    "enabled": True,
    "seed": 7,
    "sites": {SITE_LOCAL_FUNCTION: (0.4, None), SITE_ACTIVITY_PROGRAM: (1.0, 1)},
    "retry_attempts": 3,
    "forward_recovery": True,
}


def scratch_calls(session_id):
    table = f"SCRATCH_T{session_id}"
    return [
        WorkloadCall("sql", f"CREATE TABLE {table} (k INT PRIMARY KEY, v INT)", ()),
        WorkloadCall("sql", f"INSERT INTO {table} VALUES (?, ?)", (1, 10)),
        WorkloadCall("sql", f"INSERT INTO {table} VALUES (?, ?)", (2, 20)),
        WorkloadCall("sql", f"UPDATE {table} SET v = v + ? WHERE k = ?", (5, 1)),
        WorkloadCall("sql", f"SELECT k, v FROM {table} ORDER BY k", ()),
    ]


def outcome(session):
    return session.row_sets, [record.simulated_ms for record in session.records]


def bare(script, config=None):
    """The script on a bare ``build_scenario`` server: rows, per-call ms."""
    config = config or ShardConfig(data=DATA)
    server = build_scenario(
        script.architecture,
        data=DATA,
        faults=script.faults,
        heterogeneous=config.heterogeneous,
        options=config.options,
        execution_mode="row",
    ).server
    for statement in config.setup_sql:
        server.fdbs.execute(statement)
    server.fdbs.set_execution_mode(config.options.execution_mode)
    session = ClientSession(script.session_id, script.architecture, server)
    for call in script.calls:
        session.perform(call)
    return outcome(session)


def run_on_threads(template, scripts, workers):
    """Run ``scripts`` through ``run_script`` on one template from
    ``workers`` threads; returns the sessions by id."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        runs = list(
            pool.map(lambda script: run_script(template, script), scripts, timeout=JOIN_TIMEOUT)
        )
    return {session.session_id: session for session, _ in runs}


def assert_sessions_equal_bare(template, scripts):
    """Run ``scripts`` in order on one template; each must equal bare."""
    for script in scripts:
        session, _ = run_script(template, script)
        assert outcome(session) == bare(script, template.config), script.session_id


@pytest.fixture
def template():
    return SessionTemplate(ShardConfig(data=DATA))


class TestSessionsEqualBare:
    def test_local_function_write_stays_in_its_session(self, template):
        scripts = [
            SessionScript(1, Architecture.ENHANCED_JAVA_UDTF, [SET_QUALITY, GET_QUALITY, SUPP_QUAL]),
            SessionScript(2, Architecture.ENHANCED_JAVA_UDTF, [GET_QUALITY, SUPP_QUAL]),
            SessionScript(3, Architecture.WFMS, [SET_QUALITY, SUPP_QUAL, BUY]),
            SessionScript(4, Architecture.WFMS, [SUPP_QUAL, BUY]),
        ]
        assert_sessions_equal_bare(template, scripts)
        first = run_script(template, scripts[0])[0].row_sets
        second = run_script(template, scripts[1])[0].row_sets
        assert first[1] == [(2,)] and second[0] != [(2,)]

    def test_template_tables_are_never_written(self, template):
        systems = template.shared()
        before = [
            [system._db().table_rows(t.name) for t in system._db().catalog.tables()]
            for system in systems
        ]
        run_script(template, SessionScript(1, Architecture.SIMPLE_UDTF, [SET_QUALITY]))
        after = [
            [system._db().table_rows(t.name) for t in system._db().catalog.tables()]
            for system in systems
        ]
        assert after == before

    def test_forked_tables_take_writes_apart(self, template):
        systems = template.shared()
        stock = systems[0]
        forks = [stock.fork(), stock.fork()]
        forks[0]._db().execute("INSERT INTO supplier_quality VALUES (?, ?)", [99, 1])
        forks[0]._db().execute("DELETE FROM stock WHERE supplier_no = ?", [1234])
        forks[1]._db().execute("INSERT INTO supplier_quality VALUES (?, ?)", [99, 7])
        assert forks[0].call("GetQuality", 99) == [(1,)]
        assert forks[1].call("GetQuality", 99) == [(7,)]
        assert stock.call("GetQuality", 99) == []
        assert forks[1].call("GetStockComponents", 1234) == stock.call(
            "GetStockComponents", 1234
        ) != []
        assert forks[0].call("GetStockComponents", 1234) == []

    def test_scratch_dml_then_another_session(self, template):
        scripts = [
            SessionScript(5, Architecture.ENHANCED_SQL_UDTF, scratch_calls(5) + [SUPP_QUAL]),
            SessionScript(6, Architecture.ENHANCED_SQL_UDTF, scratch_calls(5) + [SUPP_QUAL]),
            SessionScript(7, Architecture.SIMPLE_UDTF, [SUPP_QUAL] + scratch_calls(7)),
        ]
        assert_sessions_equal_bare(template, scripts)

    def test_session_with_faults(self, template):
        scripts = [
            SessionScript(8, Architecture.WFMS, [SUPP_QUAL, BUY, SUPP_QUAL], faults=FAULTS),
            SessionScript(9, Architecture.ENHANCED_JAVA_UDTF, [SUPP_QUAL, BUY] * 2, faults=FAULTS),
            SessionScript(10, Architecture.WFMS, [SUPP_QUAL, BUY, SUPP_QUAL]),
        ]
        assert_sessions_equal_bare(template, scripts)
        aborted = run_script(template, scripts[1])[0].summary().aborted
        assert aborted > 0  # the faults did fire

    def test_seeded_workload_with_setup_and_columnar_mode(self):
        config = ShardConfig(
            data=DATA,
            setup_sql=("CREATE TABLE notes (k INT PRIMARY KEY, v DECIMAL(6,2))",),
            options=Options(execution_mode="columnar"),
        )
        scripts = make_workload(seed=11, sessions=8, calls_per_session=6, dml_fraction=0.4)
        assert_sessions_equal_bare(SessionTemplate(config), scripts)

    def test_stamped_fdbs_runtime_stats_equal_a_fresh_build(self, template):
        # Each architecture is stamped twice: the second stamp adopts the
        # plans the first one built (the template's shared plan map).
        for architecture in Architecture:
            for _ in range(2):
                stamped = template.stamp(architecture)
                fresh = build_scenario(architecture, data=DATA).server
                assert stamped.fdbs.runtime_stats() == fresh.fdbs.runtime_stats()
                assert list(stamped.machine.appsys_processes) == list(
                    fresh.machine.appsys_processes
                )
                for server in (stamped, fresh):
                    server.call("GetSuppQual", "ACME Industrial")
                    server.fdbs.execute("SELECT * FROM TABLE (GetQuality(?)) AS R", [1234])
                assert stamped.fdbs.runtime_stats() == fresh.fdbs.runtime_stats()
                assert stamped.machine.runtime_stats() == fresh.machine.runtime_stats()
                assert stamped.machine.clock.now == fresh.machine.clock.now

    def test_stamps_keep_the_scenario_trio_attributes(self, template):
        server = template.stamp(Architecture.SIMPLE_UDTF)
        assert [server.stock, server.purchasing, server.pdm] == list(server.systems.values())
        assert server.stock.call("GetQuality", 1234) == build_scenario(
            Architecture.SIMPLE_UDTF, data=DATA
        ).server.stock.call("GetQuality", 1234)

    def test_thread_mode_serving_equals_bare(self, template):
        """Sessions run from three threads on one template equal bare."""
        scripts = make_workload(seed=5, sessions=8, calls_per_session=5, dml_fraction=0.3)
        sessions = run_on_threads(template, scripts, workers=3)
        for script in scripts:
            assert outcome(sessions[script.session_id]) == bare(script)


def table_state(storage):
    """Everything a fork's writes must not reach: the current version,
    its rows, the arena's indexes and both columnar caches."""
    version = storage.current_version
    arena = version.arena

    def chunks(state):
        return state and (state[0], [chunk.rows for chunk in state[1]])

    indexes = {
        name: {key: list(rids) for key, rids in index._buckets.items()}
        for name, index in arena.indexes.items()
    }
    return (
        version.version_id,
        version.row_limit,
        version.live,
        storage.versions_published,
        version.rows(),
        indexes,
        chunks(arena.chunk_state),
        chunks(version.chunks),
    )


def database_state(system):
    return {t.name: table_state(t.storage) for t in system._db().catalog.tables()}


def printed(definition):
    """:func:`describe` without a printer: each field's ``repr``, or
    whether it is set for the fields folded by presence."""
    parts = [type(definition).__name__]
    for f in dataclasses.fields(definition):
        value = getattr(definition, f.name)
        presence = f.metadata.get("plan") == "presence"
        parts.append(f"{f.name}={value is not None if presence else repr(value)}")
    return " ".join(parts)


def chained(changes):
    """The schema key a catalog reaches through ``changes`` from empty."""
    key = ""
    for change in changes:
        key = hashlib.blake2b(f"{key}\x00{change}".encode(), digest_size=12).hexdigest()
    return key


class TestSharedBetweenStamps:
    """What stamps share — forked tables, compiled deployments, printed
    definitions — never shows in a session."""

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_a_forks_writes_reach_neither_template_nor_sibling(self, template, architecture):
        writer, sibling = template.stamp(architecture), template.stamp(architecture)
        watched = [template.shared()[0], sibling.stock]
        before = [database_state(system) for system in watched]
        db = writer.stock._db()
        db.configure(execution_mode="columnar", chunk_size=16)
        scan = "SELECT comp_no, number FROM stock WHERE comp_no BETWEEN ? AND ? ORDER BY comp_no"
        first = db.execute(scan, [1, 40]).rows
        db.execute("INSERT INTO supplier_quality VALUES (?, ?)", [99, 1])
        db.execute("UPDATE stock SET number = number + ? WHERE supplier_no = ?", [5, 1234])
        db.execute("DELETE FROM stock WHERE comp_no = ?", [first[0][0]])
        db.catalog.get_table("stock").storage.create_index("number")
        db.catalog.get_table("supplier_quality").storage.create_index("qual")
        after_writes = db.execute(scan, [1, 40]).rows
        assert after_writes != first and db.columnar_stats()["chunks_sealed"] > 0
        assert [database_state(system) for system in watched] == before
        assert sibling.stock.call("GetQuality", 99) == []
        assert writer.stock.call("GetQuality", 99) == [(1,)]

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_stamp_schema_keys_equal_a_fresh_build(self, template, architecture):
        fresh = build_scenario(architecture, data=DATA, parses=ParseMap(64)).server
        for _ in range(2):
            stamped = template.stamp(architecture)
            catalog = stamped.fdbs.catalog
            assert catalog.schema_key == fresh.fdbs.catalog.schema_key
            for definition in catalog.tables() + catalog.functions():
                assert describe(definition, template.parses.printed) == printed(definition)
            for system in stamped.systems.values():
                tables = system._db().catalog.tables()
                assert system._db().catalog.schema_key == chained(
                    f"CREATE {printed(table)}" for table in tables
                )

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_running_calls_leaves_the_deployment_as_compiled(self, template, architecture):
        scripts = make_workload(
            seed=4, sessions=3, calls_per_session=8, architectures=(architecture,)
        )
        for script in scripts:
            run_script(template, script)
        fresh = build_scenario(architecture, data=DATA).server
        deployment = template.deployment(architecture)
        assert [c.fed for c in deployment.compiled] == list(fresh.deployed.values())
        for compiled in deployment.compiled:
            name, artefact = compiled.fed.name, compiled.artefact
            if architecture is Architecture.WFMS:
                assert artefact[0] == fresh.wfms_client._template(name)
            elif architecture is Architecture.ENHANCED_SQL_UDTF:
                assert artefact == compile_sql_udtf(compiled.fed, fresh.resolver)
            elif architecture is Architecture.SIMPLE_UDTF:
                assert artefact == fresh._simple_queries[name.upper()]
            else:
                assert callable(artefact)

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_a_second_stamp_compiles_builds_and_copies_nothing(
        self, template, architecture, monkeypatch
    ):
        counts = Counter()

        def counting(name, function):
            def counted(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return counted

        compilers = ("compile_workflow", "compile_sql_udtf", "compile_procedural")
        for name in compilers + ("compile_simple_select",):
            monkeypatch.setattr(core_server, name, counting(name, getattr(core_server, name)))
        build = ProcessTemplate.build.__func__
        monkeypatch.setattr(
            ProcessTemplate, "build", classmethod(lambda cls, d: counting("build", build)(cls, d))
        )
        copy = _Arena.copy

        def counted_copy(arena):
            counts["rows copied"] += len(arena.rows)
            return copy(arena)

        monkeypatch.setattr(_Arena, "copy", counted_copy)
        template.stamp(architecture)
        assert sum(counts.values()) > 0 and counts["rows copied"] == 0
        counts.clear()
        server = template.stamp(architecture)
        server.call("GetSuppQual", "ACME Industrial")
        assert sum(counts.values()) == 0, counts


class TestParseMap:
    def test_bound_holds_and_answers_stay_correct(self):
        parses = ParseMap(capacity=3)
        texts = [f"SELECT {n} FROM t WHERE k = ?" for n in range(8)]
        for round_ in range(2):
            for text in texts:
                assert parses.parse(text) == parse_statement(text)
                assert len(parses) <= 3
        repeated = parses.parse(texts[-1])
        assert parses.parse(texts[-1]) is repeated

    def test_template_past_its_bound_equals_bare(self):
        template = SessionTemplate(ShardConfig(data=DATA))
        template.parses = ParseMap(capacity=4)
        scripts = make_workload(seed=3, sessions=6, calls_per_session=6, dml_fraction=0.4)
        assert_sessions_equal_bare(template, scripts)
        assert len(template.parses) == 4

    def test_parse_errors_are_not_stored(self):
        parses = ParseMap(capacity=8)
        for _ in range(2):
            with pytest.raises(Exception) as error:
                parses.parse("SELECT FROM WHERE")
            assert type(error.value).__name__ == "ParseError"
        assert len(parses) == 0

    def test_rejects_a_capacity_below_one(self):
        with pytest.raises(ValueError):
            ParseMap(capacity=0)

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    def test_execution_leaves_shared_asts_unchanged(self, template, mode):
        statements = [
            "CREATE TABLE m (k INT PRIMARY KEY, g INT, v DECIMAL(8,2), d DOUBLE)",
            "INSERT INTO m VALUES (?, ?, ?, ?)",
            "UPDATE m SET v = v + ? WHERE k = ?",
            "SELECT g, COUNT(*), MAX(v), SUM(d) FROM m WHERE d > ? AND k BETWEEN 1 AND 9 "
            "GROUP BY g ORDER BY g",
            "SELECT k FROM m WHERE v IN (?, 2.5) OR g IS NULL ORDER BY k DESC",
            "SELECT R.Qual FROM TABLE (GetQuality(?)) AS R",
            "DELETE FROM m WHERE k = ?",
        ]
        params = [(), (2, 1, Decimal("2.5"), 0.5), (1, 1), (0.0,), (Decimal("2.5"),), (1234,), (2,)]
        server = template.stamp(Architecture.ENHANCED_SQL_UDTF)
        server.fdbs.set_execution_mode(mode)
        server.fdbs.execute(statements[0])
        server.fdbs.execute(statements[1], [1, None, Decimal("3.5"), 1.5])
        for _ in range(2):  # cold, then hot: the cached entry and its plan
            for sql, bound in zip(statements[1:], params[1:]):
                server.fdbs.execute(sql, list(bound))
        server.call("GetSuppQual", "ACME Industrial")
        assert len(template.parses) > len(statements)
        for sql in list(template.parses._statements):
            assert template.parses.parse(sql) == parse_statement(sql), sql


@pytest.mark.proc
class TestProcessShards:
    def test_sessions_on_shard_templates_equal_bare(self):
        scripts = [
            SessionScript(1, Architecture.ENHANCED_JAVA_UDTF, [SET_QUALITY, SUPP_QUAL]),
            SessionScript(2, Architecture.ENHANCED_JAVA_UDTF, [SUPP_QUAL, GET_QUALITY]),
            SessionScript(3, Architecture.WFMS, [SUPP_QUAL, BUY], faults=FAULTS),
            SessionScript(4, Architecture.ENHANCED_SQL_UDTF, scratch_calls(4) + [SUPP_QUAL]),
            SessionScript(5, Architecture.ENHANCED_SQL_UDTF, scratch_calls(4)),
            SessionScript(6, Architecture.SIMPLE_UDTF, [SET_QUALITY, BUY]),
        ]
        with ShardedIntegrationServer(shards=2, data=DATA) as server:
            result = server.run_workload(scripts)
        for script in scripts:
            rows, sims = bare(script)
            assert result.row_sets[script.session_id] == rows
            assert result.call_sim_ms[script.session_id] == sims
