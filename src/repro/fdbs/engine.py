"""The Database façade: parse, plan, execute, DDL, DML, CALL.

A :class:`Database` may run *costed* (with a
:class:`~repro.sysmodel.machine.Machine`, charging the calibrated
latencies — the integration FDBS of the experiments) or *free* (machine
``None`` — the private databases embedded inside application systems,
whose internal work is accounted through the local-function costs
instead).

Table-function execution is delegated to a pluggable
:class:`FunctionRuntime`; the wrapper layer installs the fenced runtime
that routes A-UDTFs through the controller and charges the Fig. 6 step
costs.
"""

from __future__ import annotations

import functools
import threading
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import (
    CatalogError,
    DuplicateColumnError,
    ExecutionError,
    PlanError,
    ReadOnlyFunctionError,
    ReproError,
    SqlError,
    StatementAbortedError,
    TransientFaultError,
    WriteConflictError,
)
from repro.fdbs import ast
from repro.fdbs.authorization import (
    SUPERUSER,
    AuthorizationManager,
    Privilege,
    required_privileges,
)
from repro.fdbs.catalog import (
    Catalog,
    ColumnDef,
    ExternalTableFunction,
    FunctionParam,
    NicknameDef,
    ProcedureDef,
    ServerDef,
    SqlTableFunction,
    TableDef,
    TableFunction,
    WrapperDef,
    describe,
)
from repro.fdbs.executor import Plan
from repro.fdbs.expr import (
    ColumnSlot,
    EvalContext,
    EvalFn,
    ExpressionCompiler,
    ParamScope,
    RowLayout,
)
from repro.fdbs.federation import FederationLayer, RemoteEndpoint
from repro.fdbs.functions import normalize_rows
from repro.fdbs.options import DEFAULT_OPTIONS, Options
from repro.fdbs.parser import parse_statement
from repro.fdbs.planner import Planner
from repro.fdbs.procedures import ProcedureInterpreter
from repro.fdbs.session import CachedStatement, ParseMap, Result, StatementCache
from repro.fdbs.storage import (
    Snapshot,
    Table,
    TableVersion,
    UndoLog,
)
from repro.fdbs.types import coercer, reject_signalling_nan

if TYPE_CHECKING:  # pragma: no cover
    from repro.sysmodel.machine import Machine

_MAX_FUNCTION_DEPTH = 32

#: Cardinality feedback: q-errors at or above this threshold recorded
#: by EXPLAIN ANALYZE override the table's planning cardinality and
#: bump the stats epoch (invalidating cached plans).
FEEDBACK_THRESHOLD = 2.0


@functools.lru_cache(maxsize=64)
def _body_options(options: Options) -> Options:
    """The options SQL I-UDTF bodies plan and run under.

    Bodies always plan (and run) row-at-a-time and syntactically:
    fenced invocation semantics and the per-row simulated cost charges
    must stay bit-identical regardless of the session's mode, and cached
    body plans must not depend on statistics collected later.
    """
    return options.replace(execution_mode="row", optimizer="syntactic")


class _EngineLocal(threading.local):
    """Per-thread execution state of one database."""

    def __init__(self):
        self.function_depth = 0


class FunctionRuntime:
    """Default table-function runtime: direct in-process execution.

    The integration server replaces this with the fenced runtime from
    :mod:`repro.wrapper.udtf_runtime`, which charges the architecture's
    latency costs and enforces the fenced-mode security model.
    """

    def __init__(self, database: "Database"):
        self.database = database

    def invoke(
        self,
        function: TableFunction,
        args: list[object],
        ctx: EvalContext,
    ) -> list[tuple]:
        """Dispatch to the SQL or external invocation path."""
        if isinstance(function, SqlTableFunction):
            return self.invoke_sql(function, args, ctx)
        return self.invoke_external(function, args, ctx)

    def invoke_sql(
        self, function: SqlTableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]:
        """Run a SQL I-UDTF body in-process."""
        return self.database.run_sql_function(function, args)

    def invoke_external(
        self, function: ExternalTableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]:
        """Run an external function's implementation in-process."""
        return self.database.run_external_function(function, args)

    def invoke_batch(
        self,
        function: TableFunction,
        args_list: list[list[object]],
        ctx: EvalContext,
    ) -> list[list[tuple]]:
        """Invoke once per argument tuple; one row list per tuple.

        The direct runtime has no fixed per-call overhead to amortize, so
        the default batch is simply a loop — cost-identical to row-at-a-
        time invocation.  The fenced runtime overrides this to share one
        prepare/RMI/finish cycle across the whole batch (the bind-join
        saving).
        """
        return [self.invoke(function, args, ctx) for args in args_list]


class Database:
    """One database instance with its catalog, storage and runtimes."""

    def __init__(
        self,
        name: str = "FDBS",
        machine: "Machine | None" = None,
        parses: ParseMap | None = None,
        options: Options | None = None,
        **changes,
    ):
        """``options`` with ``changes`` applied (see
        :meth:`Options.resolve`) configures the engine and, on a
        machine-attached database, the machine's runtime."""
        self.name = name
        self.machine = machine
        self.catalog = Catalog()
        self.statement_cache = StatementCache()
        #: Map shared with other databases: parsed statements, consulted
        #: on a statement-cache miss, and compiled plans, consulted
        #: before planning (None: parse and plan everything here; see
        #: ParseMap).  Fixed here, before any schema change: with a map,
        #: every change is described into the catalog's schema key (see
        #: :meth:`_invalidate_plans`).
        self.parses = parses
        self.catalog.runtime_stats_provider = self.runtime_stats
        if machine is not None:
            # The machine-attached database is the integration FDBS: its
            # execution mode namespaces the machine-level result cache.
            machine.execution_mode_provider = (
                lambda: self.options.execution_mode
            )
            machine.extra_stats_providers["mvcc"] = lambda: self.mvcc_stats()
            machine.extra_stats_providers["columnar"] = lambda: self.columnar_stats()
            machine.extra_stats_providers["joins"] = lambda: self.join_stats()
        self.options = DEFAULT_OPTIONS
        self._apply(Options.resolve(options, **changes))
        self._columnar_lock = threading.Lock()
        self._columnar = {"chunks_scanned": 0, "chunks_pruned": 0}
        self._join_lock = threading.Lock()
        self._joins = {
            "joins_hash": 0,
            "joins_merge": 0,
            "joins_indexnlj": 0,
            "joins_nlj": 0,
            "plans_invalidated": 0,
            "max_q_error_pct": 0,
        }
        self.federation = FederationLayer(self)
        self.function_runtime: FunctionRuntime = FunctionRuntime(self)
        self._undo = UndoLog()
        self._local = _EngineLocal()
        # MVCC snapshot isolation replaces the old database-wide
        # statement lock: readers pin `_published` (an immutable map of
        # every table's current TableVersion) with a single reference
        # read and run lock-free; writers serialize per table on the
        # storage layer's write latches and advance `_published` under
        # the short `_visibility_lock` critical section.
        self._published = Snapshot(0, {})
        self._visibility_lock = threading.Lock()
        self._mvcc_lock = threading.Lock()
        self._mvcc = {
            "snapshots_pinned": 0,
            "versions_published": 0,
            "write_conflicts": 0,
            "retries": 0,
        }
        self._stats_lock = threading.Lock()
        self.statements_executed = 0
        #: Access control (the paper's Sect. 6 future-work item).
        self.authorization = AuthorizationManager()
        self.current_user = SUPERUSER

    # ------------------------------------------------------------------
    # MVCC snapshot plumbing
    # ------------------------------------------------------------------

    def pin_snapshot(self) -> Snapshot:
        """Pin the current database snapshot (lock-free fast path).

        ``_published`` is an immutable object swapped atomically on every
        publish, so reading it once yields a mutually consistent
        TableVersion for every table — no reader/writer blocking.
        """
        snapshot = self._published
        with self._mvcc_lock:
            self._mvcc["snapshots_pinned"] += 1
        return snapshot

    def _publish_version(self, storage: Table, version: TableVersion) -> None:
        """Commit-time visibility: advance the snapshot map to cover the
        newly published table version (installed as each table's
        ``publish_hook``; runs under that table's write latch)."""
        with self._visibility_lock:
            self._published = self._published.successor(storage, version)
        with self._mvcc_lock:
            self._mvcc["versions_published"] += 1

    def _track_storage(self, storage: Table) -> None:
        """Register a new table's storage with the snapshot map."""
        storage.publish_hook = self._publish_version
        with self._visibility_lock:
            self._published = self._published.successor(
                storage, storage.current_version
            )

    def note_conflict_retry(self) -> None:
        """Record one session-level retry of a WriteConflictError."""
        with self._mvcc_lock:
            self._mvcc["retries"] += 1

    def mvcc_stats(self) -> dict[str, int]:
        """MVCC counters (lock-free except the counter latch itself)."""
        with self._mvcc_lock:
            counters = dict(self._mvcc)
        counters["snapshot_epoch"] = self._published.epoch
        return counters

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def configure(self, **changes) -> None:
        """Change settings: swap in ``self.options`` with ``changes``
        applied (validated; see :class:`~repro.fdbs.options.Options`).

        Needs no plan invalidation: the planner-read fields key the
        statement cache (see :meth:`_plan_namespace`), so each setting's
        plans stay cached under their own namespace.  A new chunk size
        reaches every table's storage (zone maps are keyed by the chunk
        size that sealed them, so each table rebuilds them lazily on its
        next columnar scan), and changed machine fields reach the
        machine.
        """
        self._apply(self.options.replace(**changes))

    def _apply(self, options: Options) -> None:
        before = self.options
        machine_changes = options.machine_changes(before)
        if machine_changes:
            if self.machine is None:
                name = next(iter(machine_changes))
                raise ExecutionError(
                    f"runtime {name} needs a machine-attached database"
                )
            self.machine.configure_runtime(**machine_changes)
        self.options = options
        self._body_options = _body_options(options)
        if options.chunk_size != before.chunk_size:
            for table_def in self.catalog.tables():
                if table_def.storage is not None:
                    table_def.storage.chunk_size = options.chunk_size

    def set_execution_mode(self, mode: str) -> None:
        """``configure(execution_mode=mode)``, kept for callers outside
        the package (the repository benchmark among them)."""
        self.configure(execution_mode=mode)

    def set_zone_maps(self, enabled: bool) -> None:
        """``configure(zone_maps=enabled)``, kept for callers outside
        the package (the repository benchmark among them)."""
        self.configure(zone_maps=bool(enabled))

    def note_chunks(self, scanned: int, pruned: int) -> None:
        """Accumulate per-scan chunk counters (columnar scans call it
        through ``ctx.database``)."""
        with self._columnar_lock:
            self._columnar["chunks_scanned"] += scanned
            self._columnar["chunks_pruned"] += pruned

    def columnar_stats(self) -> dict[str, int]:
        """Columnar-execution counters for SYSCAT_RUNTIME_STATS."""
        with self._columnar_lock:
            counters = dict(self._columnar)
        rebuilds = 0
        sealed = 0
        for table_def in self.catalog.tables():
            storage = table_def.storage
            if storage is not None:
                rebuilds += storage.zone_map_rebuilds
                sealed += storage.chunks_sealed
        counters["zone_map_rebuilds"] = rebuilds
        counters["chunks_sealed"] = sealed
        counters["zone_maps_enabled"] = int(self.options.zone_maps)
        return counters

    def _note_plan(self, plan: Plan) -> None:
        """Add the counts taken while planning ``plan`` (join operators
        by strategy, conjuncts pushed) to this database's statistics.

        Called when this database builds a plan and again when it
        adopts one from the shared map, so the counters read as if
        every such plan had been built here; a plan reused from the
        statement cache re-executes without counting.
        """
        if plan.built_joins:
            with self._join_lock:
                for strategy in plan.built_joins:
                    key = f"joins_{strategy}"
                    if key in self._joins:
                        self._joins[key] += 1
        self.federation.predicates_pushed += plan.built_pushdowns

    def join_stats(self) -> dict[str, int]:
        """Join-strategy and feedback counters for SYSCAT_RUNTIME_STATS."""
        with self._join_lock:
            counters = dict(self._joins)
        counters["stats_epoch"] = self.catalog.stats_epoch
        return counters

    def execute(
        self,
        sql: str,
        params: list[object] | None = None,
        snapshot: Snapshot | None = None,
    ) -> Result:
        """Parse and execute one SQL statement.

        Each statement pins a fresh snapshot at entry (statement-level
        snapshot isolation); passing ``snapshot`` explicitly lets tests
        and the serving layer hold a statement against an older epoch.
        """
        self._count_statement()
        params = params or []
        reject_signalling_nan(params)
        statement, cached = self._parse_cached(sql)
        if snapshot is None:
            snapshot = self.pin_snapshot()
        return self._dispatch(statement, sql, params, snapshot, cached)

    def _count_statement(self) -> None:
        """Count one client statement and charge its base cost."""
        with self._stats_lock:
            self.statements_executed += 1
        if self.machine is not None:
            self.machine.ensure_base_services()
            self.machine.clock.advance(self.machine.costs.fdbs_query_base)

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a ';'-separated script; returns one Result per statement."""
        from repro.fdbs.parser import parse_script

        results = []
        for statement in parse_script(sql):
            results.append(
                self._dispatch(statement, None, [], self.pin_snapshot())
            )
        return results

    def explain(self, sql: str) -> str:
        """EXPLAIN-style plan tree for a SELECT statement."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise PlanError("EXPLAIN supports SELECT statements only")
        snapshot = self.pin_snapshot()
        plan, _ = self._plan(statement)
        self._note_plan(plan)
        if self.options.optimizer == "cost":
            from repro.fdbs.optimizer import propagate_estimates

            propagate_estimates(plan)
        header = self._runtime_header() + [f"Snapshot(epoch={snapshot.epoch})"]
        text = plan.explain(mode=self.options.execution_mode)
        return "\n".join(header + [text])

    def runtime_stats(self) -> dict[str, dict[str, int]]:
        """Live counters for SYSCAT_RUNTIME_STATS and the shell's .stats.

        Always includes the statement cache; machine-backed databases add
        the warm runtime pool, the result cache and the RMI channels.
        """
        stats: dict[str, dict[str, int]] = {
            "statement_cache": self.statement_cache.stats()
        }
        if self.machine is not None:
            # The machine reports "mvcc" through its extra-providers
            # registry (see __init__), so .stats consumers of the
            # machine alone see the counters too.
            stats.update(self.machine.runtime_stats())
        else:
            stats["mvcc"] = self.mvcc_stats()
            stats["columnar"] = self.columnar_stats()
            stats["joins"] = self.join_stats()
        # Heterogeneous sources: one component per profiled server.
        stats.update(self.federation.stats())
        return stats

    def _runtime_header(self) -> list[str]:
        """EXPLAIN header line describing pool/cache state.

        Empty (no header at all) while both features are off, so EXPLAIN
        output is unchanged for every existing caller.
        """
        if self.machine is None:
            return []
        pool = self.machine.runtime_pool
        cache = self.machine.result_cache
        if not pool.enabled and not cache.enabled:
            return []
        pool_part = (
            f"pooling=on({len(pool)}/{pool.capacity} warm)"
            if pool.enabled
            else "pooling=off"
        )
        cache_part = (
            f"result_cache=on({len(cache)}/{cache.capacity})"
            if cache.enabled
            else "result_cache=off"
        )
        return [f"Runtime({pool_part}, {cache_part})"]

    def call_procedure(self, name: str, args: list[object]) -> dict[str, object]:
        """CALL a stored procedure; returns its OUT/INOUT values.

        Each statement of the body pins its own snapshot (through
        ``execute``/``execute_select_ast``), so a later statement sees an
        earlier statement's writes — the same read-latest semantics the
        serialized engine had.
        """
        procedure = self.catalog.get_procedure(name)
        return ProcedureInterpreter(self, procedure).call(args)

    def attach_endpoint(
        self,
        server_name: str,
        endpoint: RemoteEndpoint,
        profile=None,
    ) -> None:
        """Attach the remote endpoint object to a created server.

        ``profile`` optionally marks the server as a heterogeneous
        source (a :class:`~repro.fdbs.federation.SourceProfile`): its
        cost constants replace the uniform round-trip pricing and its
        counters surface in SYSCAT_RUNTIME_STATS as ``source:<name>``.
        The cost optimizer plans with the profile, and scans need the
        endpoint, so attaching is a schema change.
        """
        server = self.catalog.get_server(server_name)
        server.endpoint = endpoint
        server.profile = profile
        self._invalidate_plans("ATTACH", server)

    def register_external_function(self, function: ExternalTableFunction) -> None:
        """Register a pre-built external table function (A-UDTF)."""
        self.catalog.add_function(function)
        self._invalidate_plans("CREATE", function)

    def drop_function(self, name: str) -> None:
        """DROP FUNCTION ``name`` (a schema change)."""
        self.catalog.drop_function(name)
        self._invalidate_plans("DROP FUNCTION", name.upper())

    def table_rows(self, name: str) -> list[tuple]:
        """All rows of a base table (testing convenience)."""
        table = self.catalog.get_table(name)
        assert table.storage is not None
        return table.storage.rows()

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------

    def _plan_namespace(self) -> str:
        """Statement-cache namespace: every input the planner reads.

        Two executions share an entry (and so its compiled plan) only
        when they would plan identically: the same planner-read options
        (:attr:`Options.plan_key`, complete by construction).  The
        catalog's schema key folds in too, so a statement compiled
        against one schema is never replayed after a concurrent
        CREATE/DROP, and so does the stats epoch: RUNSTATS or recorded
        cardinality feedback bumps it, so the next execution replans
        against the corrected estimates.
        """
        catalog = self.catalog
        return f"{self.options.plan_key}@{catalog.schema_key}.{catalog.stats_epoch}"

    def _parse_cached(
        self, sql: str
    ) -> tuple[ast.Statement, CachedStatement | None]:
        """The parsed statement, plus its cache entry on a cache hit.

        A miss parses, stores a plan-less entry and returns no entry, so
        a first execution compiles and discards; only a hit (a text run
        again under the same :meth:`_plan_namespace`) may keep a plan
        or a DML form.
        The simulated plan-compile charge is keyed separately, by the
        bare statement text: its warmth survives namespace changes, so
        switching modes or settings never re-charges it.  The parse on a
        miss goes through :meth:`parse`, so a shared parse map saves the
        wall-clock parse but never that charge.
        """
        namespace = self._plan_namespace()
        cached = self.statement_cache.get(sql, namespace=namespace)
        if cached is not None:
            return cached.statement, cached  # type: ignore[union-attr]
        if self.machine is not None:
            if not self.machine.warmth.statement_is_hot(sql):
                self.machine.clock.advance(self.machine.costs.plan_compile)
                self.machine.warmth.note_statement(sql)
        statement = self.parse(sql)
        self.statement_cache.put(sql, CachedStatement(statement), namespace=namespace)
        return statement, None

    def parse(self, sql: str) -> ast.Statement:
        """Parse one statement, through the shared parse map if the
        database has one (the AST may then be shared: never mutate it)."""
        parses = self.parses
        return parse_statement(sql) if parses is None else parses.parse(sql)

    def set_current_user(self, name: str) -> None:
        """Switch the session user (must exist; SYSTEM is built in)."""
        self.authorization.require_user(name)
        self.current_user = name.upper()

    def _enforce_authorization(self, statement: ast.Statement) -> None:
        user = self.current_user
        if user == SUPERUSER:
            return
        if isinstance(statement, ast.Explain):
            statement = statement.query  # EXPLAIN needs the query's rights
        if isinstance(
            statement,
            (
                ast.Select,
                ast.Insert,
                ast.Update,
                ast.Delete,
                ast.Call,
            ),
        ):
            for privilege, kind, name in required_privileges(statement, self.catalog):
                if kind == "function" and not self.catalog.has_function(name):
                    continue  # unknown names fail later with CatalogError
                self.authorization.check(privilege, kind, name, user)
            return
        if isinstance(statement, (ast.Commit, ast.Rollback)):
            return
        # Everything else is DDL / grants: superuser only.
        from repro.errors import AuthorizationError

        raise AuthorizationError(
            f"user {user!r} may not execute DDL or grant statements"
        )

    def _dispatch(
        self,
        statement: ast.Statement,
        sql: str | None,
        params: list[object],
        snapshot: Snapshot,
        cached: CachedStatement | None = None,
    ) -> Result:
        self._enforce_authorization(statement)
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, params, snapshot, cached, sql)
        if isinstance(statement, ast.Explain):
            return self._execute_explain(statement, params, snapshot)
        if isinstance(statement, ast.Runstats):
            return self._execute_runstats(statement)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            dropped = self.catalog.drop_table(statement.name)
            if dropped.storage is not None:
                with self._visibility_lock:
                    self._published = self._published.without(dropped.storage)
            self._invalidate_plans("DROP TABLE", dropped.name.upper())
            return Result(statement_type="DROP TABLE")
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, params, snapshot, cached)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, params, snapshot, cached)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, params, snapshot, cached)
        if isinstance(statement, ast.CreateSqlFunction):
            return self._execute_create_sql_function(statement)
        if isinstance(statement, ast.CreateExternalFunction):
            return self._execute_create_external_function(statement)
        if isinstance(statement, ast.DropFunction):
            self.drop_function(statement.name)
            return Result(statement_type="DROP FUNCTION")
        if isinstance(statement, ast.CreateProcedure):
            return self._execute_create_procedure(statement)
        if isinstance(statement, ast.Call):
            return self._execute_call(statement, params)
        if isinstance(statement, ast.CreateWrapper):
            wrapper = WrapperDef(statement.name)
            self.catalog.add_wrapper(wrapper)
            self._invalidate_plans("CREATE", wrapper)
            return Result(statement_type="CREATE WRAPPER")
        if isinstance(statement, ast.CreateServer):
            server = ServerDef(statement.name, statement.wrapper)
            self.catalog.add_server(server)
            self._invalidate_plans("CREATE", server)
            return Result(statement_type="CREATE SERVER")
        if isinstance(statement, ast.CreateNickname):
            return self._execute_create_nickname(statement)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, ast.DropView):
            dropped = self.catalog.drop_view(statement.name)
            self._invalidate_plans("DROP VIEW", dropped.name.upper())
            return Result(statement_type="DROP VIEW")
        if isinstance(statement, ast.CreateUser):
            self.authorization.create_user(statement.name)
            return Result(statement_type="CREATE USER")
        if isinstance(statement, ast.Grant):
            return self._execute_grant_revoke(statement, grant=True)
        if isinstance(statement, ast.Revoke):
            return self._execute_grant_revoke(statement, grant=False)
        if isinstance(statement, ast.Commit):
            self._undo.clear()
            return Result(statement_type="COMMIT")
        if isinstance(statement, ast.Rollback):
            self._undo.rollback()
            return Result(statement_type="ROLLBACK")
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _execute_explain(
        self,
        statement: ast.Explain,
        params: list[object],
        snapshot: Snapshot,
    ) -> Result:
        """EXPLAIN [ANALYZE]: plan tree with cost-mode cardinality
        estimates; ANALYZE also executes the plan (row pipeline) and
        reports the actual row count per operator."""
        plan, _ = self._plan(statement.query)
        self._note_plan(plan)
        if self.options.optimizer == "cost":
            from repro.fdbs.optimizer import propagate_estimates

            propagate_estimates(plan)
        if statement.analyze:
            from repro.fdbs.optimizer import instrument_plan

            instrument_plan(plan)
            ctx = EvalContext(params=params, snapshot=snapshot, database=self)
            rows = list(plan.rows(ctx))
            if self.machine is not None:
                self.machine.clock.advance(
                    self.machine.costs.fdbs_row_cost * len(rows)
                )
            if self.options.optimizer == "cost":
                self._ingest_feedback(plan)
        lines = (
            self._runtime_header()
            + [f"Snapshot(epoch={snapshot.epoch})"]
            + plan.explain(mode=self.options.execution_mode).splitlines()
        )
        return Result(
            columns=["PLAN"],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
            statement_type="EXPLAIN",
        )

    def _ingest_feedback(self, plan) -> None:
        """Cardinality feedback from an EXPLAIN ANALYZE execution.

        Every instrumented base-table or remote scan is compared against
        its planning estimate; a q-error at or past the feedback
        threshold records the observed cardinality as the table's
        planning override and bumps the stats epoch, invalidating every
        cached statement so the next execution replans.  Feedback only
        refines *existing* RUNSTATS — with no statistics recorded the
        optimizer gate already falls back to syntactic plans, and
        feedback must not change that.
        """
        from repro.fdbs.optimizer import collect_feedback
        from repro.fdbs.stats import StatsFeedback

        for table, estimated, observed, error in collect_feedback(plan):
            with self._join_lock:
                pct = int(round(error * 100))
                if pct > self._joins["max_q_error_pct"]:
                    self._joins["max_q_error_pct"] = pct
            if error < FEEDBACK_THRESHOLD:
                continue
            before = self.catalog.stats_epoch
            after = self.catalog.record_feedback(
                StatsFeedback(
                    table=table,
                    estimated=estimated,
                    observed=observed,
                    q_error=error,
                )
            )
            if after != before:
                with self._join_lock:
                    self._joins["plans_invalidated"] += 1

    def _execute_runstats(self, statement: ast.Runstats) -> Result:
        """RUNSTATS <table>: scan the table (or nickname) and store row
        count, per-column distinct counts and min/max in the catalog."""
        from repro.fdbs.stats import collect_stats

        name = statement.table
        if self.catalog.has_table(name):
            table = self.catalog.get_table(name)
            if table.storage is None:
                raise ExecutionError(
                    f"table {name!r} has no storage attached; cannot RUNSTATS"
                )
            columns = list(table.columns)
            rows = table.storage.rows()
            stored_name = table.name
        elif self.catalog.has_nickname(name):
            nickname = self.catalog.get_nickname(name)
            columns = list(self.federation.scan_columns(nickname))
            rows = self.federation.fetcher(nickname.name).fetch(None, None)
            stored_name = nickname.name
        else:
            raise CatalogError(f"unknown table or nickname {name!r} in RUNSTATS")
        if self.machine is not None:
            self.machine.clock.advance(
                self.machine.costs.runstats_base
                + self.machine.costs.runstats_row_cost * len(rows)
            )
        self.catalog.set_statistics(collect_stats(stored_name, columns, rows))
        return Result(rowcount=len(rows), statement_type="RUNSTATS")

    def _invalidate_plans(self, kind: str, changed: object) -> None:
        """Record a schema change: ``kind`` of statement and the changed
        definition (or a dropped object's name)."""
        # The schema-key change is what *guarantees* staleness safety
        # (every plan key folds it in); the explicit clear just
        # reclaims the now-unreachable entries eagerly.  Every change
        # moves the chained key, so the description matters only where
        # keys are compared between databases: in a shared map.  A
        # database without one skips it (it is most of a change's cost).
        if self.parses is None:
            self.catalog.note_ddl(kind)
        else:
            self.catalog.note_ddl(f"{kind} {describe(changed, self.parses.printed)}")
        self.statement_cache.invalidate()
        self.federation.forget_fetchers()

    def _execute_grant_revoke(self, statement, grant: bool) -> Result:
        kind = statement.kind or self._infer_object_kind(statement.object_name)
        for privilege_name in statement.privileges:
            privilege = Privilege(privilege_name.upper())
            if grant:
                self.authorization.grant(
                    privilege, kind, statement.object_name, statement.grantee
                )
            else:
                self.authorization.revoke(
                    privilege, kind, statement.object_name, statement.grantee
                )
        return Result(statement_type="GRANT" if grant else "REVOKE")

    def _infer_object_kind(self, name: str) -> str:
        if self.catalog.has_function(name):
            return "function"
        if self.catalog.has_procedure(name):
            return "procedure"
        if (
            self.catalog.has_table(name)
            or self.catalog.has_nickname(name)
            or self.catalog.has_view(name)
        ):
            return "table"
        raise CatalogError(f"unknown object {name!r} in GRANT/REVOKE")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _planner(
        self, params: ParamScope | None = None, options: Options | None = None
    ) -> Planner:
        machine = self.machine
        return Planner(
            self.catalog,
            federation=self.federation,
            params=params,
            costs=machine.costs if machine is not None else None,
            options=options or self.options,
            statistics=self.catalog.planning_statistics,
        )

    def _plan(
        self,
        select: ast.Select,
        key: tuple | None = None,
        params: ParamScope | None = None,
        options: Options | None = None,
    ) -> tuple[Plan, bool]:
        """A plan of ``select``, and whether a statement cache may keep it.

        With a shared map, ``key`` names the plan there: a plan another
        database (or an earlier execution here) stored under it is
        adopted; otherwise the plan is built here and stored under it,
        unless planning read statistics (cost decisions depend on this
        database's RUNSTATS) or volatile state.  Without a key (EXPLAIN,
        view checks, DML subqueries, scripts) the plan is built here and
        never shared.  The caller counts it (:meth:`_note_plan`).
        """
        plans = self.parses if key is not None else None
        if plans is not None:
            plan = plans.plan(key)
            if plan is not None:
                return plan, True
        planner = self._planner(params, options)
        plan = planner.plan_select(select)
        plan.built_joins = tuple(planner.joins)
        plan.built_pushdowns = planner.predicates_pushed
        volatile = planner.reads_volatile_state
        if plans is not None and not (planner.read_statistics or volatile):
            plans.store_plan(key, plan)
        return plan, not volatile

    def invoke_table_function(
        self, function: TableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]:
        """Invoke ``function`` once through this database's (fenced or
        direct) function runtime: arguments coerced to the parameter
        types in, result rows coerced to the declared types out."""
        coerced = [coercer(param.type)(value) for value, param in zip(args, function.params)]
        try:
            rows = self.function_runtime.invoke(function, coerced, ctx)
        except TransientFaultError as exc:
            # A fault that survived every site-level retry reaches the
            # FDBS executor, which has no recovery state of its own: the
            # whole statement aborts (the paper's robustness asymmetry —
            # only the WfMS path can absorb failures below this line).
            raise StatementAbortedError(
                f"statement aborted: table function {function.name} failed "
                f"at {exc.site}: {exc}"
            ) from exc
        return self._coerce_result_rows(function, rows)

    def invoke_table_function_batch(
        self,
        function: TableFunction,
        args_list: list[list[object]],
        ctx: EvalContext,
    ) -> list[list[tuple]]:
        """Batched invocation for UDTF bind joins: one runtime call for
        all distinct argument tuples (the fenced runtime amortizes its
        fixed prepare/RMI/finish overheads across the batch)."""
        coercers = [coercer(param.type) for param in function.params]
        coerced_lists = [
            [coerce(value) for coerce, value in zip(coercers, args)] for args in args_list
        ]
        try:
            results = self.function_runtime.invoke_batch(
                function, coerced_lists, ctx
            )
        except TransientFaultError as exc:
            raise StatementAbortedError(
                f"statement aborted: table function {function.name} failed "
                f"at {exc.site}: {exc}"
            ) from exc
        return [self._coerce_result_rows(function, rows) for rows in results]

    def _coerce_result_rows(
        self, function: TableFunction, rows: Iterable[tuple]
    ) -> list[tuple]:
        if isinstance(function, ExternalTableFunction) and function.rows_typed:
            coerced = rows  # already a list of tuples of the declared types
        else:
            coercers = [coercer(column.type) for column in function.returns]
            width = len(coercers)
            coerced = []
            for row in rows:
                if len(row) != width:
                    raise ExecutionError(
                        f"function {function.name} declared {width} result "
                        f"column(s) but produced a row of width {len(row)}"
                    )
                coerced.append(
                    tuple([coerce(value) for coerce, value in zip(coercers, row)])
                )
        if self.machine is not None and coerced:
            self.machine.clock.advance(
                self.machine.costs.udtf_row_overhead * len(coerced)
            )
        return coerced

    def _execute_select(
        self,
        statement: ast.Select,
        params: list[object],
        snapshot: Snapshot,
        cached: CachedStatement | None = None,
        sql: str | None = None,
    ) -> Result:
        """Run a SELECT, reusing the plan of a statement-cache hit.

        ``cached`` is the entry when this execution is a cache hit.  Its
        plan is reused when present; otherwise the plan (adopted from
        the shared map under ``sql``, the text the statement was parsed
        from, or built:
        see :meth:`_plan`) is stored in it — unless planning read
        volatile runtime state, in which case every execution replans.
        """
        plan = cached.plan if cached is not None else None
        if plan is None:
            key = None if sql is None else (self.options.plan_key, self.catalog.schema_key, sql)
            plan, keep = self._plan(statement, key)
            self._note_plan(plan)
            if cached is not None and keep:
                # Racing stores from concurrent hits are benign: every
                # plan built under one namespace is equally valid.
                cached.plan = plan
        else:
            self.statement_cache.note_plan_hit()
        ctx = EvalContext(params=params, snapshot=snapshot, database=self)
        options = self.options
        if options.execution_mode == "columnar":
            rows = [
                row
                for batch in plan.column_batches(ctx, options.chunk_size)
                for row in batch.rows_view()
            ]
        else:
            rows = list(plan.rows(ctx))
        if self.machine is not None:
            self.machine.clock.advance(self.machine.costs.fdbs_row_cost * len(rows))
        return Result(
            columns=[slot.name for slot in plan.schema],
            rows=rows,
            rowcount=len(rows),
        )

    def execute_select_ast(
        self, statement: ast.Select, params: list[object] | None = None
    ) -> Result:
        """Execute an already-parsed SELECT (used by the PSM interpreter)."""
        return self._execute_select(statement, params or [], self.pin_snapshot())

    # ------------------------------------------------------------------
    # Table functions
    # ------------------------------------------------------------------

    def run_sql_function(
        self,
        function: SqlTableFunction,
        args: list[object],
    ) -> list[tuple]:
        """Execute the single-statement body of a SQL I-UDTF.

        The body is itself one statement, so it pins its own fresh
        snapshot — nested invocations read the latest published state
        exactly as they did under the serialized engine.
        """
        if self._local.function_depth >= _MAX_FUNCTION_DEPTH:
            raise ExecutionError(
                f"table-function recursion deeper than {_MAX_FUNCTION_DEPTH} "
                f"while invoking {function.name}"
            )
        name = function.name.upper()
        namespace = self._body_namespace()
        cached = self.statement_cache.get(name, namespace=namespace, count=False)
        if cached is None:
            if self.machine is not None:
                key = f"FUNCTION:{name}"
                if not self.machine.warmth.statement_is_hot(key):
                    self.machine.clock.advance(self.machine.costs.plan_compile)
                    self.machine.warmth.note_statement(key)
            plan = self._body_plan(function, namespace)
            self._note_plan(plan)
            cached = CachedStatement(function.body, plan)
            self.statement_cache.put(name, cached, namespace=namespace)
        plan = cached.plan
        self._local.function_depth += 1
        try:
            ctx = EvalContext(
                params=args, snapshot=self.pin_snapshot(), database=self
            )
            return list(plan.rows(ctx))
        finally:
            self._local.function_depth -= 1

    def _body_namespace(self) -> str:
        """Where SQL I-UDTF body plans live: the body options' key and
        the schema key (bodies plan syntactically, so statistics never
        reach them)."""
        return f"function.{self._body_options.plan_key}@{self.catalog.schema_key}"

    def _body_plan(self, function: SqlTableFunction, namespace: str) -> Plan:
        """The plan of ``function``'s body, shared under ``namespace``
        and the function name (see :meth:`_plan`); uncounted."""
        scope = ParamScope(
            qualifier=function.name,
            names={
                param.name.upper(): (index, param.type)
                for index, param in enumerate(function.params)
            },
        )
        key = (namespace, function.name.upper())
        plan, _ = self._plan(function.body, key, scope, self._body_options)
        if len(plan.schema) != len(function.returns):
            raise PlanError(
                f"body of {function.name} produces {len(plan.schema)} "
                f"column(s), declaration says {len(function.returns)}"
            )
        return plan

    def bind_sql_function(self, function: SqlTableFunction) -> None:
        """Bind-time check of a SQL I-UDTF: plan its body as its first
        call would, raising what planning raises.

        The plan goes to the shared map under the key that call looks
        up, so unless DDL comes between, the call adopts it instead of
        planning again.  Nothing is charged or counted here: the first
        call still charges ``plan_compile`` on its statement-cache miss
        and counts the plan it adopts.
        """
        self._body_plan(function, self._body_namespace())

    def run_external_function(
        self, function: ExternalTableFunction, args: list[object]
    ) -> list[tuple]:
        """Execute an external function's registered implementation.

        Backend failures surface as
        :class:`~repro.errors.ExecutionError` — the statement fails with
        an engine error, never with a raw implementation exception.
        """
        if function.implementation is None:
            raise ExecutionError(
                f"external function {function.name} ({function.external_name}) "
                "has no implementation bound; use bind_external() or "
                "register_external_function()"
            )
        try:
            result = function.implementation(*args)
        except ReproError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"external function {function.name} failed: {exc}"
            ) from exc
        if function.rows_typed:
            return result
        return normalize_rows(result, function.name)

    def bind_external(
        self, name: str, implementation: Callable[..., object]
    ) -> None:
        """Bind the implementation of a declared external function."""
        function = self.catalog.get_function(name)
        if not isinstance(function, ExternalTableFunction):
            raise CatalogError(f"{name!r} is not an external function")
        function.implementation = implementation
        function.rows_typed = False

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> Result:
        columns = []
        primary_key = list(statement.primary_key)
        for spec in statement.columns:
            columns.append(
                ColumnDef(
                    spec.name,
                    spec.type,
                    not_null=spec.not_null or spec.primary_key,
                )
            )
            if spec.primary_key:
                primary_key.append(spec.name)
        if len(primary_key) != len({k.upper() for k in primary_key}):
            raise CatalogError(
                f"duplicate primary-key column in table {statement.name!r}"
            )
        table = TableDef(statement.name, columns, primary_key)
        table.storage = Table(
            statement.name, columns, primary_key, chunk_size=self.options.chunk_size
        )
        self.catalog.add_table(table)
        self._track_storage(table.storage)
        self._invalidate_plans("CREATE", table)
        return Result(statement_type="CREATE TABLE")

    def copy_table(self, table: TableDef) -> None:
        """Create ``table`` (another database's) here, rows included.

        The new table holds the source's current version
        (:meth:`~repro.fdbs.storage.Table.fork`: its rows are copied on
        either side's first write), chunked by this database's
        ``chunk_size``, as though its CREATE TABLE and load had run here;
        later writes on either side stay on that side."""
        storage = table.storage.fork(self.options.chunk_size)
        copied = TableDef(table.name, list(table.columns), list(table.primary_key), storage)
        self.catalog.add_table(copied)
        self._track_storage(storage)
        self._invalidate_plans("CREATE", copied)

    def _execute_create_sql_function(self, statement: ast.CreateSqlFunction) -> Result:
        function = SqlTableFunction(
            name=statement.name,
            params=[FunctionParam(p.name, p.type) for p in statement.params],
            returns=[ColumnDef(n, t) for n, t in statement.returns_table],
            body=statement.body,
            deterministic=statement.deterministic,
        )
        self.catalog.add_function(function)
        self._invalidate_plans("CREATE", function)
        return Result(statement_type="CREATE FUNCTION")

    def _execute_create_external_function(
        self, statement: ast.CreateExternalFunction
    ) -> Result:
        function = ExternalTableFunction(
            name=statement.name,
            params=[FunctionParam(p.name, p.type) for p in statement.params],
            returns=[ColumnDef(n, t) for n, t in statement.returns_table],
            external_name=statement.external_name,
            language=statement.language,
            fenced=statement.fenced,
            deterministic=statement.deterministic,
        )
        self.catalog.add_function(function)
        self._invalidate_plans("CREATE", function)
        return Result(statement_type="CREATE FUNCTION")

    def _execute_create_procedure(self, statement: ast.CreateProcedure) -> Result:
        procedure = ProcedureDef(
            name=statement.name,
            params=[FunctionParam(p.name, p.type, p.mode) for p in statement.params],
            body=statement.body,
        )
        self.catalog.add_procedure(procedure)
        self._invalidate_plans("CREATE", procedure)
        return Result(statement_type="CREATE PROCEDURE")

    def _execute_create_view(self, statement: ast.CreateView) -> Result:
        from repro.fdbs.catalog import ViewDef

        # Bind-time validation: the body must plan, and a declared
        # column list must match the body's width.
        plan, _ = self._plan(statement.body)
        self._note_plan(plan)
        if statement.columns is not None and len(statement.columns) != len(
            plan.schema
        ):
            raise PlanError(
                f"view {statement.name!r} declares {len(statement.columns)} "
                f"column(s) but its body produces {len(plan.schema)}"
            )
        view = ViewDef(statement.name, statement.columns, statement.body)
        self.catalog.add_view(view)
        self._invalidate_plans("CREATE", view)
        return Result(statement_type="CREATE VIEW")

    def _execute_create_nickname(self, statement: ast.CreateNickname) -> Result:
        nickname = NicknameDef(statement.name, statement.server, statement.remote_name)
        self.catalog.add_nickname(nickname)
        try:
            self.federation.scan_columns(nickname)
        finally:
            # A nickname whose columns did not resolve stays registered;
            # it is a schema change either way.
            self._invalidate_plans("CREATE", nickname)
        return Result(statement_type="CREATE NICKNAME")

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _require_writable_target(self, name: str) -> TableDef:
        if self.catalog.has_function(name):
            raise ReadOnlyFunctionError(
                f"{name!r} is a table function; UDTFs support read access "
                "only — inserts, deletes and updates cannot be propagated"
            )
        if self.catalog.has_nickname(name):
            raise ExecutionError(
                f"nickname {name!r} is read-only in this reproduction"
            )
        if self.catalog.has_view(name):
            raise ExecutionError(f"view {name!r} is read-only")
        return self.catalog.get_table(name)

    def _execute_insert(
        self,
        statement: ast.Insert,
        params: list[object],
        snapshot: Snapshot,
        cached: CachedStatement | None = None,
    ) -> Result:
        table = self._require_writable_target(statement.table)
        if statement.source is None:
            build = self._dml_form(cached, lambda: (self._values_form(table, statement), True))
            return self._insert_rows(table, build([params], snapshot, self))
        positions = self._target_positions(table, statement.columns)
        source_result = self._execute_select(statement.source, params, snapshot)
        width = len(source_result.columns)
        if width != len(positions):
            raise ExecutionError(
                f"INSERT column count {len(positions)} does not match "
                f"source width {width}"
            )
        return self._insert_rows(
            table, _scatter(len(table.columns), positions, source_result.rows)
        )

    def execute_many(self, sql: str, param_rows: Iterable[Sequence[object]]) -> Result:
        """Execute a one-row ``INSERT … VALUES (?, …)`` template once per
        parameter row, as one statement (DB-API ``executemany``).

        The template's compiled form is the one :meth:`execute` keeps
        for the same text (:meth:`_dml_form`); every parameter row is
        bound and evaluated before one set-oriented insert, so the rows
        land in one published version or, on any error, not at all.  It
        is charged as one statement.
        """
        self._count_statement()
        statement, cached = self._parse_cached(sql)
        if (
            not isinstance(statement, ast.Insert)
            or statement.rows is None
            or len(statement.rows) != 1
        ):
            raise ExecutionError(
                "execute_many expects a one-row INSERT ... VALUES template"
            )
        self._enforce_authorization(statement)
        table = self._require_writable_target(statement.table)
        build = self._dml_form(cached, lambda: (self._values_form(table, statement), True))
        return self._insert_rows(table, build(param_rows, self.pin_snapshot(), self))

    def _dml_form(self, cached: CachedStatement | None, build: Callable[[], tuple]):
        """The compiled form of a DML statement, under SELECT's plan rule.

        A cache hit reuses the form its entry keeps, or builds one and
        stores it there; a first execution (``cached`` None) builds and
        discards, so one-shot statements keep nothing.  ``build``
        returns the form and whether an entry may keep it.
        """
        form = cached.dml if cached is not None else None
        if form is None:
            form, keep = build()
            if cached is not None and keep:
                # Racing stores from concurrent hits are benign: every
                # form built under one namespace is equally valid.
                cached.dml = form
        return form

    def _target_positions(self, table: TableDef, columns: list[str] | None) -> list[int]:
        """Table positions of a DML statement's target columns (all of
        them for None); a column named twice raises
        :class:`DuplicateColumnError` before any row is evaluated."""
        if columns is None:
            return list(range(len(table.columns)))
        positions = [table.column_index(c) for c in columns]
        if len(set(positions)) != len(positions):
            column = next(c for i, c in enumerate(columns) if positions[i] in positions[:i])
            raise DuplicateColumnError(
                f"column {column!r} of table {table.name!r} is a target "
                "more than once in one statement"
            )
        return positions

    def _values_form(self, table: TableDef, statement: ast.Insert) -> ValuesForm:
        """Compile an INSERT's VALUES rows into a :data:`ValuesForm`."""
        assert statement.rows is not None
        positions = self._target_positions(table, statement.columns)
        compiler = ExpressionCompiler(RowLayout([]))
        compiled = []
        for row_exprs in statement.rows:
            if len(row_exprs) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values per row, "
                    f"got {len(row_exprs)}"
                )
            compiled.append([compiler.compile(e) for e in row_exprs])
        if all(item.leaf is not None for row in compiled for item in row):
            return _marker_rows(len(table.columns), positions, compiled)
        return _closure_rows(len(table.columns), positions, compiled)

    def _insert_rows(self, table: TableDef, rows: list) -> Result:
        """Insert full table rows with one storage call (one published
        version)."""
        assert table.storage is not None
        # Appends never first-writer-conflict: concurrent inserters
        # interleave safely under the latch, and genuine collisions
        # surface as the primary-key ConstraintError they are.
        table.storage.insert_many(rows, undo=self._undo)
        return Result(rowcount=len(rows), statement_type="INSERT")

    def _dml_layout(self, table: TableDef) -> RowLayout:
        return RowLayout(
            [ColumnSlot(table.name, c.name, c.type) for c in table.columns]
        )

    def _scan_form(
        self,
        table: TableDef,
        assignments: list[tuple[str, ast.Expression]],
        where: ast.Expression | None,
    ) -> tuple[tuple[list, EvalFn | None], bool]:
        """Compile an UPDATE's assignments and an UPDATE/DELETE predicate
        against the table's row layout: the form is ``(position, fn)``
        per assignment and the predicate's closure (None without WHERE).
        A form whose compile planned a subquery may not be kept: DML
        subqueries plan every time."""
        positions = self._target_positions(table, [column for column, _ in assignments])
        planned = []

        def subquery(select: ast.Select):
            planned.append(select)
            return self._subquery_for_dml(select)

        compiler = ExpressionCompiler(self._dml_layout(table), subquery_compiler=subquery)
        form = (
            [
                (position, compiler.compile(expr).fn)
                for position, (_, expr) in zip(positions, assignments)
            ],
            None if where is None else compiler.compile(where).fn,
        )
        return form, not planned

    def _write_transaction(self, storage: Table, snapshot: Snapshot):
        """A first-writer-wins write latch scope for UPDATE/DELETE.

        The expected version is the statement's pinned one; unknown
        tables (created after the snapshot was pinned) skip the check —
        there is nothing an earlier reader could have validated against.
        """
        return storage.write_transaction(expected=snapshot.version_for(storage))

    def _execute_update(
        self,
        statement: ast.Update,
        params: list[object],
        snapshot: Snapshot,
        cached: CachedStatement | None = None,
    ) -> Result:
        table = self._require_writable_target(statement.table)
        assert table.storage is not None
        # No snapshot in the DML context: predicate and assignment
        # subqueries read the latest published state.  Every new row is
        # evaluated before the one set-oriented write, so under the
        # write latch that state is the statement's pinned version: the
        # statement never reads its own writes.  The pinned snapshot is
        # the statement's *validation* point (first writer wins).
        ctx = EvalContext(params=params, database=self)
        try:
            with self._write_transaction(table.storage, snapshot):
                assignments, predicate = self._dml_form(
                    cached,
                    lambda: self._scan_form(table, statement.assignments, statement.where),
                )
                touched = [
                    (rid, row)
                    for rid, row in table.storage.scan()
                    if predicate is None or predicate(row, ctx) is True
                ]
                updates = []
                for rid, row in touched:
                    new_row = list(row)
                    for position, fn in assignments:
                        new_row[position] = fn(row, ctx)
                    updates.append((rid, new_row))
                table.storage.update_many(updates, undo=self._undo)
        except WriteConflictError:
            with self._mvcc_lock:
                self._mvcc["write_conflicts"] += 1
            raise
        return Result(rowcount=len(touched), statement_type="UPDATE")

    def _execute_delete(
        self,
        statement: ast.Delete,
        params: list[object],
        snapshot: Snapshot,
        cached: CachedStatement | None = None,
    ) -> Result:
        table = self._require_writable_target(statement.table)
        assert table.storage is not None
        ctx = EvalContext(params=params, database=self)
        try:
            with self._write_transaction(table.storage, snapshot):
                _, predicate = self._dml_form(
                    cached, lambda: self._scan_form(table, [], statement.where)
                )
                doomed = [
                    rid
                    for rid, row in table.storage.scan()
                    if predicate is None or predicate(row, ctx) is True
                ]
                table.storage.delete_many(doomed, undo=self._undo)
        except WriteConflictError:
            with self._mvcc_lock:
                self._mvcc["write_conflicts"] += 1
            raise
        return Result(rowcount=len(doomed), statement_type="DELETE")

    def _subquery_for_dml(self, select: ast.Select):
        plan, _ = self._plan(select)
        self._note_plan(plan)

        def run(ctx: EvalContext) -> list[tuple]:
            return list(plan.rows(ctx))

        return run

    # ------------------------------------------------------------------
    # CALL
    # ------------------------------------------------------------------

    def _execute_call(self, statement: ast.Call, params: list[object]) -> Result:
        if self.catalog.has_function(statement.name):
            raise SqlError(
                f"{statement.name!r} is a function; reference it in a FROM "
                "clause — CALL is only valid for stored procedures"
            )
        compiler = ExpressionCompiler(RowLayout([]))
        ctx = EvalContext(params=params, database=self)
        args = [compiler.compile(a)((), ctx) for a in statement.args]
        out = self.call_procedure(statement.name, args)
        return Result(out_params=out, statement_type="CALL")


# ---------------------------------------------------------------------------
# DML forms (kept in CachedStatement.dml)
# ---------------------------------------------------------------------------

#: A compiled INSERT … VALUES: ``form(param_rows, snapshot, database)``
#: builds the statement's full table rows, one VALUES list per
#: parameter row.  It binds no database.
ValuesForm = Callable[[Iterable[Sequence[object]], Snapshot, "Database"], list]


def _scatter(width: int, positions: list[int], incoming: list) -> list:
    """``incoming`` rows of the target columns as full table rows, NULL
    in every column the statement does not name."""
    if positions == list(range(width)):
        return incoming
    scattered = []
    for incoming_row in incoming:
        full_row: list[object] = [None] * width
        for position, value in zip(positions, incoming_row):
            full_row[position] = value
        scattered.append(full_row)
    return scattered


def _closure_rows(width: int, positions: list[int], compiled: list) -> ValuesForm:
    """VALUES rows that evaluate their items' closures per parameter row."""
    fns = [[item.fn for item in row] for row in compiled]

    def build(param_rows, snapshot, database):
        incoming = []
        for params in param_rows:
            ctx = EvalContext(params=list(params), snapshot=snapshot, database=database)
            for row in fns:
                incoming.append(tuple([fn((), ctx) for fn in row]))
        return _scatter(width, positions, incoming)

    return build


def _marker_rows(width: int, positions: list[int], compiled: list) -> ValuesForm:
    """VALUES rows of literals and ``?`` markers only (every item has a
    ``("const", v)`` or ``("param", j)`` leaf): each full table row is
    one ``itemgetter`` over the parameters followed by the constants.

    Constants are read by negative index, counted from the end, so one
    getter serves any number of bound parameters.  The first marker
    past the bound parameters, in evaluation order, raises the closures'
    message before that parameter row builds a row.
    """
    constants: list[object] = [None]  # -1: the NULL of every unnamed column
    markers = []
    getters = []
    for row in compiled:
        indices = [-1] * width
        for position, item in zip(positions, row):
            kind, value = item.leaf
            if kind == "param":
                indices[position] = value
                markers.append(value)
            else:
                constants.append(value)
                indices[position] = -len(constants)
        getters.append(_tuple_getter(indices))
    # Without a constant to read, the parameters alone are the source.
    uses_constants = len(markers) < width * len(compiled)
    tail = tuple(reversed(constants))
    needed = max(markers) + 1 if markers else 0

    def build(param_rows, snapshot, database):
        rows = []
        for params in param_rows:
            if len(params) < needed:
                bound = len(params)
                unbound = next(j for j in markers if j >= bound)
                raise ExecutionError(f"statement parameter ?{unbound + 1} was not bound")
            source = tuple(params) + tail if uses_constants else params
            rows += [get(source) for get in getters]
        return rows

    return build


def _tuple_getter(indices: list[int]) -> Callable[[Sequence[object]], tuple]:
    """``itemgetter`` that returns a tuple for one index too."""
    if len(indices) == 1:
        (index,) = indices
        return lambda source: (source[index],)
    return itemgetter(*indices)
