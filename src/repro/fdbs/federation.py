"""SQL federation: foreign servers, nicknames and subquery pushdown.

The paper's FDBS "divides the query into the appropriate SQL subqueries
for the SQL sources" and merges the results.  Here a foreign server is
any object implementing :class:`RemoteEndpoint`; the common case is
:class:`DatabaseEndpoint`, which wraps another in-process
:class:`~repro.fdbs.engine.Database` and receives *SQL text* (the
pushed-down subquery), reproducing the wire boundary of a real
federation.  Each round trip charges
:attr:`~repro.simtime.costs.CostModel.remote_sql_roundtrip`.

Heterogeneous sources
---------------------

Real federations couple wildly different endpoints (SkyQuery's service
mesh, web APIs behind rate limiters, cold archives).  A
:class:`SourceProfile` attached to a foreign server replaces the
uniform round-trip pricing with source-specific cost constants:
per-request latency, per-row transfer, page-size-limited fetches, a
rate-limit budget whose stalls back off through the faults machinery's
:class:`~repro.sysmodel.faults.RetryPolicy`, an index-lookup surcharge
for predicated requests, and a response cache in front of the source.
Each profiled server keeps live counters (requests, pages, rows,
rate-limit waits, cache hits) that surface in ``SYSCAT_RUNTIME_STATS``
as ``source:<server>`` components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.errors import CatalogError
from repro.fdbs.catalog import ColumnDef, NicknameDef

if TYPE_CHECKING:  # pragma: no cover
    from repro.fdbs.engine import Database


class RemoteEndpoint(Protocol):
    """Wire interface of a foreign SQL server."""

    def describe(self, table_name: str) -> list[ColumnDef]:
        """Column definitions of a remote table."""
        ...

    def query(self, sql: str) -> tuple[list[str], list[tuple]]:
        """Execute SQL text remotely; returns (column names, rows)."""
        ...


class DatabaseEndpoint:
    """A remote endpoint backed by another in-process Database."""

    def __init__(self, database: "Database"):
        self.database = database

    def describe(self, table_name: str) -> list[ColumnDef]:
        """Column definitions of a remote table."""
        table = self.database.catalog.get_table(table_name)
        return list(table.columns)

    def query(self, sql: str) -> tuple[list[str], list[tuple]]:
        """Execute SQL text remotely; returns (columns, rows)."""
        result = self.database.execute(sql)
        return result.columns, result.rows


# ===========================================================================
# Source profiles: heterogeneous endpoint cost models
# ===========================================================================


@dataclass(frozen=True)
class SourceProfile:
    """Cost constants and wire behaviour of one class of foreign server.

    A server without a profile keeps the legacy uniform pricing
    (``remote_sql_roundtrip`` + ``remote_row_transfer`` per row), so
    existing federations are bit-identical.
    """

    name: str
    """Short profile tag (shown in stats and EXPLAIN-side diagnostics)."""

    per_request: float
    """Simulated latency of one remote request (every page pays it)."""

    per_row: float
    """Transferring one result row back from this source."""

    page_size: int | None = None
    """Result rows per request; a fetch returning more rows pays one
    request per page (web-API style).  None fetches everything at once."""

    rate_limit: int | None = None
    """Requests allowed per ``rate_window``; the next request past the
    budget stalls with exponential backoff until the window rolls over."""

    rate_window: float = 0.0
    """Length of the rate-limit accounting window in simulated time."""

    rate_backoff_base: float = 10.0
    """First backoff delay when the rate limit is hit; subsequent waits
    grow through :meth:`~repro.sysmodel.faults.RetryPolicy.backoff`."""

    filtered_surcharge: float = 0.0
    """Extra charge for a *predicated* request (remote index lookup /
    restart of a bulk reader) — what makes an archive source
    scan-cheap but lookup-expensive."""

    cache_hit_cost: float | None = None
    """Cost of a response served by the cache in front of the source;
    None means the source has no cache front.  Responses are cached by
    exact SQL text, so a repeated ship-all scan hits while an ever-
    changing bind-join IN list misses."""

    max_bind_keys: int | None = None
    """Source-specific cap on bind-join IN-list length (URL/statement
    length limits); None uses the executor-wide MAX_BIND_KEYS."""


WEB_API_PROFILE = SourceProfile(
    name="web-api",
    per_request=25.0,
    per_row=0.15,
    page_size=25,
    rate_limit=8,
    rate_window=400.0,
    rate_backoff_base=10.0,
    max_bind_keys=50,
)
"""A web-API-style source: every request is expensive, results arrive
in small pages, and a request budget per window stalls heavy scans —
shipping only the bound keys is almost always the right plan."""

ARCHIVE_PROFILE = SourceProfile(
    name="archive",
    per_request=2.0,
    per_row=0.01,
    filtered_surcharge=45.0,
)
"""A bulk archive: streaming the whole table out is nearly free, but a
predicated request pays an expensive index lookup / reader restart —
ship-all beats a bind join except at extreme reductions."""

CACHE_FRONTED_PROFILE = SourceProfile(
    name="cache-fronted",
    per_request=12.0,
    per_row=0.08,
    cache_hit_cost=0.6,
)
"""A source behind a response cache: repeating the *same* SQL text is
almost free, so a stable ship-all scan amortizes while per-statement
bind-join IN lists never hit."""

PROFILES = {
    profile.name: profile
    for profile in (WEB_API_PROFILE, ARCHIVE_PROFILE, CACHE_FRONTED_PROFILE)
}
"""The built-in heterogeneous profiles by name."""


@dataclass
class SourceState:
    """Mutable per-server runtime state for a profiled source."""

    profile: SourceProfile
    counters: dict[str, int] = field(
        default_factory=lambda: {
            "requests": 0,
            "pages": 0,
            "rows": 0,
            "rate_limit_waits": 0,
            "cache_hits": 0,
        }
    )
    window_start: float = 0.0
    window_requests: int = 0
    #: Response cache (exact SQL text -> rows).  Entries are served
    #: as-is, so like any real cache front the source may return stale
    #: rows after remote-side DML until ``invalidate()`` is called.
    cache: dict[str, list[tuple]] = field(default_factory=dict)

    def invalidate(self) -> None:
        """Drop every cached response (remote data changed)."""
        self.cache.clear()


class RemoteTableFetcher:
    """Executes (possibly predicate-augmented) scans of one nickname.

    The planner may append rendered predicate texts per statement
    (predicate pushdown); the fetcher ships ``SELECT * FROM <remote>
    [WHERE p1 AND p2 ...]`` as SQL text — the wire boundary of a real
    federation — and charges one round trip plus a per-row transfer
    cost, which is what makes pushdown measurably cheaper.  When the
    server carries a :class:`SourceProfile` the uniform pricing is
    replaced by the profile's pagination / rate-limit / cache model.
    """

    def __init__(
        self,
        layer: "FederationLayer",
        nickname: NicknameDef,
        endpoint,
        server=None,
    ):
        self.layer = layer
        self.nickname = nickname
        self.endpoint = endpoint
        self.server_name = server.name if server is not None else nickname.server
        self.profile: SourceProfile | None = (
            getattr(server, "profile", None) if server is not None else None
        )

    def fetch(self, ctx, predicates: list[str] | None = None) -> list[tuple]:
        """Ship the remote statement and return its rows (costed)."""
        sql = f"SELECT * FROM {self.nickname.remote_name}"
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        self.layer.pushdown_count += 1
        if self.profile is not None:
            return self._profiled_fetch(sql, filtered=bool(predicates))
        machine = self.layer.database.machine
        if machine is not None:
            machine.clock.advance(machine.costs.remote_sql_roundtrip)
        _, rows = self.endpoint.query(sql)
        if machine is not None and rows:
            machine.clock.advance(machine.costs.remote_row_transfer * len(rows))
        return rows

    def count(self, ctx, predicates: list[str] | None = None) -> int:
        """Ship ``SELECT COUNT(*)`` with the same predicates (costed).

        One roundtrip and a single transferred row, regardless of the
        remote cardinality; profiled sources pay one uncached request
        plus one row.  No plan operator calls it: it stays because the
        repository benchmark's tracer (``perfbench/tracer.py``) wraps it
        by name as a ``fdbs.federation`` boundary.
        """
        sql = f"SELECT COUNT(*) FROM {self.nickname.remote_name}"
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        machine = self.layer.database.machine
        if self.profile is not None:
            state = self.layer.source_state(self.server_name, self.profile)
            surcharge = self.profile.filtered_surcharge if predicates else 0.0
            self._charge_request(machine, state, surcharge)
            _, rows = self.endpoint.query(sql)
            state.counters["rows"] += 1
            state.counters["pages"] += 1
            if machine is not None:
                machine.clock.advance(self.profile.per_row)
        else:
            if machine is not None:
                machine.clock.advance(machine.costs.remote_sql_roundtrip)
            _, rows = self.endpoint.query(sql)
            if machine is not None:
                machine.clock.advance(machine.costs.remote_row_transfer)
        return int(rows[0][0]) if rows else 0

    # -- profiled wire model ---------------------------------------------------

    def _profiled_fetch(self, sql: str, filtered: bool) -> list[tuple]:
        profile = self.profile
        state = self.layer.source_state(self.server_name, profile)
        counters = state.counters
        machine = self.layer.database.machine
        if profile.cache_hit_cost is not None and sql in state.cache:
            counters["cache_hits"] += 1
            if machine is not None:
                machine.clock.advance(profile.cache_hit_cost)
            return list(state.cache[sql])
        surcharge = profile.filtered_surcharge if filtered else 0.0
        self._charge_request(machine, state, surcharge)
        _, rows = self.endpoint.query(sql)
        counters["rows"] += len(rows)
        pages = 1
        if profile.page_size is not None and len(rows) > profile.page_size:
            pages = -(-len(rows) // profile.page_size)  # ceil division
            for _ in range(pages - 1):
                self._charge_request(machine, state, 0.0)
        counters["pages"] += pages
        if machine is not None and rows:
            machine.clock.advance(profile.per_row * len(rows))
        if profile.cache_hit_cost is not None:
            state.cache[sql] = list(rows)
        return rows

    def _charge_request(self, machine, state: SourceState, surcharge: float) -> None:
        """Account one remote request: rate-limit stall, then latency."""
        profile = state.profile
        state.counters["requests"] += 1
        if machine is None:
            return
        clock = machine.clock
        if profile.rate_limit is not None and profile.rate_window > 0:
            now = clock.now
            if now - state.window_start >= profile.rate_window:
                state.window_start = now
                state.window_requests = 0
            if state.window_requests >= profile.rate_limit:
                # Budget exhausted: retry with exponential backoff (the
                # faults machinery's shared policy) until the window
                # rolls over, then start a fresh budget.
                policy = machine.retry_policy
                attempt = 0
                while clock.now - state.window_start < profile.rate_window:
                    attempt += 1
                    clock.advance(
                        policy.backoff(attempt, profile.rate_backoff_base)
                    )
                state.counters["rate_limit_waits"] += 1
                state.window_start = clock.now
                state.window_requests = 0
        state.window_requests += 1
        clock.advance(profile.per_request + surcharge)


class FederationLayer:
    """Pushes nickname scans down to their foreign servers."""

    def __init__(self, database: "Database"):
        self.database = database
        self.pushdown_count = 0
        #: Conjuncts pushed into remote scans, counted when a plan is
        #: built (a cached plan re-executes without raising it).
        self.predicates_pushed = 0
        #: Bind joins executed: remote fetches narrowed to the outer
        #: join keys by the cost-based optimizer.
        self.bind_join_count = 0
        #: Bind joins that fell back to the unbound (ship-all) fetch at
        #: execution time because the *actual* distinct outer keys
        #: exceeded the IN-list cap the estimate-based gate assumed.
        self.bind_join_fallbacks = 0
        self._sources: dict[str, SourceState] = {}
        self._fetchers: dict[str, RemoteTableFetcher] = {}

    # -- profiled sources -------------------------------------------------------

    def source_state(self, server_name: str, profile: SourceProfile) -> SourceState:
        """Get-or-create the runtime state of a profiled server."""
        key = server_name.upper()
        state = self._sources.get(key)
        if state is None:
            state = SourceState(profile)
            self._sources[key] = state
        return state

    def profile_for(self, nickname: NicknameDef) -> SourceProfile | None:
        """The source profile of a nickname's server (None = uniform)."""
        server = self.database.catalog.get_server(nickname.server)
        return getattr(server, "profile", None)

    def cached_full_scan(self, nickname: NicknameDef) -> bool:
        """Whether the plain ship-all scan of this nickname would be
        served by the source's cache front right now (planning input
        for the cost optimizer; a miss only mis-estimates, rows are
        unaffected)."""
        server = self.database.catalog.get_server(nickname.server)
        profile = getattr(server, "profile", None)
        if profile is None or profile.cache_hit_cost is None:
            return False
        state = self._sources.get(server.name.upper())
        if state is None:
            return False
        return f"SELECT * FROM {nickname.remote_name}" in state.cache

    def invalidate_source_caches(self) -> None:
        """Drop every profiled server's response cache."""
        for state in self._sources.values():
            state.invalidate()

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-source counters, keyed ``source:<server>`` (for
        SYSCAT_RUNTIME_STATS and the shell's ``.stats``)."""
        return {
            f"source:{name.lower()}": dict(state.counters)
            for name, state in sorted(self._sources.items())
        }

    # -- scan construction ------------------------------------------------------

    def fetcher(self, name: str) -> RemoteTableFetcher:
        """The remote-scan fetcher of nickname ``name`` (plans keep the
        name and resolve it here when they run).  Built on first use
        and kept until the next schema change (:meth:`forget_fetchers`),
        which is also what any change to its server or columns is."""
        fetcher = self._fetchers.get(name)
        if fetcher is None:
            nickname = self.database.catalog.get_nickname(name)
            self.scan_columns(nickname)
            server = self.database.catalog.get_server(nickname.server)
            fetcher = RemoteTableFetcher(self, nickname, server.endpoint, server)
            # Racing builds are benign: every one is equally valid.
            self._fetchers[name] = fetcher
        return fetcher

    def forget_fetchers(self) -> None:
        """Drop the fetchers built so far (on every schema change)."""
        self._fetchers = {}

    def scan_columns(self, nickname: NicknameDef) -> list[ColumnDef]:
        """The columns a scan of ``nickname`` returns (what the planner
        reads); the server must have an endpoint attached."""
        server = self.database.catalog.get_server(nickname.server)
        endpoint = server.endpoint
        if endpoint is None:
            raise CatalogError(
                f"server {server.name!r} has no endpoint attached; call "
                "Database.attach_endpoint() first"
            )
        columns = nickname.columns
        if not columns:
            columns = endpoint.describe(nickname.remote_name)
            nickname.columns = columns
        return columns
