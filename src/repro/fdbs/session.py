"""Query results and the statement (plan) cache.

The statement cache is what makes *repeated* federated-function calls
the fastest in the paper's boot/other/repeated comparison: a cache miss
pays :attr:`~repro.simtime.costs.CostModel.plan_compile`, a hit pays
nothing.  Hot texts also skip compiling in wall-clock terms: the entry
keeps the statement's compiled form (a plan, or a DML statement's
compiled rows and predicates) next to the parsed statement.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ExecutionError
from repro.fdbs.parser import parse_statement


@dataclass
class Result:
    """Outcome of one statement execution."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    out_params: dict[str, object] = field(default_factory=dict)
    statement_type: str = "SELECT"

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> object:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs exactly one row and column, got "
                f"{len(self.rows)} row(s) x {len(self.columns)} column(s)"
            )
        return self.rows[0][0]

    def first(self) -> tuple | None:
        """First row, or None."""
        return self.rows[0] if self.rows else None

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[object]:
        """All values of one named column."""
        target = name.upper()
        for index, column in enumerate(self.columns):
            if column.upper() == target:
                return [row[index] for row in self.rows]
        raise ExecutionError(f"result has no column {name!r}")


@dataclass
class CachedStatement:
    """One statement-cache entry: the parsed statement and its compiled
    form, one slot for every kind (a SELECT's or an INSERT … SELECT's
    plan, an INSERT … VALUES row builder, an UPDATE's or DELETE's
    assignments and predicate, a SQL I-UDTF body's plan).

    ``form`` starts empty.  The engine fills it when a cache *hit*
    re-executes the text (a first execution compiles and discards), so
    one-shot statements never keep a compiled form alive.  It does not
    live on the statement: ASTs may be shared (:class:`ParseMap`).
    """

    statement: object
    form: object | None = None


class StatementCache:
    """Caches parsed statements and their compiled forms by text.

    The key is the statement text exactly as given, as in DB2's dynamic
    statement cache: blanks inside a string literal or a quoted
    identifier change what a statement means, so texts that differ in
    any character are different statements.

    Eviction is LRU with a configurable capacity; any DDL invalidates the
    whole cache (catalog objects may have changed shape).  Entries are
    *namespaced*: the engine folds every planning input (execution
    mode, optimizer settings, pushdown/index/zone-map switches, the
    catalog's schema key and statistics epoch) into the namespace, so a
    compiled form is only ever served to an execution that would have
    compiled it identically.  Hit, miss, eviction and plan-reuse
    counters are exposed through :meth:`stats`.

    Lookups, stores and the counters are guarded by an internal lock:
    concurrent sessions sharing one FDBS must neither lose counter
    updates nor race the LRU pop/reinsert (which would raise
    ``KeyError`` or corrupt the recency order).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: dict[str, object] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Executions that reused a kept SELECT plan (an INSERT …
        #: SELECT's source plan included).
        self.plan_hits = 0

    @staticmethod
    def _key(sql: str, namespace: str | None) -> str:
        if namespace is None:
            return sql
        return f"{namespace}\x00{sql}"

    def get(
        self, sql: str, namespace: str | None = None, count: bool = True
    ) -> object | None:
        """Cached entry for the statement text, or None (LRU refresh).

        ``count=False`` leaves the hit/miss counters alone: the engine
        uses it for UDTF body plans, which share the cache but are not
        statement executions.
        """
        key = self._key(sql, namespace)
        with self._lock:
            value = self._entries.pop(key, None)
            if value is not None:
                self._entries[key] = value  # move to MRU position
            if count:
                if value is None:
                    self.misses += 1
                else:
                    self.hits += 1
            return value

    def put(self, sql: str, value: object, namespace: str | None = None) -> None:
        """Cache an entry, evicting the least recently used if full."""
        key = self._key(sql, namespace)
        with self._lock:
            if key in self._entries:
                self._entries.pop(key)
            elif len(self._entries) >= self.capacity:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1
            self._entries[key] = value

    def note_plan_hit(self) -> None:
        """Count one execution that reused a kept SELECT plan."""
        with self._lock:
            self.plan_hits += 1

    def invalidate(self) -> None:
        """Drop every cached entry (DDL happened)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction/plan-reuse counters plus current size and
        capacity."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "plan_hits": self.plan_hits,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class ParseMap:
    """A bounded map of parsed statements and compiled plans that
    databases share.

    A :class:`~repro.fdbs.engine.Database` given one asks it for the AST
    of each statement text its own :class:`StatementCache` misses, so
    databases built alike (the session servers of one serving worker)
    parse each text once between them.  Statements are never mutated
    after parsing, so one AST may serve any number of databases and
    threads.

    It also holds compiled plans.  A plan binds no database (its
    operators resolve tables, functions and fetchers through the
    executing database, ``ctx.database``), so a database asks the map
    before it plans and stores there every plan another database may
    run: keyed by the planner options' key, the catalog's schema key
    and the statement text (a SQL I-UDTF body by its function name), a
    plan serves exactly the databases that would have built it alike.

    Plans are found by the catalog's schema key, which the databases
    compute alike by describing each schema change alike; the map
    prints the lists those descriptions repeat (:meth:`printed`) once.

    Only wall-clock time changes: the simulated plan-compile charge and
    the cache counters stay with each database.  Lookups are lock-free
    dict reads; stores take a lock.  Past ``capacity`` entries of
    any kind the oldest stored one is dropped, so a stream of one-off
    statements cannot grow the map without bound.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("parse map capacity must be positive")
        self.capacity = capacity
        self._statements: dict[str, object] = {}
        self._plans: dict[tuple, object] = {}
        self._printed: dict[tuple, str] = {}
        self._lock = threading.Lock()

    def parse(self, sql: str) -> object:
        """The parsed statement for ``sql``, parsing it on a miss."""
        statement = self._statements.get(sql)
        if statement is None:
            statement = parse_statement(sql)
            self._store(self._statements, sql, statement)
        return statement

    def plan(self, key: tuple) -> object | None:
        """The plan stored under ``key``, or None."""
        return self._plans.get(key)

    def store_plan(self, key: tuple, plan: object) -> None:
        """Store ``plan`` under ``key`` (a plan already there stays:
        every plan stored under one key is equally valid)."""
        self._store(self._plans, key, plan)

    def printed(self, value: list) -> str:
        """``repr(value)`` for a list a catalog definition holds (column
        definitions, parameters or names: frozen values that print
        alike exactly when they compare equal), printed once per map
        (see :func:`~repro.fdbs.catalog.describe`)."""
        key = tuple(value)
        text = self._printed.get(key)
        if text is None:
            text = repr(value)
            self._store(self._printed, key, text)
        return text

    def _store(self, entries: dict, key, value: object) -> None:
        with self._lock:
            if key not in entries:
                if len(entries) >= self.capacity:
                    del entries[next(iter(entries))]
                entries[key] = value

    def plan_count(self) -> int:
        """Plans currently held."""
        return len(self._plans)

    def __len__(self) -> int:
        return len(self._statements)
