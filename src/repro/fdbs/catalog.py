"""System catalog of the FDBS.

Holds every named object: tables, nicknames, table functions (SQL and
external), stored procedures, SQL/MED wrappers and servers.  Identifier
resolution is case-insensitive (names are stored with their original
spelling but keyed upper-cased), matching the dialect's unquoted
identifier semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import CatalogError
from repro.fdbs.types import SqlType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fdbs import ast
    from repro.fdbs.stats import StatsFeedback, TableStats
    from repro.fdbs.storage import Table

#: ``plan`` field metadata of a field that folds into the schema key
#: only by whether it is set (see :func:`describe`).
_PRESENCE = {"plan": "presence"}


def describe(definition: object) -> str:
    """A catalog definition as text, for the schema key.

    Every field folds its ``repr`` (the dataclasses involved: columns,
    SQL types, parameters, statement ASTs, source profiles, spell their
    values out in full), except the fields marked ``presence``: objects
    that each execution resolves in its own database (a table's
    storage, a server's endpoint, an external function's
    implementation), which fold only whether they are set.  Anything
    that is not a definition (a dropped object's name) is its ``repr``.
    """
    kind = type(definition)
    fields = _FOLDED.get(kind)
    if fields is None:
        return repr(definition)
    parts = [kind.__name__]
    for name, presence in fields:
        value = getattr(definition, name)
        parts.append(f"{name}={(value is not None) if presence else value!r}")
    return " ".join(parts)


@dataclass(frozen=True)
class ColumnDef:
    """One column of a table or of a table-function result."""

    name: str
    type: SqlType
    not_null: bool = False


@dataclass
class TableDef:
    """A base table: schema plus its storage."""

    name: str
    columns: list[ColumnDef]
    primary_key: list[str] = field(default_factory=list)
    storage: "Table | None" = field(default=None, metadata=_PRESENCE)

    def column_index(self, name: str) -> int:
        """Index of a column by case-insensitive name."""
        target = name.upper()
        for index, column in enumerate(self.columns):
            if column.name.upper() == target:
                return index
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]


@dataclass(frozen=True)
class FunctionParam:
    """One declared parameter of a function or procedure."""

    name: str
    type: SqlType
    mode: str = "IN"


class FunctionKind:
    """Discriminators for catalog function entries."""

    SQL_TABLE = "sql table function"
    EXTERNAL_TABLE = "external table function"


@dataclass
class SqlTableFunction:
    """A ``LANGUAGE SQL`` I-UDTF: body is one SELECT statement."""

    name: str
    params: list[FunctionParam]
    returns: list[ColumnDef]
    body: "ast.Select"
    deterministic: bool = False
    """DETERMINISTIC functions may have repeated invocations with equal
    arguments served from a per-statement cache (DB2-style)."""

    kind: str = FunctionKind.SQL_TABLE


@dataclass
class ExternalTableFunction:
    """An external (A-)UDTF backed by a registered callable.

    ``implementation`` receives the positional argument values and must
    return an iterable of row tuples matching ``returns``.  ``fenced``
    external functions are executed through the fenced runtime (separate
    process + RMI to the controller), reproducing DB2's security model.
    """

    name: str
    params: list[FunctionParam]
    returns: list[ColumnDef]
    external_name: str
    language: str = "JAVA"
    fenced: bool = True
    implementation: Callable[..., Iterable[Sequence[object]]] | None = field(
        default=None, metadata=_PRESENCE
    )
    deterministic: bool = False
    """DETERMINISTIC functions may have repeated invocations with equal
    arguments served from a per-statement cache (DB2-style)."""

    owner_system: str | None = None
    """Name of the application system whose local function backs this
    A-UDTF; tags result-cache entries so a write through that system
    invalidates them."""

    source_deterministic: bool = False
    """Whether the *backing local function* is a deterministic read-only
    lookup.  Weaker than ``deterministic`` (which changes per-statement
    caching semantics): it only marks the function as eligible for the
    machine-level result cache when that feature is switched on."""

    rows_typed: bool = False
    """The implementation returns a list of row tuples already coerced
    into ``returns`` (an A-UDTF whose local function declares the same
    result types), so the engine skips its own normalisation and
    coercion pass; it still charges the per-row UDTF overhead."""

    kind: str = FunctionKind.EXTERNAL_TABLE


@dataclass
class ProcedureDef:
    """A stored procedure (PSM body; CALL-only)."""

    name: str
    params: list[FunctionParam]
    body: "list[ast.PsmStatement]"


@dataclass
class WrapperDef:
    """A SQL/MED wrapper registration."""

    name: str


@dataclass
class ServerDef:
    """A SQL/MED foreign server using a wrapper.

    ``endpoint`` is attached by the federation layer and points at the
    remote database adapter the wrapper talks to.  ``profile`` is an
    optional :class:`~repro.fdbs.federation.SourceProfile` replacing
    the uniform remote cost model with source-specific constants
    (pagination, rate limits, lookup surcharges, cache fronts).
    """

    name: str
    wrapper: str
    endpoint: object | None = field(default=None, metadata=_PRESENCE)
    profile: object | None = None


@dataclass
class ViewDef:
    """A view: a named, macro-expanded SELECT (definer rights)."""

    name: str
    columns: list[str] | None
    body: "ast.Select"


@dataclass
class NicknameDef:
    """A local name for a remote table on a foreign server."""

    name: str
    server: str
    remote_name: str
    columns: list[ColumnDef] = field(default_factory=list)


TableFunction = SqlTableFunction | ExternalTableFunction

#: The catalog-definition dataclasses (what a schema change registers).
DEFINITIONS = (
    TableDef,
    SqlTableFunction,
    ExternalTableFunction,
    ProcedureDef,
    WrapperDef,
    ServerDef,
    ViewDef,
    NicknameDef,
)
#: Per definition class, ``(field name, presence only)`` for each field.
_FOLDED = {
    kind: tuple(
        (f.name, f.metadata.get("plan") == "presence") for f in dataclasses.fields(kind)
    )
    for kind in DEFINITIONS
}


class Catalog:
    """All named objects of one database."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}
        self._functions: dict[str, TableFunction] = {}
        self._procedures: dict[str, ProcedureDef] = {}
        self._wrappers: dict[str, WrapperDef] = {}
        self._servers: dict[str, ServerDef] = {}
        self._nicknames: dict[str, NicknameDef] = {}
        self._views: dict[str, ViewDef] = {}
        #: RUNSTATS snapshots keyed by upper-cased table/nickname name.
        self._statistics: dict[str, "TableStats"] = {}
        #: Machine runtime counters for SYSCAT_RUNTIME_STATS (attached by
        #: machine-backed databases; None on standalone databases).
        self.runtime_stats_provider: Callable[[], dict[str, dict[str, int]]] | None = (
            None
        )
        #: Guards check-then-act registrations and list snapshots against
        #: concurrent DDL; single-key reads stay lock-free (GIL-atomic).
        self._lock = threading.RLock()
        #: Digest of every schema change so far, each folded in with a
        #: description of what changed (see :meth:`note_ddl`).  Compiled
        #: plans are keyed by it, in one database's statement cache and
        #: in a map shared between databases: two catalogs that went
        #: through the same described changes from empty plan alike (a
        #: count of changes would say nothing about what they were).
        #: Each change moves it, whatever its description.
        self.schema_key = ""
        #: Bumped whenever planning statistics change — RUNSTATS
        #: collection or a cardinality-feedback override.  Statement
        #: caches fold it into their namespaces (next to schema_key) so
        #: plans whose driving estimates drifted are invalidated.
        self.stats_epoch = 0
        #: Cardinality-feedback overrides recorded by EXPLAIN ANALYZE,
        #: keyed by upper-cased table/nickname name; cleared when
        #: RUNSTATS re-collects the table.
        self._feedback: dict[str, "StatsFeedback"] = {}

    def note_ddl(self, change: str) -> None:
        """Record a schema change.

        ``change`` says what changed: the statement kind and the
        :func:`describe` text of the object, or the name of a dropped
        one (the kind alone in a database that shares no plans).  It is
        chained into :attr:`schema_key`.
        """
        with self._lock:
            chained = f"{self.schema_key}\x00{change}".encode()
            self.schema_key = hashlib.blake2b(chained, digest_size=12).hexdigest()

    # -- tables -----------------------------------------------------------------

    def add_table(self, table: TableDef) -> None:
        """Register the object (duplicates rejected)."""
        key = table.name.upper()
        with self._lock:
            if key in self._tables or key in self._nicknames or key in self._views:
                raise CatalogError(
                    f"table, view or nickname {table.name!r} already exists"
                )
            self._tables[key] = table

    def get_table(self, name: str) -> TableDef:
        """Look up the named object (raises CatalogError when missing)."""
        try:
            return self._tables[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """True if the named object exists."""
        return name.upper() in self._tables

    def drop_table(self, name: str) -> TableDef:
        """Remove and return the named object (dropping its statistics)."""
        with self._lock:
            try:
                table = self._tables.pop(name.upper())
            except KeyError:
                raise CatalogError(f"unknown table {name!r}") from None
            self._statistics.pop(name.upper(), None)
            self._feedback.pop(name.upper(), None)
            return table

    def tables(self) -> list[TableDef]:
        """All registered objects of this kind."""
        with self._lock:
            return list(self._tables.values())

    # -- functions ---------------------------------------------------------------

    def add_function(self, function: TableFunction) -> None:
        """Register the object (duplicates rejected)."""
        key = function.name.upper()
        with self._lock:
            if key in self._functions:
                raise CatalogError(f"function {function.name!r} already exists")
            if key in self._procedures:
                raise CatalogError(
                    f"{function.name!r} already names a procedure"
                )
            self._functions[key] = function

    def get_function(self, name: str) -> TableFunction:
        """Look up the named object (raises CatalogError when missing)."""
        try:
            return self._functions[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown function {name!r}") from None

    def has_function(self, name: str) -> bool:
        """True if the named object exists."""
        return name.upper() in self._functions

    def drop_function(self, name: str) -> TableFunction:
        """Remove and return the named object."""
        with self._lock:
            try:
                return self._functions.pop(name.upper())
            except KeyError:
                raise CatalogError(f"unknown function {name!r}") from None

    def functions(self) -> list[TableFunction]:
        """All registered objects of this kind."""
        with self._lock:
            return list(self._functions.values())

    # -- procedures ----------------------------------------------------------------

    def add_procedure(self, procedure: ProcedureDef) -> None:
        """Register the object (duplicates rejected)."""
        key = procedure.name.upper()
        with self._lock:
            if key in self._procedures:
                raise CatalogError(f"procedure {procedure.name!r} already exists")
            if key in self._functions:
                raise CatalogError(f"{procedure.name!r} already names a function")
            self._procedures[key] = procedure

    def get_procedure(self, name: str) -> ProcedureDef:
        """Look up the named object (raises CatalogError when missing)."""
        try:
            return self._procedures[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown procedure {name!r}") from None

    def has_procedure(self, name: str) -> bool:
        """True if the named object exists."""
        return name.upper() in self._procedures

    # -- views ---------------------------------------------------------------------

    def add_view(self, view: ViewDef) -> None:
        """Register the object (duplicates rejected)."""
        key = view.name.upper()
        with self._lock:
            if key in self._views or key in self._tables or key in self._nicknames:
                raise CatalogError(
                    f"table, view or nickname {view.name!r} already exists"
                )
            self._views[key] = view

    def get_view(self, name: str) -> ViewDef:
        """Look up the named object (raises CatalogError when missing)."""
        try:
            return self._views[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown view {name!r}") from None

    def has_view(self, name: str) -> bool:
        """True if the named object exists."""
        return name.upper() in self._views

    def drop_view(self, name: str) -> ViewDef:
        """Remove and return the named object."""
        with self._lock:
            try:
                return self._views.pop(name.upper())
            except KeyError:
                raise CatalogError(f"unknown view {name!r}") from None

    def views(self) -> list[ViewDef]:
        """All registered objects of this kind."""
        with self._lock:
            return list(self._views.values())

    # -- SQL/MED objects --------------------------------------------------------------

    def add_wrapper(self, wrapper: WrapperDef) -> None:
        """Register the object (duplicates rejected)."""
        key = wrapper.name.upper()
        with self._lock:
            if key in self._wrappers:
                raise CatalogError(f"wrapper {wrapper.name!r} already exists")
            self._wrappers[key] = wrapper

    def get_wrapper(self, name: str) -> WrapperDef:
        """Look up the named object (raises CatalogError when missing)."""
        try:
            return self._wrappers[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown wrapper {name!r}") from None

    def add_server(self, server: ServerDef) -> None:
        """Register the object (duplicates rejected)."""
        self.get_wrapper(server.wrapper)  # must exist
        key = server.name.upper()
        with self._lock:
            if key in self._servers:
                raise CatalogError(f"server {server.name!r} already exists")
            self._servers[key] = server

    def get_server(self, name: str) -> ServerDef:
        """Look up the named object (raises CatalogError when missing)."""
        try:
            return self._servers[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown server {name!r}") from None

    def add_nickname(self, nickname: NicknameDef) -> None:
        """Register the object (duplicates rejected)."""
        self.get_server(nickname.server)  # must exist
        key = nickname.name.upper()
        with self._lock:
            if key in self._nicknames or key in self._tables or key in self._views:
                raise CatalogError(
                    f"table, view or nickname {nickname.name!r} already exists"
                )
            self._nicknames[key] = nickname

    def get_nickname(self, name: str) -> NicknameDef:
        """Look up the named object (raises CatalogError when missing)."""
        try:
            return self._nicknames[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown nickname {name!r}") from None

    def has_nickname(self, name: str) -> bool:
        """True if the named object exists."""
        return name.upper() in self._nicknames

    # -- statistics (RUNSTATS snapshots + cardinality feedback) ------------------

    def set_statistics(self, stats: "TableStats") -> None:
        """Record (or replace) the RUNSTATS snapshot of one table.

        A fresh collection supersedes any cardinality-feedback override
        for the table and opens a new stats epoch (invalidating cached
        plans built on the old numbers).
        """
        key = stats.table.upper()
        with self._lock:
            self._statistics[key] = stats
            self._feedback.pop(key, None)
            self.stats_epoch += 1

    def get_statistics(self, name: str) -> "TableStats | None":
        """The RUNSTATS snapshot of a table/nickname, or None."""
        return self._statistics.get(name.upper())

    def statistics(self) -> list["TableStats"]:
        """All collected RUNSTATS snapshots."""
        with self._lock:
            return list(self._statistics.values())

    def record_feedback(self, feedback: "StatsFeedback") -> int:
        """Store one observed-cardinality override; returns the new
        stats epoch.  No-op (epoch unchanged) for tables that never had
        RUNSTATS collected — feedback refines estimates, it never
        *creates* statistics, so the stats-absent fallback gate holds.
        """
        key = feedback.table.upper()
        with self._lock:
            if key not in self._statistics:
                return self.stats_epoch
            self._feedback[key] = feedback
            self.stats_epoch += 1
            return self.stats_epoch

    def feedback_for(self, name: str) -> "StatsFeedback | None":
        """The recorded cardinality-feedback override, or None."""
        return self._feedback.get(name.upper())

    def feedback(self) -> list["StatsFeedback"]:
        """All recorded cardinality-feedback overrides."""
        with self._lock:
            return list(self._feedback.values())

    def planning_statistics(self, name: str) -> "TableStats | None":
        """The statistics the planner should use: the RUNSTATS snapshot
        with the table cardinality replaced by the feedback-observed one
        when an override is recorded.  Column statistics are shared with
        the snapshot (they are read-only to the estimator)."""
        stats = self._statistics.get(name.upper())
        if stats is None:
            return None
        override = self._feedback.get(name.upper())
        if override is None:
            return stats
        return dataclasses.replace(stats, card=override.observed)
