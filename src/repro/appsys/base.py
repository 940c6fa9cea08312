"""Application-system base: encapsulated database + local functions.

An :class:`ApplicationSystem` owns a private database whose only public
access path is :meth:`ApplicationSystem.call`.  Reading the ``database``
attribute from outside raises
:class:`~repro.errors.EncapsulationError` — the defining property of the
systems the paper integrates ("pure data integration is not possible
anymore").

Every local-function call charges
:attr:`~repro.simtime.costs.CostModel.local_function_base` (plus a
per-row cost) and, when tracing, accounts under the Fig. 6 step name
``Process activities``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import (
    EncapsulationError,
    LocalFunctionFaultError,
    SignatureError,
    UnknownFunctionError,
)
from repro.fdbs.engine import Database
from repro.fdbs.functions import normalize_rows
from repro.fdbs.session import ParseMap
from repro.fdbs.types import SqlType, coercer
from repro.sysmodel.faults import SITE_LOCAL_FUNCTION
from repro.sysmodel.machine import Machine


@dataclass
class LocalFunction:
    """One predefined function exported by an application system."""

    name: str
    params: list[tuple[str, SqlType]]
    returns: list[tuple[str, SqlType]]
    implementation: Callable[..., object]
    description: str = ""
    deterministic: bool = False
    """Equal arguments always produce equal rows (read-only lookup);
    makes the function eligible for the integration server's result
    cache when that feature is switched on."""
    mutates: bool = False
    """The function writes the system's private database; invoking it
    invalidates every cached result owned by this system."""
    arg_coercers: tuple = field(init=False, repr=False, compare=False)
    """One :func:`~repro.fdbs.types.coercer` per parameter, resolved once."""
    row_coercers: tuple = field(init=False, repr=False, compare=False)
    """One coercer per result column, resolved once."""

    def __post_init__(self) -> None:
        self.arg_coercers = tuple(coercer(t) for _, t in self.params)
        self.row_coercers = tuple(coercer(t) for _, t in self.returns)

    def signature(self) -> str:
        """Human-readable signature text."""
        inner = ", ".join(f"{n} {t.render()}" for n, t in self.params)
        outer = ", ".join(f"{n} {t.render()}" for n, t in self.returns)
        return f"{self.name}({inner}) -> ({outer})"


def load_table(
    database: Database, table: str, rows: Sequence[Sequence[object]]
) -> None:
    """Load full-width ``rows`` into ``table`` with one set-oriented
    ``INSERT`` (one statement, one published table version)."""
    width = len(database.catalog.get_table(table).columns)
    markers = ", ".join(["?"] * width)
    database.execute_many(f"INSERT INTO {table} VALUES ({markers})", rows)


class ApplicationSystem:
    """Base class of encapsulated application systems."""

    #: ``(table, column)`` pairs the local functions look rows up by
    #: with ``column = ?``: the hash indexes those lookups probe (see
    #: :meth:`build_lookup_indexes`).
    LOOKUP_INDEXES: tuple[tuple[str, str], ...] = ()

    def __init__(self, name: str, machine: Machine | None = None):
        self.name = name
        self.machine = machine
        # The private database is deliberately "hidden": two leading
        # underscores plus a guarding property below.
        self.__database = Database(f"{name}-internal", machine=None)
        self._functions: dict[str, LocalFunction] = {}
        self.call_count = 0
        if machine is not None:
            machine.register_appsys(name)
        self._populate(self.__database)

    # -- subclass hooks ------------------------------------------------------------

    def _populate(self, database: Database) -> None:
        """Create and fill the private schema, then export the local
        functions through :meth:`_register_functions` (subclass hook)."""

    def _register_functions(self, database: Database) -> None:
        """Export the local functions, bound to ``database`` (subclass
        hook; :meth:`fork` calls it for the copied database)."""

    def fork(
        self, machine: Machine | None = None, parses: ParseMap | None = None
    ) -> "ApplicationSystem":
        """A system of the same kind on ``machine``, over this one's
        loaded tables.

        It holds what constructing the system again would, without the
        load: each table is forked (see
        :meth:`~repro.fdbs.engine.Database.copy_table`), sharing its rows
        and indexes with this system's until either side first writes
        it, and the local functions are registered again against the
        new database.  That database reads statements from ``parses``.
        Writes through either system never reach the other.
        """
        clone = copy.copy(self)
        database = Database(f"{self.name}-internal", machine=None, parses=parses)
        for table in self._db().catalog.tables():
            database.copy_table(table)
        clone.machine = machine
        clone._ApplicationSystem__database = database  # type: ignore[attr-defined]
        clone._functions = {}
        clone.call_count = 0
        if machine is not None:
            machine.register_appsys(clone.name)
        clone._register_functions(database)
        return clone

    def build_lookup_indexes(self) -> None:
        """Build the hash indexes of :attr:`LOOKUP_INDEXES` now.

        A lookup builds its index on first use anyway; a system that is
        forked many times builds them once here, so every fork shares
        them with its tables instead of building them again.  Rows are
        not touched.
        """
        catalog = self._db().catalog
        for table, column in self.LOOKUP_INDEXES:
            catalog.get_table(table).storage.create_index(column)

    # -- encapsulation --------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The private database is not part of the public interface."""
        raise EncapsulationError(
            f"application system {self.name!r} encapsulates its database; "
            "data is accessible via predefined functions only"
        )

    def _db(self) -> Database:
        """Internal accessor for subclass implementations."""
        return self._ApplicationSystem__database  # type: ignore[attr-defined]

    # -- function registry -------------------------------------------------------------

    def register_function(self, function: LocalFunction) -> None:
        """Export one local function (duplicates rejected)."""
        key = function.name.upper()
        if key in self._functions:
            raise SignatureError(
                f"function {function.name!r} already exported by {self.name!r}"
            )
        self._functions[key] = function

    def function(self, name: str) -> LocalFunction:
        """Look up an exported local function by name."""
        try:
            return self._functions[name.upper()]
        except KeyError:
            raise UnknownFunctionError(
                f"application system {self.name!r} exports no function {name!r}"
            ) from None

    def functions(self) -> list[LocalFunction]:
        """All exported local functions."""
        return list(self._functions.values())

    def has_function(self, name: str) -> bool:
        """True if a local function of that name is exported."""
        return name.upper() in self._functions

    # -- the one public access path ------------------------------------------------------

    def call(self, name: str, *args: object) -> list[tuple]:
        """Invoke a predefined function; returns its result rows."""
        function = self.function(name)
        if len(args) != len(function.params):
            raise SignatureError(
                f"{self.name}.{function.name} expects {len(function.params)} "
                f"argument(s), got {len(args)}"
            )
        coerced = [coerce(value) for coerce, value in zip(function.arg_coercers, args)]
        machine = self.machine
        cache_key = None
        if (
            machine is not None
            and machine.result_cache.enabled
            and function.deterministic
            and not function.mutates
        ):
            cache_key = f"{self.name}.{function.name}"
            cached = machine.result_cache.get(
                machine.result_cache_namespace(), cache_key, tuple(coerced)
            )
            if cached is not None:
                # Served from integration-server memory: the application
                # system is not invoked (call_count stays put).
                machine.clock.advance(machine.costs.result_cache_hit_cost)
                return cached
        self.call_count += 1
        if machine is not None:
            machine.ensure_appsys(self.name)
            if machine.fault_injector.should_fail(SITE_LOCAL_FUNCTION):
                machine.clock.advance(machine.costs.fault_detection)
                raise LocalFunctionFaultError(
                    SITE_LOCAL_FUNCTION,
                    f"{self.name}.{function.name} failed inside the "
                    "application system",
                )
            machine.clock.advance(machine.costs.local_function_base)
        rows = normalize_rows(function.implementation(*coerced), f"{self.name}.{name}")
        rows = self._coerce_rows(function, rows)
        if machine is not None and rows:
            machine.clock.advance(machine.costs.local_function_row_cost * len(rows))
        if machine is not None:
            if function.mutates:
                machine.result_cache.invalidate_owner(self.name)
            elif cache_key is not None:
                machine.result_cache.put(
                    machine.result_cache_namespace(),
                    cache_key,
                    tuple(coerced),
                    rows,
                    owner=self.name,
                )
        return rows

    def _coerce_rows(self, function: LocalFunction, rows: Sequence[tuple]) -> list[tuple]:
        coercers = function.row_coercers
        width = len(coercers)
        coerced: list[tuple] = []
        for row in rows:
            if len(row) != width:
                raise SignatureError(
                    f"{self.name}.{function.name} declared "
                    f"{width} result column(s) but produced a "
                    f"row of width {len(row)}"
                )
            coerced.append(tuple([coerce(value) for coerce, value in zip(coercers, row)]))
        return coerced

    def catalog_summary(self) -> str:
        """Human-readable list of the exported functions."""
        lines = [f"application system {self.name}:"]
        for function in self._functions.values():
            lines.append(f"  {function.signature()}")
            if function.description:
                lines.append(f"    -- {function.description}")
        return "\n".join(lines)
