"""System catalog views (DB2-style SYSCAT).

Read-only virtual tables over the catalog, queryable like any other
table:

* ``SYSCAT_TABLES``     — name, type ('T' table / 'V' view / 'N' nickname),
  column count
* ``SYSCAT_COLUMNS``    — table name, column name, position, type, nullability
* ``SYSCAT_FUNCTIONS``  — name, lang, fenced, deterministic, #params
* ``SYSCAT_PROCEDURES`` — name, #params
* ``SYSCAT_VIEWS``      — name, definition text
* ``SYSCAT_SERVERS``    — server name, wrapper
* ``SYSCAT_NICKNAMES``  — nickname, server, remote name
* ``SYSCAT_STATS``      — tabname, colname, card, ndv, nulls, minval,
  maxval: RUNSTATS snapshots feeding the cost-based optimizer
* ``SYSCAT_RUNTIME_STATS`` — component, counter, value: live counters of
  the statement cache (hits, misses, evictions, ``plan_hits`` — the
  executions that reused a cached compiled plan — size, capacity),
  MVCC, columnar execution, the join subsystem (``joins`` —
  joins_hash/merge/indexnlj/nlj counts of join operators *built*, so
  re-running a cached plan does not raise them; plans_invalidated,
  midquery_fallbacks, max_q_error_pct, stats_epoch) and (on
  machine-backed databases) the warm runtime pool, result cache and
  RMI channels

The planner treats them as ordinary scans whose rows are generated from
the live catalog at execution time, so DDL is immediately visible.
Querying them requires no grants (metadata is public, as in DB2's
SYSCAT, which is readable by default).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.fdbs.catalog import ColumnDef, ExternalTableFunction
from repro.fdbs.types import INTEGER, VARCHAR

if TYPE_CHECKING:  # pragma: no cover
    from repro.fdbs.catalog import Catalog


def _tables_rows(catalog: "Catalog") -> list[tuple]:
    rows: list[tuple] = []
    for table in catalog.tables():
        rows.append((table.name, "T", len(table.columns)))
    for view in catalog.views():
        width = len(view.columns) if view.columns else len(view.body.items)
        rows.append((view.name, "V", width))
    for nickname in catalog._nicknames.values():  # noqa: SLF001 - same package
        rows.append((nickname.name, "N", len(nickname.columns)))
    return sorted(rows)


def _columns_rows(catalog: "Catalog") -> list[tuple]:
    rows: list[tuple] = []
    for table in catalog.tables():
        for position, column in enumerate(table.columns, start=1):
            rows.append(
                (
                    table.name,
                    column.name,
                    position,
                    column.type.render(),
                    "N" if column.not_null else "Y",
                )
            )
    return sorted(rows)


def _functions_rows(catalog: "Catalog") -> list[tuple]:
    rows: list[tuple] = []
    for function in catalog.functions():
        if isinstance(function, ExternalTableFunction):
            language = function.language
            fenced = "Y" if function.fenced else "N"
        else:
            language = "SQL"
            fenced = "N"
        rows.append(
            (
                function.name,
                language,
                fenced,
                "Y" if function.deterministic else "N",
                len(function.params),
            )
        )
    return sorted(rows)


def _procedures_rows(catalog: "Catalog") -> list[tuple]:
    return sorted(
        (procedure.name, len(procedure.params))
        for procedure in catalog._procedures.values()  # noqa: SLF001
    )


def _views_rows(catalog: "Catalog") -> list[tuple]:
    return sorted((view.name, view.body.render()) for view in catalog.views())


def _servers_rows(catalog: "Catalog") -> list[tuple]:
    return sorted(
        (server.name, server.wrapper)
        for server in catalog._servers.values()  # noqa: SLF001
    )


def _nicknames_rows(catalog: "Catalog") -> list[tuple]:
    return sorted(
        (nickname.name, nickname.server, nickname.remote_name)
        for nickname in catalog._nicknames.values()  # noqa: SLF001
    )


def _stats_rows(catalog: "Catalog") -> list[tuple]:
    rows: list[tuple] = []
    for stats in catalog.statistics():
        for column in stats.columns.values():
            rows.append(
                (
                    stats.table,
                    column.name,
                    stats.card,
                    column.ndv,
                    column.null_count,
                    None if column.min_value is None else str(column.min_value),
                    None if column.max_value is None else str(column.max_value),
                )
            )
    return sorted(rows, key=lambda r: (r[0], r[1]))


def _runtime_stats_rows(catalog: "Catalog") -> list[tuple]:
    provider = getattr(catalog, "runtime_stats_provider", None)
    if provider is None:
        return []
    rows: list[tuple] = []
    for component, counters in provider().items():
        for counter, value in counters.items():
            rows.append((component, counter, int(value)))
    return sorted(rows)


#: name -> (columns, row generator)
SYSCAT_TABLES: dict[str, tuple[list[ColumnDef], Callable[["Catalog"], list[tuple]]]] = {
    "SYSCAT_TABLES": (
        [
            ColumnDef("name", VARCHAR(128)),
            ColumnDef("type", VARCHAR(1)),
            ColumnDef("colcount", INTEGER),
        ],
        _tables_rows,
    ),
    "SYSCAT_COLUMNS": (
        [
            ColumnDef("tabname", VARCHAR(128)),
            ColumnDef("colname", VARCHAR(128)),
            ColumnDef("colno", INTEGER),
            ColumnDef("typename", VARCHAR(40)),
            ColumnDef("nullable", VARCHAR(1)),
        ],
        _columns_rows,
    ),
    "SYSCAT_FUNCTIONS": (
        [
            ColumnDef("name", VARCHAR(128)),
            ColumnDef("lang", VARCHAR(20)),
            ColumnDef("fenced", VARCHAR(1)),
            ColumnDef("deterministic", VARCHAR(1)),
            ColumnDef("parm_count", INTEGER),
        ],
        _functions_rows,
    ),
    "SYSCAT_PROCEDURES": (
        [
            ColumnDef("name", VARCHAR(128)),
            ColumnDef("parm_count", INTEGER),
        ],
        _procedures_rows,
    ),
    "SYSCAT_VIEWS": (
        [
            ColumnDef("name", VARCHAR(128)),
            ColumnDef("text", VARCHAR(4000)),
        ],
        _views_rows,
    ),
    "SYSCAT_SERVERS": (
        [
            ColumnDef("name", VARCHAR(128)),
            ColumnDef("wrapper", VARCHAR(128)),
        ],
        _servers_rows,
    ),
    "SYSCAT_NICKNAMES": (
        [
            ColumnDef("name", VARCHAR(128)),
            ColumnDef("server", VARCHAR(128)),
            ColumnDef("remote_name", VARCHAR(128)),
        ],
        _nicknames_rows,
    ),
    "SYSCAT_STATS": (
        [
            ColumnDef("tabname", VARCHAR(128)),
            ColumnDef("colname", VARCHAR(128)),
            ColumnDef("card", INTEGER),
            ColumnDef("ndv", INTEGER),
            ColumnDef("nulls", INTEGER),
            ColumnDef("minval", VARCHAR(128)),
            ColumnDef("maxval", VARCHAR(128)),
        ],
        _stats_rows,
    ),
    "SYSCAT_RUNTIME_STATS": (
        [
            ColumnDef("component", VARCHAR(40)),
            ColumnDef("counter", VARCHAR(40)),
            ColumnDef("value", INTEGER),
        ],
        _runtime_stats_rows,
    ),
}


def is_syscat_table(name: str) -> bool:
    """True if the name is a SYSCAT view."""
    return name.upper() in SYSCAT_TABLES


def syscat_definition(name: str):
    """(columns, row generator) for a SYSCAT table name."""
    return SYSCAT_TABLES[name.upper()]
