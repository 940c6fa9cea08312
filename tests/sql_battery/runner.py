"""Executes the battery corpus against one architecture/mode/optimizer
combination and fingerprints every statement.

Each combination gets a *fresh* heterogeneous scenario (so response
caches, rate-limit windows, statement warmth and MVCC state evolve
identically from the same starting point), runs the identical statement
sequence, and records per query the result rows and the simulated time
the statement took.  DML statements are followed by a deterministic
verification SELECT over the scratch table; its rows become the DML's
fingerprint while the elapsed time covers the DML itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario

from .generator import BATTERY_DDL, BatteryQuery, battery_rows

ARCHITECTURES = [
    Architecture.WFMS,
    Architecture.SIMPLE_UDTF,
    Architecture.ENHANCED_SQL_UDTF,
    Architecture.ENHANCED_JAVA_UDTF,
]

MODES = ("row", "columnar")
OPTIMIZERS = ("syntactic", "cost")

VERIFY_SCRATCH = "SELECT * FROM bat_scratch ORDER BY bat_scratch.k"


@dataclass
class Outcome:
    """Fingerprint of one statement in one combination."""

    rows: list[tuple]
    elapsed: float


def build_battery_scenario(
    architecture, mode, optimizer, data=None, join_strategy="auto"
):
    """A heterogeneous scenario preloaded with the battery tables.

    RUNSTATS runs over every battery table and nickname so the cost
    optimizer sees real cardinalities (and, deliberately, so the
    cache-fronted source's response cache is warm — RUNSTATS issues the
    exact full-scan SQL the planner later prices as a cache hit).
    ``join_strategy`` forces one local join operator for the whole
    corpus (the join-strategy parity sweep); ``"auto"`` keeps the
    cost-based pick.
    """
    scenario = build_scenario(
        architecture, data=data, optimizer=optimizer, heterogeneous=True
    )
    fdbs = scenario.server.fdbs
    for ddl in BATTERY_DDL:
        fdbs.execute(ddl)
    for table, rows in sorted(battery_rows().items()):
        width = len(rows[0])
        markers = ", ".join("?" for _ in range(width))
        for row in rows:
            fdbs.execute(
                f"INSERT INTO {table} VALUES ({markers})", params=list(row)
            )
    for table in (
        "bat_watch",
        "bat_parts",
        "bat_scratch",
        "api_ratings",
        "arch_orders",
        "cat_components",
    ):
        fdbs.execute(f"RUNSTATS ON TABLE {table}")
    fdbs.configure(execution_mode=mode, join_strategy=join_strategy)
    return scenario


def run_combo(
    architecture,
    mode: str,
    optimizer: str,
    corpus: list[BatteryQuery],
    data=None,
    join_strategy: str = "auto",
) -> list[Outcome]:
    """Run the corpus under one combination; shape-check as we go."""
    scenario = build_battery_scenario(
        architecture, mode, optimizer, data=data, join_strategy=join_strategy
    )
    fdbs = scenario.server.fdbs
    server = scenario.server
    outcomes: list[Outcome] = []
    for query in corpus:
        result, elapsed = server.elapsed(fdbs.execute, query.sql)
        if query.kind == "dml":
            rows = list(fdbs.execute(VERIFY_SCRATCH).rows)
        else:
            rows = list(result.rows)
        check_shape(query, rows)
        outcomes.append(Outcome(rows=rows, elapsed=elapsed))
    return outcomes


def check_shape(query: BatteryQuery, rows: list[tuple]) -> None:
    """Assert the query's shape contract against its result rows."""
    for row in rows:
        assert len(row) == query.columns, (
            f"width {len(row)} != declared {query.columns}: {query.sql}"
        )
    if query.limit is not None:
        assert len(rows) <= query.limit, (
            f"{len(rows)} rows exceed LIMIT {query.limit}: {query.sql}"
        )
