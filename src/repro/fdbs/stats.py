"""RUNSTATS-style table and column statistics.

The paper defers "query optimization" across the FDBS boundary to
future work (Sect. 6); the cost-based optimizer extension closes that
gap, and — like DB2 — it only acts on statistics the administrator
collected explicitly: ``RUNSTATS <table>`` (or the PostgreSQL-flavoured
``ANALYZE <table>``) scans a base table or nickname and records

* the table cardinality (row count),
* per column: the number of distinct non-NULL values, the NULL count,
  the minimum / maximum value (when the column's values are mutually
  comparable), and whether the column arrived in non-decreasing
  NULL-free order — the *sorted* flag the merge-join costing uses to
  skip its explicit sort.

Statistics live in the catalog (:meth:`~repro.fdbs.catalog.Catalog.
set_statistics`), are exposed through the ``SYSCAT_STATS`` view, and
feed the estimator in :mod:`repro.fdbs.optimizer`.  They are a snapshot:
DML after RUNSTATS leaves them stale, exactly as in the modelled
systems — until EXPLAIN ANALYZE observes the drift and records a
:class:`StatsFeedback` override (cardinality feedback) in the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import InvalidOperation
from itertools import islice
from operator import le, ne
from typing import Sequence

from repro.fdbs.catalog import ColumnDef
from repro.fdbs.types import value_key


@dataclass
class ColumnStats:
    """Statistics of one column, collected by RUNSTATS."""

    name: str
    ndv: int
    """Number of distinct non-NULL values."""

    null_count: int
    min_value: object | None = None
    max_value: object | None = None

    sorted_asc: bool = False
    """True when the column's values arrived in non-decreasing order
    with no NULLs — i.e. a scan already produces merge-join input order
    and the explicit sort can be skipped."""


@dataclass
class TableStats:
    """Statistics of one base table or nickname."""

    table: str
    card: int
    """Table cardinality (row count) at collection time."""

    columns: dict[str, ColumnStats] = field(default_factory=dict)
    """Upper-cased column name -> :class:`ColumnStats`."""

    def column(self, name: str) -> ColumnStats | None:
        """Column statistics by case-insensitive name (None if absent)."""
        return self.columns.get(name.upper())


def zone_bounds(
    values: Sequence[object],
) -> tuple[object | None, object | None, int]:
    """``(min, max, null_count)`` of one column chunk — a zone map entry.

    Mirrors the RUNSTATS min/max collection but per chunk: NULLs are
    counted separately, and mutually incomparable values degrade the
    bounds to ``(None, None)`` (meaning *unknown*, never *empty*) so a
    pruning check built on them must keep the chunk.  So does a NaN,
    float or Decimal: it compares false both ways, so ``min``/``max``
    would return it from the front of the chunk and skip it elsewhere,
    and bounds that miss it would prune rows a predicate keeps.
    """
    live = [value for value in values if value is not None]
    nulls = len(values) - len(live)
    if not live:
        return None, None, nulls
    try:
        if any(map(ne, live, live)):  # a NaN is unequal to itself
            return None, None, nulls
        return min(live), max(live), nulls
    except (TypeError, InvalidOperation):  # unorderable, or a Decimal NaN
        return None, None, nulls


def collect_stats(
    table_name: str, columns: list[ColumnDef], rows: list[tuple]
) -> TableStats:
    """One full-scan statistics collection pass over materialised rows.

    Values count and order by their :func:`~repro.fdbs.types.value_key`
    (the key joins, GROUP BY and DISTINCT use): ``ndv`` counts distinct
    keys, and a column is ``sorted_asc`` when its keys arrive in
    non-decreasing order with no NULL and no NaN.  ``min``/``max`` follow
    :func:`zone_bounds`: unknown over a NaN, never NaN themselves.
    """
    stats = TableStats(table=table_name, card=len(rows))
    for index, column in enumerate(columns):
        values = [row[index] for row in rows]
        low, high, nulls = zone_bounds(values)
        key = value_key(column.type)
        keys = [value for value in values if value is not None]
        if key is not None:
            keys = list(map(key, keys))
        distinct: set[object] = set()
        for value in keys:
            try:
                distinct.add(value)
            except TypeError:  # unhashable value: count conservatively
                pass
        try:
            # NAN_KEY orders against nothing, so a NaN raises here too.
            ordered = all(map(le, keys, islice(keys, 1, None)))
        except (TypeError, InvalidOperation):  # unorderable: not sorted
            ordered = False
        stats.columns[column.name.upper()] = ColumnStats(
            name=column.name,
            ndv=len(distinct),
            null_count=nulls,
            min_value=low,
            max_value=high,
            sorted_asc=ordered and not nulls and len(rows) > 0,
        )
    return stats


@dataclass(frozen=True)
class StatsFeedback:
    """One cardinality-feedback observation recorded by EXPLAIN ANALYZE.

    When a scan's observed output drifts past the engine's q-error
    threshold, the catalog stores this override under the table's name
    and bumps its *stats epoch*: cached plans in the old namespace are
    abandoned, and the next planning pass sees the observed cardinality
    in place of the stale RUNSTATS one (RUNSTATS re-collection clears
    the override).
    """

    table: str
    estimated: int
    observed: int
    q_error: float


def q_error(estimated: float, observed: float) -> float:
    """The symmetric estimation-error quotient max(est/act, act/est).

    Degenerate observations (either side non-positive) report no error:
    a scan that was never executed — or produced zero rows — carries no
    usable evidence, because q-error against zero is unbounded.
    """
    if estimated <= 0 or observed <= 0:
        return 1.0
    return max(estimated / observed, observed / estimated)
