"""Volcano-style plan operators, with a columnar protocol.

Every operator exposes ``schema`` (a list of
:class:`~repro.fdbs.expr.ColumnSlot`) and ``rows(ctx)`` yielding flat
tuples.  Plans are built by :mod:`repro.fdbs.planner` and executed by
the engine, which supplies the :class:`~repro.fdbs.expr.EvalContext`.

A plan holds no object of the database that built it.  Operators keep
catalog *names* (a table, a nickname, a table function) and resolve them
when they run through ``ctx.database``, the executing
:class:`~repro.fdbs.engine.Database` (its catalog, federation layer,
function invokers, machine and counters).  So one plan may run in any
database whose catalog plans alike (see ``Catalog.schema_key``).

Operators additionally expose ``column_batches(ctx)`` yielding *column
batches* (chunks of rows that also answer ``column(position)``).  The
default implementation chunks ``rows(ctx)``, so every operator runs in
columnar mode; the hot relational operators (scan, filter, project,
hash and merge join, aggregate, sort, distinct, union, limit) override
it with implementations that evaluate whole columns per Python-level
call.  Row mode and columnar mode produce identical rows — the columnar
forms only change *how often Python dispatches*, never the relational
semantics, the lateral (left-to-right) evaluation order, or the
simulated cost accounting.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from decimal import InvalidOperation
from itertools import chain, groupby, islice, repeat
from operator import add, itemgetter, le, lt
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.fdbs import ast
from repro.fdbs.catalog import TableFunction
from repro.fdbs.expr import (
    ColumnFn,
    ColumnSlot,
    CompiledExpr,
    EvalContext,
    SelectFn,
    hash_probe_exact,
    truthy,
)
from repro.fdbs.storage import Table, TableVersion
from repro.fdbs.types import join_key, row_key, sort_key, value_key

#: Default number of rows per chunk in columnar execution.
BATCH_SIZE = 1024


class ColumnBatch:
    """One chunk of rows in the columnar execution mode.

    Holds either a row-major tuple list or a column-major list of value
    columns; the other representation is derived lazily and cached.
    Together with the storage :class:`~repro.fdbs.storage.ColumnChunk`
    and :class:`SelectionBatch` this forms the *column batch* protocol
    consumed by ``column_batches``: ``len``, iteration over row tuples,
    ``column(position)`` and ``rows_view()``.
    """

    __slots__ = ("count", "_rows", "_cols", "_cache")

    def __init__(
        self,
        count: int,
        rows: list[tuple] | None = None,
        cols: list[list] | None = None,
    ):
        self.count = count
        self._rows = rows
        self._cols = cols
        self._cache: dict[int, list] | None = None

    def column(self, position: int) -> list:
        """Values of one column across the batch (cached)."""
        if self._cols is not None:
            return self._cols[position]
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        column = cache.get(position)
        if column is None:
            column = [row[position] for row in self._rows]  # type: ignore[union-attr]
            cache[position] = column
        return column

    def rows_view(self) -> list[tuple]:
        """The batch's rows as tuples (materialised once for a
        column-major batch)."""
        rows = self._rows
        if rows is None:
            cols = self._cols
            rows = list(zip(*cols)) if cols else [()] * self.count
            self._rows = rows
        return rows

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.rows_view())


class SelectionBatch:
    """A filtered view over a parent column batch.

    Stores only the surviving row positions, ascending: a list, or a
    ``range`` for one contiguous run (what a filter's binary search over
    an ordered chunk column returns), which is gathered as a slice.
    Columns are gathered lazily per column actually read downstream, so
    a selective filter followed by a narrow projection touches no other
    columns at all.
    """

    __slots__ = ("parent", "indices", "count", "_columns", "_rows")

    def __init__(self, parent, indices: Sequence[int]):
        self.parent = parent
        self.indices = indices
        self.count = len(indices)
        self._columns: dict[int, list] = {}
        self._rows: list[tuple] | None = None

    def _gather(self, source: list) -> list:
        indices = self.indices
        if type(indices) is range:
            return source[indices.start : indices.stop]
        return [source[index] for index in indices]

    def column(self, position: int) -> list:
        """The selected values of one parent column (cached)."""
        column = self._columns.get(position)
        if column is None:
            column = self._columns[position] = self._gather(self.parent.column(position))
        return column

    def rows_view(self) -> list[tuple]:
        """The selected rows as tuples (cached)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._gather(self.parent.rows_view())
        return rows

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.rows_view())


class JoinBatch:
    """One batch of hash-join output, materialised late.

    ``left`` views the probe batch's matched positions, one per output
    row (the probe batch itself when every row matched once), and
    ``right`` holds the matching build rows, pair for pair.  A column is
    gathered only when read, and row tuples are built only on
    ``rows_view()``.
    """

    __slots__ = ("left", "right", "width", "count", "_columns", "_rows")

    def __init__(self, left, right: list[tuple], width: int):
        self.left = left
        self.right = right
        self.width = width
        self.count = len(right)
        self._columns: dict[int, list] = {}
        self._rows: list[tuple] | None = None

    def column(self, position: int) -> list:
        """Values of one output column (left ones through ``left``)."""
        if position < self.width:
            return self.left.column(position)
        column = self._columns.get(position)
        if column is None:
            column = list(map(itemgetter(position - self.width), self.right))
            self._columns[position] = column
        return column

    def rows_view(self) -> list[tuple]:
        """The joined rows as tuples (cached)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(map(add, self.left.rows_view(), self.right))
        return rows

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.rows_view())


class Plan:
    """Base class of executable plan operators."""

    schema: list[ColumnSlot]

    #: Optimizer cardinality estimate (rows), set by the cost-based
    #: planner; None on syntactic plans.
    est_rows: int | None = None
    #: Observed output cardinality, set by EXPLAIN ANALYZE
    #: instrumentation; None otherwise.
    actual_rows: int | None = None
    #: Counts taken while planning, recorded on a statement's root plan:
    #: the join operators built (by strategy) and the conjuncts pushed
    #: into remote scans.  A database adds them to its own statistics
    #: when it builds the plan and again whenever it adopts it.
    built_joins: tuple[str, ...] = ()
    built_pushdowns: int = 0

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:  # pragma: no cover
        """Yield the operator's result rows."""
        raise NotImplementedError

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Yield column batches (default: chunked ``rows``).

        The columnar execution mode runs the same operator tree through
        this protocol; an operator without a columnar form has its rows
        wrapped ``size`` at a time in :class:`ColumnBatch`, so any plan
        is columnar-capable and produces the exact rows of row mode.
        """
        chunk: list[tuple] = []
        append = chunk.append
        for row in self.rows(ctx):
            append(row)
            if len(chunk) >= size:
                yield ColumnBatch(size, rows=chunk)
                chunk = []
                append = chunk.append
        if chunk:
            yield ColumnBatch(len(chunk), rows=chunk)

    def explain(self, indent: int = 0, mode: str | None = None) -> str:
        """Human-readable plan tree (EXPLAIN-style).

        ``mode`` (when given) prepends an ``Execution(mode=...)`` header
        so EXPLAIN output shows whether the plan runs row- or column-wise.
        """
        pad = "  " * indent
        lines = []
        if mode is not None:
            lines.append(pad + f"Execution(mode={mode})")
        lines.append(pad + self._describe() + self._cardinality_suffix())
        for child in self._children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _cardinality_suffix(self) -> str:
        """`` [est=N, actual=M rows]`` annotation (empty when unknown)."""
        parts = []
        if self.est_rows is not None:
            parts.append(f"est={self.est_rows}")
        if self.actual_rows is not None:
            parts.append(f"actual={self.actual_rows}")
        if not parts:
            return ""
        return f" [{', '.join(parts)} rows]"

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> list["Plan"]:
        return []


class UnitPlan(Plan):
    """Produces exactly one empty row — the seed of a FROM-less SELECT
    and of the lateral fold over the FROM list."""

    def __init__(self) -> None:
        self.schema = []

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        yield ()

    def _describe(self) -> str:
        return "Unit"


class TableScanPlan(Plan):
    """Scan of a base table: full, or index-assisted.

    The planner may attach an *index probe* — an equality conjunct
    ``col = <constant>`` lifted from the WHERE clause — in which case
    the scan resolves through the table's hash index instead of reading
    every row (index selection, a small classic physical optimization).
    The probe is ``(column, value, column type, conjunct)``; see
    :meth:`_probe_rows` for when it falls back to the conjunct.
    """

    def __init__(self, table: str, schema: list[ColumnSlot], name: str):
        #: Catalog name of the table; each execution scans the storage
        #: of its own database (``ctx.database``).
        self.table = table
        self.schema = schema
        self._name = name
        self.index_probe: tuple[str, CompiledExpr, object, CompiledExpr] | None = None
        #: Zone-map prune checks attached by the planner:
        #: ``(column position, bind, conjunct text)`` where
        #: ``bind(params)`` yields this execution's check (or None to
        #: keep every chunk) and ``check(lo, hi, nulls, count)`` returns
        #: False only when no row of a chunk with that zone entry can
        #: satisfy the conjunct.
        self.prune_checks: list[tuple[int, Callable, str]] = []
        #: WHERE conjuncts the planner decided at this scan, the probe
        #: side of an explicit hash join in columnar mode: ``(kernel,
        #: conjunct text)``, where ``kernel(ctx)`` is this execution's
        #: selection kernel (see ``ColumnarCompiler.kernel``), or None
        #: for a binding no kernel covers, which keeps every row.
        self.selection: tuple[Callable, str] | None = None
        #: Whether chunk scans count into the executing database's
        #: columnar counters (``ctx.database.note_chunks``); the planner
        #: sets it in columnar mode.
        self.columnar_note = False
        #: ``[scanned, pruned]`` chunks of the most recent execution,
        #: kept only on EXPLAIN ANALYZE's private instrumented plan (shown
        #: as ``pruned=N/M chunks``); a cached plan shared across
        #: threads never records per-execution state.
        self.last_chunks: list[int] | None = None

    def _storage(self, ctx: EvalContext) -> Table:
        """The executing database's storage of this scan's table."""
        return ctx.database.catalog.get_table(self.table).storage

    def _version(self, ctx: EvalContext, table: Table) -> TableVersion:
        """The TableVersion of ``table`` this scan reads: the statement's
        pinned snapshot when it covers the table, else the current
        version."""
        if ctx.snapshot is not None:
            pinned = ctx.snapshot.version_for(table)
            if pinned is not None:
                return pinned
        return table.current_version

    def _chunks(self, ctx: EvalContext) -> Iterator:
        """Column chunks of the pinned version, zone-map pruned.

        Pruning is a pure superset skip: a pruned chunk provably holds
        no row satisfying the attached conjunct, and the conjunct itself
        still runs in the filter above, so the surviving rows (in rid
        order) are exactly what the unpruned scan would feed through
        that filter.  Empty (all-tombstone) chunks are skipped without
        counting as scanned or pruned.

        Chunks are produced lazily and counted as they are examined, so
        when a LIMIT above terminates the scan early the counters stay
        consistent: ``chunks_scanned`` is exactly the chunks handed to
        the consumer, and EXPLAIN ANALYZE's ``pruned=N/M`` reports the
        chunks actually examined (``M - N`` of which were scanned) —
        never chunks the aborted scan would have read.

        The checks are bound to this execution's parameters into a local
        list first, so one cached plan serves every binding at once.
        """
        table = self._storage(ctx)
        chunks = table.columnar_chunks(self._version(ctx, table))
        checks = []
        for position, bind, _text in self.prune_checks:
            check = bind(ctx.params)
            if check is not None:
                checks.append((position, check))
        outcome = [0, 0]  # scanned, pruned
        if self.actual_rows is not None:  # instrumented by EXPLAIN ANALYZE
            self.last_chunks = outcome
        try:
            for chunk in chunks:
                count = chunk.count
                if count == 0:
                    continue
                for position, check in checks:
                    lo, hi, nulls = chunk.zone(position)
                    if not check(lo, hi, nulls, count):
                        outcome[1] += 1
                        break
                else:
                    outcome[0] += 1
                    yield chunk
        finally:
            # Runs on exhaustion *and* on early termination (generator
            # close), so the database counters see each chunk once.
            if self.columnar_note:
                ctx.database.note_chunks(*outcome)

    def _selected(self, ctx: EvalContext) -> Iterator:
        """The pruned chunks narrowed by :attr:`selection`: a chunk whose
        rows all pass as it is, one whose rows partly pass as a
        :class:`SelectionBatch`.  Only the kernel runs, so the scan
        drops just rows whose conjunct is provably not TRUE, and never
        raises."""
        run = None if self.selection is None else self.selection[0](ctx)
        if run is None:
            yield from self._chunks(ctx)
            return
        for chunk in self._chunks(ctx):
            positions = run(chunk, None)
            if len(positions) == chunk.count:
                yield chunk
            elif positions:
                yield SelectionBatch(chunk, positions)

    def _probe_rows(self, table: Table, ctx: EvalContext) -> list:
        """Rows the index probe keeps, in rid order.

        The hash lookup runs only when the bound value compares under
        ``=`` exactly as its hash key would (:func:`hash_probe_exact`).
        Any other value scans the version through the conjunct itself,
        so a probe never changes what ``=`` means or raises.
        """
        column, value_expr, column_type, conjunct = self.index_probe
        version = self._version(ctx, table)
        value = value_expr.fn((), ctx)
        if value is None:
            return []  # col = NULL never matches
        if hash_probe_exact(value, column_type):
            return table.version_index_lookup(version, column, value)
        keep = conjunct.fn
        return [row for row in version.rows() if keep(row, ctx) is True]

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        table = self._storage(ctx)
        if self.index_probe is not None:
            yield from self._probe_rows(table, ctx)
            return
        if self.prune_checks or self.selection is not None:
            for chunk in self._selected(ctx):
                yield from chunk.rows_view()
            return
        for row in self._version(ctx, table).rows():
            yield row

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Yield the storage's column chunks directly (zone-map pruned
        and selected), or slices of an index probe's row list."""
        if self.index_probe is not None:
            yield from _sliced(self._probe_rows(self._storage(ctx), ctx), size)
            return
        yield from self._selected(ctx)

    def _describe(self) -> str:
        if self.index_probe is not None:
            return f"IndexLookup({self._name}.{self.index_probe[0]})"
        parts = [self._name]
        if self.prune_checks:
            parts.append("zone: " + " AND ".join(text for _, _, text in self.prune_checks))
        if self.selection is not None:
            parts.append("select: " + self.selection[1])
        described = f"TableScan({', '.join(parts)})"
        if self.last_chunks is not None:
            scanned, pruned = self.last_chunks
            described += f" [pruned={pruned}/{scanned + pruned} chunks]"
        return described


class RemoteScanPlan(Plan):
    """Scan of a nickname: the subquery is shipped to the remote server
    through the federation layer.

    ``pushed_predicates`` holds predicate texts the planner pushed down
    (the paper's future-work 'query optimization' item); they travel in
    the remote statement's WHERE clause.
    """

    def __init__(
        self,
        nickname: str,
        schema: list[ColumnSlot],
        name: str,
    ):
        #: Catalog name of the nickname; each execution fetches through
        #: its own database's federation layer (``ctx.database``).
        self.nickname = nickname
        self.schema = schema
        self._name = name
        self.pushed_predicates: list[str] = []

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        fetcher = ctx.database.federation.fetcher(self.nickname)
        yield from fetcher.fetch(ctx, self.pushed_predicates)

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Yield slices of the fetched row list as row-major column
        batches (the fetch runs at the first pull, exactly when ``rows``
        would run it)."""
        fetcher = ctx.database.federation.fetcher(self.nickname)
        yield from _sliced(fetcher.fetch(ctx, self.pushed_predicates), size)

    def _describe(self) -> str:
        if self.pushed_predicates:
            pushed = " AND ".join(self.pushed_predicates)
            return f"RemoteScan({self._name}, pushed: {pushed})"
        return f"RemoteScan({self._name})"


def _sliced(data: list[tuple], size: int) -> Iterator[ColumnBatch]:
    """Row-major column batches over ``size``-row slices of a list."""
    for start in range(0, len(data), size):
        chunk = data[start : start + size]
        yield ColumnBatch(len(chunk), rows=chunk)


class SyscatScanPlan(Plan):
    """Scan of a SYSCAT virtual table: rows are generated from the
    executing database's live catalog, so DDL is immediately visible."""

    def __init__(self, generator, schema: list[ColumnSlot], name: str):
        self._generator = generator
        self.schema = schema
        self._name = name

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        yield from self._generator(ctx.database.catalog)

    def _describe(self) -> str:
        return f"SyscatScan({self._name})"


class CrossApplyPlan(Plan):
    """Lateral fold step: for every left row, produce the rows of the
    right side.  The right side is either *static* (a plan independent
    of the left row) or *lateral* (a table function whose arguments are
    evaluated against the current left row) — this is the executor
    embodiment of DB2's left-to-right FROM-clause processing."""

    def __init__(self, left: Plan, right: "RightSide"):
        self.left = left
        self.right = right
        self.schema = left.schema + right.schema

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        for left_row in self.left.rows(ctx):
            for right_row in self.right.rows_for(left_row, ctx):
                yield left_row + right_row

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Forward the degenerate first fold step columnar; lateral
        folds keep row-at-a-time semantics (wrapped chunks)."""
        if isinstance(self.left, UnitPlan) and isinstance(self.right, StaticRightSide):
            yield from self.right.plan.column_batches(ctx, size)
            return
        yield from super().column_batches(ctx, size)

    def _describe(self) -> str:
        return "CrossApply"

    def explain(self, indent: int = 0, mode: str | None = None) -> str:
        """The plan tree, with a lateral table function's own node."""
        text = super().explain(indent, mode)
        if isinstance(self.right, TableFunctionRightSide):
            text += "\n" + self.right.explain(indent + 1)
        return text

    def _children(self) -> list[Plan]:
        children: list[Plan] = [self.left]
        inner = getattr(self.right, "plan", None)
        if isinstance(inner, Plan):
            children.append(inner)
        return children


class RightSide:
    """Right input of a :class:`CrossApplyPlan`."""

    schema: list[ColumnSlot]

    def rows_for(self, left_row: tuple, ctx: EvalContext) -> Iterable[tuple]:
        """Rows of the right side for one left row."""
        raise NotImplementedError  # pragma: no cover


class StaticRightSide(RightSide):
    """A right side independent of the left row (plain cross join)."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.schema = plan.schema

    def rows_for(self, left_row: tuple, ctx: EvalContext) -> Iterable[tuple]:
        """Rows of the right side for one left row (materialised once
        per execution)."""
        rows = ctx.op_state.get(self)
        if rows is None:
            rows = ctx.op_state[self] = list(self.plan.rows(ctx))
        return rows


class TableFunctionRightSide(RightSide):
    """A lateral table-function call.

    ``arg_exprs`` are compiled against the layout of everything to the
    *left* of this FROM item (plus the statement's parameter scope) —
    exactly the paper's "execution order defined by input parameters".

    ``composed`` marks the result-set composition of an *independent*
    branch ("join with selection"): composing a branch that does not
    depend on the running row costs extra work
    (``join_composition`` on the executing database's machine), which
    is why the UDTF
    architecture loses the paper's parallel-vs-sequential comparison
    while the WfMS wins it.

    The function is kept by name and resolved per invocation in the
    executing database (``ctx.database``), which invokes it.
    """

    def __init__(
        self,
        function: TableFunction,
        arg_exprs: list[CompiledExpr],
        schema: list[ColumnSlot],
        alias: str,
        composed: bool = False,
    ):
        self.name = function.name
        self.deterministic = function.deterministic
        self.arg_exprs = arg_exprs
        self.schema = schema
        self.alias = alias
        self.composed = composed
        self.invocations = 0
        self.cache_hits = 0

    def explain(self, indent: int) -> str:
        """EXPLAIN node naming the function and its correlation name."""
        return "  " * indent + f"TableFunction({self.name}) AS {self.alias}"

    def rows_for(self, left_row: tuple, ctx: EvalContext) -> Iterable[tuple]:
        """Rows of the right side for one left row."""
        database = ctx.database
        if self.composed:
            machine = database.machine
            if machine is not None and machine.costs.join_composition:
                machine.clock.advance(machine.costs.join_composition)
        args = [expr(left_row, ctx) for expr in self.arg_exprs]
        if self.deterministic:
            # DETERMINISTIC-function optimization (extension, cf. the
            # paper's [10]): within one execution, repeated invocations
            # with equal arguments are served from a per-execution
            # cache — the declaration's contract is that results never
            # change per args.
            results = ctx.op_state.get(self)
            if results is None:
                results = ctx.op_state[self] = {}
            try:
                key = tuple(args)
                cached = results.get(key)
            except TypeError:  # unhashable argument value
                key = None
                cached = None
            if cached is not None:
                self.cache_hits += 1
                return cached
            self.invocations += 1
            rows = database.invoke_table_function(
                database.catalog.get_function(self.name), args, ctx
            )
            if key is not None:
                results[key] = rows
            return rows
        self.invocations += 1
        return database.invoke_table_function(
            database.catalog.get_function(self.name), args, ctx
        )


class NestedLoopJoinPlan(Plan):
    """INNER / LEFT OUTER / CROSS join with an optional ON predicate."""

    def __init__(
        self,
        left: Plan,
        right: Plan,
        kind: str,
        predicate: CompiledExpr | None,
    ):
        if kind not in ("INNER", "LEFT OUTER", "CROSS"):
            raise ExecutionError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.kind = kind
        self.predicate = predicate
        self.schema = left.schema + right.schema

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        right_rows = list(self.right.rows(ctx))
        null_right = (None,) * len(self.right.schema)
        predicate = None if self.predicate is None else self.predicate.fn
        for left_row in self.left.rows(ctx):
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if predicate is None or predicate(combined, ctx) is True:
                    matched = True
                    yield combined
            if not matched and self.kind == "LEFT OUTER":
                yield left_row + null_right

    def _describe(self) -> str:
        return f"NestedLoopJoin({self.kind}, join=nlj)"

    def _children(self) -> list[Plan]:
        return [self.left, self.right]


class HashJoinPlan(Plan):
    """INNER / LEFT OUTER equi-join through an in-memory hash table.

    The planner selects this operator for an explicit ``JOIN ... ON``
    with at least one hash-compatible equi-conjunct (columnar mode),
    and for a cost-chosen comma join onto a base table or an
    unbound nickname (every mode).  Remaining ON conjuncts become the
    ``residual`` predicate, evaluated against the combined row exactly
    as the nested-loop join would.  Output order matches the
    nested-loop join: left rows in input order, matching right rows in
    right-input order.

    An explicit join builds its table first, like
    :class:`NestedLoopJoinPlan`.  A comma join sets ``lazy_build``: the
    table is built when the first outer row (or non-empty chunk)
    arrives and never for an empty outer side, which is exactly when
    :class:`StaticRightSide` pulls its plan, so a remote build side is
    fetched at the same simulated time as under the cross-apply fold.
    The table lives in locals: cached plans are shared across threads.
    Each key pair matches by its :func:`~repro.fdbs.types.join_key`, so
    a NULL or NaN key matches nothing.
    """

    def __init__(
        self,
        left: Plan,
        right: Plan,
        kind: str,
        left_keys: list[CompiledExpr],
        right_keys: list[CompiledExpr],
        residual: CompiledExpr | None = None,
        key_names: list[str] | None = None,
    ):
        if kind not in ("INNER", "LEFT OUTER"):
            raise ExecutionError(f"unsupported hash-join kind {kind!r}")
        if not left_keys or len(left_keys) != len(right_keys):
            raise ExecutionError("hash join requires matching key lists")
        self.left = left
        self.right = right
        self.kind = kind
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.key_names = key_names or []
        self.schema = left.schema + right.schema
        self._keys = [
            join_key(left_key.type) or join_key(right_key.type)
            for left_key, right_key in zip(left_keys, right_keys)
        ]
        self._row_key = row_key(self._keys)
        #: Column-batch closures for the left key columns (attached by
        #: the planner in columnar mode; evaluated against left columns).
        self.columnar_left_keys: list[ColumnFn] | None = None
        #: Build at the first outer row instead of up front (comma joins).
        self.lazy_build = False

    def _build(self, ctx: EvalContext) -> dict[tuple, list[tuple]]:
        """Materialise the right side into key buckets (NULL and NaN keys
        never match)."""
        table: dict[tuple, list[tuple]] = {}
        for right_row in self.right.rows(ctx):
            key = self._key(right_row, self.right_keys, ctx)
            if None in key:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = [right_row]
            else:
                bucket.append(right_row)
        return table

    def _probe(
        self,
        left_row: tuple,
        key: tuple,
        table: dict[tuple, list[tuple]],
        null_right: tuple,
        ctx: EvalContext,
        out: list[tuple],
    ) -> None:
        """Emit join results for one left row into ``out``."""
        matched = False
        residual = self.residual
        for right_row in table.get(key, ()):
            combined = left_row + right_row
            if residual is None or truthy(residual(combined, ctx)):
                matched = True
                out.append(combined)
        if not matched and self.kind == "LEFT OUTER":
            out.append(left_row + null_right)

    def _key(self, row: tuple, keys: list[CompiledExpr], ctx: EvalContext) -> tuple:
        """The join key of one row (a NULL or NaN key holds None, which
        the build skips and the probe misses)."""
        key = tuple([key(row, ctx) for key in keys])
        return key if self._row_key is None else self._row_key(key)

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        table = None if self.lazy_build else self._build(ctx)
        null_right = (None,) * len(self.right.schema)
        for left_row in self.left.rows(ctx):
            if table is None:
                table = self._build(ctx)
            out: list[tuple] = []
            key = self._key(left_row, self.left_keys, ctx)
            self._probe(left_row, key, table, null_right, ctx, out)
            yield from out

    def _probe_keys(self, batch, ctx: EvalContext) -> Iterable:
        """Key tuples of one left column batch, in row order."""
        fns = self.columnar_left_keys
        if fns is None:
            return [self._key(row, self.left_keys, ctx) for row in batch]
        columns = [fn(batch, ctx) for fn in fns]
        return zip(*[c if k is None else map(k, c) for c, k in zip(columns, self._keys)])

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Probe with the key columns of left column batches.

        Without a residual, each batch becomes a :class:`JoinBatch` of
        (left position, right row) pairs, so row tuples materialise only
        if a downstream operator asks for them.  A residual join
        evaluates it against combined rows, as in row mode.
        """
        table = None if self.lazy_build else self._build(ctx)
        null_right = (None,) * len(self.right.schema)
        unmatched = [null_right] if self.kind == "LEFT OUTER" else ()
        width = len(self.left.schema)
        for batch in self.left.column_batches(ctx, size):
            if table is None:
                if not len(batch):
                    continue
                table = self._build(ctx)
            keys = self._probe_keys(batch, ctx)
            if self.residual is not None:
                out: list[tuple] = []
                for left_row, key in zip(batch.rows_view(), keys):
                    self._probe(left_row, key, table, null_right, ctx, out)
                if out:
                    yield ColumnBatch(len(out), rows=out)
                continue
            # A NULL or NaN key misses the table and takes the
            # ``unmatched`` default, like a missing one.
            yield from _join_batch(batch, list(map(table.get, keys, repeat(unmatched))), width)

    def _describe(self) -> str:
        keys = ", ".join(self.key_names) if self.key_names else f"{len(self.left_keys)} key(s)"
        suffix = ", residual" if self.residual is not None else ""
        return f"HashJoin({self.kind}, on {keys}{suffix}, join=hash)"

    def _children(self) -> list[Plan]:
        return [self.left, self.right]


class MergeJoinPlan(Plan):
    """Sort-merge INNER equi-join, chosen by the cost-based optimizer
    for comma joins whose inputs RUNSTATS saw in key order.

    The right side is materialised and checked for non-decreasing key
    order: a presorted input (insertion order, clustered key) skips the
    explicit sort the cost model priced in; otherwise a *stable* sort
    groups equal keys while preserving scan order within each group.
    The probe walks left rows in input order, locating each key's group
    with a forward-merging cursor while the left keys arrive in
    non-decreasing order and by bisection otherwise.  Output is
    therefore left-major with matches in right-scan order —
    bit-identical rows to the nested-loop and hash plans.  Keys match by
    their :func:`~repro.fdbs.types.join_key`, so NULL and NaN keys never
    match; mutually unorderable key values degrade to hashed grouping
    (same rows, the sort saving is simply lost).
    """

    def __init__(
        self,
        left: Plan,
        right: Plan,
        left_key: CompiledExpr,
        right_key_index: int,
        key_name: str = "",
        left_key_index: int | None = None,
        sorted_hint: bool = False,
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key_index = right_key_index
        self.key_name = key_name
        #: Direct left-row position of the outer key (attached by the
        #: planner for bare column refs; enables the no-closure probe).
        self.left_key_index = left_key_index
        self._key = join_key(left_key.type) or join_key(right.schema[right_key_index].type)
        #: True when RUNSTATS saw the inner key column presorted (the
        #: cost model then charged no explicit sort).
        self.sorted_hint = sorted_hint
        self.schema = left.schema + right.schema
        self.sorts_applied = 0
        self.presorted_inputs = 0

    def _prepare(self, ctx: EvalContext, columnar: bool):
        """Materialise the right side into ``(group_keys, group_rows,
        buckets)``: sorted distinct keys with their row groups, or a
        plain dict (``buckets``) when the keys defeat ordering.  The
        column path reads it through ``column_batches``.

        Rows whose key is None (NULL or NaN) are dropped: they match
        nothing.
        """
        index = self.right_key_index
        if columnar:
            rows, keys = [], []
            for batch in self.right.column_batches(ctx):
                rows += batch.rows_view()
                keys += batch.column(index)
        else:
            rows = list(self.right.rows(ctx))
            keys = list(map(itemgetter(index), rows))
        if self._key is not None:
            keys = list(map(self._key, keys))
        if None in keys:
            rows = [row for row, key in zip(rows, keys) if key is not None]
            keys = [key for key in keys if key is not None]
        try:
            distinct = all(map(lt, keys, islice(keys, 1, None)))
            if distinct or all(map(le, keys, islice(keys, 1, None))):
                self.presorted_inputs += 1
            else:
                # Stable: equal keys keep their rows in scan order.
                order = sorted(range(len(keys)), key=keys.__getitem__)
                keys = [keys[position] for position in order]
                rows = [rows[position] for position in order]
                self.sorts_applied += 1
        except TypeError:
            buckets: dict[object, list[tuple]] = defaultdict(list)
            for key, row in zip(keys, rows):
                buckets[key].append(row)
            return None, None, buckets
        if distinct:  # presorted, one row per key: 1-tuples as groups
            return keys, list(zip(rows)), None
        group_keys: list = []
        group_rows: list[list[tuple]] = []
        for key, group in groupby(zip(keys, rows), itemgetter(0)):
            group_keys.append(key)
            group_rows.append(list(map(itemgetter(1), group)))
        return group_keys, group_rows, None

    def _matcher(
        self, ctx: EvalContext, columnar: bool = False
    ) -> Callable[[Iterable], list[Sequence[tuple]]]:
        """Materialise the right side and return ``match(values)``: for
        each left key value, the right rows whose key equals it, in
        right-scan order (empty for NULL and NaN).

        ``match`` keeps a forward-merging cursor across values and calls
        while the left keys arrive in non-decreasing order and bisects
        when the order regresses; a key unorderable against the grouped
        keys can still match by equality, through a lazy dict view.  The
        state lives in the closure, one per execution: cached plans are
        shared across threads.
        """
        group_keys, group_rows, buckets = self._prepare(ctx, columnar)
        key_of = self._key
        empty: tuple = ()
        if buckets is not None:

            def match_buckets(values: Iterable) -> list[Sequence[tuple]]:
                if key_of is not None:
                    values = map(key_of, values)
                # No bucket holds the None of a NULL or NaN key.
                return [buckets.get(value, empty) for value in values]

            return match_buckets
        n = len(group_keys)
        state: list = [0, None, True]  # cursor, previous key, first call
        lookup: dict | None = None

        def match(values: Iterable) -> list[Sequence[tuple]]:
            nonlocal lookup
            cursor, previous, first = state
            out: list[Sequence[tuple]] = []
            append = out.append
            for key in values if key_of is None else map(key_of, values):
                if key is None:  # NULL and NaN equal nothing
                    append(empty)
                    continue
                try:
                    if first or key >= previous:
                        while cursor < n and group_keys[cursor] < key:
                            cursor += 1
                    else:  # left order regressed: bisect instead of rewind
                        cursor = bisect_left(group_keys, key)
                    first = False
                    previous = key
                except TypeError:
                    if lookup is None:
                        lookup = dict(zip(group_keys, group_rows))
                    append(lookup.get(key, empty))
                    continue
                if cursor < n and group_keys[cursor] == key:
                    append(group_rows[cursor])
                else:
                    append(empty)
            state[:] = cursor, previous, first
            return out

        return match

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows (row-protocol probe, so
        EXPLAIN ANALYZE instrumentation sees the left subtree)."""
        match = self._matcher(ctx)
        left_key = self.left_key
        for left_row in self.left.rows(ctx):
            for right_row in match((left_key(left_row, ctx),))[0]:
                yield left_row + right_row

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Merge the key column of left column batches.

        A bare-column key is read with ``batch.column``, any other key
        through the ``left_key`` closure per row.  Each batch becomes a
        :class:`JoinBatch`, as in :meth:`HashJoinPlan.column_batches`.
        """
        match = self._matcher(ctx, columnar=True)
        left_index = self.left_key_index
        left_key = self.left_key
        width = len(self.left.schema)
        for batch in self.left.column_batches(ctx, size):
            if left_index is not None:
                keys = batch.column(left_index)
            else:
                keys = [left_key(row, ctx) for row in batch.rows_view()]
            yield from _join_batch(batch, match(keys), width)

    def _describe(self) -> str:
        order = "presorted" if self.sorted_hint else "sort"
        return (
            f"MergeJoin(INNER, on {self.key_name}, join=merge, input={order})"
        )

    def _children(self) -> list[Plan]:
        return [self.left, self.right]


def _join_batch(batch, buckets: list[Sequence[tuple]], width: int) -> Iterator[JoinBatch]:
    """The join output of one left batch as a :class:`JoinBatch` (none
    when nothing matched): ``buckets`` holds each left row's matching
    right rows, in left order."""
    matches = list(chain.from_iterable(buckets))
    if not matches:
        return
    lengths = list(map(len, buckets))
    left = batch
    if lengths.count(1) != len(lengths):
        positions = chain.from_iterable(map(repeat, range(len(lengths)), lengths))
        left = SelectionBatch(batch, list(positions))
    yield JoinBatch(left, matches, width)


class IndexNestedLoopJoinPlan(Plan):
    """INNER equi-join probing the inner table's hash index per outer key.

    Instead of building a transient hash table from a full inner scan,
    each distinct outer key probes :meth:`Table.version_index_lookup` on
    the inner join column — the index is built once per table version
    and shared across statements, so the cost model amortises the build
    away for repeatedly-joined tables.  Lookups return matches in rid
    (scan) order, making the output left-major with inner matches in
    scan order — bit-identical to the nested-loop / hash / merge plans.
    The index buckets by the inner column's value key, so a padded
    character key finds every spelling ``=`` matches.  The planner never
    attaches index probes or zone checks to the inner scan: this
    operator replaces its access path.  A NULL or NaN outer key probes
    nothing.
    """

    def __init__(
        self,
        left: Plan,
        scan: TableScanPlan,
        left_key: CompiledExpr,
        column: str,
        key_name: str = "",
    ):
        self.left = left
        self.scan = scan
        self.left_key = left_key
        self.column = column
        self.key_name = key_name
        self.schema = left.schema + scan.schema
        self.index_probes = 0
        self._key = join_key(left_key.type)

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        table = self.scan._storage(ctx)
        version = self.scan._version(ctx, table)
        lookup = table.version_index_lookup
        column = self.column
        left_key = self.left_key
        key_of = self._key
        cache: dict[object, list[tuple]] = {}
        for left_row in self.left.rows(ctx):
            value = key = left_key(left_row, ctx)
            if key_of is not None:
                key = key_of(value)
            if key is None:
                continue
            matches = cache.get(key)
            if matches is None:
                matches = lookup(version, column, value)
                cache[key] = matches
                self.index_probes += 1
            for right_row in matches:
                yield left_row + right_row

    def _describe(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.scan._name}.{self.column}, "
            f"on {self.key_name}, join=indexnlj)"
        )

    def _children(self) -> list[Plan]:
        return [self.left, self.scan]


#: Bind joins fall back to an unbound fetch beyond this many distinct
#: outer keys (an IN list that long would dwarf the transfer savings).
MAX_BIND_KEYS = 200


class RemoteBindJoinPlan(Plan):
    """Bind join into a remote nickname (parameterized semijoin pushdown).

    Chosen by the cost-based optimizer for an equi-conjunct
    ``outer.col = nickname.col``: the outer side is materialised first,
    its distinct join-key values are shipped as an ``IN`` (or ``=``)
    predicate in the remote statement's WHERE clause, and the narrowed
    remote result is hash-joined back.  Rows and their order are
    bit-identical to the syntactic plan (cross product + filter): output
    is outer-major with remote matches in remote-scan order, and the
    remote side filters during its own scan, preserving relative order.

    When the outer side produces more than ``max_keys`` distinct keys the
    fetch degrades gracefully to the unbound scan (same rows, no bind
    predicate); with zero non-NULL outer keys the fetch is skipped
    entirely — an inner equality cannot match.  Keys match by their
    :func:`~repro.fdbs.types.join_key`: a NaN key is neither shipped
    nor matched.
    """

    def __init__(
        self,
        left: Plan,
        scan: RemoteScanPlan,
        left_key: CompiledExpr,
        bind_column: str,
        remote_key_index: int,
        max_keys: int = MAX_BIND_KEYS,
    ):
        self.left = left
        self.scan = scan
        self.left_key = left_key
        self.bind_column = bind_column
        self.remote_key_index = remote_key_index
        self.max_keys = max_keys
        self.schema = left.schema + scan.schema
        self._key = join_key(left_key.type) or join_key(scan.schema[remote_key_index].type)
        self.bound_fetches = 0
        self.unbound_fetches = 0

    def _bind_predicate(self, key_values: list[object]) -> str:
        column = ast.ColumnRef(None, self.bind_column)
        if len(key_values) == 1:
            return ast.BinaryOp("=", column, ast.Literal(key_values[0])).render()
        items: list[ast.Expression] = [ast.Literal(value) for value in key_values]
        return ast.InList(column, items).render()

    def _distinct_keys(self, left_rows: list[tuple], ctx: EvalContext) -> list[object]:
        """Distinct outer key values that can match (not NULL, not NaN),
        in first-occurrence order."""
        key_values: list[object] = []
        seen: set = set()
        for left_row in left_rows:
            value = self.left_key(left_row, ctx)
            key = self._join_key(value)
            if key is not None and key not in seen:
                seen.add(key)
                key_values.append(value)
        return key_values

    def _join_key(self, value: object) -> object:
        return value if self._key is None else self._key(value)

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        left_rows = list(self.left.rows(ctx))
        key_values = self._distinct_keys(left_rows, ctx)
        if not key_values:
            return  # inner equality over all-NULL outer keys: no matches
        predicates = list(self.scan.pushed_predicates)
        fetcher = ctx.database.federation.fetcher(self.scan.nickname)
        layer = fetcher.layer
        if len(key_values) <= self.max_keys:
            predicates.append(self._bind_predicate(key_values))
            self.bound_fetches += 1
            layer.bind_join_count += 1
        else:
            # Runtime guard: the optimizer's gate is estimate-based, so
            # the *actual* distinct keys can exceed it (stale RUNSTATS
            # after DML).  Ship-all instead of an oversized IN list —
            # the hash probe below enforces the equi-conjunct either way.
            self.unbound_fetches += 1
            layer.bind_join_fallbacks += 1
        # Hash-join the (possibly bound) remote side back: outer-major,
        # remote matches in remote-scan order.
        buckets: dict[object, list[tuple]] = {}
        key_index = self.remote_key_index
        for remote_row in fetcher.fetch(ctx, predicates):
            key = self._join_key(remote_row[key_index])
            if key is not None:
                buckets.setdefault(key, []).append(remote_row)
        for left_row in left_rows:
            key = self._join_key(self.left_key(left_row, ctx))
            for remote_row in buckets.get(key, ()) if key is not None else ():
                yield left_row + remote_row

    def _describe(self) -> str:
        return f"BindJoin({self.scan._name}, bind: {self.bind_column})"

    def _children(self) -> list[Plan]:
        return [self.left, self.scan]


class UdtfBindJoinPlan(Plan):
    """Bind join into a lateral DETERMINISTIC table function.

    The outer side is materialised, the argument tuples it produces are
    deduplicated in first-occurrence order, and the function is invoked
    once per *distinct* tuple through a batch invoker — the fenced
    runtime amortizes prepare, RMI channel and finish overheads across
    the whole batch, mirroring the paper's input-container parameter
    passing.  Requires a DETERMINISTIC function: invocation count per
    distinct argument tuple matches the per-statement cache of the
    syntactic plan, so rows are bit-identical.  The batch goes through
    the executing database's ``invoke_table_function_batch``.
    """

    def __init__(self, left: Plan, right: TableFunctionRightSide):
        self.left = left
        self.right = right
        self.schema = left.schema + right.schema
        self.batched_invocations = 0

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        left_rows = list(self.left.rows(ctx))
        arg_exprs = self.right.arg_exprs
        per_row_keys: list[tuple | None] = []
        distinct_args: list[list[object]] = []
        key_order: dict[tuple, int] = {}
        fallback: dict[int, list[object]] = {}
        for index, left_row in enumerate(left_rows):
            args = [expr(left_row, ctx) for expr in arg_exprs]
            try:
                key = tuple(args)
                hash(key)
            except TypeError:  # unhashable argument: invoke individually
                per_row_keys.append(None)
                fallback[index] = args
                continue
            if key not in key_order:
                key_order[key] = len(distinct_args)
                distinct_args.append(args)
            per_row_keys.append(key)
        database = ctx.database
        function = database.catalog.get_function(self.right.name)
        results: list[list[tuple]] = []
        if distinct_args:
            results = database.invoke_table_function_batch(function, distinct_args, ctx)
            self.batched_invocations += 1
            self.right.invocations += len(distinct_args)
            self.right.cache_hits += sum(
                1 for key in per_row_keys if key is not None
            ) - len(distinct_args)
        for index, left_row in enumerate(left_rows):
            key = per_row_keys[index]
            if key is None:
                self.right.invocations += 1
                rows = database.invoke_table_function(function, fallback[index], ctx)
            else:
                rows = results[key_order[key]]
            for right_row in rows:
                yield left_row + right_row

    def _describe(self) -> str:
        return f"BindJoin(TABLE({self.right.name}) {self.right.alias})"

    def _children(self) -> list[Plan]:
        return [self.left]


class FilterPlan(Plan):
    """WHERE / HAVING filter, or a nested-loop fold step's join conjunct.

    ``rows`` keeps the rows whose row-compiled predicate is TRUE.
    ``column_batches`` runs ``selection`` (the planner attaches it in
    columnar mode, see :meth:`~repro.fdbs.expr.ColumnarCompiler.select`),
    which returns the surviving positions of each input batch.
    """

    def __init__(self, input_plan: Plan, predicate: CompiledExpr, label: str = "Filter"):
        self.input = input_plan
        self.predicate = predicate
        self.schema = input_plan.schema
        self._label = label
        #: Column-batch filter: ``selection(ctx)(batch)`` gives the
        #: positions of the batch's rows that pass.
        self.selection: SelectFn | None = None
        #: Rendered texts of the conjuncts this filter evaluates locally
        #: after predicate pushdown split some off (attached by the
        #: planner so EXPLAIN shows the residual set explicitly).
        self.residual_texts: list[str] | None = None

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        predicate = self.predicate.fn
        for row in self.input.rows(ctx):
            if predicate(row, ctx) is True:
                yield row

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Yield selection views over input batches — fully-passing
        batches flow through untouched, partial ones become a
        :class:`SelectionBatch` so no row tuples materialise here."""
        selection = self.selection
        if selection is None:
            yield from super().column_batches(ctx, size)
            return
        select = selection(ctx)
        for batch in self.input.column_batches(ctx, size):
            positions = select(batch)
            if not positions:
                continue
            if len(positions) == len(batch):
                yield batch
            else:
                yield SelectionBatch(batch, positions)

    def _describe(self) -> str:
        if self.residual_texts:
            residual = " AND ".join(self.residual_texts)
            return f"{self._label} [residual: {residual}]"
        return self._label

    def _children(self) -> list[Plan]:
        return [self.input]


class ProjectPlan(Plan):
    """Computes the select list (plus hidden sort keys, if any).

    A projection that reads every input column in order (``SELECT *``
    over one source) is an identity: ``rows`` then passes the input
    tuples straight through instead of rebuilding equal ones.
    """

    def __init__(
        self,
        input_plan: Plan,
        exprs: list[CompiledExpr],
        schema: list[ColumnSlot],
    ):
        self.input = input_plan
        self.exprs = exprs
        self.schema = schema
        #: Column-batch closures (attached by the planner in columnar
        #: mode); one per select-list expression.
        self.columnar_exprs: list[ColumnFn] | None = None
        self._identity = len(exprs) == len(input_plan.schema) and all(
            expr.leaf == ("row", index) for index, expr in enumerate(exprs)
        )

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        if self._identity:
            yield from self.input.rows(ctx)
            return
        fns = [expr.fn for expr in self.exprs]
        for row in self.input.rows(ctx):
            yield tuple([fn(row, ctx) for fn in fns])

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Yield column-major output batches; row tuples are only zipped
        together if a downstream operator asks for ``rows_view``."""
        columnar_exprs = self.columnar_exprs
        if columnar_exprs is None:
            yield from super().column_batches(ctx, size)
            return
        for batch in self.input.column_batches(ctx, size):
            if not columnar_exprs:
                yield ColumnBatch(len(batch), cols=[])
                continue
            yield ColumnBatch(
                len(batch), cols=[fn(batch, ctx) for fn in columnar_exprs]
            )

    def _describe(self) -> str:
        return f"Project({', '.join(s.name for s in self.schema)})"

    def _children(self) -> list[Plan]:
        return [self.input]


class AggregateSpec:
    """One aggregate computation: function name and input expression."""

    def __init__(self, name: str, arg: CompiledExpr | None, distinct: bool = False):
        self.name = name.upper()
        self.arg = arg  # None means COUNT(*)
        self.distinct = distinct
        #: DISTINCT compares argument values by this key (None: as is).
        self.key = value_key(arg.type) if distinct and arg is not None else None
        #: Column-batch closure for ``arg`` (attached in columnar mode).
        self.columnar_arg: ColumnFn | None = None

    def new_state(self) -> "_AggState":
        """Fresh running state for one group."""
        return _AggState(self)


class _AggState:
    """Running state of one aggregate within one group."""

    def __init__(self, spec: AggregateSpec):
        self.spec = spec
        self.count = 0
        self.total: object = None
        self.best: object = None
        self.seen: set | None = set() if spec.distinct else None

    def update(self, row: tuple, ctx: EvalContext) -> None:
        if self.spec.arg is None:  # COUNT(*)
            self.count += 1
            return
        self.update_value(self.spec.arg(row, ctx))

    def update_value(self, value: object) -> None:
        """Fold one already-evaluated argument value into the state."""
        if self.spec.arg is None:  # COUNT(*): every row counts
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            key = self.spec.key
            seen_key = value if key is None else key(value)
            if seen_key in self.seen:
                return
            self.seen.add(seen_key)
        self.count += 1
        name = self.spec.name
        if name in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif name == "MIN":
            try:
                self.best = value if self.best is None or value < self.best else self.best
            except InvalidOperation:  # a Decimal NaN compares false, as over DOUBLE
                pass
        elif name == "MAX":
            try:
                self.best = value if self.best is None or value > self.best else self.best
            except InvalidOperation:
                pass

    def update_chunk(self, values: list | None, count: int) -> None:
        """Fold a whole chunk of argument values at once.

        ``values`` is None for COUNT(*) (``count`` rows, no argument).
        MIN/MAX fold from the running best in row order and all-integer
        SUM chunks pre-sum, both through the C-level builtins; other
        sums fold value by value in row order, so float totals are
        bit-identical to row mode.  Anything the builtins cannot fold
        (mixed or exotic operand types) falls back to the exact
        per-value path, keeping row-mode semantics.
        """
        if self.spec.arg is None:
            self.count += count
            return
        assert values is not None
        if self.seen is not None:  # DISTINCT must see every value in order
            for value in values:
                self.update_value(value)
            return
        live = [value for value in values if value is not None]
        if not live:
            return
        name = self.spec.name
        try:
            if name in ("MIN", "MAX"):
                # ``min``/``max`` keep a candidate unless a later value
                # compares below/above it, exactly as ``update_value``
                # does, so a NaN stays where row mode would keep it.
                fold = min if name == "MIN" else max
                best = self.best
                self.best = fold(live if best is None else chain((best,), live))
            elif name in ("SUM", "AVG"):
                folded = sum(live)
                total = self.total
                if len(live) > 1 and type(folded) is int and type(total) in (int, type(None)):
                    self.total = folded if total is None else total + folded
                else:
                    # Float addition is not associative: fold in row
                    # order from the running total, as row mode does
                    # (``sum(live, total)`` would not do: from 3.12 it
                    # compensates float rounding).  Only an all-int
                    # chunk into an int total may be pre-summed, and
                    # not a lone value (a lone BOOLEAN stays a bool).
                    for value in live:
                        total = value if total is None else total + value
                    self.total = total
        except (TypeError, InvalidOperation):
            for value in live:
                self.update_value(value)
            return
        self.count += len(live)

    def result(self) -> object:
        name = self.spec.name
        if name == "COUNT":
            return self.count
        if name == "SUM":
            return self.total
        if name == "AVG":
            # Division, also over integers: DB2 would truncate an integer
            # AVG, this engine returns the quotient.
            return None if self.count == 0 else self.total / self.count  # type: ignore[operator]
        if name in ("MIN", "MAX"):
            return self.best
        raise ExecutionError(f"unknown aggregate {name}")  # pragma: no cover


class AggregatePlan(Plan):
    """Hash aggregation over optional group keys.

    Output rows are ``group_values + aggregate_results`` matching the
    synthetic post-aggregate layout the planner compiles select items
    against.  Rows group by the :func:`~repro.fdbs.types.value_key` of
    each group value, and a group shows the values of its first row in
    input order.
    """

    def __init__(
        self,
        input_plan: Plan,
        group_exprs: list[CompiledExpr],
        aggregates: list[AggregateSpec],
        schema: list[ColumnSlot],
    ):
        self.input = input_plan
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self.schema = schema
        #: Column-batch closures for the group keys (columnar mode).
        self.columnar_group: list[ColumnFn] | None = None
        self._keys = [value_key(expr.type) for expr in group_exprs]
        self._row_key = row_key(self._keys)

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        # Group key -> (its first row's group values, aggregate states).
        groups: dict[tuple, tuple[tuple, list[_AggState]]] = {}
        keyed = self._row_key
        for row in self.input.rows(ctx):
            values = tuple([expr(row, ctx) for expr in self.group_exprs])
            key = values if keyed is None else keyed(values)
            group = groups.get(key)
            if group is None:
                group = groups[key] = (values, [spec.new_state() for spec in self.aggregates])
            for state in group[1]:
                state.update(row, ctx)
        if not groups and not self.group_exprs:
            # Global aggregate over an empty input still yields one row.
            states = [spec.new_state() for spec in self.aggregates]
            yield tuple(state.result() for state in states)
            return
        for values, states in groups.values():
            yield values + tuple(state.result() for state in states)

    def _argument_columns(self, chunk, ctx: EvalContext) -> list[list | None]:
        """One evaluated value column per aggregate (None for COUNT(*))."""
        columns: list[list | None] = []
        for spec in self.aggregates:
            fn = spec.columnar_arg
            if spec.arg is None:
                columns.append(None)
            elif fn is not None:
                columns.append(fn(chunk, ctx))
            else:
                arg = spec.arg
                columns.append([arg(row, ctx) for row in chunk])
        return columns

    def _group_keys(self, chunk, ctx: EvalContext) -> list:
        """Group keys of one chunk: bare values for a single group
        expression, tuples otherwise."""
        fns = self.columnar_group
        if fns is None:
            columns = [[expr(row, ctx) for row in chunk] for expr in self.group_exprs]
        else:
            columns = [fn(chunk, ctx) for fn in fns]
        return columns[0] if len(columns) == 1 else list(zip(*columns))

    def _aggregate(self, chunks: Iterable, ctx: EvalContext, size: int) -> Iterator[list[tuple]]:
        """Aggregate input column batches into chunks of output rows.

        Grouped input is collected, then folded: each row is appended to
        its group's list (as its argument value, or as its input position
        when there are several arguments), groups keyed in
        first-occurrence order; when the input ends, each group folds its
        values once per aggregate through :meth:`_AggState.update_chunk`.
        A group thus sees the same values in the same row order as
        :meth:`rows`, so float sums stay bit-identical, and groups come
        out in first-occurrence order with their first row's values.
        """
        if not self.group_exprs:
            states = [spec.new_state() for spec in self.aggregates]
            for chunk in chunks:
                columns = self._argument_columns(chunk, ctx)
                for state, column in zip(states, columns):
                    state.update_chunk(column, len(chunk))
            yield [tuple(state.result() for state in states)]
            return
        # Per group key, in first-occurrence order, its rows' argument
        # value (one argument) or input positions into ``values`` (none or
        # several: per-row tuples would cost the collector far more).
        width = sum(spec.arg is not None for spec in self.aggregates)
        values: list[list] = [[] for _ in range(width)] if width > 1 else []
        groups: defaultdict = defaultdict(list)
        single = len(self.group_exprs) == 1
        key_of = self._keys[0] if single else self._row_key
        firsts: dict = {}  # group key -> its first group values (keyed only)
        total = 0
        for chunk in chunks:
            columns = [c for c in self._argument_columns(chunk, ctx) if c is not None]
            if width == 1:
                items = columns[0]
            else:
                items = range(total, total + len(chunk))
                total += len(chunk)
                for column, chunk_column in zip(values, columns):
                    column.extend(chunk_column)
            keys = self._group_keys(chunk, ctx)
            if key_of is not None:
                chunk_values, keys = keys, list(map(key_of, keys))
                list(map(firsts.setdefault, keys, chunk_values))
            for key, item in zip(keys, items):
                groups[key].append(item)
        out = []
        for key, items in groups.items():
            if width == 1:
                arguments = iter([items])
            else:
                arguments = iter([list(map(column.__getitem__, items)) for column in values])
            results = []
            for spec in self.aggregates:
                state = spec.new_state()
                state.update_chunk(None if spec.arg is None else next(arguments), len(items))
                results.append(state.result())
            if key_of is not None:
                key = firsts[key]
            out.append(((key,) if single else key) + tuple(results))
        for start in range(0, len(out), size):
            yield out[start : start + size]

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Fold input column batches; argument and group-key columns are
        read without materialising input row tuples."""
        for chunk in self._aggregate(self.input.column_batches(ctx, size), ctx, size):
            yield ColumnBatch(len(chunk), rows=chunk)

    def _describe(self) -> str:
        return f"Aggregate(groups={len(self.group_exprs)}, aggs={len(self.aggregates)})"

    def _children(self) -> list[Plan]:
        return [self.input]


class SortPlan(Plan):
    """Sorts on key extractors over the input rows.

    Keys are either integer positions or callables ``(row, ctx) ->
    value`` (used for ORDER BY expressions compiled against the output
    schema).  Each key is one stable sort pass, applied right to left,
    on the native :func:`~repro.fdbs.types.sort_key` of each value, so
    Python compares keys without calling back into Python code.
    """

    def __init__(
        self,
        input_plan: Plan,
        keys: list[tuple[int | Callable[[tuple, EvalContext], object], bool]],
    ):
        self.input = input_plan
        self.keys = keys  # (position or extractor, ascending)
        self.schema = input_plan.schema

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        yield from self._sorted(list(self.input.rows(ctx)), ctx)

    def _sorted(self, materialised: list[tuple], ctx: EvalContext) -> list[tuple]:
        # Stable multi-key sort: apply keys right-to-left.
        for key, ascending in reversed(self.keys):
            if isinstance(key, int):
                extractor = lambda row, _pos=key: sort_key(row[_pos])
            else:
                extractor = lambda row, _fn=key: sort_key(_fn(row, ctx))
            materialised.sort(key=extractor, reverse=not ascending)
        return materialised

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Sorting genuinely needs row tuples: materialise, sort once,
        re-chunk."""
        materialised: list[tuple] = []
        for batch in self.input.column_batches(ctx, size):
            materialised.extend(batch.rows_view())
        ordered = self._sorted(materialised, ctx)
        for start in range(0, len(ordered), size):
            chunk = ordered[start : start + size]
            yield ColumnBatch(len(chunk), rows=chunk)

    def _describe(self) -> str:
        return "Sort"

    def _children(self) -> list[Plan]:
        return [self.input]


class CutPlan(Plan):
    """Trims hidden trailing sort-key columns after sorting."""

    def __init__(self, input_plan: Plan, width: int, schema: list[ColumnSlot]):
        self.input = input_plan
        self.width = width
        self.schema = schema

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        for row in self.input.rows(ctx):
            yield row[: self.width]

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Trim by keeping the leading columns — no per-row slicing."""
        width = self.width
        for batch in self.input.column_batches(ctx, size):
            yield ColumnBatch(
                len(batch), cols=[batch.column(index) for index in range(width)]
            )

    def _describe(self) -> str:
        return f"Cut({self.width})"

    def _children(self) -> list[Plan]:
        return [self.input]


class DistinctPlan(Plan):
    """Removes duplicate rows, keeping each row whose key (the
    :func:`~repro.fdbs.types.value_key` of every column) comes first."""

    def __init__(self, input_plan: Plan):
        self.input = input_plan
        self.schema = input_plan.schema
        self._row_key = row_key([value_key(slot.type) for slot in self.schema])

    def _first(self, rows: Iterable[tuple], seen: set) -> Iterator[tuple]:
        """The rows whose key ``seen`` does not hold yet (adding it)."""
        for row in rows:
            key = row if self._row_key is None else self._row_key(row)
            if key not in seen:
                seen.add(key)
                yield row

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        yield from self._first(self.input.rows(ctx), set())

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Dedup needs hashable row tuples; consume the input columnar
        and re-wrap the survivors."""
        seen: set = set()
        for batch in self.input.column_batches(ctx, size):
            out = list(self._first(batch.rows_view(), seen))
            if out:
                yield ColumnBatch(len(out), rows=out)

    def _describe(self) -> str:
        return "Distinct"

    def _children(self) -> list[Plan]:
        return [self.input]


class LimitPlan(Plan):
    """FETCH FIRST n ROWS ONLY."""

    def __init__(self, input_plan: Plan, limit: int):
        self.input = input_plan
        self.limit = limit
        self.schema = input_plan.schema

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        if self.limit <= 0:
            return
        produced = 0
        for row in self.input.rows(ctx):
            yield row
            produced += 1
            if produced >= self.limit:
                return

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Yield input batches until the row budget is spent."""
        remaining = self.limit
        if remaining <= 0:
            return
        for batch in self.input.column_batches(ctx, size):
            if len(batch) >= remaining:
                rows = batch.rows_view()[:remaining]
                yield ColumnBatch(len(rows), rows=rows)
                return
            remaining -= len(batch)
            yield batch

    def _describe(self) -> str:
        return f"Limit({self.limit})"

    def _children(self) -> list[Plan]:
        return [self.input]


class UnionPlan(Plan):
    """UNION ALL of equally wide branches: their rows, branch by branch
    (UNION is a :class:`DistinctPlan` over this).

    A column keeps the first branch's type where every branch agrees on
    it and is of unknown type (``None``) otherwise, so a DISTINCT above
    keys it by every rule.
    """

    def __init__(self, branches: Sequence[Plan]):
        if not branches:
            raise ExecutionError("UNION requires at least one branch")
        widths = {len(b.schema) for b in branches}
        if len(widths) != 1:
            raise ExecutionError("UNION branches must have the same column count")
        self.branches = list(branches)
        self.schema = [
            slot
            if all(branch.schema[index].type == slot.type for branch in self.branches)
            else ColumnSlot(slot.alias, slot.name, None)
            for index, slot in enumerate(self.branches[0].schema)
        ]

    def rows(self, ctx: EvalContext) -> Iterator[tuple]:
        """Yield the operator's result rows."""
        for branch in self.branches:
            yield from branch.rows(ctx)

    def column_batches(self, ctx: EvalContext, size: int = BATCH_SIZE) -> Iterator:
        """Yield each branch's column batches in turn."""
        for branch in self.branches:
            yield from branch.column_batches(ctx, size)

    def _describe(self) -> str:
        return "Union"

    def _children(self) -> list[Plan]:
        return self.branches
