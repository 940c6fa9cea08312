"""Multi-version heap storage: snapshot reads, latched writes, undo.

Rows are tuples in definition column order.  Every mutation can record
an undo entry into an active :class:`UndoLog`, which the session layer
uses to implement ROLLBACK.  Row identifiers (rids) are stable for the
lifetime of a row; deleted slots are tombstoned.

Concurrency model (MVCC snapshot isolation at statement granularity):

* A table's visible state is an immutable :class:`TableVersion` — a
  reference into an :class:`_Arena` (the physical rows plus its
  primary-key and secondary-index structures) bounded by ``row_limit``.
  Readers pin the table's current version **lock-free** (one attribute
  read) and iterate it without ever blocking, or being blocked by,
  writers.
* Mutations are set-oriented: one call (one DML statement) checks all
  its rows, then publishes **one** successor version, or nothing if a
  check fails.  Primary keys are checked against the statement's end
  state.
* Inserts are append-only: they extend the current arena in place and
  publish a successor version whose ``row_limit`` covers the new rids.
  A version pinned earlier keeps its smaller ``row_limit`` and simply
  never sees the appended rows — no copying.
* Updates and deletes build one **copy-on-write successor arena** per
  call (rids preserved, tombstones kept) and publish it; versions
  pinned against the old arena keep reading it untouched.
* A :meth:`Table.fork` shares its source's arena, which is marked
  ``shared`` and never written again: the first write of either table
  (an insert, a new index, the columnar cache) takes a private copy.
* All mutations run under the table's **write latch** (a re-entrant
  per-table lock); writers on different tables never contend.  A DML
  statement wraps its mutations in :meth:`Table.write_transaction`,
  which performs first-writer-wins conflict detection: if the pinned
  version is no longer current when the latch is acquired, the
  statement loses with a retryable
  :class:`~repro.errors.WriteConflictError`.
* Publishing a version additionally notifies ``publish_hook`` (set by
  the owning database) so a catalog-level snapshot map can advance
  atomically — the short commit-time visibility critical section.

Single-threaded behaviour — rows and rids — is bit-identical to the
pre-MVCC heap.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ConstraintError, ExecutionError, WriteConflictError
from repro.fdbs.catalog import ColumnDef
from repro.fdbs.stats import zone_bounds
from repro.fdbs.types import coercer, value_key


Row = tuple

#: Default number of rids per column chunk (also the column-batch size
#: of the columnar executor; configurable per database via ``chunk_size``).
DEFAULT_CHUNK_SIZE = 1024


def _live(rows: list[Row | None], start: int, stop: int) -> list[Row]:
    """The live (non-tombstoned) rows of rids ``[start, stop)``."""
    return [row for row in rows[start:stop] if row is not None]


class ColumnChunk:
    """One chunk of a table's rows in columnar form, with zone maps.

    A chunk covers a fixed rid range ``[start, start + chunk_size)`` of
    one arena; ``rows`` holds only the *live* tuples of that range, in
    rid order.  Columns and per-column ``(min, max, null_count)`` zone
    maps are decomposed lazily and cached — a sealed chunk belongs to an
    immutable rid range, so the cache is safe to share across versions
    and threads (filling a cache slot is idempotent).

    The chunk also satisfies the executor's column-batch protocol
    (``len``, iteration, ``column``, ``rows_view``) so columnar operators
    can consume it directly without re-materialising row lists.
    """

    __slots__ = ("start", "rows", "count", "_width", "_columns", "_zones")

    def __init__(self, start: int, rows: list[Row], width: int):
        self.start = start
        self.rows = rows
        self.count = len(rows)
        self._width = width
        self._columns: list[list[object] | None] = [None] * width
        self._zones: list[tuple[object, object, int] | None] = [None] * width

    def column(self, position: int) -> list[object]:
        """Values of one column across the chunk's live rows (cached)."""
        column = self._columns[position]
        if column is None:
            column = [row[position] for row in self.rows]
            self._columns[position] = column
        return column

    def zone(self, position: int) -> tuple[object, object, int]:
        """``(min, max, null_count)`` zone map of one column (cached)."""
        zone = self._zones[position]
        if zone is None:
            zone = zone_bounds(self.column(position))
            self._zones[position] = zone
        return zone

    def seal(self) -> None:
        """Eagerly decompose every column and compute its zone map."""
        for position in range(self._width):
            self.zone(position)

    def rows_view(self) -> list[Row]:
        """The chunk's live rows as tuples (no copy)."""
        return self.rows

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnChunk start={self.start} live={self.count}>"


class UndoLog:
    """Collects inverse operations for one transaction.

    Thread-safe: concurrent statements of a shared database may record
    undo entries into one log; rollback drains atomically-popped
    entries in reverse order.
    """

    def __init__(self) -> None:
        self._entries: list[Callable[[], None]] = []
        self._lock = threading.RLock()

    def record(self, undo: Callable[[], None]) -> None:
        """Append one inverse operation."""
        with self._lock:
            self._entries.append(undo)

    def rollback(self) -> None:
        """Apply all undo entries in reverse order, then clear."""
        while True:
            with self._lock:
                if not self._entries:
                    return
                entry = self._entries.pop()
            entry()

    def clear(self) -> None:
        """Forget all undo entries (commit)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class HashIndex:
    """A non-unique hash index over one column position.

    Buckets are keyed by the column's value key (``key``, see
    :func:`~repro.fdbs.types.value_key`): character values without
    trailing blanks, every NaN under one key; integer columns pass
    ``key=None`` and bucket raw values with no call.  So a lookup finds
    exactly the rows whose value ``=`` a probe of the column's type
    (NULL and NaN probes aside, which callers never make).

    Buckets are rid lists; :meth:`lookup` sorts them, so bucket order
    never shows.  The current arena's buckets only ever grow (INSERT
    appends rids); UPDATE, DELETE and their undo remove rids from a
    statement's copy-on-write clone before it is published, never from
    an arena a reader may hold.  A concurrent reader taking
    ``sorted(bucket)`` therefore sees a consistent prefix, and appended
    rids beyond its ``row_limit`` are filtered by the version doing the
    lookup.
    """

    def __init__(self, position: int, key: Callable[[object], object] | None = None):
        self.position = position
        self.key = key
        self._buckets: dict[object, list[int]] = {}

    def add(self, rid: int, row: Row) -> None:
        """Index one row under its key value."""
        value = row[self.position]
        if self.key is not None:
            value = self.key(value)
        self._buckets.setdefault(value, []).append(rid)

    def remove_many(self, entries: Iterable[tuple[int, Row]]) -> None:
        """Drop ``(rid, row)`` entries from their key buckets (clone-only;
        never called on an arena that concurrent readers may hold)."""
        key_of = self.key
        doomed: dict[object, set[int]] = {}
        for rid, row in entries:
            value = row[self.position]
            if key_of is not None:
                value = key_of(value)
            doomed.setdefault(value, set()).add(rid)
        for key, rids in doomed.items():
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            kept = [rid for rid in bucket if rid not in rids]
            if kept:
                self._buckets[key] = kept
            else:
                del self._buckets[key]

    def lookup(self, value: object) -> list[int]:
        """Rids whose key equals ``value``'s key, in ascending rid order."""
        if self.key is not None:
            value = self.key(value)
        return sorted(self._buckets.get(value, ()))

    def copy(self) -> "HashIndex":
        """Deep-enough copy for a copy-on-write arena rebuild."""
        clone = HashIndex(self.position, self.key)
        clone._buckets = {key: list(rids) for key, rids in self._buckets.items()}
        return clone


class _Arena:
    """The physical storage a family of table versions shares.

    ``rows`` is append-only while the arena is current; tombstoned slots
    are ``None``.  ``pk_index`` and ``indexes`` cover every live row up
    to ``len(rows)`` — versions bound to the arena filter both by their
    own ``row_limit``.
    """

    __slots__ = ("rows", "pk_index", "indexes", "chunk_state", "shared")

    def __init__(
        self,
        rows: list[Row | None] | None = None,
        pk_index: dict[tuple, int] | None = None,
        indexes: dict[str, HashIndex] | None = None,
    ):
        self.rows: list[Row | None] = rows if rows is not None else []
        self.pk_index: dict[tuple, int] = pk_index if pk_index is not None else {}
        self.indexes: dict[str, HashIndex] = indexes if indexes is not None else {}
        #: Lazily-built columnar cache: ``(chunk_size, sealed_chunks)``
        #: where ``sealed_chunks`` only ever grows while the arena is
        #: current.  ``None`` until the first columnar access.
        self.chunk_state: tuple[int, list[ColumnChunk]] | None = None
        #: Set once tables forked from one another read this arena; from
        #: then on nothing writes it (each table writes a private copy).
        self.shared = False

    def copy(self) -> "_Arena":
        """Copy-on-write clone (rows list, pk index, secondary indexes).

        The columnar cache is *not* carried over: the clone's rows are
        about to be mutated, so its chunks and zone maps are rebuilt
        lazily on the next columnar access.  The clone is not shared.
        """
        return _Arena(
            rows=list(self.rows),
            pk_index=dict(self.pk_index),
            indexes={name: index.copy() for name, index in self.indexes.items()},
        )


class TableVersion:
    """One immutable, consistent view of a table.

    Readers resolve a version once per statement and iterate it without
    locks: the arena's rows below ``row_limit`` never change after the
    version is published.  (A forked table's first write swaps ``arena``
    for a private copy that holds the same rows, see
    :meth:`Table._own_arena`.)
    """

    __slots__ = ("version_id", "arena", "row_limit", "live", "chunks")

    def __init__(self, version_id: int, arena: _Arena, row_limit: int, live: int):
        self.version_id = version_id
        self.arena = arena
        self.row_limit = row_limit
        self.live = live
        #: ``(chunk_size, chunks)`` stored by the first
        #: :meth:`Table.columnar_chunks` call at that chunk size.
        self.chunks: tuple[int, list[ColumnChunk]] | None = None

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield (rid, row) for every live row of this version."""
        rows = self.arena.rows
        for rid in range(self.row_limit):
            row = rows[rid]
            if row is not None:
                yield rid, row

    def rows(self) -> list[Row]:
        """All live rows of this version (materialised)."""
        # The slice is one atomic bytecode: a concurrent append to the
        # arena cannot tear it.
        return [row for row in self.arena.rows[: self.row_limit] if row is not None]

    def row_at(self, rid: int) -> Row | None:
        """Row at ``rid`` as this version sees it (None if invisible)."""
        if not (0 <= rid < self.row_limit):
            return None
        return self.arena.rows[rid]

    def lookup_pk(self, key: tuple, pk_positions: Sequence[int]) -> Row | None:
        """Fetch one row by primary-key value within this version."""
        rid = self.arena.pk_index.get(key)
        if rid is None or rid >= self.row_limit:
            return None
        return self.arena.rows[rid]

    def __len__(self) -> int:
        return self.live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TableVersion v{self.version_id} rows<{self.row_limit} "
            f"live={self.live}>"
        )


class Table:
    """One heap table with optional primary key and secondary indexes.

    Reads go through the current :class:`TableVersion`; mutations are
    set-oriented (``insert_many``, ``update_many``, ``delete_many``,
    each publishing one version) and run under the write latch.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[ColumnDef],
        primary_key: Sequence[str] = (),
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        self.name = name
        self.columns = list(columns)
        self.primary_key = [k for k in primary_key]
        self._pk_positions = [self._position(k) for k in self.primary_key]
        self._coercers = [coercer(column.type) for column in self.columns]
        #: Per-table write latch: every mutation (and a DML statement's
        #: whole write_transaction) holds it; readers never take it.
        self._latch = threading.RLock()
        self._current = TableVersion(0, _Arena(), 0, 0)
        #: Called as ``publish_hook(table, version)`` after each publish
        #: (set by the owning database to advance its snapshot map).
        self.publish_hook: Callable[["Table", TableVersion], None] | None = None
        self.versions_published = 0
        #: Rids per column chunk for this table's columnar view.
        self.chunk_size = chunk_size
        #: Times an arena's sealed-chunk cache was discarded and rebuilt
        #: (COW rebuild after UPDATE/DELETE, or a chunk-size change).
        self.zone_map_rebuilds = 0
        #: Total sealed chunks produced across all arenas.
        self.chunks_sealed = 0
        self._chunks_built = False

    def fork(self, chunk_size: int) -> "Table":
        """A new table of this schema, chunked by ``chunk_size``, holding
        this table's current version.  It holds what creating the table
        and loading the same rows would, without coercing and
        key-checking each row again, and without copying them: both
        tables read one arena, marked ``shared``, until their first
        write (see :meth:`_own_arena`).  So writes to either table never
        reach the other, and a fork that is only read costs no copy."""
        with self._latch:
            current = self._current
            current.arena.shared = True
        clone = Table(self.name, self.columns, self.primary_key, chunk_size)
        clone._current = TableVersion(
            current.version_id, current.arena, current.row_limit, current.live
        )
        clone.versions_published = self.versions_published
        return clone

    def _own_arena(self) -> TableVersion:
        """The current version, over an arena no other table reads.

        Called under the write latch before the arena is written.  A
        shared arena (see :meth:`fork`) is copied and the current version
        is pointed at the copy in place: below its ``row_limit`` the
        copy holds what the shared arena holds, so readers that pinned
        the version see the same rows either way, and nothing is
        published.
        """
        current = self._current
        if current.arena.shared:
            current.arena = current.arena.copy()
        return current

    # -- version plumbing ------------------------------------------------------------

    @property
    def current_version(self) -> TableVersion:
        """The latest published version (lock-free single ref read)."""
        return self._current

    def _publish(self, version: TableVersion) -> None:
        self._current = version
        self.versions_published += 1
        if self.publish_hook is not None:
            self.publish_hook(self, version)

    def write_transaction(self, expected: TableVersion | None = None):
        """Context manager holding the write latch for one DML statement.

        ``expected`` is the statement's pinned version of this table;
        first-writer-wins: if a different version is current when the
        latch is acquired, the statement conflicts and raises a
        retryable :class:`~repro.errors.WriteConflictError`.
        """
        return _WriteTransaction(self, expected)

    # -- helpers -------------------------------------------------------------------

    def _position(self, column: str) -> int:
        target = column.upper()
        for index, col in enumerate(self.columns):
            if col.name.upper() == target:
                return index
        raise ExecutionError(f"table {self.name!r} has no column {column!r}")

    def _pk_key(self, row: Row) -> tuple:
        return tuple(row[p] for p in self._pk_positions)

    def _coerce(self, values: Sequence[object]) -> Row:
        if len(values) != len(self.columns):
            raise ExecutionError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        row = tuple([coerce(value) for coerce, value in zip(self._coercers, values)])
        if None in row:
            for value, column in zip(row, self.columns):
                if value is None and column.not_null:
                    raise ConstraintError(
                        f"column {column.name!r} of table {self.name!r} is NOT NULL"
                    )
        return row

    # -- mutations -------------------------------------------------------------------
    #
    # Every mutation is set-oriented: one call checks all its rows first,
    # then publishes exactly one successor version and records at most
    # one undo entry.  A failed check publishes nothing.  The single-row
    # methods are thin wrappers over the set-oriented ones.

    def insert(self, values: Sequence[object], undo: UndoLog | None = None) -> int:
        """Insert one row; returns its rid (see :meth:`insert_many`)."""
        return self.insert_many((values,), undo)[0]

    def insert_many(
        self, rows: Iterable[Sequence[object]], undo: UndoLog | None = None
    ) -> range:
        """Insert rows as one statement; returns their rids.

        Every row is coerced and its primary key checked (NULL parts,
        duplicates against the current version and within the batch)
        before anything is written.  Then the current arena is extended
        in place and one successor version published: earlier versions
        keep their smaller ``row_limit`` and never see the new rows.
        An empty batch publishes nothing.
        """
        with self._latch:
            current = self._current
            start = current.row_limit
            coerced = [self._coerce(values) for values in rows]
            keys = self._checked_keys(coerced, current)
            count = len(coerced)
            if not count:
                return range(start, start)
            arena = self._own_arena().arena
            arena.rows.extend(coerced)
            if keys:
                arena.pk_index.update(zip(keys, range(start, start + count)))
            for index in arena.indexes.values():
                for rid, row in enumerate(coerced, start):
                    index.add(rid, row)
            self._publish(
                TableVersion(
                    current.version_id + 1,
                    arena,
                    start + count,
                    current.live + count,
                )
            )
        if undo is not None:
            added = [(rid, row, None) for rid, row in enumerate(coerced, start)]
            undo.record(lambda: self._replace(added, live_delta=-count))
        return range(start, start + count)

    def delete_rid(self, rid: int, undo: UndoLog | None = None) -> None:
        """Delete the row at ``rid`` (see :meth:`delete_many`)."""
        self.delete_many((rid,), undo)

    def delete_many(self, rids: Iterable[int], undo: UndoLog | None = None) -> None:
        """Delete the rows at ``rids`` with one copy-on-write rebuild."""
        with self._latch:
            changes = [(rid, self._row_at(rid), None) for rid in rids]
            self._replace(changes, live_delta=-len(changes))
        if undo is not None and changes:
            restore = [(rid, None, old) for rid, old, _ in changes]
            undo.record(lambda: self._replace(restore, live_delta=len(restore)))

    def update_rid(
        self, rid: int, values: Sequence[object], undo: UndoLog | None = None
    ) -> None:
        """Replace the row at ``rid`` with new values (see
        :meth:`update_many`)."""
        self.update_many(((rid, values),), undo)

    def update_many(
        self,
        updates: Iterable[tuple[int, Sequence[object]]],
        undo: UndoLog | None = None,
    ) -> None:
        """Replace the rows at the given rids with one copy-on-write rebuild.

        Primary keys are checked against the statement's *end* state:
        a key may move onto a key another updated row is moving off
        (``SET k = k + 1``), but two rows may not end on the same key.
        """
        with self._latch:
            changes = [
                (rid, self._row_at(rid), self._coerce(values))
                for rid, values in updates
            ]
            self._checked_keys(
                [new for _, _, new in changes],
                self._current,
                moving={rid for rid, _, _ in changes},
            )
            self._replace(changes, live_delta=0)
        if undo is not None and changes:
            revert = [(rid, new, old) for rid, old, new in changes]
            undo.record(lambda: self._replace(revert, live_delta=0))

    def _checked_keys(
        self,
        rows: list[Row],
        current: TableVersion,
        moving: frozenset[int] | set[int] = frozenset(),
    ) -> list[tuple]:
        """The primary keys of a statement's new ``rows``, checked against
        its end state: no NULL part, no two rows on one key, and no key
        held in ``current`` by a row outside ``moving`` (the rids the
        statement rewrites).  Empty without a primary key."""
        if not self._pk_positions:
            return []
        pk_index = current.arena.pk_index
        keys = [self._pk_key(row) for row in rows]
        seen: set[tuple] = set()
        for key in keys:
            if None in key:
                raise ConstraintError(
                    f"primary key of table {self.name!r} cannot contain NULL"
                )
            existing = pk_index.get(key)
            if key in seen or (
                existing is not None
                and existing < current.row_limit
                and existing not in moving
            ):
                raise ConstraintError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            seen.add(key)
        return keys

    def _replace(
        self, changes: list[tuple[int, Row | None, Row | None]], live_delta: int
    ) -> None:
        """Publish one copy-on-write successor arena in which each
        ``(rid, old, new)`` slot holds ``new`` instead of ``old`` (either
        may be None: an insert or a delete).  No-op for no changes."""
        if not changes:
            return
        with self._latch:
            current = self._current
            arena = current.arena.copy()
            del arena.rows[current.row_limit :]  # drop rids beyond this version
            rows = arena.rows
            if self._pk_positions:
                # Drop every old key before adding any new one, so keys
                # that shift between rows of one statement survive.
                pk_index = arena.pk_index
                for _, old, _ in changes:
                    if old is not None:
                        pk_index.pop(self._pk_key(old), None)
                for rid, _, new in changes:
                    if new is not None:
                        pk_index[self._pk_key(new)] = rid
            for index in arena.indexes.values():
                index.remove_many(
                    (rid, old) for rid, old, _ in changes if old is not None
                )
                for rid, _, new in changes:
                    if new is not None:
                        index.add(rid, new)
            for rid, _, new in changes:
                rows[rid] = new
            self._publish(
                TableVersion(
                    current.version_id + 1,
                    arena,
                    current.row_limit,
                    current.live + live_delta,
                )
            )

    def _row_at(self, rid: int) -> Row:
        current = self._current
        if not (0 <= rid < current.row_limit):
            raise ExecutionError(f"invalid rid {rid} for table {self.name!r}")
        row = current.arena.rows[rid]
        if row is None:
            raise ExecutionError(f"rid {rid} of table {self.name!r} is deleted")
        return row

    # -- access ----------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield (rid, row) for every live row of the current version."""
        return self._current.scan()

    def rows(self) -> list[Row]:
        """All live rows of the current version (materialised)."""
        return self._current.rows()

    def columnar_chunks(self, version: TableVersion) -> list[ColumnChunk]:
        """The version's live rows as column chunks with zone maps.

        Chunks are rid-aligned: sealed chunk ``k`` covers rids
        ``[k * chunk_size, (k + 1) * chunk_size)`` of the version's
        arena.  Sealing is lazy and incremental: chunks fully below the
        version's ``row_limit`` are decomposed once (under the write
        latch) and cached on the arena — the append-only INSERT fast
        path never touches sealed chunks, it merely makes new rid ranges
        eligible for sealing, while a copy-on-write UPDATE/DELETE arena
        starts with an empty cache and rebuilds on first access.  The
        rid range straddling ``row_limit`` becomes the version's own
        tail chunk, so versions pinned at different limits never share
        it.

        The first call for a version and chunk size stores the list
        (shared sealed chunks plus the tail) on the version; every later
        call returns that same list without taking the latch, so readers
        of an already-chunked version never block on a writer.  Callers
        must not mutate it.

        Concatenating the chunks' rows reproduces ``version.rows()``
        exactly (live rows in rid order) — the bit-identity anchor for
        the columnar execution mode.
        """
        size = self.chunk_size
        stored = version.chunks
        if stored is not None and stored[0] == size:
            return stored[1]
        width = len(self.columns)
        full = version.row_limit // size
        with self._latch:
            stored = version.chunks
            if stored is not None and stored[0] == size:
                return stored[1]
            if version is self._current:
                self._own_arena()
            # An older version may still read a shared arena (an UPDATE
            # copies without owning it first): it seals for itself alone.
            arena = version.arena
            state = None if arena.shared else arena.chunk_state
            if state is None or state[0] != size:
                if self._chunks_built:
                    self.zone_map_rebuilds += 1
                self._chunks_built = True
                state = (size, [])
                if not arena.shared:
                    arena.chunk_state = state
            sealed = state[1]
            while len(sealed) < full:
                start = len(sealed) * size
                chunk = ColumnChunk(start, _live(arena.rows, start, start + size), width)
                chunk.seal()
                self.chunks_sealed += 1
                sealed.append(chunk)
            chunks = sealed[:full]
            tail_start = full * size
            tail = _live(arena.rows, tail_start, version.row_limit)
            if tail:
                chunks.append(ColumnChunk(tail_start, tail, width))
            version.chunks = (size, chunks)
        return chunks

    def lookup_pk(self, key: tuple) -> Row | None:
        """Fetch one row by primary-key value tuple."""
        if not self._pk_positions:
            raise ExecutionError(f"table {self.name!r} has no primary key")
        return self._current.lookup_pk(key, self._pk_positions)

    def create_index(self, column: str) -> HashIndex:
        """Create (or return) a hash index over ``column`` in the
        current arena (built under the write latch)."""
        key = column.upper()
        with self._latch:
            index = self._current.arena.indexes.get(key)
            if index is not None:
                return index
            current = self._own_arena()
            position = self._position(column)
            index = HashIndex(position, value_key(self.columns[position].type))
            for rid, row in current.scan():
                index.add(rid, row)
            current.arena.indexes[key] = index
            return index

    def index_lookup(self, column: str, value: object) -> list[Row]:
        """Rows whose ``column`` equals ``value`` via the hash index."""
        self.create_index(column)
        return self.version_index_lookup(self._current, column, value)

    def version_index_lookup(
        self, version: TableVersion, column: str, value: object
    ) -> list[Row]:
        """Index-assisted equality lookup against one pinned version.

        If the version's arena carries the index (or the version is
        current, in which case the index is created on demand), rids are
        filtered by the version's ``row_limit``; a version bound to an
        older arena without the index falls back to a linear scan — the
        same rows in the same (rid) order, compared by the same value key
        the index buckets by, just without the probe.
        """
        name = column.upper()
        index = version.arena.indexes.get(name)
        if index is None and version.arena is self._current.arena:
            self.create_index(column)
            index = version.arena.indexes.get(name)
        if index is None:
            position = self._position(column)
            key = value_key(self.columns[position].type)
            if key is None:
                return [row for _, row in version.scan() if row[position] == value]
            wanted = key(value)
            return [row for _, row in version.scan() if key(row[position]) == wanted]
        rows = version.arena.rows
        return [
            rows[rid]
            for rid in index.lookup(value)
            if rid < version.row_limit and rows[rid] is not None
        ]

    def __len__(self) -> int:
        return self._current.live


class _WriteTransaction:
    """Holds a table's write latch for one DML statement, with
    first-writer-wins validation against the statement's pinned version."""

    def __init__(self, table: Table, expected: TableVersion | None):
        self._table = table
        self._expected = expected

    def __enter__(self) -> TableVersion:
        self._table._latch.acquire()
        current = self._table.current_version
        if self._expected is not None and (
            current.version_id != self._expected.version_id
        ):
            self._table._latch.release()
            raise WriteConflictError(
                self._table.name, self._expected.version_id, current.version_id
            )
        return current

    def __exit__(self, *exc) -> None:
        self._table._latch.release()


class Snapshot:
    """A database-wide snapshot: one consistent TableVersion per table.

    Immutable; the database publishes a successor map (under its short
    visibility lock) whenever any table publishes a version, so pinning
    a snapshot is a single attribute read and the versions within one
    snapshot are mutually consistent.
    """

    __slots__ = ("epoch", "_versions")

    def __init__(self, epoch: int, versions: dict[Table, TableVersion]):
        self.epoch = epoch
        self._versions = versions

    def version_for(self, table: Table) -> TableVersion | None:
        """This snapshot's version of ``table`` (None if untracked)."""
        return self._versions.get(table)

    def successor(self, table: Table, version: TableVersion) -> "Snapshot":
        """A new snapshot with ``table`` advanced to ``version``."""
        versions = dict(self._versions)
        versions[table] = version
        return Snapshot(self.epoch + 1, versions)

    def without(self, table: Table) -> "Snapshot":
        """A new snapshot with ``table`` dropped (DROP TABLE)."""
        versions = dict(self._versions)
        versions.pop(table, None)
        return Snapshot(self.epoch + 1, versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Snapshot epoch={self.epoch} tables={len(self._versions)}>"
