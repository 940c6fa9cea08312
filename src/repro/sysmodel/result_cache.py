"""Memoizing result cache for DETERMINISTIC local functions and UDTFs.

SkyQuery-style federated mediators win by caching remote results; this
cache does the same for the coupling hot path: a repeat invocation of a
DETERMINISTIC A-UDTF (or of a deterministic local function behind a
WfMS activity program) with equal arguments is served from integration-
server memory instead of paying the fenced-process, RMI and
application-system costs again.

Entries are keyed on the function identity plus *normalized* arguments
and namespaced per architecture and per execution mode, so a row-mode
run never serves a columnar-mode run (mirroring the statement cache's
per-mode namespacing).  Each entry is tagged with the *owner*
application system; any DML write through one system's local function
invalidates exactly that system's entries — across all namespaces — and
nothing else.  Hit/miss/eviction counters follow the
:class:`~repro.fdbs.session.StatementCache` convention.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

DEFAULT_RESULT_CACHE_CAPACITY = 512
"""Default number of memoized results kept resident."""

GLOBAL_OWNER = "_GLOBAL"
"""Owner tag for functions not backed by a specific application system."""


def normalize_args(args: tuple) -> tuple | None:
    """Normalize an argument tuple into a hashable cache key part.

    Numeric values compare across int/float representations (1 and 1.0
    hit the same entry) under *exact* numeric equivalence: large ints
    are never collapsed through float (2**53 and 2**53 + 1 stay
    distinct), and non-integral floats key on their exact binary value
    via :class:`~fractions.Fraction`.  Strings are kept case-sensitively
    (SQL string equality is case-sensitive).  Returns None when any
    argument is unhashable or is NaN (NaN never equals itself, so such
    invocations bypass the cache instead of piling up dead entries).
    """
    normalized: list[object] = []
    for value in args:
        if isinstance(value, bool):  # bool before int: True is not 1 here
            normalized.append(("b", value))
        elif isinstance(value, int):
            normalized.append(("n", value))
        elif isinstance(value, float):
            if math.isnan(value):
                return None
            if math.isinf(value):
                normalized.append(("n", value))
            elif value.is_integer():
                normalized.append(("n", int(value)))
            else:
                # Fraction(float) is exact, so 0.1 and the int/Fraction
                # it does NOT equal can never collide.
                normalized.append(("n", Fraction(value)))
        else:
            normalized.append(value)
    try:
        hash(tuple(normalized))
    except TypeError:
        return None
    return tuple(normalized)


class ResultCache:
    """LRU cache of (namespace, function, args) → result rows.

    With ``enabled=False`` (the default) every lookup misses without
    recording stats and every store is dropped, keeping the disabled
    cache invisible to both results and cost accounting.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_RESULT_CACHE_CAPACITY,
        enabled: bool = False,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        #: key -> (owner, rows)
        self._entries: dict[tuple, tuple[str, list[tuple]]] = {}
        #: Guards entries and counters against concurrent sessions: the
        #: LRU pop/reinsert on a hit must be atomic, and the counters are
        #: read-modify-write.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def configure(
        self, enabled: bool | None = None, capacity: int | None = None
    ) -> None:
        """Enable/disable the cache and/or resize it (shrink evicts LRU)."""
        with self._lock:
            if capacity is not None:
                if capacity < 1:
                    raise ValueError("cache capacity must be positive")
                self.capacity = capacity
                while len(self._entries) > self.capacity:
                    self._evict_lru()
            if enabled is not None:
                self.enabled = enabled
                if not enabled:
                    # Disabling drops every entry; account for them like any
                    # other bulk invalidation so stats stay conservation-true.
                    self.invalidations += len(self._entries)
                    self._entries.clear()

    @staticmethod
    def _key(namespace: str, function: str, args_key: tuple) -> tuple:
        # Function names are keyed exactly: the catalog preserves the
        # registered casing, and folding here made distinct runtime keys
        # (e.g. "audtf:Foo" vs "audtf:foo") share one entry.
        return (namespace, function, args_key)

    def get(
        self, namespace: str, function: str, args: tuple
    ) -> list[tuple] | None:
        """Cached rows for the invocation, or None (LRU refreshed on hit)."""
        if not self.enabled:
            return None
        args_key = normalize_args(args)
        if args_key is None:
            return None
        key = self._key(namespace, function, args_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.pop(key)
            self._entries[key] = entry  # move to MRU position
            return list(entry[1])

    def put(
        self,
        namespace: str,
        function: str,
        args: tuple,
        rows: list[tuple],
        owner: str | None = None,
    ) -> None:
        """Memoize the invocation's rows, tagged with the owning system."""
        if not self.enabled:
            return
        args_key = normalize_args(args)
        if args_key is None:
            return
        key = self._key(namespace, function, args_key)
        # Materialize the rows *before* touching the cache: if the rows
        # iterable raises mid-stream (e.g. an injected fault during the
        # fill), the previous entry must survive and no partial result
        # may ever be stored.
        entry = ((owner or GLOBAL_OWNER).upper(), list(rows))
        with self._lock:
            if key in self._entries:
                self._entries.pop(key)
            elif len(self._entries) >= self.capacity:
                self._evict_lru()
            self._entries[key] = entry

    def invalidate_owner(self, owner: str) -> int:
        """Drop every entry owned by one application system.

        Spans *all* namespaces: a write through the row-mode path must
        not leave stale columnar-mode (or other-architecture) entries
        behind.  Returns the number of entries dropped.
        """
        target = owner.upper()
        with self._lock:
            doomed = [
                key for key, (entry_owner, _) in self._entries.items()
                if entry_owner == target
            ]
            for key in doomed:
                del self._entries[key]
            if doomed:
                self.invalidations += len(doomed)
            return len(doomed)

    def invalidate(self) -> None:
        """Drop every cached entry (machine reboot / DDL)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def _evict_lru(self) -> None:
        oldest = next(iter(self._entries))
        del self._entries[oldest]
        self.evictions += 1

    def reset(self) -> None:
        """Forget everything without counting invalidations (reboot)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction/invalidation counters plus size and capacity."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<ResultCache {state} {len(self._entries)}/{self.capacity}>"
