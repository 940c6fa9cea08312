"""Warm runtime pool: reusable JVMs / fenced processes.

The paper's Fig. 6 attributes the bulk of per-federated-function latency
to process starts — a fresh JVM per WfMS activity program, a fenced
process hand-over per A-UDTF invocation.  The pool keeps a bounded set
of such runtimes *warm* after first use: a repeat invocation of the same
program (or A-UDTF) finds its runtime resident and pays a small warm
dispatch cost instead of the cold start.  Capacity is bounded and
eviction is LRU — an evicted runtime is cold again, exactly like a plan
falling out of the statement cache.

The pool charges nothing itself and opens no spans; callers ask
:meth:`WarmRuntimePool.acquire` whether the keyed runtime is warm, then
charge the cold or warm cost under the matching Fig. 6 span
(``Prepare A-UDTFs`` or ``Prepare A-UDTFs (warm)``).  With pooling off
every acquire is cold, so costs and spans are the cold path's exactly.
"""

from __future__ import annotations

import threading

DEFAULT_POOL_CAPACITY = 8
"""Default number of warm runtimes kept resident."""


class WarmRuntimePool:
    """Bounded LRU pool of warm runtime slots, keyed by runtime identity.

    Keys are free strings; the integration server uses
    ``"program:<id>"`` for WfMS activity programs and ``"audtf:<name>"``
    for fenced A-UDTF processes.  With ``enabled=False`` (the default)
    every :meth:`acquire` reports cold and keeps no slots — only the
    cold-start counter moves, which never touches the virtual clock, so
    the disabled pool is invisible to the cost accounting.
    """

    def __init__(self, capacity: int = DEFAULT_POOL_CAPACITY, enabled: bool = False):
        if capacity < 1:
            raise ValueError("pool capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self._slots: dict[str, int] = {}
        #: Guards slots and counters: concurrent sessions sharing one
        #: machine must not race the LRU pop/reinsert or lose counts.
        self._lock = threading.RLock()
        self.warm_hits = 0
        self.cold_starts = 0
        self.evictions = 0
        self.fault_evictions = 0

    def configure(
        self, enabled: bool | None = None, capacity: int | None = None
    ) -> None:
        """Enable/disable the pool and/or resize it.

        Shrinking evicts least-recently-used slots down to the new
        capacity; disabling empties the pool (nothing stays warm).
        """
        with self._lock:
            if capacity is not None:
                if capacity < 1:
                    raise ValueError("pool capacity must be positive")
                self.capacity = capacity
                while len(self._slots) > self.capacity:
                    self._evict_lru()
            if enabled is not None:
                self.enabled = enabled
                if not enabled:
                    self._slots.clear()

    def acquire(self, key: str) -> bool:
        """Whether the keyed runtime is warm; registers it either way.

        Returns True for a warm hit (LRU position refreshed) and False
        for a cold start (slot inserted, evicting the LRU slot when the
        pool is full).  A disabled pool always reports cold and keeps no
        slots, but still *counts* the cold starts it observes — the
        ablation experiments read the counter deltas to attribute
        start costs identically in both configurations.
        """
        with self._lock:
            if not self.enabled:
                self.cold_starts += 1
                return False
            if key in self._slots:
                self.warm_hits += 1
                self._slots.pop(key)
                self._slots[key] = 1  # move to MRU position
                return True
            self.cold_starts += 1
            if len(self._slots) >= self.capacity:
                self._evict_lru()
            self._slots[key] = 1
            return False

    def is_warm(self, key: str) -> bool:
        """Whether the keyed runtime is currently resident (no side effects)."""
        with self._lock:
            return self.enabled and key in self._slots

    def evict(self, key: str) -> bool:
        """Drop one slot because its runtime died (fault path).

        Returns whether the slot was resident.  Counted separately from
        capacity evictions so the fault experiments can tell crashed
        runtimes apart from LRU pressure.
        """
        with self._lock:
            if key in self._slots:
                del self._slots[key]
                self.fault_evictions += 1
                return True
            return False

    def _evict_lru(self) -> None:
        oldest = next(iter(self._slots))
        del self._slots[oldest]
        self.evictions += 1

    def contents(self) -> list[str]:
        """Resident slot keys, least recently used first."""
        with self._lock:
            return list(self._slots)

    def reset(self) -> None:
        """Evict everything — the machine has been rebooted."""
        with self._lock:
            self._slots.clear()

    def stats(self) -> dict[str, int]:
        """Warm-hit/cold-start/eviction counters plus size and capacity."""
        with self._lock:
            return {
                "warm_hits": self.warm_hits,
                "cold_starts": self.cold_starts,
                "evictions": self.evictions,
                "fault_evictions": self.fault_evictions,
                "size": len(self._slots),
                "capacity": self.capacity,
            }

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<WarmRuntimePool {state} {len(self._slots)}/{self.capacity}>"
