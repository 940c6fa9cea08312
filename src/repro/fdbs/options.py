"""The engine and machine-runtime settings, in one frozen value.

A database holds one :class:`Options` and swaps in a validated copy on
``Database.configure(**changes)``; the servers and the scenario builder
take ``options`` plus keyword ``changes`` and hand the resolved object
down.  Each field's ``layer`` metadata names its reader: ``"planner"``
fields key cached plans (:attr:`Options.plan_key`), ``"engine"`` fields
only execution reads, and ``"machine"`` fields configure the machine's
warm pool, result cache and RMI channels.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.fdbs.storage import DEFAULT_CHUNK_SIZE
from repro.sysmodel.pool import DEFAULT_POOL_CAPACITY
from repro.sysmodel.result_cache import DEFAULT_RESULT_CACHE_CAPACITY

JOIN_STRATEGIES = ("auto", "hash", "merge", "indexnlj", "nlj")
MAX_CHUNK_SIZE = 1_048_576


def _planner(default):
    return field(default=default, metadata={"layer": "planner"})


def _machine(default):
    return field(default=default, metadata={"layer": "machine"})


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Options:
    """One validated set of engine and machine-runtime settings."""

    #: "row" (Volcano) or "columnar" (storage column chunks, vectorized
    #: expressions, hash joins and zone-map pruning).
    execution_mode: str = _planner("row")
    #: Rows per storage chunk / column batch (columnar mode).  None
    #: stands for DEFAULT_CHUNK_SIZE.
    chunk_size: int = field(default=DEFAULT_CHUNK_SIZE, metadata={"layer": "engine"})
    #: Zone-map chunk pruning (off only for the pruning ablation).
    zone_maps: bool = _planner(True)
    #: "syntactic" (FROM order as written) or "cost" (RUNSTATS-fed join
    #: reordering and bind joins; see repro.fdbs.optimizer).
    optimizer: str = _planner("syntactic")
    #: "auto" prices nlj/hash/merge/indexnlj per join under the cost
    #: optimizer; a named strategy forces it wherever types permit.
    join_strategy: str = _planner("auto")
    #: Build-side blowup past which a cost-rejected remote bind join
    #: abandons its ship-all fetch mid-query (None: no probe).
    adaptive_join: float | None = _planner(None)
    #: Predicate pushdown to remote SQL sources.
    pushdown: bool = _planner(True)
    #: Index probes for equality conjuncts on base tables.
    index_selection: bool = _planner(True)
    #: Warm runtime pool (and persistent RMI channels).
    pooling: bool = _machine(False)
    #: Memoizing result cache for deterministic table functions.
    result_cache: bool = _machine(False)
    pool_capacity: int = _machine(DEFAULT_POOL_CAPACITY)
    cache_capacity: int = _machine(DEFAULT_RESULT_CACHE_CAPACITY)
    #: Real wall-clock seconds slept per RMI hop (simulated time is
    #: never touched): the wire delay concurrent sessions overlap.
    rmi_wall_latency_s: float = _machine(0.0)

    def __post_init__(self) -> None:
        if self.chunk_size is None:
            object.__setattr__(self, "chunk_size", DEFAULT_CHUNK_SIZE)
        size, factor = self.chunk_size, self.adaptive_join
        if self.execution_mode not in ("row", "columnar"):
            raise ExecutionError(
                f"unknown execution mode {self.execution_mode!r}; "
                "expected 'row' or 'columnar'"
            )
        if not _integer(size):
            raise ExecutionError("chunk size must be an integer")
        if not 1 <= size <= MAX_CHUNK_SIZE:
            raise ExecutionError(f"chunk size {size} out of range (1..{MAX_CHUNK_SIZE})")
        if self.optimizer not in ("syntactic", "cost"):
            raise ExecutionError(
                f"unknown optimizer mode {self.optimizer!r}; "
                "expected 'syntactic' or 'cost'"
            )
        if self.join_strategy not in JOIN_STRATEGIES:
            expected = ", ".join(repr(name) for name in JOIN_STRATEGIES)
            raise ExecutionError(
                f"unknown join strategy {self.join_strategy!r}; expected one of {expected}"
            )
        if factor is not None and not (_number(factor) and factor > 1.0):
            raise ExecutionError(
                "adaptive join factor must exceed 1.0 (or be None to disable)"
            )
        for name in ("zone_maps", "pushdown", "index_selection", "pooling", "result_cache"):
            if not isinstance(getattr(self, name), bool):
                raise ExecutionError(f"{name} must be True or False")
        for what in ("pool", "cache"):
            capacity = getattr(self, f"{what}_capacity")
            if not (_integer(capacity) and capacity >= 1):
                raise ExecutionError(f"{what} capacity must be positive")
        if not (_number(self.rmi_wall_latency_s) and self.rmi_wall_latency_s >= 0.0):
            raise ExecutionError("RMI wall latency must be a non-negative number")

    @classmethod
    def resolve(cls, options: "Options | None" = None, **changes) -> "Options":
        """``options`` (default: every default) with ``changes`` applied:
        what every constructor taking ``options, **changes`` stores."""
        options = DEFAULT_OPTIONS if options is None else options
        return options.replace(**changes) if changes else options

    def replace(self, **changes) -> "Options":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    @functools.cached_property
    def plan_key(self) -> str:
        """Statement-cache namespace prefix: every planner-read field.

        Built once per object (an options object never changes), so the
        per-statement lookup reads one attribute."""
        return ".".join(f"{getattr(self, name)}" for name in _layer("planner"))

    def machine_changes(self, before: "Options") -> dict[str, object]:
        """The machine fields whose value differs from ``before``."""
        if self is before:
            return {}
        return {
            name: getattr(self, name)
            for name in _layer("machine")
            if getattr(self, name) != getattr(before, name)
        }


@functools.cache
def _layer(layer: str) -> tuple[str, ...]:
    """The names of the fields ``layer`` reads, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(Options) if f.metadata["layer"] == layer)


#: Every default (the paper's measured configuration).
DEFAULT_OPTIONS = Options()

__all__ = ["DEFAULT_OPTIONS", "JOIN_STRATEGIES", "Options"]
