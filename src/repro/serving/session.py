"""One client's view of the concurrent integration server.

A :class:`ClientSession` wraps an :class:`~repro.core.server
.IntegrationServer` — its *own* stamped server when
:func:`repro.serving.shard.run_script` runs it (own machine, own virtual
clock, own warm pool/caches), or a shared per-architecture server in
:class:`~repro.serving.server.ConcurrentIntegrationServer` — and gives
the client:

* a per-call log of rows and simulated elapsed time;
* statement-level fault containment: an injected fault that aborts one
  statement is recorded against that call and the session continues —
  it never poisons another session's channels, pool entries or cache
  namespaces (sessions on their own servers do not even share them).

Calls within one session are strictly sequential (the serving layer
drives each session from a single worker), so the session object itself
needs no locking beyond what the underlying stack provides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.architectures import Architecture
from repro.core.server import IntegrationServer
from repro.errors import (
    SessionClosedError,
    StatementAbortedError,
    WriteConflictError,
)
from repro.fdbs.session import Result
from repro.serving.workload import WorkloadCall

#: How many times a session re-drives a statement that lost a
#: first-writer-wins MVCC conflict before giving up and re-raising.
MAX_CONFLICT_RETRIES = 8


@dataclass
class CallRecord:
    """Outcome of one session call: rows, simulated time, fault state."""

    label: str
    rows: list[tuple] | None
    simulated_ms: float
    aborted: bool = False
    error: str | None = None


@dataclass
class SessionSummary:
    """Aggregate view of a finished (or running) session."""

    session_id: int
    architecture: str
    calls: int
    aborted: int
    simulated_ms: float
    rows_returned: int


class ClientSession:
    """One admitted client session routed through an integration server."""

    def __init__(
        self,
        session_id: int,
        architecture: Architecture,
        server: IntegrationServer,
    ):
        self.session_id = session_id
        self.architecture = architecture
        self.server = server
        self.records: list[CallRecord] = []
        self.closed = False
        self._start_time = server.machine.clock.now

    # -- invocation ---------------------------------------------------------

    def _ensure_open(self) -> None:
        if self.closed:
            raise SessionClosedError(
                f"session {self.session_id} is closed; no further calls "
                "may be routed through it"
            )

    def call(self, name: str, *args: object) -> list[tuple]:
        """Invoke a deployed federated function; logs rows and timing.

        A :class:`~repro.errors.StatementAbortedError` (the UDTF
        architectures' unrecovered-fault outcome) is *contained*: the
        abort is recorded against this call, ``None`` is returned, and
        the session stays usable — matching a real client that retries
        or moves on after a failed statement.
        """
        self._ensure_open()
        clock = self.server.machine.clock
        start = clock.now
        try:
            rows = self.server.call(name, *args)
        except StatementAbortedError as exc:
            self.records.append(
                CallRecord(
                    label=f"{name}{args!r}",
                    rows=None,
                    simulated_ms=clock.now - start,
                    aborted=True,
                    error=str(exc),
                )
            )
            return []
        self.records.append(
            CallRecord(
                label=f"{name}{args!r}",
                rows=rows,
                simulated_ms=clock.now - start,
            )
        )
        return rows

    def execute(self, sql: str, params: tuple = ()) -> Result:
        """Run one SQL statement through the session's FDBS (DML mix).

        A statement that loses an MVCC first-writer-wins conflict is
        retryable by definition (the error means "your snapshot is
        stale, pin a fresh one"), so the session re-drives it a bounded
        number of times before surfacing the conflict to the client.
        On a single worker no conflict can ever arise and this path is
        exactly one ``execute`` call.
        """
        self._ensure_open()
        clock = self.server.machine.clock
        start = clock.now
        fdbs = self.server.fdbs
        for attempt in range(MAX_CONFLICT_RETRIES + 1):
            try:
                result = fdbs.execute(sql, params=list(params))
                break
            except WriteConflictError:
                if attempt >= MAX_CONFLICT_RETRIES:
                    raise
                fdbs.note_conflict_retry()
        self.records.append(
            CallRecord(
                label=sql.split(None, 2)[0] if sql else "SQL",
                rows=list(result.rows),
                simulated_ms=clock.now - start,
            )
        )
        return result

    def perform(self, call: WorkloadCall) -> CallRecord:
        """Execute one workload step and return its record."""
        if call.kind == "call":
            self.call(call.target, *call.args)
        elif call.kind == "sql":
            self.execute(call.target, call.args)
        else:
            raise ValueError(f"unknown workload call kind {call.kind!r}")
        return self.records[-1]

    def run(self, calls: list[WorkloadCall]) -> list[float]:
        """Perform ``calls`` in order; returns each call's wall latency
        in seconds."""
        latencies: list[float] = []
        for call in calls:
            started = time.perf_counter()
            self.perform(call)
            latencies.append(time.perf_counter() - started)
        return latencies

    # -- introspection ------------------------------------------------------

    @property
    def simulated_time(self) -> float:
        """Total simulated time attributed to this session's calls."""
        return sum(record.simulated_ms for record in self.records)

    @property
    def row_sets(self) -> list[list[tuple] | None]:
        """Rows of every call, in order (None for aborted statements)."""
        return [record.rows for record in self.records]

    def summary(self) -> SessionSummary:
        """Aggregate counters for reports and stress assertions."""
        return SessionSummary(
            session_id=self.session_id,
            architecture=self.architecture.value,
            calls=len(self.records),
            aborted=sum(1 for r in self.records if r.aborted),
            simulated_ms=self.simulated_time,
            rows_returned=sum(
                len(r.rows) for r in self.records if r.rows is not None
            ),
        )

    def close(self) -> None:
        """Mark the session closed (idempotent)."""
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (
            f"<ClientSession {self.session_id} {self.architecture.value} "
            f"{state} calls={len(self.records)}>"
        )


__all__ = ["CallRecord", "ClientSession", "SessionSummary"]
