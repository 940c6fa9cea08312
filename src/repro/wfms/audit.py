"""Audit trail: ordered event log of workflow execution.

Production workflow systems persist an audit trail of every state
transition and archive or prune it; the reproduction keeps the most
recent :data:`AUDIT_CAPACITY` events in memory, so a long-running
integration server's trail stays bounded.  Events carry the virtual
timestamp, which the tests use to assert scheduling properties
(parallel activities share start times, loop iterations are ordered).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

#: Events a trail retains: the modelled retention limit.  A WfMS-coupled
#: federated call records about ten events, so this keeps the last
#: thousand or so calls, more than any test or experiment reads back.
AUDIT_CAPACITY = 10_000


@dataclass(frozen=True)
class AuditEvent:
    """One audit record."""

    timestamp: float
    process: str
    activity: str | None
    event: str
    detail: str = ""


class AuditTrail:
    """Audit event log, a ring buffer of the last :data:`AUDIT_CAPACITY`
    events.

    ``recorded`` counts every event ever recorded, so a reader can mark
    a point and read what came after it with :meth:`since`.
    """

    def __init__(self) -> None:
        self.events: deque[AuditEvent] = deque(maxlen=AUDIT_CAPACITY)
        self.recorded = 0

    def record(
        self,
        timestamp: float,
        process: str,
        event: str,
        activity: str | None = None,
        detail: str = "",
    ) -> None:
        """Append one audit event, dropping the oldest beyond capacity."""
        self.events.append(AuditEvent(timestamp, process, activity, event, detail))
        self.recorded += 1

    def since(self, mark: int) -> list[AuditEvent]:
        """Retained events recorded after ``recorded`` read ``mark``, in
        order (events already dropped are gone)."""
        dropped = self.recorded - len(self.events)
        return list(islice(self.events, max(mark - dropped, 0), None))

    def for_process(self, process: str) -> list[AuditEvent]:
        """Events of one process, in order."""
        return [e for e in self.events if e.process.upper() == process.upper()]

    def for_activity(self, activity: str) -> list[AuditEvent]:
        """Events of one activity, in order."""
        return [
            e
            for e in self.events
            if e.activity is not None and e.activity.upper() == activity.upper()
        ]

    def clear(self) -> None:
        """Drop all retained events."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)
