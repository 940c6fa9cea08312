"""Span recording for per-step latency breakdowns (Fig. 6).

Components open named spans around the work they charge to the virtual
clock; the recorder turns the resulting span tree into the flat
step-name → time-portion tables the paper prints.  Span names are free
strings; the Fig. 6 experiment maps them onto the paper's exact row
labels ("Start UDTF", "Process activities", ...).

Which recorder a span goes to is per-call state held in one place:
:data:`ACTIVE_RECORDER`.  ``IntegrationServer.call(trace=...)`` sets it
for the duration of the call, and every layer below it (fenced UDTF
runtime, RMI channels, controller, WfMS client and navigator) opens its
spans with :func:`maybe_span`, which reads it.  It is a context variable, so
it is per thread: a call runs start to finish in one thread, and
concurrent calls on a shared server never see each other's recorder.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.simtime.clock import VirtualClock


@dataclass
class Span:
    """A named interval of virtual time, possibly with children."""

    name: str
    start: float
    end: float | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed virtual time of the (closed) span."""
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    @property
    def self_duration(self) -> float:
        """Duration not covered by child spans."""
        return self.duration - sum(child.duration for child in self.children)

    def walk(self):
        """Yield this span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


class TraceRecorder:
    """Collects a forest of spans against a virtual clock.

    Open spans directly with :meth:`span`, or pass the recorder to
    ``IntegrationServer.call(trace=...)``: the call makes it the
    :data:`ACTIVE_RECORDER`, and the components' :func:`maybe_span`
    sites record into it.
    """

    def __init__(self, clock: VirtualClock):
        self._clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    class _SpanContext:
        def __init__(self, recorder: "TraceRecorder", name: str):
            self._recorder = recorder
            self._name = name
            self._span: Span | None = None

        def __enter__(self) -> Span:
            self._span = self._recorder._open(self._name)
            return self._span

        def __exit__(self, *exc) -> None:
            assert self._span is not None
            self._recorder._close(self._span)

    def span(self, name: str) -> "TraceRecorder._SpanContext":
        """Context manager recording one named span."""
        return TraceRecorder._SpanContext(self, name)

    def _open(self, name: str) -> Span:
        span = Span(name=name, start=self._clock.now)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(f"span {span.name!r} closed out of order")
        span.end = self._clock.now
        self._stack.pop()

    def add_leaf(self, name: str, start: float, end: float) -> Span:
        """Record a pre-timed leaf span (used by schedulers that compute
        branch times themselves under a frozen clock)."""
        span = Span(name=name, start=start, end=end)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    # -- aggregation ---------------------------------------------------------

    def totals_by_name(self) -> dict[str, float]:
        """Sum of *self* durations (excluding children) per span name."""
        totals: dict[str, float] = {}
        for root in self.roots:
            for span in root.walk():
                totals[span.name] = totals.get(span.name, 0.0) + span.self_duration
        return totals

    def total(self) -> float:
        """Sum of root span durations."""
        return sum(root.duration for root in self.roots)

    def portions(self) -> dict[str, float]:
        """Fractions of total time per span name (self durations)."""
        total = self.total()
        if total == 0:
            return {}
        return {name: t / total for name, t in self.totals_by_name().items()}


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()

#: The recorder of the call running in this thread, or ``None`` when it
#: is not traced.  Only ``IntegrationServer.call`` sets it (and resets it
#: in a ``finally``).
ACTIVE_RECORDER: ContextVar[TraceRecorder | None] = ContextVar(
    "active_recorder", default=None
)


def maybe_span(name: str):
    """Open a span on the active recorder, or do nothing (one lookup,
    no allocation) when the running call is not traced.

    Nothing is recorded either while this thread captures clock charges
    (:meth:`VirtualClock.capture`): captured work is not on the clock
    yet, and the WfMS critical-path scheduler records it as one
    ``Process activities`` leaf once it advances the clock.
    """
    recorder = ACTIVE_RECORDER.get()
    if recorder is None or recorder._clock.capturing:
        return _NULL_SPAN
    return recorder.span(name)
