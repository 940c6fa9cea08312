"""A deterministic, monotonically advancing virtual clock.

All simulated latencies in the reproduction are expressed in *simulated
milliseconds* (``su`` in DESIGN.md) charged against one shared clock.
Components never sleep; they call :meth:`VirtualClock.advance`.

The clock also supports *captures* and *frozen sections*, used by the
workflow engine's critical-path scheduler: it measures each activity's
cost without moving the clock, computes branch finish times itself and
then advances the shared clock once by the makespan.  Spans of the
trace recorder (:mod:`repro.simtime.trace`) only read :attr:`now`.

Advances are atomic: concurrent sessions of the serving layer may share
one machine (and thus one clock), and ``_now += delta`` is a
read-modify-write that would lose updates without the internal lock.
Captures and frozen sections are **per-thread**: each serving worker
navigating a workflow on a shared machine gets its own capture/freeze
state, so one thread's critical-path accounting never swallows another
thread's advances (and concurrent captures don't collide as "nested").
"""

from __future__ import annotations

import threading

from repro.errors import ClockError


class _ThreadState(threading.local):
    """Per-thread capture/freeze state of one clock."""

    def __init__(self):
        self.frozen = 0
        self.capture: "ClockCapture | None" = None


class VirtualClock:
    """Monotonic virtual clock measured in simulated milliseconds."""

    def __init__(self, start: float = 0.0, jitter=None):
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)
        self._local = _ThreadState()
        self._lock = threading.RLock()
        #: Optional JitterSource applied to every advance() delta —
        #: deterministic measurement noise for the averaging paths.
        self.jitter = jitter

    @property
    def now(self) -> float:
        """Current virtual time in simulated milliseconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Advance the clock by ``delta`` ms and return the new time.

        Raises :class:`~repro.errors.ClockError` for negative deltas and
        ignores advances while the calling thread holds a frozen section
        (the freezer is accounting for the time itself).  While the
        calling thread has a capture active the delta accumulates into
        the capture instead of moving the clock.
        """
        if delta < 0:
            raise ClockError(f"cannot advance clock by negative delta {delta!r}")
        local = self._local
        with self._lock:
            if self.jitter is not None and delta > 0:
                delta = self.jitter.jitter(delta)
            if local.capture is not None:
                local.capture.total += delta
                return self._now
            if local.frozen:
                return self._now
            self._now += delta
            return self._now

    @property
    def capturing(self) -> bool:
        """True while the calling thread has a capture active."""
        return self._local.capture is not None

    def capture_total(self) -> float:
        """Accumulated total of this thread's active capture (0.0 when none)."""
        capture = self._local.capture
        return capture.total if capture is not None else 0.0

    def capture(self) -> "ClockCapture":
        """Context manager measuring cost without advancing the clock.

        Used by the workflow navigator: each activity's execution cost is
        captured, branch finish times are computed with critical-path
        scheduling, and the clock is advanced once by the makespan —
        which is how parallel activities overlap in virtual time.
        Captures cannot nest (within one thread).
        """
        return ClockCapture(self)

    def advance_to(self, when: float) -> float:
        """Advance the clock to absolute time ``when`` (never backwards)."""
        with self._lock:
            if when < self._now:
                raise ClockError(
                    f"cannot move clock backwards from {self._now!r} to {when!r}"
                )
            if not self._local.frozen:
                self._now = when
            return self._now

    # -- frozen sections ---------------------------------------------------

    def freeze(self) -> None:
        """Suspend this thread's implicit advances (re-entrant)."""
        self._local.frozen += 1

    def unfreeze(self) -> None:
        """Re-enable this thread's implicit advances."""
        if self._local.frozen == 0:
            raise ClockError("unfreeze() without matching freeze()")
        self._local.frozen -= 1

    @property
    def frozen(self) -> bool:
        """True while the calling thread holds a frozen section."""
        return self._local.frozen > 0

    class _FrozenSection:
        def __init__(self, clock: "VirtualClock"):
            self._clock = clock

        def __enter__(self) -> "VirtualClock":
            self._clock.freeze()
            return self._clock

        def __exit__(self, *exc) -> None:
            self._clock.unfreeze()

    def frozen_section(self) -> "VirtualClock._FrozenSection":
        """Context manager during which ``advance()`` calls are no-ops.

        Used by schedulers that account for elapsed time themselves (e.g.
        parallel workflow branches) while still executing real component
        code that would otherwise double-charge the clock.
        """
        return VirtualClock._FrozenSection(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " frozen" if self._local.frozen else ""
        return f"<VirtualClock now={self._now:.3f}{state}>"


class ClockCapture:
    """Accumulates suppressed clock advances; see VirtualClock.capture."""

    def __init__(self, clock: VirtualClock):
        self._clock = clock
        self.total = 0.0

    def __enter__(self) -> "ClockCapture":
        local = self._clock._local
        if local.capture is not None:
            raise ClockError("clock captures cannot nest")
        local.capture = self
        return self

    def __exit__(self, *exc) -> None:
        self._clock._local.capture = None
