"""Concurrent multi-session front end for the integration server.

The paper's middle tier serves many client applications at once; the
single-caller :class:`~repro.core.server.IntegrationServer` models one
of them.  :class:`ConcurrentIntegrationServer` adds the serving story:

* a bounded worker pool (``workers`` threads) executes session scripts;
* an :class:`AdmissionController` applies backpressure — under the
  ``"block"`` policy a submitter waits for a slot, under ``"reject"``
  it gets an :class:`~repro.errors.AdmissionError`;
* a :class:`SessionManager` gates how many sessions may be open at once
  and holds the open ones.

Every session of an architecture runs through one integration server,
stamped once from the server's
:class:`~repro.serving.template.SessionTemplate`.  Sessions contend on
the real shared state — warm pool, result cache, statement cache, RMI
channels, clock — and correctness rests on the component locks.  Rows
stay deterministic (reads against static data, DML on session-private
scratch tables, dropped when their session closes); timings do not
(the clock interleaves).  This is the MVCC stress path.  Isolated
sessions, each on its own stamped server, run through
:func:`repro.serving.shard.run_script` in the process shards of
:class:`~repro.serving.router.ShardedIntegrationServer`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.server import IntegrationServer
from repro.errors import AdmissionError, ServingError
from repro.fdbs.options import Options
from repro.serving.session import ClientSession, SessionSummary
from repro.serving.template import SessionTemplate, ShardConfig
from repro.serving.workload import SessionScript
from repro.simtime.costs import CostModel


class AdmissionController:
    """Bounded admission with either backpressure or rejection.

    ``capacity`` in-flight units run at once; up to ``queue_limit`` more
    may be admitted and queued.  Beyond that, ``admit()`` blocks under
    the ``"block"`` policy (backpressure on the submitter) or raises
    :class:`~repro.errors.AdmissionError` under ``"reject"``.
    """

    def __init__(
        self,
        capacity: int,
        queue_limit: int = 0,
        policy: str = "block",
    ):
        if capacity < 1:
            raise ServingError(f"capacity must be >= 1, got {capacity!r}")
        if queue_limit < 0:
            raise ServingError(f"queue_limit must be >= 0, got {queue_limit!r}")
        if policy not in ("block", "reject"):
            raise ServingError(
                f"admission policy must be 'block' or 'reject', got {policy!r}"
            )
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.policy = policy
        self._cond = threading.Condition()
        self._in_flight = 0
        self.admitted = 0
        self.rejected = 0
        self.blocked = 0
        self.peak_in_flight = 0

    @property
    def limit(self) -> int:
        """Total units that may be admitted at once (running + queued)."""
        return self.capacity + self.queue_limit

    def admit(self, timeout: float | None = None) -> None:
        """Take one admission slot; blocks or raises when full."""
        with self._cond:
            if self._in_flight >= self.limit:
                if self.policy == "reject":
                    self.rejected += 1
                    raise AdmissionError(
                        f"admission refused: {self._in_flight} in flight "
                        f">= limit {self.limit} (policy 'reject')"
                    )
                self.blocked += 1
                deadline = None if timeout is None else time.monotonic() + timeout
                while self._in_flight >= self.limit:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise AdmissionError(
                            f"admission timed out after {timeout}s "
                            f"({self._in_flight} in flight >= limit {self.limit})"
                        )
                    self._cond.wait(remaining)
            self._in_flight += 1
            self.admitted += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)

    def release(self) -> None:
        """Return one admission slot and wake a blocked submitter."""
        with self._cond:
            if self._in_flight <= 0:
                raise ServingError("release() without a matching admit()")
            self._in_flight -= 1
            self._cond.notify()

    def stats(self) -> dict[str, int]:
        """Admission counters: capacity, in-flight, admitted/rejected/blocked."""
        with self._cond:
            return {
                "capacity": self.capacity,
                "queue_limit": self.queue_limit,
                "in_flight": self._in_flight,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "blocked": self.blocked,
                "peak_in_flight": self.peak_in_flight,
            }


class SessionManager:
    """Holds the open sessions and enforces the max-open-sessions gate."""

    def __init__(self, max_sessions: int = 64):
        if max_sessions < 1:
            raise ServingError(f"max_sessions must be >= 1, got {max_sessions!r}")
        self.max_sessions = max_sessions
        self._lock = threading.RLock()
        self._sessions: dict[int, ClientSession] = {}
        self.total_opened = 0

    def register(self, session: ClientSession) -> ClientSession:
        """Admit one session, enforcing the max-open-sessions gate."""
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise AdmissionError(
                    f"session limit reached: {self.max_sessions} open sessions"
                )
            if session.session_id in self._sessions:
                raise ServingError(
                    f"session id {session.session_id} is already registered"
                )
            self._sessions[session.session_id] = session
            self.total_opened += 1
            return session

    def close(self, session_id: int) -> None:
        """Close one session and drop it, freeing its slot at the gate
        (an id no longer open is ignored, so closing twice is safe)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                session.close()

    def close_all(self) -> None:
        """Close and drop every open session (shutdown path)."""
        with self._lock:
            for session in self._sessions.values():
                session.close()
            self._sessions.clear()

    @property
    def open_count(self) -> int:
        """How many sessions are currently open."""
        with self._lock:
            return len(self._sessions)


@dataclass
class WorkloadRunResult:
    """Everything a workload run produced, keyed by session id."""

    workers: int
    mode: str
    wall_seconds: float
    latencies: list[float]
    """Per-call wall-clock latency (seconds), submission order not
    guaranteed — use the percentiles, not positions."""
    row_sets: dict[int, list[list[tuple] | None]]
    simulated_ms: dict[int, float]
    summaries: dict[int, SessionSummary]
    admission: dict[str, int] = field(default_factory=dict)
    call_sim_ms: dict[int, list[float]] = field(default_factory=dict)
    """Per-call simulated times by session, in script order (the
    battery-through-serving suite compares these per statement)."""
    shard_assignments: dict[int, int] = field(default_factory=dict)
    """session id -> shard id (process-sharded runs only; empty for
    thread-pool runs, where every session shares one pool)."""

    @property
    def calls(self) -> int:
        """Total calls completed across every session."""
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        """Completed calls per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.calls / self.wall_seconds

    def latency_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of per-call wall latency, in seconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1))
        return ordered[rank]


class ConcurrentIntegrationServer:
    """Serve N client sessions over a bounded worker pool, one shared
    server per architecture."""

    MODE = "shared"

    def __init__(
        self,
        workers: int = 4,
        max_sessions: int = 64,
        queue_limit: int | None = None,
        admission_policy: str = "block",
        costs: CostModel | None = None,
        controller_enabled: bool = True,
        data: EnterpriseData | None = None,
        heterogeneous: bool = False,
        setup_sql: tuple[str, ...] = (),
        options: Options | None = None,
        **changes,
    ):
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers
        self.data = data if data is not None else generate_enterprise_data()
        #: Stamps the per-architecture servers.  ``heterogeneous``
        #: attaches the three heterogeneous source profiles;
        #: ``setup_sql`` runs on each server when it is stamped.
        #: ``options`` with ``changes`` applied configures every server
        #: (see ShardConfig).
        self.template = SessionTemplate(
            ShardConfig(
                data=self.data,
                costs=costs,
                controller_enabled=controller_enabled,
                heterogeneous=heterogeneous,
                setup_sql=tuple(setup_sql),
                options=Options.resolve(options, **changes),
            )
        )
        self.sessions = SessionManager(max_sessions=max_sessions)
        self.admission = AdmissionController(
            capacity=workers,
            queue_limit=workers if queue_limit is None else queue_limit,
            policy=admission_policy,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serving"
        )
        self._shared_lock = threading.RLock()
        self._shared_servers: dict[Architecture, IntegrationServer] = {}
        self._shutdown_lock = threading.Lock()
        self._closed = False

    # -- session plumbing ---------------------------------------------------

    def _shared_server(self, architecture: Architecture) -> IntegrationServer:
        with self._shared_lock:
            if architecture not in self._shared_servers:
                self._shared_servers[architecture] = self.template.stamp(
                    architecture
                )
            return self._shared_servers[architecture]

    def open_session(
        self,
        session_id: int,
        architecture: Architecture,
        faults: dict | None = None,
    ) -> ClientSession:
        """Open one client session on its architecture's shared server
        (sequential, in the caller's thread).  ``faults`` arms that
        server's fault harness, which every session behind it shares."""
        if self._closed:
            raise ServingError("server is shut down")
        server = self._shared_server(architecture)
        if faults:
            server.configure_faults(**faults)
        return self.sessions.register(
            ClientSession(session_id, architecture, server)
        )

    # -- workload execution -------------------------------------------------

    def _run_session(
        self, session: ClientSession, script: SessionScript
    ) -> list[float]:
        """Run one script to completion on a worker; returns latencies."""
        try:
            return session.run(script.calls)
        finally:
            self.admission.release()

    def run_workload(
        self,
        scripts: list[SessionScript],
        join_timeout: float = 120.0,
    ) -> WorkloadRunResult:
        """Run every session script; concurrently across sessions, in
        order within each.  ``join_timeout`` bounds the wait for any one
        session (a deadlock therefore fails fast instead of hanging).

        Accounting is exception-safe: whatever a script or the pool
        does, every admitted slot is released and every opened session
        closed before this method returns or re-raises — the admission
        and session gates always drain back to zero.
        """
        if self._closed:
            raise ServingError("server is shut down")
        sessions: list[ClientSession] = []
        futures = []
        try:
            for script in scripts:
                sessions.append(
                    self.open_session(
                        script.session_id, script.architecture, script.faults
                    )
                )
            wall_start = time.perf_counter()
            for session, script in zip(sessions, scripts):
                self.admission.admit(timeout=join_timeout)
                try:
                    futures.append(
                        self._executor.submit(self._run_session, session, script)
                    )
                except BaseException:
                    # submit() itself failed (e.g. pool shut down), so
                    # _run_session's finally will never release the slot.
                    self.admission.release()
                    raise
            latencies: list[float] = []
            for future in futures:
                latencies.extend(future.result(timeout=join_timeout))
            wall_seconds = time.perf_counter() - wall_start
            return WorkloadRunResult(
                workers=self.workers,
                mode=self.MODE,
                wall_seconds=wall_seconds,
                latencies=latencies,
                row_sets={s.session_id: s.row_sets for s in sessions},
                simulated_ms={s.session_id: s.simulated_time for s in sessions},
                summaries={s.session_id: s.summary() for s in sessions},
                admission=self.admission.stats(),
                call_sim_ms={
                    s.session_id: [r.simulated_ms for r in s.records]
                    for s in sessions
                },
            )
        finally:
            # A script that never started would leak its admission slot:
            # cancel it and release on its behalf; then wait out the
            # rest so their own finally-blocks have run before we report
            # the gates as drained.
            for future in futures:
                if future.cancel():
                    self.admission.release()
            for future in futures:
                if not future.cancelled():
                    try:
                        future.result(timeout=join_timeout)
                    except Exception:
                        pass
            for session, script in zip(sessions, scripts):
                self.sessions.close(session.session_id)
                # Free the shared FDBS of the session's scratch table, so
                # the next session with its id can create it again.
                fdbs = session.server.fdbs
                if fdbs.catalog.has_table(script.scratch_table):
                    fdbs.execute(f"DROP TABLE {script.scratch_table}")

    # -- introspection & lifecycle ------------------------------------------

    def runtime_stats(self) -> dict[str, dict]:
        """Runtime counters per shared architecture server."""
        with self._shared_lock:
            return {
                arch.value: server.machine.runtime_stats()
                for arch, server in self._shared_servers.items()
            }

    @property
    def closed(self) -> bool:
        """Whether the server has been shut down."""
        return self._closed

    def shutdown(self) -> None:
        """Drain and tear the server down (idempotent, thread-safe).

        New work is refused first, then the worker pool drains — every
        in-flight script finishes and releases its admission slot —
        and only then are the sessions closed, so a shutdown never
        poisons a running script with ``SessionClosedError``.  After
        return the admission gate is at zero in flight and no session
        is open.
        """
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)
        self.sessions.close_all()

    def __enter__(self) -> "ConcurrentIntegrationServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


__all__ = [
    "AdmissionController",
    "ConcurrentIntegrationServer",
    "SessionManager",
    "WorkloadRunResult",
]
