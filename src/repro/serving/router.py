"""Process-sharded serving: shortest-queue routing over OS workers.

:class:`ShardedIntegrationServer` serves isolated sessions: every
shard is a real OS process (:func:`~repro.serving.shard
.shard_worker_main`) that runs each session on its own stamped server
(:func:`~repro.serving.shard.run_script`), so CPU work and injected
wall latency both overlap across shards, where threads would top out
against the GIL.  (The thread-pool :class:`~repro.serving.server
.ConcurrentIntegrationServer` shares one server per architecture.)

The front end is a thin, selector-based event loop:

* **Routing** — each script goes to the alive shard with the fewest
  scripts pending, ties to the lowest shard id.  Every session is
  isolated, so placement never changes its rows or simulated times;
  the shard a script was sent to is recorded on its future
  (``future.shard_id``) and in ``shard_assignments``.
* **Admission** — the same :class:`~repro.serving.server
  .AdmissionController` bounds scripts in flight (block or reject).
* **Multiplexing** — one collector thread waits on every worker pipe
  *and* process sentinel with :func:`multiprocessing.connection.wait`
  (a selector under the hood), resolving per-script futures as
  :class:`~repro.serving.wire.ScriptDone` frames arrive.
* **Fault handling** — a dead worker (EOF, broken pipe, wire-protocol
  violation or sentinel) first has its already-buffered results
  drained, then every outstanding script on it fails with a clean,
  retryable :class:`~repro.errors.ShardCrashError`; nothing hangs and
  the process is reaped.  New scripts go to the live shards; only
  when none is alive does ``submit`` fail (retryably).
  ``respawn_shard`` brings the shard back into the routing.
* **Drain/shutdown** — ``shutdown()`` stops new admissions, waits for
  in-flight scripts, then sends ``Shutdown`` down each pipe; ordered
  frames make the worker drain its queue before acking and exiting.

Isolated shards make cross-process parity testable: rows and
per-session simulated times must match the bare single-process stack
bit-for-bit at any shard count (``tests/test_process_parity.py``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from multiprocessing.connection import wait as connection_wait

from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.errors import ServingError, ShardCrashError, WireProtocolError
from repro.fdbs.options import Options
from repro.serving.server import AdmissionController, WorkloadRunResult
from repro.serving.shard import shard_worker_main
from repro.serving.template import ShardConfig
from repro.serving.wire import (
    Hello,
    Pong,
    RunScript,
    ScriptDone,
    ScriptFailed,
    Shutdown,
    ShutdownAck,
    recv_frame,
    send_frame,
)
from repro.serving.workload import SessionScript
from repro.simtime.costs import CostModel


def _default_start_method() -> str:
    """Prefer fork (cheap, inherits the universe); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _ShardHandle:
    """Router-side state for one worker process (internal)."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.process = None
        self.conn = None
        self.pid: int | None = None
        self.alive = False
        self.ready = False
        self.completed = 0
        self.respawns = 0
        #: Bumped on every (re)spawn; stale pipe/sentinel events from a
        #: previous incarnation must never kill the current one.
        self.generation = 0
        self.death_cause: str | None = None
        self.pending: dict[int, Future] = {}


def _least_loaded(handles) -> _ShardHandle | None:
    """The alive shard with the fewest scripts pending, ties to the
    lowest shard id; None when no shard is alive."""
    return min(
        (handle for handle in handles if handle.alive),
        key=lambda handle: (len(handle.pending), handle.shard_id),
        default=None,
    )


class ShardedIntegrationServer:
    """Serve session scripts across N single-process server shards."""

    MODE = "process"

    def __init__(
        self,
        shards: int = 4,
        *,
        data: EnterpriseData | None = None,
        queue_limit: int | None = None,
        admission_policy: str = "block",
        start_method: str | None = None,
        costs: CostModel | None = None,
        controller_enabled: bool = True,
        heterogeneous: bool = False,
        setup_sql: tuple[str, ...] = (),
        options: Options | None = None,
        **changes,
    ):
        if shards < 1:
            raise ServingError(f"shards must be >= 1, got {shards!r}")
        self.shards = shards
        self.config = ShardConfig(
            data=data if data is not None else generate_enterprise_data(),
            costs=costs,
            controller_enabled=controller_enabled,
            heterogeneous=heterogeneous,
            setup_sql=tuple(setup_sql),
            options=Options.resolve(options, **changes),
        )
        self.admission = AdmissionController(
            capacity=shards,
            queue_limit=shards if queue_limit is None else queue_limit,
            policy=admission_policy,
        )
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._lock = threading.RLock()
        self._request_ids = itertools.count(1)
        self._closed = False
        #: Why the collector thread died, if it did: then nothing can
        #: resolve a future, so every later submit is refused.
        self._broken: str | None = None
        self._handles: dict[int, _ShardHandle] = {}
        for shard_id in range(shards):
            handle = _ShardHandle(shard_id)
            self._handles[shard_id] = handle
            self._start_worker(handle)
        self._collector_stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect_loop, name="shard-router", daemon=True
        )
        self._collector.start()

    # -- worker lifecycle ---------------------------------------------------

    def _start_worker(self, handle: _ShardHandle) -> None:
        """Fork/spawn one worker process behind a fresh duplex pipe."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, handle.shard_id, self.config),
            name=f"shard-{handle.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.pid = process.pid
        handle.alive = True
        handle.ready = False
        handle.generation += 1
        handle.death_cause = None
        handle.pending = {}

    def _mark_dead(
        self, handle: _ShardHandle, cause: str, generation: int
    ) -> None:
        """Reap a dead shard: drain buffered results, fail the rest.

        The incarnation's pipe, process and pending table are taken in
        the locked section that marks it dead, and the pipe and process
        are torn down before any future fails: a caller woken by a
        failed future may ``respawn_shard`` at once, and the new
        incarnation must find nothing of the old one still closing.
        """
        with self._lock:
            if not handle.alive or handle.generation != generation:
                return
            handle.alive = False
            handle.death_cause = cause
            conn, process, pending = handle.conn, handle.process, handle.pending
        # Results the worker flushed before dying are still in the pipe;
        # deliver them so only genuinely unfinished sessions fail.
        while True:
            try:
                if not conn.poll(0):
                    break
                message = recv_frame(conn)
            except (EOFError, OSError, WireProtocolError):
                break
            self._dispatch(handle, pending, message)
        try:
            conn.close()
        except OSError:
            pass
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=5.0)
        with self._lock:
            failed = list(pending.values())
            pending.clear()
        self._fail(
            failed,
            lambda: ShardCrashError(
                handle.shard_id,
                f"shard {handle.shard_id} died ({cause}) with the "
                "session outstanding; the script is retryable — "
                "respawn the shard and resubmit",
            ),
        )

    def _fail(self, futures: list[Future], error: Callable[[], Exception]) -> None:
        """Fail each future with a fresh ``error()`` and free its slot."""
        for future in futures:
            if future.set_running_or_notify_cancel():
                future.set_exception(error())
            self.admission.release()

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill one worker (SIGKILL) — the fault battery's hammer.

        Detection, draining of already-completed results and the
        failing of outstanding sessions all happen on the collector
        path, exactly as for a real crash.
        """
        handle = self._handle(shard_id)
        handle.process.kill()

    def respawn_shard(self, shard_id: int) -> None:
        """Bring a dead shard back; it takes new scripts at once."""
        handle = self._handle(shard_id)
        with self._lock:
            self._ensure_open()
            if handle.alive:
                raise ServingError(f"shard {shard_id} is still alive")
            handle.respawns += 1
            self._start_worker(handle)

    def _ensure_open(self) -> None:
        """Raise unless the server takes work (call under the lock)."""
        if self._closed:
            raise ServingError("server is shut down")
        if self._broken is not None:
            raise ServingError(self._broken)

    def _handle(self, shard_id: int) -> _ShardHandle:
        try:
            return self._handles[shard_id]
        except KeyError:
            raise ServingError(f"unknown shard id {shard_id}") from None

    # -- the selector loop --------------------------------------------------

    def _collect_loop(self) -> None:
        """Run the collector; if it ever raises, fail every outstanding
        script and refuse new ones rather than leave futures unresolved."""
        try:
            self._collect()
        except Exception as exc:
            with self._lock:
                self._broken = f"the router's collector thread failed: {exc!r}"
                failed = []
                for handle in self._handles.values():
                    failed.extend(handle.pending.values())
                    handle.pending.clear()

            def error() -> ServingError:
                # Chained, so whoever reads a failed future gets the
                # collector's traceback.
                error = ServingError(self._broken)
                error.__cause__ = exc
                return error

            self._fail(failed, error)

    def _collect(self) -> None:
        """Multiplex every worker pipe + process sentinel until stopped."""
        while not self._collector_stop.is_set():
            with self._lock:
                by_object = {}
                for handle in self._handles.values():
                    if handle.alive:
                        entry = (handle, handle.generation, handle.conn, handle.pending)
                        by_object[handle.conn] = entry
                        by_object[handle.process.sentinel] = entry
            if not by_object:
                time.sleep(0.01)
                continue
            for obj in connection_wait(list(by_object), timeout=0.05):
                handle, generation, conn, pending = by_object[obj]
                if obj is conn:
                    try:
                        message = recv_frame(conn)
                    except (EOFError, OSError, WireProtocolError) as exc:
                        self._mark_dead(
                            handle, f"pipe broke: {exc}", generation
                        )
                        continue
                    self._dispatch(handle, pending, message)
                else:
                    self._mark_dead(
                        handle, "worker process exited", generation
                    )

    def _dispatch(
        self, handle: _ShardHandle, pending: dict[int, Future], message: object
    ) -> None:
        """Resolve one worker frame against one incarnation's pending table."""
        if isinstance(message, Hello):
            handle.ready = True
            handle.pid = message.pid
        elif isinstance(message, ScriptDone):
            with self._lock:
                future = pending.pop(message.request_id, None)
                handle.completed += 1
            if future is not None:
                if future.set_running_or_notify_cancel():
                    future.set_result(message)
                self.admission.release()
        elif isinstance(message, ScriptFailed):
            with self._lock:
                future = pending.pop(message.request_id, None)
            if future is not None:
                if future.set_running_or_notify_cancel():
                    future.set_exception(
                        ServingError(
                            f"shard {handle.shard_id} failed the script "
                            f"for session {message.session_id}: "
                            f"{message.error_kind}: {message.message}"
                        )
                    )
                self.admission.release()
        elif isinstance(message, (Pong, ShutdownAck)):
            # Liveness / drain acks carry no future to resolve; the
            # shutdown path reads its ack synchronously off-collector.
            pass

    # -- submission ---------------------------------------------------------

    def submit(
        self, script: SessionScript, timeout: float | None = None
    ) -> Future:
        """Admit one script and send it to the alive shard with the
        fewest scripts pending (ties to the lowest shard id).

        Returns a future of ScriptDone whose ``shard_id`` names that
        shard.  ``submit`` raises a retryable
        :class:`~repro.errors.ShardCrashError` when no shard is alive.
        The future raises one if its shard dies first (respawn and
        resubmit), or :class:`~repro.errors.ServingError` if the script
        itself failed inside the worker.
        """
        with self._lock:
            self._ensure_open()
        self.admission.admit(timeout=timeout)
        future: Future = Future()
        try:
            with self._lock:
                self._ensure_open()
                handle = _least_loaded(self._handles.values())
                if handle is None:
                    raise ShardCrashError(
                        None, "every shard is dead; respawn_shard() first"
                    )
                request_id = next(self._request_ids)
                handle.pending[request_id] = future
                future.shard_id = handle.shard_id
                try:
                    send_frame(
                        handle.conn,
                        RunScript(request_id=request_id, script=script),
                    )
                except (OSError, ValueError) as exc:
                    handle.pending.pop(request_id, None)
                    raise ShardCrashError(
                        handle.shard_id,
                        f"shard {handle.shard_id} pipe rejected the "
                        f"script: {exc}",
                    ) from exc
        except BaseException:
            self.admission.release()
            raise
        return future

    def run_workload(
        self,
        scripts: list[SessionScript],
        join_timeout: float = 120.0,
    ) -> WorkloadRunResult:
        """Run every script across the shards; collect one result.

        Mirrors the thread server's ``run_workload`` contract: scripts
        run concurrently across sessions, strictly in order within
        each, and ``join_timeout`` bounds the wait for any one session
        so a wedged shard fails fast instead of hanging.
        """
        wall_start = time.perf_counter()
        futures = [
            self.submit(script, timeout=join_timeout) for script in scripts
        ]
        outcomes: list[ScriptDone] = [
            future.result(timeout=join_timeout) for future in futures
        ]
        wall_seconds = time.perf_counter() - wall_start
        latencies: list[float] = []
        for outcome in outcomes:
            latencies.extend(outcome.latencies)
        return WorkloadRunResult(
            workers=self.shards,
            mode=self.MODE,
            wall_seconds=wall_seconds,
            latencies=latencies,
            row_sets={o.session_id: o.row_sets for o in outcomes},
            simulated_ms={o.session_id: o.simulated_ms for o in outcomes},
            summaries={o.session_id: o.summary for o in outcomes},
            admission=self.admission.stats(),
            call_sim_ms={o.session_id: o.call_sim_ms for o in outcomes},
            shard_assignments={
                script.session_id: future.shard_id
                for script, future in zip(scripts, futures)
            },
        )

    # -- introspection & lifecycle ------------------------------------------

    def shard_stats(self) -> dict[int, dict]:
        """Per-shard counters: pid, liveness, completions, respawns."""
        with self._lock:
            return {
                shard_id: {
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "ready": handle.ready,
                    "completed": handle.completed,
                    "pending": len(handle.pending),
                    "respawns": handle.respawns,
                    "death_cause": handle.death_cause,
                }
                for shard_id, handle in sorted(self._handles.items())
            }

    def runtime_stats(self) -> dict[str, dict]:
        """Router-level stats: admission counters plus per-shard state."""
        return {
            "admission": self.admission.stats(),
            "shards": {
                f"shard_{sid}": stats for sid, stats in self.shard_stats().items()
            },
        }

    def drain(self, timeout: float = 60.0) -> None:
        """Block until no script is outstanding on any live shard."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                pending = [
                    future
                    for handle in self._handles.values()
                    for future in handle.pending.values()
                ]
            if not pending:
                return
            if time.monotonic() >= deadline:
                raise ServingError(
                    f"drain timed out with {len(pending)} scripts in flight"
                )
            pending[0].exception(timeout=max(0.0, deadline - time.monotonic()))

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful teardown: drain, stop workers, reap (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.drain(timeout=timeout)
        except ServingError:  # pragma: no cover - wedged-shard fallback
            pass
        self._collector_stop.set()
        self._collector.join(timeout=timeout)
        for handle in self._handles.values():
            if not handle.alive:
                continue
            try:
                send_frame(handle.conn, Shutdown())
                deadline = time.monotonic() + timeout
                while time.monotonic() < deadline:
                    if not handle.conn.poll(0.05):
                        continue
                    if isinstance(recv_frame(handle.conn), ShutdownAck):
                        break
            except (EOFError, OSError, WireProtocolError):
                pass
            handle.alive = False
        for handle in self._handles.values():
            if handle.process is None:
                continue
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ShardedIntegrationServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


__all__ = ["ShardedIntegrationServer"]
