"""The shard worker: one OS process owning isolated server shards.

Each worker process runs :func:`shard_worker_main`: a receive loop over
the wire protocol of :mod:`repro.serving.wire`.  For every
:class:`~repro.serving.wire.RunScript` frame it stamps a *fresh*
isolated :class:`~repro.core.server.IntegrationServer` (own Database,
Machine and VirtualClock) from the worker's
:class:`~repro.serving.template.SessionTemplate`, runs the script with
:func:`run_script` — through a :class:`~repro.serving.session
.ClientSession`, with its statement-level fault containment and MVCC
retries — and ships the picklable outcome back as a
:class:`~repro.serving.wire.ScriptDone`.

Because every session gets its own shard server stamped from the same
:class:`~repro.serving.template.ShardConfig`, a session's rows and
simulated times depend only on its own call sequence, never on which
shard the router picked: the cross-process parity suite demands they
match the bare single-process stack bit-for-bit at any shard count.

A script that raises is answered with ``ScriptFailed`` and the worker
keeps serving; only a hard kill (the fault battery's SIGKILL) or a
closed pipe ends the loop.
"""

from __future__ import annotations

import os
import signal

from repro.serving.session import ClientSession
from repro.serving.template import SessionTemplate, ShardConfig
from repro.serving.wire import (
    Hello,
    Ping,
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


def run_script(
    template: SessionTemplate, script: SessionScript
) -> tuple[ClientSession, list[float]]:
    """Run one script on a fresh server stamped from ``template``.

    This is the one code path that runs an isolated session.  Returns
    the closed session and the wall latency of each call, in seconds.
    """
    server = template.stamp(script.architecture, script.faults)
    session = ClientSession(script.session_id, script.architecture, server)
    latencies = session.run(script.calls)
    session.close()
    return session, latencies


def _script_done(
    request_id: int, session: ClientSession, latencies: list[float]
) -> ScriptDone:
    """Assemble the picklable outcome frame for one finished session."""
    return ScriptDone(
        request_id=request_id,
        session_id=session.session_id,
        row_sets=session.row_sets,
        call_sim_ms=[record.simulated_ms for record in session.records],
        simulated_ms=session.simulated_time,
        latencies=latencies,
        summary=session.summary(),
    )


def shard_worker_main(conn, shard_id: int, config: ShardConfig) -> None:
    """Entry point of a worker process: serve frames until shutdown.

    The loop answers ``RunScript`` with ``ScriptDone``/``ScriptFailed``,
    ``Ping`` with ``Pong`` and ``Shutdown`` with ``ShutdownAck`` (then
    exits).  Pipe frames are ordered, so a shutdown sent behind queued
    scripts drains them first.  SIGINT is ignored — a Ctrl-C against
    the router must not tear workers out from under the drain path.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Loads nothing yet: the first script's stamp builds what it shares.
    template = SessionTemplate(config)
    completed = 0
    send_frame(conn, Hello(shard_id=shard_id, pid=os.getpid()))
    while True:
        try:
            message = recv_frame(conn)
        except (EOFError, OSError):
            break
        if isinstance(message, RunScript):
            try:
                session, latencies = run_script(template, message.script)
            except Exception as exc:  # noqa: BLE001 - contained per script
                send_frame(
                    conn,
                    ScriptFailed(
                        request_id=message.request_id,
                        session_id=message.script.session_id,
                        error_kind=type(exc).__name__,
                        message=str(exc),
                    ),
                )
            else:
                completed += 1
                send_frame(
                    conn, _script_done(message.request_id, session, latencies)
                )
        elif isinstance(message, Ping):
            send_frame(conn, Pong(token=message.token, completed=completed))
        elif isinstance(message, Shutdown):
            send_frame(conn, ShutdownAck(completed=completed))
            break
        # Unknown-but-valid frames (e.g. a future router speaking new
        # optional messages) are ignored; the wire layer already
        # rejects anything outside the protocol vocabulary.
    conn.close()


__all__ = ["run_script", "shard_worker_main"]
