"""Concurrent multi-session serving layer.

The paper's integration server is a middle tier that many client
applications call at once.  This package adds that serving story on top
of the single-caller :class:`~repro.core.server.IntegrationServer`:

* :class:`~repro.serving.server.ConcurrentIntegrationServer` — accepts
  N client sessions on a bounded thread pool with admission control and
  backpressure, every session of an architecture sharing one server
  (the MVCC stress path);
* :class:`~repro.serving.session.ClientSession` — one client's view:
  a per-call log and statement-level fault containment;
* :mod:`~repro.serving.workload` — seeded, reproducible multi-client
  workloads (mixed architectures, read/DML mix) for the concurrency
  benchmark and the stress/parity suites;
* :class:`~repro.serving.router.ShardedIntegrationServer` — isolated
  serving: each session sent to the least-loaded of N OS worker
  processes (:mod:`~repro.serving.shard`), framed over the wire
  protocol of :mod:`~repro.serving.wire` with crash detection and
  respawn;
* :func:`~repro.serving.shard.run_script` — the one code path that
  runs an isolated session: a fresh server stamped from a
  :class:`~repro.serving.template.SessionTemplate` (shared parses,
  application systems loaded once per worker).
"""

from repro.serving.router import ShardedIntegrationServer
from repro.serving.server import (
    AdmissionController,
    ConcurrentIntegrationServer,
    SessionManager,
    WorkloadRunResult,
)
from repro.serving.session import CallRecord, ClientSession
from repro.serving.template import SessionTemplate, ShardConfig
from repro.serving.workload import (
    SessionScript,
    WorkloadCall,
    make_workload,
    supported_functions,
)

__all__ = [
    "AdmissionController",
    "CallRecord",
    "ClientSession",
    "ConcurrentIntegrationServer",
    "SessionManager",
    "SessionScript",
    "SessionTemplate",
    "ShardConfig",
    "ShardedIntegrationServer",
    "WorkloadCall",
    "WorkloadRunResult",
    "make_workload",
    "supported_functions",
]
