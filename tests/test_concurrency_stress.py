"""Stress suite: many sessions hammering one *shared* server stack.

The shared-state :class:`ConcurrentIntegrationServer` is the adversarial
configuration: every session of an architecture runs through one
:class:`IntegrationServer` — one clock, one warm pool, one result cache,
one statement cache, one pair of RMI channels — so correctness rests
entirely on the component locks and the statement-level serialization
of the FDBS.  The suite asserts:

* row correctness — every session's rows are bit-identical to the same
  script replayed on its own bare server (timings may interleave, rows
  not);
* counter conservation — interleaving-invariant totals (RMI hops,
  pool acquires, statement-cache lookups) are identical between a
  1-worker and an 8-worker run of the same workload: a lost or
  duplicated ``+=`` would break the equality;
* bounded-time joins — runs complete inside an explicit timeout, so a
  deadlock (e.g. a lock-ordering bug) fails fast instead of hanging;
* admission control — the block policy applies backpressure and the
  reject policy raises, with exact accounting;
* session lifecycle — a closed session leaves the registry, so one
  workload runs twice on one server.
"""

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.errors import AdmissionError
from repro.serving.server import (
    AdmissionController,
    ConcurrentIntegrationServer,
    SessionManager,
)
from repro.serving.session import ClientSession
from repro.serving.workload import make_workload

from tests.test_concurrent_parity import drive_bare

SEED = 8181
JOIN_TIMEOUT = 90.0


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


def run_shared(data, workers, seed=SEED, sessions=8, calls=6):
    scripts = make_workload(seed=seed, sessions=sessions, calls_per_session=calls)
    with ConcurrentIntegrationServer(
        workers=workers, data=data, pooling=True
    ) as server:
        result = server.run_workload(scripts, join_timeout=JOIN_TIMEOUT)
        stats = server.runtime_stats()
    return result, stats


class TestSharedServerStress:
    def test_rows_bit_identical_to_isolated_baseline(self, data):
        """Contention may reorder work, never change any session's rows:
        each equals its script replayed alone on a bare server."""
        expected = {
            script.session_id: drive_bare(data, script)[0]
            for script in make_workload(seed=SEED, sessions=8, calls_per_session=6)
        }
        result, _ = run_shared(data, workers=8)
        assert result.row_sets == expected
        assert result.calls == sum(len(rows) for rows in expected.values())

    def test_repeated_runs_are_stable(self, data):
        """Three fresh shared runs must agree row-for-row: zero flakes."""
        first, _ = run_shared(data, workers=8)
        for _ in range(2):
            again, _ = run_shared(data, workers=8)
            assert again.row_sets == first.row_sets

    def test_no_lost_or_duplicated_counter_updates(self, data):
        """Interleaving-invariant totals match between 1 and 8 workers.

        The same scripts do the same work whatever the interleaving, so
        per-architecture totals of RMI hops, pool acquires and
        statement-cache lookups are fixed; a torn ``+=`` under the
        8-worker run would make them diverge.  (Warm/cold and hit/miss
        *splits* legitimately depend on interleaving — only sums are
        compared.)
        """
        _, stats_seq = run_shared(data, workers=1)
        _, stats_conc = run_shared(data, workers=8)
        assert stats_seq.keys() == stats_conc.keys()
        for arch in stats_seq:
            seq, conc = stats_seq[arch], stats_conc[arch]
            for channel in ("rmi_udtf", "rmi_wfms"):
                assert conc[channel]["calls"] == seq[channel]["calls"], (
                    f"{arch}/{channel}: RMI hop count diverged under "
                    "concurrency"
                )
            pool_seq = seq["runtime_pool"]
            pool_conc = conc["runtime_pool"]
            assert (
                pool_conc["warm_hits"] + pool_conc["cold_starts"]
                == pool_seq["warm_hits"] + pool_seq["cold_starts"]
            ), f"{arch}: pool acquire total diverged under concurrency"

    def test_statement_cache_lookups_conserved(self, data):
        """hits + misses totals per architecture are interleaving-invariant."""

        def totals(workers):
            scripts = make_workload(seed=SEED, sessions=8, calls_per_session=6)
            with ConcurrentIntegrationServer(
                workers=workers, data=data
            ) as server:
                server.run_workload(scripts, join_timeout=JOIN_TIMEOUT)
                return {
                    arch.value: (
                        lambda s: s["hits"] + s["misses"]
                    )(srv.fdbs.statement_cache.stats())
                    for arch, srv in server._shared_servers.items()
                }

        assert totals(1) == totals(8)

    def test_bounded_join_and_no_deadlock(self, data):
        """A big mixed run completes within the join timeout — every
        worker returns, every call is accounted for."""
        scripts = make_workload(seed=SEED + 1, sessions=16, calls_per_session=8)
        expected_calls = sum(len(s.calls) for s in scripts)
        with ConcurrentIntegrationServer(
            workers=8, data=data, pooling=True, result_cache=True
        ) as server:
            result = server.run_workload(scripts, join_timeout=JOIN_TIMEOUT)
        assert result.calls == expected_calls
        assert result.admission["in_flight"] == 0
        assert result.admission["admitted"] == len(scripts)

    def test_many_threads_one_architecture_same_rows(self, data):
        """N raw threads × M calls against ONE shared server: every call
        returns the sequential answer."""
        with ConcurrentIntegrationServer(
            workers=4, data=data
        ) as server:
            shared = server._shared_server(Architecture.WFMS)
            expected = shared.call("GetNoSuppComp", "gearbox")
            threads, calls = 6, 5
            barrier = threading.Barrier(threads)

            def worker(index):
                barrier.wait(timeout=JOIN_TIMEOUT)
                return [
                    shared.call("GetNoSuppComp", "gearbox") for _ in range(calls)
                ]

            with ThreadPoolExecutor(max_workers=threads) as executor:
                futures = [executor.submit(worker, i) for i in range(threads)]
                for future in futures:
                    for rows in future.result(timeout=JOIN_TIMEOUT):
                        assert rows == expected


class TestAdmissionControl:
    def test_reject_policy_raises_when_full(self):
        controller = AdmissionController(capacity=1, queue_limit=1, policy="reject")
        controller.admit()
        controller.admit()
        with pytest.raises(AdmissionError):
            controller.admit()
        stats = controller.stats()
        assert stats["admitted"] == 2
        assert stats["rejected"] == 1
        controller.release()
        controller.admit()  # a freed slot admits again
        assert controller.stats()["admitted"] == 3

    def test_block_policy_applies_backpressure(self):
        controller = AdmissionController(capacity=1, queue_limit=0, policy="block")
        controller.admit()
        admitted_late = threading.Event()

        def blocked_submitter():
            controller.admit(timeout=JOIN_TIMEOUT)
            admitted_late.set()

        thread = threading.Thread(target=blocked_submitter)
        thread.start()
        assert not admitted_late.wait(timeout=0.2), (
            "the submitter got in while the controller was full"
        )
        controller.release()
        assert admitted_late.wait(timeout=JOIN_TIMEOUT)
        thread.join(timeout=JOIN_TIMEOUT)
        assert controller.stats()["blocked"] == 1

    def test_block_policy_times_out(self):
        controller = AdmissionController(capacity=1, policy="block")
        controller.admit()
        with pytest.raises(AdmissionError, match="timed out"):
            controller.admit(timeout=0.05)

    def test_release_without_admit_rejected(self):
        controller = AdmissionController(capacity=1)
        with pytest.raises(Exception):
            controller.release()

    def test_reject_workload_over_session_limit(self, data):
        """End to end: more scripts than admission slots under 'reject'."""
        scripts = make_workload(seed=SEED, sessions=6, calls_per_session=2)
        with ConcurrentIntegrationServer(
            workers=1,
            data=data,
            queue_limit=0,
            admission_policy="reject",
        ) as server:
            with pytest.raises(AdmissionError):
                server.run_workload(scripts, join_timeout=JOIN_TIMEOUT)


class TestSessionManager:
    def test_max_sessions_gate(self, data):
        manager = SessionManager(max_sessions=2)
        with ConcurrentIntegrationServer(
            workers=1, data=data
        ) as server:
            shared = server._shared_server(Architecture.WFMS)
            manager.register(ClientSession(0, Architecture.WFMS, shared))
            manager.register(ClientSession(1, Architecture.WFMS, shared))
            with pytest.raises(AdmissionError):
                manager.register(ClientSession(2, Architecture.WFMS, shared))
            manager.close(0)
            manager.register(ClientSession(3, Architecture.WFMS, shared))
            assert manager.open_count == 2
            assert manager.total_opened == 3

    def test_closed_sessions_leave_the_registry(self, data):
        """One read workload twice on one server: the second run's
        sessions reuse the first run's ids, and both equal bare."""
        scripts = [
            dataclasses.replace(script, calls=script.calls[1:])  # no scratch table
            for script in make_workload(
                seed=SEED, sessions=4, calls_per_session=4, dml_fraction=0.0
            )
        ]
        expected = {script.session_id: drive_bare(data, script)[0] for script in scripts}
        with ConcurrentIntegrationServer(workers=2, data=data) as server:
            for _ in range(2):
                result = server.run_workload(scripts, join_timeout=JOIN_TIMEOUT)
                assert result.row_sets == expected
                assert server.sessions.open_count == 0
                assert server.sessions._sessions == {}
            assert server.sessions.total_opened == 2 * len(scripts)

    def test_dml_workload_runs_twice_on_one_server(self, data):
        """Closing a session drops the scratch table it created, so one
        DML workload runs twice on one server with equal rows."""
        scripts = make_workload(seed=1, sessions=2, calls_per_session=6, dml_fraction=0.5)
        assert any(call.target.startswith("INSERT") for call in scripts[0].calls)
        expected = {script.session_id: drive_bare(data, script)[0] for script in scripts}
        with ConcurrentIntegrationServer(workers=2, data=data) as server:
            for _ in range(2):
                result = server.run_workload(scripts, join_timeout=JOIN_TIMEOUT)
                assert result.row_sets == expected
            for shared in server._shared_servers.values():
                for script in scripts:
                    assert not shared.fdbs.catalog.has_table(script.scratch_table)
