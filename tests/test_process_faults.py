"""Process-fault battery: a dying shard must fail clean, not sick.

The contract when a worker process is SIGKILLed mid-workload:

* sessions on *surviving* shards complete unaffected, bit-identical to
  the bare stack;
* results the dead worker already flushed into its pipe are still
  delivered (completed work survives the crash);
* every genuinely unfinished session on the dead shard surfaces a
  *retryable* :class:`~repro.errors.ShardCrashError` promptly — no
  hangs;
* new submissions go to the live shards and equal the bare stack;
  only with every shard dead does ``submit`` itself raise that
  retryable error, at once;
* the dead process is reaped (no zombies/orphans), the router can
  respawn the shard, which then takes work again, and resubmitted
  sessions produce exactly the bare-stack outcome;
* admission accounting drains back to zero through all of it.

Deselected by default behind the ``proc`` marker.
"""

import multiprocessing
import threading
import time
from concurrent.futures import FIRST_EXCEPTION
from concurrent.futures import wait as wait_futures

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.errors import ServingError, ShardCrashError
from repro.serving import ShardedIntegrationServer
from repro.serving.workload import WorkloadCall, make_workload
from tests.test_process_parity import drive_bare

pytestmark = pytest.mark.proc

SEED = 7
SHARDS = 3
SESSIONS = 9
CALLS = 6
JOIN_TIMEOUT = 90.0


def scripts():
    return make_workload(seed=SEED, sessions=SESSIONS, calls_per_session=CALLS)


def busiest_shard(futures):
    """The shard the router sent the most of these scripts to."""
    counts = {shard: 0 for shard in range(SHARDS)}
    for future in futures.values():
        counts[future.shard_id] += 1
    return max(counts, key=lambda shard: (counts[shard], -shard))


def wait_until_dead(server, shard_id):
    """Block until the router has reaped a killed shard."""
    deadline = time.monotonic() + JOIN_TIMEOUT
    while server.shard_stats()[shard_id]["alive"]:
        assert time.monotonic() < deadline, "the router never saw the kill"
        time.sleep(0.005)


def assert_bare(data, script, outcome):
    """A served outcome equals the bare single-caller stack."""
    rows, call_sims, total = drive_bare(data, script)
    assert outcome.row_sets == rows
    assert outcome.call_sim_ms == call_sims
    assert outcome.simulated_ms == total


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


def test_kill_mid_workload_contains_the_blast_radius(data):
    workload = scripts()
    with ShardedIntegrationServer(
        shards=SHARDS, data=data, queue_limit=SESSIONS
    ) as server:
        futures = {s.session_id: server.submit(s, timeout=JOIN_TIMEOUT) for s in workload}
        victim = busiest_shard(futures)
        victims = [sid for sid, f in futures.items() if f.shard_id == victim]
        assert len(victims) >= 2, "workload must put several sessions on the victim"
        # Wait until the victim is demonstrably mid-workload (it has
        # completed at least one script and still owes more), then kill.
        deadline = time.monotonic() + JOIN_TIMEOUT
        while server.shard_stats()[victim]["completed"] < 1:
            assert time.monotonic() < deadline, "victim never started working"
            time.sleep(0.005)
        server.kill_shard(victim)

        survivors, crashed = [], []
        for session_id, future in futures.items():
            exc = future.exception(timeout=JOIN_TIMEOUT)  # promptly: no hangs
            if exc is None:
                survivors.append(session_id)
            else:
                assert isinstance(exc, ShardCrashError), exc
                assert exc.retryable, "a shard crash must be retryable"
                assert exc.shard_id == victim
                crashed.append(session_id)

        # Only victim sessions may crash; every survivor shard finished all.
        assert all(futures[s].shard_id == victim for s in crashed)
        assert crashed, "the kill landed after the victim drained everything"
        for session_id in survivors:
            done = futures[session_id].result()
            assert len(done.row_sets) == CALLS + 1  # CREATE TABLE + calls
            assert all(rows is not None for rows in done.row_sets)

        stats = server.shard_stats()[victim]
        assert not stats["alive"]
        assert stats["pending"] == 0, "dead shard still holds pending futures"
        assert stats["death_cause"] is not None

        # Respawn: the crashed sessions rerun to completion and the
        # router is whole again.
        server.respawn_shard(victim)
        redo = [s for s in workload if s.session_id in crashed]
        redone = [server.submit(s, timeout=JOIN_TIMEOUT) for s in redo]
        for script, future in zip(redo, redone):
            done = future.result(timeout=JOIN_TIMEOUT)
            assert done.session_id == script.session_id
            assert len(done.row_sets) == len(script.calls)
        assert server.shard_stats()[victim]["respawns"] == 1

        # Admission drained: nothing in flight once all futures resolved.
        assert server.admission.stats()["in_flight"] == 0
    # Shutdown reaped everything: no orphaned worker processes remain.
    assert not multiprocessing.active_children()
    for stats in server.shard_stats().values():
        assert not stats["alive"]


def test_new_work_runs_on_live_shards_until_none_is_left(data):
    """A dead shard takes no new work: submissions run on a live shard
    and equal the bare stack, fail at once (retryable) only when every
    shard is dead, and a respawned shard takes work again."""
    workload = make_workload(seed=SEED, sessions=4, calls_per_session=CALLS)
    with ShardedIntegrationServer(shards=2, data=data, queue_limit=4) as server:
        server.kill_shard(1)
        wait_until_dead(server, 1)
        futures = [server.submit(s, timeout=JOIN_TIMEOUT) for s in workload[:3]]
        assert [future.shard_id for future in futures] == [0, 0, 0]
        for script, future in zip(workload, futures):
            assert_bare(data, script, future.result(timeout=JOIN_TIMEOUT))

        server.kill_shard(0)
        wait_until_dead(server, 0)
        started = time.monotonic()
        with pytest.raises(ShardCrashError) as raised:
            server.submit(workload[3], timeout=JOIN_TIMEOUT)
        assert time.monotonic() - started < 1.0, "submit must fail at once"
        assert raised.value.retryable and raised.value.shard_id is None
        assert server.admission.stats()["in_flight"] == 0

        server.respawn_shard(1)
        future = server.submit(workload[3], timeout=JOIN_TIMEOUT)
        assert future.shard_id == 1
        assert_bare(data, workload[3], future.result(timeout=JOIN_TIMEOUT))
        assert server.shard_stats()[1]["completed"] == 1
        assert server.admission.stats()["in_flight"] == 0
    assert not multiprocessing.active_children()


def test_respawn_from_the_woken_caller_keeps_the_new_worker(data, monkeypatch):
    """A caller woken by a crashed session respawns the shard at once.

    The dead incarnation's teardown must not reach the new one: its
    pipe must stay open and its process alive.  The window is forced
    open by stalling the router's collector thread after it frees the
    first crashed session's admission slot.
    """
    workload = make_workload(seed=SEED, sessions=8, calls_per_session=CALLS)
    with ShardedIntegrationServer(
        shards=1, data=data, queue_limit=len(workload)
    ) as server:
        killed = threading.Event()
        stalled = threading.Event()
        release = server.admission.release

        def stalling_release():
            release()
            if (
                killed.is_set()
                and threading.current_thread() is server._collector
                and not stalled.is_set()
            ):
                stalled.set()
                time.sleep(0.3)

        monkeypatch.setattr(server.admission, "release", stalling_release)
        futures = {s.session_id: server.submit(s, timeout=JOIN_TIMEOUT) for s in workload}
        deadline = time.monotonic() + JOIN_TIMEOUT
        while server.shard_stats()[0]["completed"] < 1:
            assert time.monotonic() < deadline, "the shard never started working"
            time.sleep(0.005)
        killed.set()
        server.kill_shard(0)

        # The woken caller: respawn as soon as the first session fails.
        done, _ = wait_futures(
            futures.values(), timeout=JOIN_TIMEOUT, return_when=FIRST_EXCEPTION
        )
        assert any(f.exception() is not None for f in done), "no session crashed"
        server.respawn_shard(0)
        crashed = [
            script
            for script in workload
            if futures[script.session_id].exception(timeout=JOIN_TIMEOUT) is not None
        ]
        assert stalled.is_set(), "the collector never failed a session"
        for script in crashed:
            assert isinstance(futures[script.session_id].exception(), ShardCrashError)

        redone = [server.submit(s, timeout=JOIN_TIMEOUT) for s in crashed]
        for script, future in zip(crashed, redone):
            assert_bare(data, script, future.result(timeout=30.0))  # no hang
        stats = server.shard_stats()[0]
        assert stats["alive"] and stats["respawns"] == 1
        assert server.admission.stats()["in_flight"] == 0
    assert not multiprocessing.active_children()


def test_a_failing_collector_fails_pending_scripts_and_refuses_new_ones(
    data, monkeypatch
):
    """If the router's one collector thread raises, no future is left
    waiting for it and no later submit is accepted."""
    workload = make_workload(seed=3, sessions=2, calls_per_session=2)
    with ShardedIntegrationServer(shards=1, data=data, queue_limit=4) as server:
        deadline = time.monotonic() + JOIN_TIMEOUT
        while not server.shard_stats()[0]["ready"]:  # its Hello is dispatched
            assert time.monotonic() < deadline, "the shard never said hello"
            time.sleep(0.005)

        def broken_dispatch(handle, pending, message):
            raise RuntimeError("collector bug")

        monkeypatch.setattr(server, "_dispatch", broken_dispatch)
        future = server.submit(workload[0], timeout=JOIN_TIMEOUT)
        exc = future.exception(timeout=JOIN_TIMEOUT)
        assert isinstance(exc, ServingError) and "collector bug" in str(exc)
        assert isinstance(exc.__cause__, RuntimeError)
        assert not isinstance(exc, ShardCrashError)
        with pytest.raises(ServingError, match="collector"):
            server.submit(workload[1], timeout=JOIN_TIMEOUT)
        assert server.admission.stats()["in_flight"] == 0
    assert not multiprocessing.active_children()


def test_respawn_requires_a_dead_shard(data):
    with ShardedIntegrationServer(shards=2, data=data) as server:
        with pytest.raises(ServingError):
            server.respawn_shard(0)
        with pytest.raises(ServingError):
            server.respawn_shard(99)


def test_worker_survives_a_failing_script(data):
    """A script that raises inside the worker fails only that script."""
    workload = make_workload(seed=3, sessions=2, calls_per_session=2)
    bogus = workload[0]
    bogus.calls.append(WorkloadCall("bogus-kind", "nope"))
    with ShardedIntegrationServer(
        shards=1, data=data, queue_limit=4
    ) as server:
        bad = server.submit(bogus, timeout=JOIN_TIMEOUT)
        good = server.submit(workload[1], timeout=JOIN_TIMEOUT)
        exc = bad.exception(timeout=JOIN_TIMEOUT)
        assert isinstance(exc, ServingError)
        assert not isinstance(exc, ShardCrashError)
        assert "bogus-kind" in str(exc)
        done = good.result(timeout=JOIN_TIMEOUT)
        assert len(done.row_sets) == len(workload[1].calls)
        assert server.shard_stats()[0]["alive"], "worker must survive"
        assert server.admission.stats()["in_flight"] == 0
    assert not multiprocessing.active_children()


def test_shutdown_is_idempotent_and_graceful(data):
    server = ShardedIntegrationServer(shards=2, data=data)
    result = server.run_workload(
        make_workload(seed=5, sessions=4, calls_per_session=2),
        join_timeout=JOIN_TIMEOUT,
    )
    assert result.calls == 4 * 3
    server.shutdown()
    server.shutdown()  # second call is a no-op
    with pytest.raises(ServingError):
        server.submit(make_workload(seed=5, sessions=1)[0])
    assert server.admission.stats()["in_flight"] == 0
    assert not multiprocessing.active_children()
