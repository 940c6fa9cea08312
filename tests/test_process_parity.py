"""Cross-process parity: shard count must never change results.

The process-sharded server sends each session to the OS worker process
with the fewest scripts pending; every session gets its own isolated server
shard (own Database, Machine, VirtualClock), now built inside the
worker.  Isolation makes the parity contract exact across the process
boundary: a session's result rows AND its per-session simulated times
must be bit-identical to the bare single-process stack — and therefore
to each other — at shard counts 1, 2 and 4, across all four
architectures.  Pickling the outcomes over the wire must not perturb a
single bit.

These tests spawn real OS processes and are deselected by default
behind the ``proc`` marker (run with ``-m proc``; the
``process-serving`` CI job and ``scripts/check_parity.sh`` select it).
"""

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.errors import StatementAbortedError
from repro.serving import ShardedIntegrationServer
from repro.serving.workload import DEFAULT_ARCHITECTURES, make_workload

pytestmark = pytest.mark.proc

SEED = 20260809
SESSIONS = 8  # two sessions per architecture (round-robin over all 4)
CALLS = 4
SHARD_COUNTS = (1, 2, 4)


def scripts():
    return make_workload(seed=SEED, sessions=SESSIONS, calls_per_session=CALLS)


def drive_bare(data, script):
    """The pre-serving path: one bare single-caller server per script."""
    server = build_scenario(script.architecture, data=data).server
    if script.faults:
        server.configure_faults(**script.faults)
    rows, call_sims = [], []
    for call in script.calls:
        before = server.machine.clock.now
        if call.kind == "call":
            try:
                rows.append(server.call(call.target, *call.args))
            except StatementAbortedError:
                rows.append(None)
        else:
            result = server.fdbs.execute(call.target, params=list(call.args))
            rows.append(list(result.rows))
        call_sims.append(server.machine.clock.now - before)
    # Sum the deltas rather than subtracting clock endpoints: that is
    # the exact float sum a ClientSession reports as simulated_time.
    return rows, call_sims, sum(call_sims)


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


@pytest.fixture(scope="module")
def bare(data):
    """Bare-stack baseline, computed once: rows/per-call/total by session."""
    outcomes = {}
    for script in scripts():
        outcomes[script.session_id] = drive_bare(data, script)
    return outcomes


@pytest.fixture(scope="module")
def process_runs(data):
    """One sharded run per shard count over the identical workload."""
    runs = {}
    for shards in SHARD_COUNTS:
        with ShardedIntegrationServer(
            shards=shards, data=data, queue_limit=SESSIONS
        ) as server:
            runs[shards] = server.run_workload(scripts())
    return runs


def test_workload_covers_every_architecture():
    used = {script.architecture for script in scripts()}
    assert used == set(DEFAULT_ARCHITECTURES)
    assert len(used) == 4


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_process_mode_bit_identical_to_bare_stack(process_runs, bare, shards):
    """Rows, per-call and total simulated times: exact at every count."""
    result = process_runs[shards]
    assert set(result.row_sets) == set(bare)
    for session_id, (rows, call_sims, total) in bare.items():
        assert result.row_sets[session_id] == rows, (
            f"shards={shards} session {session_id}: rows diverge from bare"
        )
        assert result.call_sim_ms[session_id] == call_sims, (
            f"shards={shards} session {session_id}: per-call times diverge"
        )
        assert result.simulated_ms[session_id] == total, (
            f"shards={shards} session {session_id}: total time diverges"
        )


def test_shard_counts_bit_identical_to_each_other(process_runs):
    one = process_runs[SHARD_COUNTS[0]]
    for shards in SHARD_COUNTS[1:]:
        other = process_runs[shards]
        assert other.row_sets == one.row_sets
        assert other.simulated_ms == one.simulated_ms
        assert other.call_sim_ms == one.call_sim_ms


def test_placement_is_total(process_runs):
    """Every session is placed exactly once, on a real shard."""
    session_ids = [script.session_id for script in scripts()]
    assert sorted(session_ids) == list(range(SESSIONS))
    for shards, result in process_runs.items():
        assert sorted(result.shard_assignments) == session_ids
        assert all(0 <= s < shards for s in result.shard_assignments.values())


def test_sessions_spread_over_both_shards(data, bare):
    """Sessions 1, 3, 5 and 6 all hash to shard 0 on a two-shard
    consistent-hash ring; placed by pending scripts, both shards run
    some of them, and each still equals the bare stack."""
    picked = [s for s in scripts() if s.session_id in (1, 3, 5, 6)]
    with ShardedIntegrationServer(shards=2, data=data, queue_limit=4) as server:
        result = server.run_workload(picked)
    assert sorted(result.shard_assignments) == [1, 3, 5, 6]
    assert set(result.shard_assignments.values()) == {0, 1}
    for session_id in result.shard_assignments:
        rows, call_sims, total = bare[session_id]
        assert result.row_sets[session_id] == rows
        assert result.call_sim_ms[session_id] == call_sims
        assert result.simulated_ms[session_id] == total


def test_no_session_loses_or_duplicates_calls(process_runs):
    expected = {s.session_id: len(s.calls) for s in scripts()}
    for result in process_runs.values():
        assert {sid: len(r) for sid, r in result.row_sets.items()} == expected
        assert result.calls == sum(expected.values())


def test_summaries_cross_the_wire_intact(process_runs, bare):
    for result in process_runs.values():
        for session_id, summary in result.summaries.items():
            rows, _, total = bare[session_id]
            assert summary.session_id == session_id
            assert summary.calls == len(rows)
            assert summary.simulated_ms == total
            assert summary.rows_returned == sum(
                len(r) for r in rows if r is not None
            )


def test_second_pass_on_the_same_shards_equals_first_and_bare(data, bare):
    """Each shard's template keeps the plans its sessions built, and a
    second-pass session adopts whichever of them its shard holds, on
    whichever shard it lands: bit-identical to the first pass and to
    the bare stack."""
    with ShardedIntegrationServer(shards=2, data=data, queue_limit=SESSIONS) as server:
        first = server.run_workload(scripts())
        second = server.run_workload(scripts())
    for result in (first, second):
        for session_id, (rows, call_sims, total) in bare.items():
            assert result.row_sets[session_id] == rows
            assert result.call_sim_ms[session_id] == call_sims
            assert result.simulated_ms[session_id] == total
