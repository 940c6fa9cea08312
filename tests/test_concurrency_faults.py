"""Fault injection × concurrency: failures stay inside their session.

The fault harness and the serving layer compose: a session run through
:func:`repro.serving.shard.run_script` owns the machine of its stamped
server — injector, RNG stream, retry policy, pool, channels — so one
session's faults are invisible to every other session, and fault
outcomes are as deterministic from 4 threads as from 1.  The suite
asserts three interaction guarantees:

* concurrent WfMS sessions retry / forward-recover *independently* —
  every call completes, answers match the fault-free baseline;
* a UDTF session's unrecovered fault aborts only its *own* statement —
  the session continues, siblings never see the abort;
* one session's fault never poisons another session's channel, pool or
  cache: a clean session run next to a faulty one is bit-identical
  (rows and simulated time) to the same session run alone.
"""

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.fdbs.options import Options
from repro.serving.template import SessionTemplate, ShardConfig
from repro.serving.workload import SessionScript, WorkloadCall
from repro.sysmodel.faults import (
    SITE_ACTIVITY_PROGRAM,
    SITE_FENCED_PROCESS,
    SITE_RMI_WFMS,
)

from tests.test_session_template import run_on_threads

ANCHOR = "GetNoSuppComp"
CALLS = 4

#: Deterministic WfMS fault mix: count-limited certain faults plus
#: retries and forward recovery — every call must still complete.
WFMS_FAULTS = {
    "enabled": True,
    "seed": 99,
    "sites": {
        SITE_RMI_WFMS: (1.0, 1),
        SITE_ACTIVITY_PROGRAM: (1.0, 1),
    },
    "retry_attempts": 3,
    "forward_recovery": True,
}

#: Deterministic UDTF fault: the first fenced-process hand-over dies,
#: aborting exactly one statement; no recovery mechanism exists.
UDTF_FAULTS = {
    "enabled": True,
    "seed": 99,
    "sites": {SITE_FENCED_PROCESS: (1.0, 1)},
}


def anchor_script(session_id, architecture, faults=None, calls=CALLS):
    return SessionScript(
        session_id=session_id,
        architecture=architecture,
        calls=[WorkloadCall("call", ANCHOR, ("gearbox",))] * calls,
        faults=faults,
    )


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


@pytest.fixture(scope="module")
def template(data):
    return SessionTemplate(ShardConfig(data=data))


@pytest.fixture(scope="module")
def baseline_rows(template):
    """Fault-free anchor rows (one session, no faults)."""
    sessions = run_on_threads(template, [anchor_script(0, Architecture.WFMS)], 1)
    rows = sessions[0].row_sets
    assert all(r for r in rows)
    return rows[0]


class TestWfmsRecoveryUnderConcurrency:
    def test_concurrent_sessions_recover_independently(self, template, baseline_rows):
        """Four faulty WfMS sessions side by side: each absorbs its own
        faults through retries/forward recovery and completes every call
        with the fault-free answer."""
        scripts = [
            anchor_script(sid, Architecture.WFMS, faults=dict(WFMS_FAULTS))
            for sid in range(4)
        ]
        sessions = run_on_threads(template, scripts, 4)
        for sid in range(4):
            summary = sessions[sid].summary()
            assert summary.aborted == 0, f"session {sid} lost a call to a fault"
            assert summary.calls == CALLS
            for rows in sessions[sid].row_sets:
                assert rows == baseline_rows

    def test_recovery_outcome_independent_of_worker_count(self, template):
        """Fault handling is per-session deterministic: 1 vs 4 threads
        give identical rows, aborts and simulated times."""
        scripts = [
            anchor_script(sid, Architecture.WFMS, faults=dict(WFMS_FAULTS))
            for sid in range(4)
        ]

        def outcomes(workers):
            sessions = run_on_threads(template, scripts, workers)
            return {
                sid: (s.row_sets, s.simulated_time, s.summary().aborted)
                for sid, s in sessions.items()
            }

        assert outcomes(4) == outcomes(1)


class TestUdtfAbortContainment:
    @pytest.mark.parametrize(
        "architecture",
        [Architecture.ENHANCED_SQL_UDTF, Architecture.ENHANCED_JAVA_UDTF],
    )
    def test_abort_hits_only_the_faulty_statement(
        self, template, baseline_rows, architecture
    ):
        """The dying fenced process aborts statement one; the session
        survives and every later call returns correct rows."""
        script = anchor_script(0, architecture, faults=dict(UDTF_FAULTS))
        session = run_on_threads(template, [script], 1)[0]
        rows = session.row_sets
        assert rows[0] is None, "the injected fault did not abort the statement"
        assert session.summary().aborted == 1
        for later in rows[1:]:
            assert later == baseline_rows

    def test_sibling_sessions_never_see_the_abort(self, template, baseline_rows):
        """One faulty UDTF session among three clean ones, concurrently:
        only the faulty session records an abort."""
        scripts = [
            anchor_script(0, Architecture.ENHANCED_SQL_UDTF, faults=dict(UDTF_FAULTS)),
            anchor_script(1, Architecture.ENHANCED_SQL_UDTF),
            anchor_script(2, Architecture.ENHANCED_JAVA_UDTF),
            anchor_script(3, Architecture.WFMS),
        ]
        sessions = run_on_threads(template, scripts, 4)
        assert sessions[0].summary().aborted == 1
        for sid in (1, 2, 3):
            assert sessions[sid].summary().aborted == 0
            for rows in sessions[sid].row_sets:
                assert rows == baseline_rows


class TestFaultIsolation:
    def test_faulty_neighbor_changes_nothing_for_clean_session(self, template):
        """A clean session's rows AND simulated time are bit-identical
        whether it runs alone or next to a heavily faulty session —
        channels, pools, caches and RNG streams are per-session."""
        alone = run_on_threads(template, [anchor_script(1, Architecture.ENHANCED_SQL_UDTF)], 1)
        heavy_faults = {
            "enabled": True,
            "seed": 7,
            "sites": {SITE_FENCED_PROCESS: 1.0, SITE_RMI_WFMS: 1.0},
        }
        paired = run_on_threads(
            template,
            [
                anchor_script(
                    0, Architecture.ENHANCED_SQL_UDTF, faults=heavy_faults
                ),
                anchor_script(1, Architecture.ENHANCED_SQL_UDTF),
            ],
            2,
        )
        assert paired[0].summary().aborted == CALLS, (
            "the faulty session should abort every call at probability 1"
        )
        assert paired[1].row_sets == alone[1].row_sets
        assert paired[1].simulated_time == alone[1].simulated_time
        assert paired[1].summary().aborted == 0

    def test_faulty_session_pool_eviction_is_private(self, data):
        """The fenced-process death evicts the *faulty* session's pooled
        runtime, not the neighbor's."""
        pooled = SessionTemplate(ShardConfig(data=data, options=Options(pooling=True)))
        sessions = run_on_threads(
            pooled,
            [
                anchor_script(
                    0, Architecture.ENHANCED_SQL_UDTF, faults=dict(UDTF_FAULTS)
                ),
                anchor_script(1, Architecture.ENHANCED_SQL_UDTF),
            ],
            2,
        )
        stats = {sid: s.server.machine.runtime_stats() for sid, s in sessions.items()}
        assert stats[0]["runtime_pool"]["fault_evictions"] >= 1
        assert stats[1]["runtime_pool"]["fault_evictions"] == 0
        assert stats[1]["faults"]["injected_total"] == 0
