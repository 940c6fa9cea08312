"""Concurrent-serving parity: thread count must never change results.

An isolated session runs on its own server stamped from the worker's
:class:`~repro.serving.template.SessionTemplate` — machine, virtual
clock, pools, caches — through :func:`repro.serving.shard.run_script`,
so its rows *and* simulated times depend only on its own call sequence.
These tests replay one seeded workload on one template from different
numbers of threads and in different submission orders and demand
bit-identical per-session outcomes, plus bit-identity against the bare
single-caller stack (the pre-serving execution path).  Concurrency may
change wall-clock time, never answers or simulated timings.
"""

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.scenario import build_scenario
from repro.errors import StatementAbortedError
from repro.serving.template import SessionTemplate, ShardConfig
from repro.serving.workload import make_workload

from tests.test_session_template import run_on_threads

SESSIONS = 6
CALLS = 5


def run_serving(template, scripts, workers):
    """One threaded run; returns (row_sets, simulated_ms) by session."""
    sessions = run_on_threads(template, scripts, workers)
    return (
        {sid: session.row_sets for sid, session in sessions.items()},
        {sid: session.simulated_time for sid, session in sessions.items()},
    )


def drive_bare(data, script):
    """The pre-serving path: a dedicated single-caller server, no
    session object, no template."""
    server = build_scenario(script.architecture, data=data).server
    if script.faults:
        server.configure_faults(**script.faults)
    rows = []
    start = server.machine.clock.now
    for call in script.calls:
        if call.kind == "call":
            try:
                rows.append(server.call(call.target, *call.args))
            except StatementAbortedError:
                rows.append(None)
        else:
            result = server.fdbs.execute(call.target, params=list(call.args))
            rows.append(list(result.rows))
    return rows, server.machine.clock.now - start


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


@pytest.fixture(scope="module")
def template(data):
    return SessionTemplate(ShardConfig(data=data))


@pytest.mark.parametrize("seed", [11, 99, 20260805])
@pytest.mark.parametrize("workers", [4, 8])
def test_one_vs_many_workers_bit_identical(template, seed, workers):
    """Same seeded workload, 1 thread vs K: identical rows and times."""
    scripts = make_workload(seed=seed, sessions=SESSIONS, calls_per_session=CALLS)
    rows_one, sim_one = run_serving(template, scripts, workers=1)
    rows_many, sim_many = run_serving(template, scripts, workers=workers)
    assert rows_many == rows_one
    assert sim_many == sim_one


def test_submission_order_is_irrelevant(template):
    """Reversing the script list must not change any session's outcome."""
    scripts = make_workload(seed=31, sessions=SESSIONS, calls_per_session=CALLS)
    rows_fwd, sim_fwd = run_serving(template, scripts, workers=4)
    rows_rev, sim_rev = run_serving(template, scripts[::-1], workers=4)
    assert rows_rev == rows_fwd
    assert sim_rev == sim_fwd


def test_serving_layer_matches_bare_stack(data, template):
    """Serving == driving each script on a bare server: the template,
    the session and the threads cost zero simulated time and change no
    rows."""
    scripts = make_workload(seed=77, sessions=SESSIONS, calls_per_session=CALLS)
    rows_serving, sim_serving = run_serving(template, scripts, workers=1)
    for script in scripts:
        rows_bare, sim_bare = drive_bare(data, script)
        assert rows_serving[script.session_id] == rows_bare
        assert sim_serving[script.session_id] == sim_bare


def test_workload_generation_is_deterministic():
    same_a = make_workload(seed=5, sessions=4, calls_per_session=6)
    same_b = make_workload(seed=5, sessions=4, calls_per_session=6)
    other = make_workload(seed=6, sessions=4, calls_per_session=6)
    assert [s.calls for s in same_a] == [s.calls for s in same_b]
    assert [s.calls for s in same_a] != [s.calls for s in other]
    assert [s.architecture for s in same_a] == [s.architecture for s in same_b]


def test_every_session_gets_results(template):
    """No session loses or duplicates calls whatever the thread count."""
    scripts = make_workload(seed=13, sessions=SESSIONS, calls_per_session=CALLS)
    expected_calls = {s.session_id: len(s.calls) for s in scripts}
    for workers in (1, 4):
        rows, _ = run_serving(template, scripts, workers=workers)
        assert {sid: len(r) for sid, r in rows.items()} == expected_calls
        assert all(r is not None for session in rows.values() for r in session)
