"""Regression coverage for the serving teardown and accounting fixes.

The thread-pool server's close path used to have three soft spots: a
``shutdown()`` that closed sessions *before* draining the pool (so a
running script could be poisoned mid-flight with ``SessionClosedError``),
non-reentrant teardown, and admission slots that leaked whenever a
script failed or ``run_workload`` aborted partway through opening
sessions.  These tests pin the fixed contract:

* ``shutdown()`` is idempotent and drains before closing;
* after every ``run_workload`` — successful, failing, or aborted during
  session open — admission ``in_flight`` and open-session counts are
  back to zero and the server is still usable;
* work submitted after shutdown is refused with a clean
  :class:`~repro.errors.ServingError`.
"""

import dataclasses

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.errors import ServingError
from repro.serving import ConcurrentIntegrationServer
from repro.serving.workload import WorkloadCall, make_workload

SEED = 1105


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


def drained(server):
    """True when both accounting gates are back to zero."""
    return (
        server.admission.stats()["in_flight"] == 0
        and server.sessions.open_count == 0
    )


def test_accounting_drains_after_a_clean_run(data):
    with ConcurrentIntegrationServer(workers=2, data=data) as server:
        result = server.run_workload(
            make_workload(seed=SEED, sessions=4, calls_per_session=2)
        )
        assert result.calls == 4 * 3  # CREATE TABLE + 2 calls per session
        assert drained(server)
        assert server.admission.stats()["admitted"] == 4


def test_accounting_drains_when_a_script_fails(data):
    workload = make_workload(seed=SEED, sessions=3, calls_per_session=2)
    workload[1].calls.insert(1, WorkloadCall("bogus-kind", "nope"))
    with ConcurrentIntegrationServer(workers=2, data=data) as server:
        with pytest.raises(ValueError, match="bogus-kind"):
            server.run_workload(workload)
        assert drained(server)
        # The failure must not have wedged the server: a clean workload
        # on the same session ids still runs to completion afterwards
        # (reads only: the shared server keeps the scratch tables).
        again = [
            dataclasses.replace(script, calls=script.calls[1:])
            for script in make_workload(
                seed=SEED, sessions=2, calls_per_session=2, dml_fraction=0.0
            )
        ]
        result = server.run_workload(again)
        assert result.calls == 2 * 2
        assert drained(server)


def test_accounting_drains_when_session_open_aborts(data):
    workload = make_workload(seed=SEED, sessions=3, calls_per_session=1)
    workload[2].session_id = workload[0].session_id  # duplicate id
    with ConcurrentIntegrationServer(workers=2, data=data) as server:
        with pytest.raises(ServingError, match="already registered"):
            server.run_workload(workload)
        # The sessions opened before the abort were closed again.
        assert drained(server)


def test_shutdown_is_idempotent_and_reentrant(data):
    server = ConcurrentIntegrationServer(workers=2, data=data)
    result = server.run_workload(
        make_workload(seed=SEED, sessions=2, calls_per_session=1)
    )
    assert result.calls == 2 * 2
    assert not server.closed
    server.shutdown()
    assert server.closed
    server.shutdown()  # second (and third) calls are no-ops
    server.shutdown()
    assert drained(server)


def test_work_after_shutdown_is_refused(data):
    server = ConcurrentIntegrationServer(workers=2, data=data)
    server.shutdown()
    with pytest.raises(ServingError, match="shut down"):
        server.run_workload(make_workload(seed=SEED, sessions=1))
    with pytest.raises(ServingError, match="shut down"):
        server.open_session(0, make_workload(seed=SEED, sessions=1)[0].architecture)
    assert drained(server)


def test_context_manager_shuts_down_once(data):
    with ConcurrentIntegrationServer(workers=1, data=data) as server:
        server.run_workload(make_workload(seed=SEED, sessions=1))
        server.shutdown()  # explicit shutdown inside the with-block
    assert server.closed
    assert drained(server)
