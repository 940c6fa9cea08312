"""The WfMS navigator reads the shared clock and moves it past a
parallel makespan as one step.

Threads calling one server share its virtual clock.  A navigator that
reads ``now``, computes the makespan's end from it, and only then moves
the clock there races with them: another thread's advance landing in
between leaves the target behind the clock, and the move raises
``ClockError``.  The concurrent test below widens the window between a
navigator's clock read and its move (an ``advance_to`` call) with a
sleep, so that interleaving would happen on every run.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.serving.workload import ARG_POOLS
from repro.simtime.clock import VirtualClock
from repro.simtime.rng import JitterSource

FUNCTION = "GetNoSuppComp"
THREADS = 4
CALLS = 5


def test_concurrent_navigations_survive_a_widened_window(monkeypatch):
    scenario = build_scenario(Architecture.WFMS)
    args = ARG_POOLS[FUNCTION][0]
    expected = scenario.call(FUNCTION, *args)
    move = VirtualClock.advance_to

    def late_move(clock, when):
        time.sleep(0.002)  # other threads advance the clock here
        return move(clock, when)

    # A navigator that reads ``now`` and then moves the clock with
    # ``advance_to`` now does so 2 ms apart.
    monkeypatch.setattr(VirtualClock, "advance_to", late_move)
    barrier = threading.Barrier(THREADS)
    errors: list[Exception] = []
    rows: list = []

    def worker():
        try:
            barrier.wait(timeout=60)
            for _ in range(CALLS):
                rows.append(scenario.call(FUNCTION, *args))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert rows == [expected] * (THREADS * CALLS)


@pytest.mark.parametrize(
    "start, t0, makespan_end",
    [
        (130.0, 100.0, 112.5),  # makespan inside the serial work
        (130.0, 100.0, 150.25),  # makespan beyond it
        (0.1 + 0.2, 0.1, 0.7),  # sums that round
        (100.0, 100.0, 90.0),  # nothing charged, makespan before t0
    ],
)
def test_advance_past_gives_the_two_step_float(start, t0, makespan_end):
    """One thread: the same float as reading ``now`` and then calling
    ``advance_to``, and no jitter applied."""
    two_step = VirtualClock(start)
    now = two_step.now
    two_step.advance_to(max(max(makespan_end, t0) + (now - t0), now))
    clock = VirtualClock(start, jitter=JitterSource(seed=7, amplitude=0.5))
    assert clock.advance_past(makespan_end, t0) == (start, two_step.now)
    assert clock.now == two_step.now


def test_advance_past_in_a_frozen_section_keeps_the_clock():
    clock = VirtualClock(50.0)
    with clock.frozen_section():
        assert clock.advance_past(80.0, 40.0) == (50.0, 50.0)
    assert clock.now == 50.0
