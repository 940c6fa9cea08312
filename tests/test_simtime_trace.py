"""Span recording and Fig. 6-style aggregation."""

import pytest

from repro.simtime.clock import VirtualClock
from repro.simtime.trace import ACTIVE_RECORDER, TraceRecorder, maybe_span


def make():
    clock = VirtualClock()
    return clock, TraceRecorder(clock)


def test_single_span_duration():
    clock, trace = make()
    with trace.span("work"):
        clock.advance(5.0)
    assert trace.total() == 5.0
    assert trace.totals_by_name() == {"work": 5.0}


def test_nested_spans_self_duration():
    clock, trace = make()
    with trace.span("outer"):
        clock.advance(2.0)
        with trace.span("inner"):
            clock.advance(3.0)
        clock.advance(1.0)
    totals = trace.totals_by_name()
    assert totals["outer"] == pytest.approx(3.0)  # 2 + 1, inner excluded
    assert totals["inner"] == pytest.approx(3.0)
    assert trace.total() == pytest.approx(6.0)


def test_same_name_spans_aggregate():
    clock, trace = make()
    for _ in range(3):
        with trace.span("step"):
            clock.advance(1.0)
    assert trace.totals_by_name()["step"] == pytest.approx(3.0)
    assert trace.total() == pytest.approx(3.0)


def test_nested_same_name_spans_do_not_double_count():
    clock, trace = make()
    with trace.span("Process activities"):
        clock.advance(1.0)
        with trace.span("Process activities"):
            clock.advance(2.0)
    assert trace.totals_by_name()["Process activities"] == pytest.approx(3.0)


def test_portions_sum_to_one():
    clock, trace = make()
    with trace.span("a"):
        clock.advance(1.0)
    with trace.span("b"):
        clock.advance(3.0)
    portions = trace.portions()
    assert portions["a"] == pytest.approx(0.25)
    assert portions["b"] == pytest.approx(0.75)
    assert sum(portions.values()) == pytest.approx(1.0)


def test_portions_empty_when_no_time():
    _, trace = make()
    assert trace.portions() == {}


def test_add_leaf_records_pretimed_span():
    clock, trace = make()
    with trace.span("outer"):
        clock.advance(10.0)
        trace.add_leaf("phase", 2.0, 8.0)
    totals = trace.totals_by_name()
    assert totals["phase"] == pytest.approx(6.0)
    assert totals["outer"] == pytest.approx(4.0)


def test_open_span_duration_raises():
    _, trace = make()
    context = trace.span("open")
    span = context.__enter__()
    with pytest.raises(ValueError):
        _ = span.duration


def test_maybe_span_none_recorder_is_noop():
    assert ACTIVE_RECORDER.get() is None
    with maybe_span("anything"):
        pass  # must not raise


def test_maybe_span_with_recorder_records():
    clock, trace = make()
    token = ACTIVE_RECORDER.set(trace)
    try:
        with maybe_span("step"):
            clock.advance(1.0)
    finally:
        ACTIVE_RECORDER.reset(token)
    assert trace.totals_by_name() == {"step": 1.0}


def test_maybe_span_records_nothing_while_capturing():
    """Captured charges are not on the clock yet; the WfMS scheduler
    records them itself, so spans opened inside a capture are dropped."""
    clock, trace = make()
    token = ACTIVE_RECORDER.set(trace)
    try:
        with clock.capture():
            with maybe_span("captured"):
                clock.advance(1.0)
        with maybe_span("after"):
            clock.advance(2.0)
    finally:
        ACTIVE_RECORDER.reset(token)
    assert trace.totals_by_name() == {"after": 2.0}


def test_active_recorder_is_per_thread():
    import threading

    _, trace = make()
    seen = []
    token = ACTIVE_RECORDER.set(trace)
    try:
        thread = threading.Thread(target=lambda: seen.append(ACTIVE_RECORDER.get()))
        thread.start()
        thread.join()
    finally:
        ACTIVE_RECORDER.reset(token)
    assert seen == [None]


def test_walk_visits_all_descendants():
    clock, trace = make()
    with trace.span("root"):
        with trace.span("child"):
            with trace.span("grandchild"):
                clock.advance(1.0)
    names = [s.name for s in trace.roots[0].walk()]
    assert names == ["root", "child", "grandchild"]
