"""Golden span trees of traced federated-function calls (Fig. 6).

``tests/data/trace_golden.json`` holds, for each of the four
architectures, the full span tree of a set of traced calls: span name,
simulated start and end (relative to the clock at the call's start) and
nesting.  The calls cover

* ``GetNoSuppComp`` cold (first call after the build) and hot;
* one function of each Sect. 3 mapping case the architecture supports;
* a server with pooling and the result cache on (warm prepares and
  result-cache hits);
* a fault-injected server (fault detection, forward recovery and the
  RMI timeout/backoff spans).

The trees must match exactly, float for float.  Regenerate the file
(only for a change *meant* to move spans or simulated time) with::

    PYTHONPATH=src python -m tests.test_trace_golden
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture, supports
from repro.core.scenario import build_scenario, scenario_functions
from repro.errors import StatementAbortedError
from repro.serving.workload import ARG_POOLS
from repro.simtime.trace import ACTIVE_RECORDER, Span, TraceRecorder
from repro.sysmodel.faults import (
    SITE_ACTIVITY_PROGRAM,
    SITE_FENCED_PROCESS,
    SITE_RMI_UDTF,
    SITE_RMI_WFMS,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "trace_golden.json"

FIG6_FUNCTION = "GetNoSuppComp"

#: The fault sites the traced fault run arms.  With two attempts per
#: retry ladder, one drop per RMI channel is retried, the warm fenced
#: process dies once (cold restart), and the activity program fails
#: both of its attempts, so the navigator recovers forward.
FAULT_SITES = {
    SITE_FENCED_PROCESS: (1.0, 1),
    SITE_RMI_UDTF: (1.0, 1),
    SITE_RMI_WFMS: (1.0, 1),
    SITE_ACTIVITY_PROGRAM: (1.0, 2),
}


def span_tree(span: Span, origin: float) -> list:
    """``[name, start, end, children]`` with times relative to ``origin``."""
    return [
        span.name,
        span.start - origin,
        span.end - origin,
        [span_tree(child, origin) for child in span.children],
    ]


def shape(tree: list) -> list:
    """A span tree without its times: names and nesting only."""
    name, _, _, children = tree
    return [name, [shape(child) for child in children]]


def traced_call(scenario, name: str, args: tuple) -> dict:
    """One traced call: its span forest, or the error that ended it."""
    clock = scenario.server.machine.clock
    recorder = TraceRecorder(clock)
    origin = clock.now
    entry: dict = {"call": f"{name}{args!r}"}
    try:
        scenario.call(name, *args, trace=recorder)
    except StatementAbortedError as exc:
        entry["error"] = type(exc).__name__
    entry["spans"] = [span_tree(root, origin) for root in recorder.roots]
    return entry


def case_functions(architecture: Architecture) -> list[str]:
    """The first scenario function of each mapping case ``architecture``
    supports, in scenario order."""
    seen: dict[object, str] = {}
    for fed in scenario_functions():
        if supports(architecture, fed.case) and fed.case not in seen:
            seen[fed.case] = fed.name
    return list(seen.values())


def golden_trees() -> dict[str, list[dict]]:
    """The span trees of every recorded call, keyed by architecture."""
    data = generate_enterprise_data()
    fig6_args = ARG_POOLS[FIG6_FUNCTION][0]
    table: dict[str, list[dict]] = {}
    for architecture in Architecture:
        entries = []
        bare = build_scenario(architecture, data=data)
        entries.append(traced_call(bare, FIG6_FUNCTION, fig6_args))  # cold
        entries.append(traced_call(bare, FIG6_FUNCTION, fig6_args))  # hot
        for name in case_functions(architecture):
            entries.append(traced_call(bare, name, ARG_POOLS[name][0]))

        pooled = build_scenario(
            architecture, data=data, pooling=True, result_cache=True
        )
        for args in (fig6_args, fig6_args, ARG_POOLS[FIG6_FUNCTION][1]):
            entries.append(traced_call(pooled, FIG6_FUNCTION, args))

        faulty = build_scenario(architecture, data=data, pooling=True)
        faulty.call(FIG6_FUNCTION, *fig6_args)  # warm the fenced processes
        faulty.server.configure_faults(
            enabled=True,
            seed=1,
            sites=FAULT_SITES,
            retry_attempts=2,
            forward_recovery=True,
        )
        entries.append(traced_call(faulty, FIG6_FUNCTION, fig6_args))
        entries.append(traced_call(faulty, FIG6_FUNCTION, fig6_args))
        table[architecture.name] = entries
    return table


@pytest.fixture(scope="module")
def trees():
    """The span trees of the code under test."""
    return golden_trees()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("architecture", [a.name for a in Architecture])
def test_span_trees_match_golden(trees, golden, architecture):
    expected, got = golden[architecture], trees[architecture]
    assert [e["call"] for e in got] == [e["call"] for e in expected]
    for want, have in zip(expected, got):
        assert have == want, want["call"]


def test_golden_covers_every_fig6_step(golden):
    """The recorded trees exercise the cold, warm, cached and fault paths."""
    names = set()

    def collect(tree):
        names.add(tree[0])
        for child in tree[3]:
            collect(child)

    for entries in golden.values():
        for entry in entries:
            for tree in entry["spans"]:
                collect(tree)
    for step in (
        "Start workflows and Java environment",
        "Prepare A-UDTFs",
        "Prepare A-UDTFs (warm)",
        "Result cache",
        "Fault detection",
        "Forward recovery",
        "rmi backoff:udtf-controller",
        "rmi timeout:udtf-controller",
        "rmi backoff:udtf-wfms",
        "rmi timeout:udtf-wfms",
    ):
        assert step in names, step


# -- the per-call slot ----------------------------------------------------------


def test_raising_call_leaves_no_active_recorder():
    """A traced call that aborts resets the slot: a following untraced
    call adds no span to the recorder."""
    scenario = build_scenario(Architecture.ENHANCED_SQL_UDTF)
    args = ARG_POOLS[FIG6_FUNCTION][0]
    scenario.call(FIG6_FUNCTION, *args)
    scenario.server.configure_faults(
        enabled=True, seed=1, sites={SITE_FENCED_PROCESS: (1.0, 1)}
    )
    recorder = TraceRecorder(scenario.server.machine.clock)
    with pytest.raises(StatementAbortedError):
        scenario.call(FIG6_FUNCTION, *args, trace=recorder)
    assert ACTIVE_RECORDER.get() is None
    recorded = [span for root in recorder.roots for span in root.walk()]
    scenario.call(FIG6_FUNCTION, *args)
    assert [span for root in recorder.roots for span in root.walk()] == recorded


@pytest.mark.parametrize("architecture", list(Architecture), ids=lambda a: a.name)
def test_traced_thread_records_only_its_own_call(golden, architecture):
    """Threads call one shared server; only one traces.  Its recorder
    holds exactly its own call's tree (the hot golden call's names and
    nesting; the times interleave on the shared clock)."""
    scenario = build_scenario(architecture)
    args = ARG_POOLS[FIG6_FUNCTION][0]
    scenario.call(FIG6_FUNCTION, *args)
    recorder = TraceRecorder(scenario.server.machine.clock)
    barrier = threading.Barrier(4)
    errors: list[Exception] = []

    def worker(trace, calls):
        try:
            barrier.wait(timeout=60)
            for _ in range(calls):
                scenario.call(FIG6_FUNCTION, *args, trace=trace)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(recorder, 1))]
    threads += [threading.Thread(target=worker, args=(None, 5)) for _ in range(3)]
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
    assert not errors
    hot = golden[architecture.name][1]
    assert hot["call"] == f"{FIG6_FUNCTION}{args!r}"
    assert [shape(span_tree(root, 0.0)) for root in recorder.roots] == [
        shape(tree) for tree in hot["spans"]
    ]


def test_statements_of_a_procedural_body_nest_under_the_call():
    """A ``Database.execute`` issued by a procedural (Java) UDTF body
    records its A-UDTF spans inside the outer call, between the
    I-UDTF's start and finish."""
    scenario = build_scenario(Architecture.ENHANCED_JAVA_UDTF)
    recorder = TraceRecorder(scenario.server.machine.clock)
    with recorder.span("outer"):
        scenario.call(FIG6_FUNCTION, *ARG_POOLS[FIG6_FUNCTION][0], trace=recorder)
    (outer,) = recorder.roots
    names = [child.name for child in outer.children]
    assert names[0] == "Start I-UDTF" and names[-1] == "Finish I-UDTF"
    inner = names[1:-1]
    assert inner.count("Prepare A-UDTFs") == 3
    assert {"RMI calls", "Finish A-UDTFs", "RMI returns"} <= set(inner)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_trees(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
