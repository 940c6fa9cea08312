"""Battery-through-serving: the differential corpus behind the router.

Routes a seeded slice of the SQL battery corpus through the
process-sharded :class:`ShardedIntegrationServer`, one session per
architecture, and through :func:`~repro.serving.shard.run_script` in
this process (the code each shard runs), and asserts the same parity
contract as ``test_battery_shape.py``:

* **rows exact** — per statement, both runs return exactly the rows the
  bare battery runner (``run_combo``) produced, and agree bit-for-bit
  with each other;
* **time tolerance** — per statement, simulated time matches the bare
  runner within ``TIME_TOLERANCE`` (cross-checking the serving layer
  adds zero charged time), while the in-process and the process run
  must agree *exactly* (same stack both sides of the fork, so pickling
  over the wire may not cost a bit);
* **cross-architecture** — through serving, all four architectures
  still agree on rows (exact) and times (tolerance), mirroring the
  battery's architecture-parity gate.

Setup (battery DDL, seed rows, RUNSTATS) rides at the head of each
session script, so every stamped session server — in this process or a
shard — replays
the exact statement history of ``build_battery_scenario``.

Deselected by default behind the ``proc`` marker.
"""

import random

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.serving import ShardedIntegrationServer
from repro.serving.shard import run_script
from repro.serving.template import SessionTemplate, ShardConfig
from repro.serving.workload import SessionScript, WorkloadCall

from .generator import BATTERY_DDL, DEFAULT_SEED, battery_rows, generate_corpus
from .runner import ARCHITECTURES, VERIFY_SCRATCH, run_combo

pytestmark = pytest.mark.proc

SLICE_SEED = 20260809
SLICE_SIZE = 18
TIME_TOLERANCE = 1e-6
RUNSTATS_TABLES = (
    "bat_watch",
    "bat_parts",
    "bat_scratch",
    "api_ratings",
    "arch_orders",
    "cat_components",
)


def corpus_slice():
    """A seeded slice of the corpus, padded for family coverage."""
    corpus = generate_corpus(seed=DEFAULT_SEED)
    rng = random.Random(SLICE_SEED)
    picked = sorted(rng.sample(range(len(corpus)), SLICE_SIZE))
    chosen = [corpus[i] for i in picked]
    for probe in (
        lambda q: q.kind == "dml",
        lambda q: q.remote,
        lambda q: q.lateral,
    ):
        if not any(probe(q) for q in chosen):
            chosen.append(next(q for q in corpus if probe(q)))
    return chosen


def setup_calls():
    """The battery scenario's setup, replayed as session script calls."""
    calls = [WorkloadCall("sql", ddl) for ddl in BATTERY_DDL]
    for table, rows in sorted(battery_rows().items()):
        markers = ", ".join("?" for _ in rows[0])
        for row in rows:
            calls.append(
                WorkloadCall("sql", f"INSERT INTO {table} VALUES ({markers})", tuple(row))
            )
    for table in RUNSTATS_TABLES:
        calls.append(WorkloadCall("sql", f"RUNSTATS ON TABLE {table}"))
    return calls


def build_scripts(queries):
    """One script per architecture: setup, then the corpus slice.

    Returns ``(scripts, fingerprints)`` where ``fingerprints[i]`` is,
    per query, the call index whose *rows* fingerprint the query (the
    verification SELECT for DML) and the index charged with its time.
    """
    prologue = setup_calls()
    calls = list(prologue)
    fingerprints = []
    for query in queries:
        time_index = len(calls)
        calls.append(WorkloadCall("sql", query.sql))
        if query.kind == "dml":
            calls.append(WorkloadCall("sql", VERIFY_SCRATCH))
            fingerprints.append((len(calls) - 1, time_index))
        else:
            fingerprints.append((time_index, time_index))
    scripts = [
        SessionScript(session_id=i, architecture=architecture, calls=list(calls))
        for i, architecture in enumerate(ARCHITECTURES)
    ]
    return scripts, fingerprints


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


@pytest.fixture(scope="module")
def queries():
    return corpus_slice()


@pytest.fixture(scope="module")
def reference(data, queries):
    """Bare battery-runner outcomes per architecture (row/syntactic)."""
    return {
        architecture: run_combo(architecture, "row", "syntactic", queries, data=data)
        for architecture in ARCHITECTURES
    }


@pytest.fixture(scope="module")
def in_process_run(data, queries):
    """``run_script`` on one template, one session after another: the
    row sets and per-call times by session."""
    scripts, _ = build_scripts(queries)
    template = SessionTemplate(ShardConfig(data=data, heterogeneous=True))
    sessions = [run_script(template, script)[0] for script in scripts]
    return (
        {s.session_id: s.row_sets for s in sessions},
        {s.session_id: [record.simulated_ms for record in s.records] for s in sessions},
    )


@pytest.fixture(scope="module")
def process_run(data, queries):
    scripts, _ = build_scripts(queries)
    with ShardedIntegrationServer(
        shards=2, data=data, heterogeneous=True, queue_limit=len(scripts)
    ) as server:
        return server.run_workload(scripts)


def test_slice_is_seeded_and_covers_the_families(queries):
    assert [q.sql for q in queries] == [q.sql for q in corpus_slice()]
    assert any(q.kind == "dml" for q in queries)
    assert any(q.remote for q in queries)
    assert any(q.lateral for q in queries)


@pytest.mark.parametrize("mode", ["in_process", "process"])
def test_serving_matches_bare_battery_runner(
    mode, in_process_run, process_run, reference, queries
):
    """Rows exact, per-statement time within tolerance, per architecture."""
    if mode == "process":
        row_sets, call_sim_ms = process_run.row_sets, process_run.call_sim_ms
    else:
        row_sets, call_sim_ms = in_process_run
    _, fingerprints = build_scripts(queries)
    for session_id, architecture in enumerate(ARCHITECTURES):
        outcomes = reference[architecture]
        rows = row_sets[session_id]
        sims = call_sim_ms[session_id]
        for i, query in enumerate(queries):
            rows_index, time_index = fingerprints[i]
            assert rows[rows_index] == outcomes[i].rows, (
                f"[{mode}/{architecture.name}] rows diverge: {query.sql}"
            )
            assert abs(sims[time_index] - outcomes[i].elapsed) <= TIME_TOLERANCE, (
                f"[{mode}/{architecture.name}] time diverges "
                f"({sims[time_index]} != {outcomes[i].elapsed}): {query.sql}"
            )


def test_in_process_and_process_serving_bit_identical(in_process_run, process_run):
    """The fork and the pickle round trip must not change one bit."""
    row_sets, call_sim_ms = in_process_run
    assert process_run.row_sets == row_sets
    assert process_run.call_sim_ms == call_sim_ms
    assert process_run.simulated_ms == {
        session_id: sum(sims) for session_id, sims in call_sim_ms.items()
    }


def test_architecture_parity_survives_serving(process_run, queries):
    """Across architectures: rows exact, times within tolerance."""
    _, fingerprints = build_scripts(queries)
    base_rows = process_run.row_sets[0]
    base_sims = process_run.call_sim_ms[0]
    for session_id, architecture in enumerate(ARCHITECTURES[1:], start=1):
        rows = process_run.row_sets[session_id]
        sims = process_run.call_sim_ms[session_id]
        for i, query in enumerate(queries):
            rows_index, time_index = fingerprints[i]
            assert rows[rows_index] == base_rows[rows_index], (
                f"[{architecture.name}] rows diverge: {query.sql}"
            )
            assert abs(sims[time_index] - base_sims[time_index]) <= TIME_TOLERANCE, (
                f"[{architecture.name}] time diverges: {query.sql}"
            )
