"""Deployed WfMS process templates and the coupling hot path.

The golden parity table in ``tests/data/wfms_parity_golden.json`` holds,
for every (architecture, federated function, ``ARG_POOLS`` argument)
call on a hot server, the result rows, the simulated milliseconds and —
on the WfMS — the audit events the call appended.  Regenerate it (only
when a change is *meant* to move simulated time) with::

    PYTHONPATH=src python -m tests.test_wfms_templates
"""

from __future__ import annotations

import json
import pickle
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appsys.base import ApplicationSystem, LocalFunction
from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.federated_function import FederatedFunction
from repro.core.mapping import MappingGraph
from repro.core.scenario import build_scenario, scenario_functions
from repro.errors import ContainerError, ProcessDefinitionError, SignatureError, TypeError_
from repro.fdbs.engine import Database
from repro.fdbs.types import DOUBLE, INTEGER, VARCHAR
from repro.serving.workload import ARG_POOLS, supported_functions
from repro.sysmodel.machine import Machine
from repro.udtf.access import make_access_udtf, register_access_udtfs
from repro.wfms.api import WfmsClient
from repro.wfms.builder import ProcessBuilder
from repro.wfms.engine import WorkflowEngine
from repro.wfms.model import (
    Constant,
    ContainerType,
    ControlConnector,
    ProcessDefinition,
)
from repro.wfms.programs import ProgramRegistry

GOLDEN_PATH = Path(__file__).parent / "data" / "wfms_parity_golden.json"

#: (label, build_scenario keyword arguments) of the recorded servers.
CONFIGS = (
    ("bare", {"pooling": False, "result_cache": False}),
    ("pooled", {"pooling": True, "result_cache": True}),
)


def parity_table() -> dict[str, list[dict]]:
    """Rows, simulated ms and WfMS audit events of every hot call."""
    data = generate_enterprise_data()
    table: dict[str, list[dict]] = {}
    for label, options in CONFIGS:
        for architecture in Architecture:
            server = build_scenario(architecture, data=data, **options).server
            server.fdbs.set_execution_mode("row")
            calls = [
                (name, args)
                for name in supported_functions(architecture)
                for args in ARG_POOLS[name]
            ]
            for name, args in calls:  # warm every process, JVM and plan
                server.call(name, *args)
            audit = server.wfms_client.engine.audit
            entries = []
            for name, args in calls:
                first_event = audit.recorded
                start = server.machine.clock.now
                rows = server.call(name, *args)
                entry = {
                    "function": name,
                    "args": repr(args),
                    "rows": repr(rows),
                    "sim_ms": repr(server.machine.clock.now - start),
                }
                if architecture is Architecture.WFMS:
                    entry["audit"] = [
                        [
                            repr(event.timestamp - start),
                            event.process,
                            event.activity,
                            event.event,
                            event.detail,
                        ]
                        for event in audit.since(first_event)
                    ]
                entries.append(entry)
            table[f"{label}/{architecture.name}"] = entries
    return table


# -- golden parity ---------------------------------------------------------------


@pytest.fixture(scope="module")
def table():
    """The parity table of the code under test."""
    return parity_table()


def test_golden_table_covers_every_pool_call():
    golden = json.loads(GOLDEN_PATH.read_text())
    for label, _ in CONFIGS:
        for architecture in Architecture:
            entries = golden[f"{label}/{architecture.name}"]
            expected = sum(
                len(ARG_POOLS[name]) for name in supported_functions(architecture)
            )
            assert len(entries) == expected


@pytest.mark.parametrize(
    "key",
    [f"{label}/{a.name}" for label, _ in CONFIGS for a in Architecture],
)
def test_hot_calls_match_golden_table(table, key):
    """Rows, simulated ms and WfMS audit events equal the recorded ones
    exactly (repr for repr, so floats match bit for bit)."""
    golden = json.loads(GOLDEN_PATH.read_text())[key]
    got = table[key]
    assert len(got) == len(golden)
    for expected, actual in zip(golden, got):
        assert actual == expected, (expected["function"], expected["args"])


def test_fig6_anchors_hold(table):
    for key, anchor in (("bare/WFMS", 302.88), ("bare/ENHANCED_SQL_UDTF", 101.84)):
        calls = [
            e for e in table[key]
            if e["function"] == "GetNoSuppComp" and e["args"] == "('gearbox',)"
        ]
        assert round(float(calls[0]["sim_ms"]), 2) == anchor


# -- validation happens at deploy, not per call --------------------------------------


def counting(monkeypatch, cls) -> Counter:
    """Count ``cls.validate`` calls by the validated object's name."""
    counts: Counter = Counter()
    original = cls.validate

    def validate(self):
        counts[getattr(self, "name", None) or id(self)] += 1
        return original(self)

    monkeypatch.setattr(cls, "validate", validate)
    return counts


def test_hot_wfms_calls_never_validate(monkeypatch):
    server = build_scenario(Architecture.WFMS).server
    calls = [
        (name, args)
        for name in supported_functions(Architecture.WFMS)
        for args in ARG_POOLS[name]
    ]
    for name, args in calls:
        server.call(name, *args)
    counts = counting(monkeypatch, ProcessDefinition)
    runs_before = server.wfms_client.engine.processes_run
    for name, args in calls:
        server.call(name, *args)
    iterations = server.wfms_client.engine.processes_run - runs_before - len(calls)
    assert iterations > 0, "no do-until sub-process ran"
    assert sum(counts.values()) == 0


@pytest.mark.parametrize("architecture", list(Architecture))
def test_build_scenario_validates_each_function_once(monkeypatch, architecture):
    names = {fed.name for fed in scenario_functions()}
    feds = counting(monkeypatch, FederatedFunction)
    graphs = counting(monkeypatch, MappingGraph)
    scenario = build_scenario(architecture)
    assert len(scenario.functions) + len(scenario.skipped) == len(names)
    assert feds == Counter({name: 1 for name in names})
    assert sum(graphs.values()) == len(names)


def test_public_entry_points_keep_their_checks():
    from repro.core.compile_procedural import compile_procedural
    from repro.core.compile_sql_udtf import compile_simple_select, compile_sql_udtf
    from repro.core.compile_workflow import compile_workflow
    from repro.errors import MappingGraphError

    broken = scenario_functions()[0]
    broken.mapping.nodes.clear()
    server = build_scenario(Architecture.WFMS).server
    for compile_call in (
        lambda: compile_workflow(broken, server.resolver, server.registry),
        lambda: compile_procedural(broken, server.resolver),
        lambda: compile_sql_udtf(broken, server.resolver),
        lambda: compile_simple_select(broken, server.resolver),
        lambda: server.deploy(broken),
        lambda: broken.case,
    ):
        with pytest.raises(MappingGraphError):
            compile_call()


# -- deploy snapshots the definition -------------------------------------------------


def doubling_process() -> ProcessDefinition:
    b = ProcessBuilder("P", [("X", INTEGER)], [("Y", INTEGER)])
    b.program_activity(
        "A", "math.add", [("X", INTEGER), ("K", INTEGER)], [("Y", INTEGER)],
        {"X": b.from_input("X"), "K": b.constant(1)},
    )
    b.map_output("Y", b.from_activity("A", "Y"))
    return b.build()


def adding_client() -> WfmsClient:
    registry = ProgramRegistry()
    registry.register_program("math.add", lambda inp: {"Y": inp["X"] + inp["K"]})
    return WfmsClient(Machine(), registry)


def test_mutating_a_definition_after_deploy_leaves_the_template():
    client = adding_client()
    definition = doubling_process()
    client.deploy(definition)
    definition.activities[0].input_map["K"] = Constant(100)
    definition.connectors.append(ControlConnector("A", "Ghost"))
    definition.output_map.clear()
    assert client.run_to_output("P", {"X": 1}) == {"Y": 2}
    assert client.template("P") is not definition


def test_redeploy_replaces_the_template():
    client = adding_client()
    definition = doubling_process()
    client.deploy(definition)
    definition.activities[0].input_map["K"] = Constant(100)
    client.deploy(definition)
    assert client.run_to_output("P", {"X": 1}) == {"Y": 101}


def test_block_subprocess_is_snapshotted_too():
    from tests.test_wfms_engine import TestLoops

    registry, process = TestLoops().counting_loop(collect=True)
    client = WfmsClient(Machine(), registry)
    client.deploy(process)
    block = process.activity("Iterate")
    block.carry.clear()
    block.subprocess.output_map["V"] = Constant(7)
    block.subprocess.rows_from = None
    instance = client.run_process("Loop", {"Start": 1, "End": 3})
    assert instance.activity("Iterate").iterations == 3
    assert instance.output.rows == [(1,), (2,), (3,)]


def test_deploy_rejects_an_invalid_definition():
    definition = doubling_process()
    definition.connectors.append(ControlConnector("A", "Ghost"))
    with pytest.raises(ProcessDefinitionError, match="Ghost"):
        adding_client().deploy(definition)


def test_raw_definitions_are_validated_on_every_run():
    registry = ProgramRegistry()
    registry.register_program("math.add", lambda inp: {"Y": inp["X"] + inp["K"]})
    engine = WorkflowEngine(registry, Machine())
    definition = doubling_process()
    assert engine.run_process(definition, {"X": 1}).output.get("Y") == 2
    definition.connectors.append(ControlConnector("A", "A"))
    with pytest.raises(ProcessDefinitionError, match="self-loop"):
        engine.run_process(definition, {"X": 1})
    definition.connectors.clear()
    definition.output_map["Nope"] = Constant(1)
    with pytest.raises(ProcessDefinitionError, match="Nope"):
        engine.run_process(definition, {"X": 1})


# -- container member lookup -----------------------------------------------------------


def linear_member_type(members, name):
    """The pre-map lookup: first case-insensitive match, or None."""
    for member_name, member_type in members:
        if member_name.upper() == name.upper():
            return member_type
    return None


def test_member_lookup_is_case_insensitive_and_first_match():
    ct = ContainerType("C", (("Grade", INTEGER), ("GRADE", VARCHAR(5)), ("x", DOUBLE)))
    assert ct.member_type("grade") is INTEGER
    assert ct.member_type("GRADE") is INTEGER
    assert ct.member_type("X") is DOUBLE
    container = ct.new_container()
    container.set("GRADE", 3)
    assert container.get("grade") == 3
    assert container.as_dict() == {"Grade": 3, "GRADE": 3}
    with pytest.raises(ContainerError, match="no member"):
        ct.member_type("Grades")


def test_container_type_pickles_and_compares_by_fields():
    ct = ContainerType("C", (("No", INTEGER),))
    clone = pickle.loads(pickle.dumps(ct))
    assert clone == ct and hash(clone) == hash(ct)
    assert clone.new_container().fill({"no": 4}).get("NO") == 4


NAMES = st.sampled_from(["a", "A", "b", "B", "ab", "Ab", "aB", "AB"])
TYPES = st.sampled_from([INTEGER, DOUBLE, VARCHAR(3)])


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(st.tuples(NAMES, TYPES), max_size=6),
    queries=st.lists(NAMES, min_size=1, max_size=8),
)
def test_member_map_equals_linear_scan(members, queries):
    ct = ContainerType("C", tuple(members))
    for name in queries:
        expected = linear_member_type(members, name)
        assert ct.has_member(name) is (expected is not None)
        if expected is None:
            with pytest.raises(ContainerError):
                ct.member_type(name)
        else:
            assert ct.member_type(name) is expected


# -- A-UDTF rows are coerced once --------------------------------------------------------


class BadSystem(ApplicationSystem):
    """One system whose local functions return every kind of bad row."""

    IMPLEMENTATIONS = {
        "Good": lambda x: [(x, "ok"), (x + 1, "ok2")],
        "Wide": lambda x: [(1, "a", 3)],
        "Narrow": lambda x: [(1,)],
        "IllTyped": lambda x: [("zz", "a")],
        "TooLong": lambda x: [(1, "abcdefgh")],
        "Dict": lambda x: {"a": 1},
    }

    def __init__(self, machine=None):
        super().__init__("bad", machine)
        for name, implementation in self.IMPLEMENTATIONS.items():
            self.register_function(
                LocalFunction(
                    name, [("X", INTEGER)], [("A", INTEGER), ("B", VARCHAR(5))],
                    implementation,
                )
            )


@pytest.fixture(params=["bare", "machine"])
def bad_db(request):
    machine = Machine() if request.param == "machine" else None
    db = Database("audtf", machine=machine)
    for udtf in register_access_udtfs(db, BadSystem(machine)):
        assert udtf.rows_typed
    return db


@pytest.mark.parametrize(
    "name, error, message",
    [
        ("Wide", SignatureError, "declared 2 result column.s. but produced a row of width 3"),
        ("Narrow", SignatureError, "declared 2 result column.s. but produced a row of width 1"),
        ("IllTyped", TypeError_, "'zz' .VARCHAR.2.. does not fit column type INTEGER"),
        ("TooLong", TypeError_, "too long for VARCHAR.5."),
        ("Dict", SignatureError, "returned a dict"),
    ],
)
def test_bad_audtf_rows_fail_with_the_same_errors(bad_db, name, error, message):
    with pytest.raises(error, match=message):
        bad_db.execute(f"SELECT * FROM TABLE ({name}(?)) AS R", [1])


def test_good_audtf_rows_pass_through(bad_db):
    rows = bad_db.execute("SELECT * FROM TABLE (Good(?)) AS R", [1]).rows
    assert rows == [(1, "ok"), (2, "ok2")]


def test_audtf_declaring_other_types_is_coerced_by_the_engine():
    system = BadSystem()
    served = system.function("Good")
    declared = LocalFunction(
        "Good", served.params, [("A", DOUBLE), ("B", VARCHAR(5))], served.implementation
    )
    udtf = make_access_udtf(system, declared, name="GoodAsDouble")
    assert not udtf.rows_typed
    db = Database("audtf")
    db.register_external_function(udtf)
    rows = db.execute("SELECT * FROM TABLE (GoodAsDouble(?)) AS R", [1]).rows
    assert rows == [(1.0, "ok"), (2.0, "ok2")]
    assert all(type(row[0]) is float for row in rows)


def test_bind_external_clears_rows_typed():
    db = Database("audtf")
    (udtf,) = register_access_udtfs(db, BadSystem(), only=["Good"])
    db.bind_external("Good", lambda x: [[x, "raw"]])
    assert not udtf.rows_typed
    assert db.execute("SELECT * FROM TABLE (Good(?)) AS R", [5]).rows == [(5, "raw")]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(parity_table(), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
