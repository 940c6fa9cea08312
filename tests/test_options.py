"""The engine/runtime options object (repro.fdbs.options).

* Every field declares the layer that reads it, and the plan key is
  complete by construction: changing any planner-read field changes the
  key, changing any other field does not.
* Every invalid value raises ``ExecutionError`` with the message the old
  per-knob setters raised.
* Both serving servers stamp their sessions from the same object: the
  thread server's sessions carry it, and the process server's
  ``ShardConfig`` carries it across ``pickle`` (the ``proc`` case runs
  real worker processes and compares them with thread serving).
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.errors import ExecutionError
from repro.fdbs.engine import Database
from repro.fdbs.options import DEFAULT_OPTIONS, Options
from repro.serving import ConcurrentIntegrationServer, ShardedIntegrationServer
from repro.serving.template import SessionTemplate
from repro.serving.workload import make_workload
from repro.sysmodel.machine import Machine

FIELDS = dataclasses.fields(Options)

#: A valid value other than the default, per field.
OTHER_VALUE = {
    "execution_mode": "columnar",
    "chunk_size": 16,
    "zone_maps": False,
    "optimizer": "cost",
    "join_strategy": "hash",
    "pushdown": False,
    "index_selection": False,
    "pooling": True,
    "result_cache": True,
    "pool_capacity": 2,
    "cache_capacity": 2,
    "rmi_wall_latency_s": 0.001,
}

#: Invalid values and the message each raises (the old setters' text).
INVALID = [
    ("execution_mode", "batch", "unknown execution mode 'batch'"),
    ("optimizer", "rule-based", "unknown optimizer mode 'rule-based'"),
    ("join_strategy", "loop", "unknown join strategy 'loop'"),
    ("chunk_size", 0, r"chunk size 0 out of range \(1..1048576\)"),
    ("chunk_size", 2**21, "out of range"),
    ("chunk_size", True, "chunk size must be an integer"),
    ("chunk_size", "16", "chunk size must be an integer"),
    ("zone_maps", 1, "zone_maps must be True or False"),
    ("pool_capacity", 0, "pool capacity must be positive"),
    ("cache_capacity", -1, "cache capacity must be positive"),
    ("rmi_wall_latency_s", -0.5, "RMI wall latency must be a non-negative"),
]


def test_every_field_declares_its_layer_and_has_a_test_value():
    for f in FIELDS:
        assert f.metadata.get("layer") in ("planner", "engine", "machine"), f.name
    assert set(OTHER_VALUE) == {f.name for f in FIELDS}


@pytest.mark.parametrize("name", [f.name for f in FIELDS])
def test_plan_key_changes_exactly_with_the_planner_fields(name):
    layer = next(f.metadata["layer"] for f in FIELDS if f.name == name)
    changed = DEFAULT_OPTIONS.replace(**{name: OTHER_VALUE[name]})
    assert changed != DEFAULT_OPTIONS
    assert (changed.plan_key != DEFAULT_OPTIONS.plan_key) == (layer == "planner")


@pytest.mark.parametrize(
    "name, value, message", INVALID, ids=[f"{n}={v!r}" for n, v, _ in INVALID]
)
def test_invalid_values_raise_the_setter_messages(name, value, message):
    with pytest.raises(ExecutionError, match=message):
        Options(**{name: value})
    db = Database("keeps")
    with pytest.raises(ExecutionError, match=message):
        db.configure(**{name: value})
    assert db.options is DEFAULT_OPTIONS


def test_none_chunk_size_means_the_default():
    assert Options(chunk_size=None) == DEFAULT_OPTIONS


def test_unknown_setting_is_a_type_error():
    with pytest.raises(TypeError):
        Options.resolve(None, chunck_size=4)


def test_resolve_applies_changes_over_the_object():
    base = Options(optimizer="cost")
    assert Options.resolve() is DEFAULT_OPTIONS
    assert Options.resolve(base) is base
    assert Options.resolve(base, chunk_size=8) == Options(optimizer="cost", chunk_size=8)


def test_configure_reaches_storage_and_machine():
    db = Database("m", machine=Machine())
    db.execute("CREATE TABLE t (a INT)")
    db.configure(chunk_size=8, pooling=True, rmi_wall_latency_s=0.002)
    assert db.catalog.get_table("t").storage.chunk_size == 8
    assert db.machine.runtime_pool.enabled
    assert db.machine.udtf_rmi.wall_latency_s == 0.002
    assert db.machine.wf_rmi.wall_latency_s == 0.002


def test_copy_table_takes_the_destination_chunk_size():
    source = Database("source", chunk_size=4)
    source.execute("CREATE TABLE t (a INT)")
    source.execute_many("INSERT INTO t VALUES (?)", [[n] for n in range(10)])
    target = Database("target", chunk_size=8)
    target.copy_table(source.catalog.get_table("t"))
    assert target.catalog.get_table("t").storage.chunk_size == 8
    assert source.catalog.get_table("t").storage.chunk_size == 4
    target.configure(execution_mode="columnar")
    assert target.execute("SELECT SUM(a) FROM t").rows == [(45,)]


def test_scenario_keeps_keyword_settings_and_an_options_object_alike():
    by_keyword = build_scenario(Architecture.SIMPLE_UDTF, optimizer="cost", chunk_size=64)
    by_object = build_scenario(
        Architecture.SIMPLE_UDTF, options=Options(optimizer="cost", chunk_size=64)
    )
    assert by_keyword.server.fdbs.options == by_object.server.fdbs.options
    assert by_object.server.fdbs.options.chunk_size == 64


# -- serving: one object for both servers ---------------------------------------

SERVING_OPTIONS = Options(
    execution_mode="columnar", chunk_size=4, optimizer="cost", zone_maps=False
)


@pytest.fixture(scope="module")
def data():
    return generate_enterprise_data()


def scripts():
    return make_workload(seed=7, sessions=4, calls_per_session=4, dml_fraction=0.3)


def test_thread_server_sessions_carry_the_options(data):
    with ConcurrentIntegrationServer(workers=2, data=data, options=SERVING_OPTIONS) as server:
        assert server.template.config.options == SERVING_OPTIONS
        session = server.open_session(1, Architecture.ENHANCED_SQL_UDTF)
        assert session.server.fdbs.options == SERVING_OPTIONS


def test_keyword_settings_reach_the_thread_server(data):
    with ConcurrentIntegrationServer(workers=1, data=data, chunk_size=4) as server:
        stamped = server.template.stamp(Architecture.SIMPLE_UDTF)
        assert stamped.fdbs.options.chunk_size == 4


@pytest.mark.proc
def test_process_server_stamps_from_the_same_options(data):
    with ShardedIntegrationServer(shards=2, data=data, options=SERVING_OPTIONS) as server:
        config = server.config
        process_result = server.run_workload(scripts())
    assert config.options == SERVING_OPTIONS
    # What a worker receives and stamps from.
    shipped = pickle.loads(pickle.dumps(config))
    assert shipped == config
    stamped = SessionTemplate(shipped).stamp(Architecture.ENHANCED_SQL_UDTF)
    assert stamped.fdbs.options == SERVING_OPTIONS
    with ConcurrentIntegrationServer(workers=2, data=data, options=SERVING_OPTIONS) as server:
        thread_result = server.run_workload(scripts())
    assert process_result.row_sets == thread_result.row_sets
    assert process_result.call_sim_ms == thread_result.call_sim_ms
