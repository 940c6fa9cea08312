"""WfMS client API, programs registry, audit trail."""

import pytest

from repro.errors import ActivityFailedError, WorkflowError
from repro.fdbs.types import INTEGER
from repro.simtime.costs import DEFAULT_COSTS
from repro.sysmodel.machine import Machine
from repro.wfms.api import WfmsClient
from repro.wfms import audit
from repro.wfms.audit import AuditTrail
from repro.wfms.builder import ProcessBuilder
from repro.wfms.programs import LocalFunctionProgram, ProgramRegistry


def deployable():
    b = ProcessBuilder("P", [("X", INTEGER)], [("Y", INTEGER)])
    b.program_activity(
        "A", "math.double", [("X", INTEGER)], [("Y", INTEGER)],
        {"X": b.from_input("X")},
    )
    b.map_output("Y", b.from_activity("A", "Y"))
    return b.build()


def make_client(machine=None):
    registry = ProgramRegistry()
    registry.register_program("math.double", lambda inp: {"Y": inp["X"] * 2})
    client = WfmsClient(machine, registry)
    client.deploy(deployable())
    return client


class TestClient:
    def test_run_to_output(self):
        assert make_client().run_to_output("P", {"X": 4}) == {"Y": 8}

    def test_unknown_template_rejected(self):
        with pytest.raises(WorkflowError, match="template"):
            make_client().run_process("Ghost", {})

    def test_redeploy_replaces_template(self):
        client = make_client()
        replacement = deployable()
        replacement.output_map["Y"] = replacement.output_map["Y"]
        client.deploy(replacement)
        assert client.templates() == ["P"]

    def test_template_load_cost_paid_once(self):
        machine = Machine()
        client = make_client(machine)
        machine.ensure_wfms()

        def run():
            start = machine.clock.now
            client.run_process("P", {"X": 1})
            return machine.clock.now - start

        first, second = run(), run()
        assert first - second == pytest.approx(DEFAULT_COSTS.wf_template_load)

    def test_env_start_charged_every_call(self):
        machine = Machine()
        client = make_client(machine)
        machine.ensure_wfms()
        client.run_process("P", {"X": 1})
        start = machine.clock.now
        client.run_process("P", {"X": 1})
        assert machine.clock.now - start >= DEFAULT_COSTS.wf_env_start

    def test_first_call_boots_wfms_server(self):
        machine = Machine()
        client = make_client(machine)
        client.run_process("P", {"X": 1})
        assert machine.wfms_process.running


class TestProgramRegistry:
    def test_duplicate_program_rejected(self):
        registry = ProgramRegistry()
        registry.register_program("p", lambda i: {})
        with pytest.raises(WorkflowError):
            registry.register_program("P", lambda i: {})

    def test_unknown_program_rejected(self):
        with pytest.raises(WorkflowError):
            ProgramRegistry().program("ghost")

    def test_helpers_live_in_their_own_namespace(self):
        registry = ProgramRegistry()
        registry.register_program("same", lambda i: {})
        registry.register_helper("same", lambda i: {})
        assert registry.has_program("same") and registry.has_helper("same")


class TestLocalFunctionProgram:
    def make(self, expose_rows=False):
        from repro.appsys import StockKeepingSystem

        stock = StockKeepingSystem()
        return stock, LocalFunctionProgram(
            stock, "GetQuality", ["SupplierNo"], ["Qual"], expose_rows
        )

    def test_maps_container_members_to_positional_args(self):
        _, program = self.make()
        assert program({"SupplierNo": 1234}) == {"Qual": 8}

    def test_input_member_names_case_insensitive(self):
        _, program = self.make()
        assert program({"SUPPLIERNO": 1234}) == {"Qual": 8}

    def test_missing_input_member_fails_activity(self):
        _, program = self.make()
        with pytest.raises(ActivityFailedError):
            program({})

    def test_empty_result_yields_null_outputs(self):
        _, program = self.make()
        assert program({"SupplierNo": 99999}) == {"Qual": None}

    def test_expose_rows_attaches_row_list(self):
        _, program = self.make(expose_rows=True)
        outputs = program({"SupplierNo": 1234})
        assert outputs["ROWS"] == [(8,)]

    def test_identifier(self):
        _, program = self.make()
        assert program.identifier == "stock.GetQuality"


class TestAuditTrail:
    def test_filtering_by_process_and_activity(self):
        trail = AuditTrail()
        trail.record(0.0, "P", "process started")
        trail.record(1.0, "P", "activity started", activity="A")
        trail.record(2.0, "Q", "process started")
        assert len(trail.for_process("p")) == 2
        assert len(trail.for_activity("a")) == 1

    def test_clear(self):
        trail = AuditTrail()
        trail.record(0.0, "P", "x")
        trail.clear()
        assert len(trail) == 0

    def test_ring_buffer_keeps_the_newest_events(self, monkeypatch):
        monkeypatch.setattr(audit, "AUDIT_CAPACITY", 3)
        trail = AuditTrail()
        mark = trail.recorded
        for index in range(5):
            trail.record(float(index), "P", f"e{index}")
        assert len(trail) == 3 and trail.recorded == 5
        assert [e.event for e in trail.events] == ["e2", "e3", "e4"]
        assert [e.event for e in trail.since(mark)] == ["e2", "e3", "e4"]
        assert [e.event for e in trail.since(4)] == ["e4"]
        assert trail.since(5) == []
        assert [e.event for e in trail.for_process("p")] == ["e2", "e3", "e4"]

    def test_since_counts_across_clear(self):
        trail = AuditTrail()
        trail.record(0.0, "P", "old")
        mark = trail.recorded
        trail.clear()
        trail.record(1.0, "P", "new")
        assert [e.event for e in trail.since(mark)] == ["new"]

    def test_engine_trail_stays_within_capacity(self):
        client = make_client()
        trail = client.engine.audit
        per_run = 0
        while trail.recorded <= audit.AUDIT_CAPACITY:
            client.run_process("P", {"X": 1})
            per_run = per_run or trail.recorded
        assert len(trail) == audit.AUDIT_CAPACITY
        assert trail.events[-1].event == "process finished"
        assert [e.event for e in trail.since(trail.recorded - per_run)] == [
            e.event for e in list(trail.events)[-per_run:]
        ]


class TestInstanceAdministration:
    def test_instances_recorded_with_ids(self):
        client = make_client()
        client.run_process("P", {"X": 1})
        client.run_process("P", {"X": 2})
        instances = client.instances()
        assert [i.instance_id for i in instances] == [1, 2]

    def test_instance_lookup_by_id(self):
        client = make_client()
        run = client.run_process("P", {"X": 5})
        fetched = client.instance(run.instance_id)
        assert fetched is run
        with pytest.raises(WorkflowError):
            client.instance(999)

    def test_filter_by_name_and_state(self):
        from repro.wfms.instance import ProcessState

        client = make_client()
        client.run_process("P", {"X": 1})
        assert len(client.instances(name="P")) == 1
        assert len(client.instances(name="Other")) == 0
        assert len(client.instances(state=ProcessState.FINISHED)) == 1
        assert len(client.instances(state=ProcessState.FAILED)) == 0

    def test_history_is_bounded(self):
        from repro.wfms.engine import WorkflowEngine

        client = make_client()
        client.engine.INSTANCE_HISTORY_LIMIT = 5
        for index in range(8):
            client.run_process("P", {"X": index})
        instances = client.instances()
        assert len(instances) == 5
        assert instances[-1].instance_id == 8
